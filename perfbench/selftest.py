"""Tests of the benchmark itself.

    python3 perfbench/selftest.py

Takes about a minute: two short benchmark runs in child processes, the
rest in-process on the cheapest items.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
import unittest
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, CatalogCli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


class InputTests(unittest.TestCase):
    def test_same_seed_same_digest(self):
        for name, cls in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(cls(7).digest(), cls(7).digest())
                self.assertNotEqual(cls(7).digest(), cls(8).digest())


class OracleTests(unittest.TestCase):
    def cheap_items(self):
        w = CatalogCli(0)
        return [it for it in w.items if it.key.startswith("sl2-geodesic/")]

    def test_clean_items_pass(self):
        tally = run.fixed_phase(self.cheap_items(), tracing.NullTracer())
        self.assertEqual(tally.failures, [])

    def test_wrong_expectation_is_counted_not_fatal(self):
        items = self.cheap_items()
        by_key = {it.key: it for it in items}
        by_key["sl2-geodesic/classify"].expect["case"] = "solvable"
        by_key["sl2-geodesic/roots"].expect["rc"] = 3
        tally = run.fixed_phase(items + items, tracing.NullTracer())
        self.assertEqual(tally.attempted, 2 * len(items))
        self.assertEqual(len(tally.failures), 4)

    def test_crashing_item_is_counted_not_fatal(self):
        items = self.cheap_items()

        def boom(tr):
            raise ValueError("planted")

        items[0].run = boom
        tally = run.fixed_phase(items, tracing.NullTracer())
        self.assertEqual(tally.attempted, len(items))
        self.assertEqual(len(tally.failures), 1)
        self.assertIn("planted", tally.failures[0])


class SpeedTests(unittest.TestCase):
    def test_time_between_probes_is_scaled_by_them(self):
        meter = speed.Speedometer()
        ref = speed.REF_KERNEL_S
        meter.probes = [(0.0, 1.0, ref), (2.0, 2.5, 3 * ref), (4.0, 5.0, ref)]
        meter.smoothed = [ref, 3 * ref, ref]
        self.assertEqual(meter.measure(1.0, 2.0), (1.0, 0.5))
        raw, scaled = meter.measure(1.5, 4.5)  # spans a probe: its time is left out
        self.assertAlmostEqual(raw, 2.0)
        self.assertAlmostEqual(scaled, 0.25 + 0.75)

    def test_a_single_slow_probe_is_smoothed_away(self):
        ref = speed.REF_KERNEL_S
        kernels = iter([ref, ref, ref, 10 * ref, ref, ref, ref])
        real_probe, speed.probe = speed.probe, lambda: next(kernels)
        try:
            with speed.Speedometer() as meter:
                for _ in range(5):
                    meter._probe()
        finally:
            speed.probe = real_probe
        self.assertEqual(meter.smoothed, [ref] * 7)

    def test_timer_probes_while_entered(self):
        with speed.Speedometer() as meter:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 3 * speed.PROBE_EVERY_S:
                pass
            t1 = time.perf_counter()
        self.assertGreaterEqual(len(meter.probes), 4)
        raw, scaled = meter.measure(t0, t1)
        self.assertLess(raw, t1 - t0)
        self.assertGreater(scaled, 0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))


class SpecTests(unittest.TestCase):
    def test_spec_matches_code(self):
        self.assertEqual({m["name"]: m["unit"] for m in SPEC["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in SPEC["per_layer"]},
            {name: tracing.unit_of(name) for name in tracing.PER_LAYER},
        )
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(WORKLOADS))


class RunTests(unittest.TestCase):
    def check_output(self, proc, expected: dict):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, unit in expected.items():
            self.assertTrue(any(ln.startswith(f"metric {name} = ") and ln.endswith(f" {unit}")
                                for ln in lines), name)
        self.assertTrue(any(ln.startswith("fail_ratio: 0/") for ln in lines))
        self.assertTrue(any(ln.startswith("provenance ") for ln in lines))

    def test_untraced_run_prints_end_to_end_metrics(self):
        proc = bench("--workload", "catalog-cli", "--seed", "3", "--seconds", "0", "--trace", "0")
        self.check_output(proc, run.END_TO_END)

    def test_traced_run_prints_per_layer_metrics(self):
        proc = bench("--workload", "catalog-cli", "--seed", "3", "--seconds", "0", "--trace", "1")
        self.check_output(proc, {n: tracing.unit_of(n) for n in tracing.PER_LAYER})
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        self.assertEqual(metrics["cli.main.calls"]["value"], 48)
        self.assertEqual(metrics["cli.exit.3.count"]["value"], 4)
        self.assertTrue((PERFBENCH / "out" / "spans-catalog-cli-seed3.jsonl").is_file())

    def test_fails_without_sources(self):
        bare = PERFBENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(PERFBENCH, bare / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
            proc = bench("--workload", "catalog-cli", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
