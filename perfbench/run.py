"""liecert benchmark: one workload, one seed, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; liecert is imported from its `src/`.
Workloads and the reason each exists are listed in BENCHMARK.json.

Set-up runs three times: a fresh interpreter imports liecert (a child
process, waited for), then the inputs are generated from the seed and one
untimed warm-up item runs; `setup_s` is the median of the three.  With
`--trace 0` whole passes of items run until `--seconds` have elapsed (a
closed loop: the next item starts when the previous one returns) and the
end-to-end metrics are reported.  Every end-to-end time is scaled to a
reference host speed measured by a probe kernel that interrupts the work
four times a second (see speed.py); the raw figures are printed too.  With
`--trace 1` a fixed list of items runs twice, first untraced and then
with spans, `cProfile` and result probes, and the per-layer metrics are
reported; spans are written to perfbench/out/ as JSON lines.

Every item is checked by an oracle; a failed check or an exception
counts as a failed item and the run goes on.  Human-readable lines come
first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "peak_rss_mb": "MB",
}


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _why(workload: str) -> str:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == workload)


def run_item(item, tracer) -> tuple[float, float, str | None]:
    """Time one item and check it; returns (start, end, failure or None)."""
    tracer.begin_item(item.key)
    t0 = time.perf_counter()
    try:
        res = item.run(tracer)
    except Exception as exc:  # a crashing item is a failed item, not a failed run
        res = exc
    t1 = time.perf_counter()
    tracer.end_item()
    if isinstance(res, Exception):
        return t0, t1, f"raised {type(res).__name__}: {res}"
    return t0, t1, item.check(res)


class Tally:
    def __init__(self):
        self.spans: list[tuple[float, float]] = []
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.scaled: list[float] = []  # latencies at reference speed
        self.probes: list[float] = []  # probe kernel times, in seconds

    def add(self, key: str, t0: float, t1: float, problem: str | None) -> None:
        self.spans.append((t0, t1))
        self.latencies.append(t1 - t0)
        if problem is not None:
            self.failures.append(f"{key}: {problem}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def items_per_s(self) -> float:
        return self.attempted / sum(self.latencies)

    @property
    def scaled_items_per_s(self) -> float:
        return self.attempted / sum(self.scaled)


def timed_phase(workload, seconds: float, tracer) -> Tally:
    """Whole passes until `seconds` have elapsed, under the speed probe.

    Latencies leave out the probes' own time; `scaled` holds them at
    reference speed.
    """
    tally = Tally()
    with speed.Speedometer() as meter:
        start = time.perf_counter()
        for items in workload.passes():
            for item in items:
                tally.add(item.key, *run_item(item, tracer))
            if time.perf_counter() - start >= seconds:
                break
    measured = [meter.measure(t0, t1) for t0, t1 in tally.spans]
    tally.latencies = [raw for raw, _ in measured]
    tally.scaled = [scaled for _, scaled in measured]
    tally.probes = meter.kernel_times()
    return tally


def fixed_phase(items, tracer) -> Tally:
    tally = Tally()
    for item in items:
        tally.add(item.key, *run_item(item, tracer))
    return tally


IMPORT_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import liecert, liecert.cli, numpy; print(time.perf_counter() - t0)"
)


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to import liecert."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


def setup(workload_cls, seed: int, tracer):
    """Import liecert in a fresh interpreter, generate inputs, run one warm-up item.

    Returns the workload, the raw seconds and the seconds at reference
    speed, each step scaled by the probes on either side of it.
    """
    k0 = speed.probe()
    imp = child_import_s()
    k1 = speed.probe()
    t0 = time.perf_counter()
    w = workload_cls(seed)
    run_item(next(iter(w.passes()))[0], tracer)
    dt = time.perf_counter() - t0
    k2 = speed.probe()
    scaled = speed.to_reference(imp, (k0 + k1) / 2) + speed.to_reference(dt, (k1 + k2) / 2)
    return w, imp + dt, scaled


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "liecert" / "__init__.py").is_file():
        print(f"perfbench: no liecert sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import liecert
    import liecert.cli  # noqa: F401
    import numpy  # liecert imports it lazily, on first use
    import_s = time.perf_counter() - t0
    if Path(liecert.__file__).resolve().parent != SRC / "liecert":
        print(f"perfbench: imported liecert from {liecert.__file__}", file=sys.stderr)
        return 2

    import sympy
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choices: {', '.join(WORKLOADS)}")
    workload_cls = WORKLOADS[args.workload]
    null = tracing.NullTracer()

    setups = [setup(workload_cls, args.seed, null) for _ in range(SETUP_REPEATS)]
    workload = setups[-1][0]
    raw_setup_s = statistics.median(raw for _, raw, _ in setups)
    setup_s = statistics.median(scaled for _, _, scaled in setups)

    provenance = {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": _why(args.workload),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    print(f"inputs {args.workload} seed={args.seed} sha256={workload.digest()}")

    notes: list[str] = []
    if args.trace == 0:
        tally = timed_phase(workload, args.seconds, null)
        raw, lat = tally.latencies, tally.scaled
        p90 = _p90(lat)
        above = sum(1 for x in lat if x > p90)
        values = {
            "setup_s": setup_s,
            "items_per_s": tally.scaled_items_per_s,
            "latency_p50_s": statistics.median(lat),
            "latency_p90_s": p90,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
        notes.append(f"items_per_s: {tally.attempted} items of {args.workload} "
                     f"in {sum(lat):.3f} s of item time at reference speed")
        k = tally.probes
        notes.append(f"host speed: probe kernel median {statistics.median(k) * 1e3:.3f} ms, "
                     f"range {min(k) * 1e3:.3f}-{max(k) * 1e3:.3f} ms, "
                     f"reference {speed.REF_KERNEL_S * 1e3:g} ms")
        notes.append(f"raw (unscaled): setup_s {raw_setup_s:.4f}, items_per_s {tally.items_per_s:.4f}, "
                     f"latency_p50_s {statistics.median(raw):.4f}, latency_p90_s {_p90(raw):.4f}")
        notes.append(f"latency: {len(lat)} samples, {above} above p90"
                     + ("" if above >= 10 else " (fewer than 10: p90 is indicative only)"))
    else:
        items = workload.trace_items()
        plain = fixed_phase(items, null)
        tracer = tracing.SpanTracer()
        probes = tracing.Probes()
        probes.install()
        try:
            traced = fixed_phase(items, tracer)
        finally:
            probes.restore()
        out = PERFBENCH / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(out)
        notes.append(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        notes.append(f"traced run: the same {len(items)} items untraced, then traced")
        values = per_layer_values(import_s, plain, traced, tracer, probes)
        metrics = {name: (values[name], tracing.unit_of(name)) for name in tracing.PER_LAYER}
        tally = Tally()
        tally.latencies = plain.latencies + traced.latencies
        tally.failures = plain.failures + traced.failures

    failed = len(tally.failures)
    notes.append(f"fail_ratio: {failed}/{tally.attempted} = {failed / tally.attempted}")
    for f in tally.failures[:20]:
        print(f"FAILED {f}", file=sys.stderr)
    for line in notes:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _p90(lat: list[float]) -> float:
    return statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]


def per_layer_values(import_s: float, plain: Tally, traced: Tally, tracer, probes) -> dict:
    import tracing

    v = tracing.layer_values(tracer, probes)
    v["setup.import_s"] = import_s
    v["trace.items_per_s_untraced"] = plain.items_per_s
    v["trace.items_per_s_traced"] = traced.items_per_s
    v["trace.overhead_items_per_s"] = plain.items_per_s - traced.items_per_s
    return v


if __name__ == "__main__":
    sys.exit(main())
