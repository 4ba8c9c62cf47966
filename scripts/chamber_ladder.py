"""Chamber ladder: weyl_chambers, sl(n) stage and structure-theory times.

Usage, from the repository root:

    python scripts/chamber_ladder.py OUT COLUMN [SRC]

imports liecert from SRC (default: this checkout's src/) and writes the
column COLUMN of the JSON file OUT, keeping the file's other columns.
Each change records its pair in a file of its own, so a run never
rewrites another change's record.  Timing a second checkout, for
example the parent commit, gives the before/after pair:

    python scripts/chamber_ladder.py BENCH_13.json parent /path/to/parent/src
    python scripts/chamber_ladder.py BENCH_13.json change

The sl(n) bases come from SRC's `liecert.sl_basis`; a checkout without
it is timed with that checkout's own copy of this script.

A column holds its provenance (commit, Python and sympy versions, core
count) and five tables:

- `arrangements`: the median of 3 `weyl_chambers` runs on the positive
  roots of A3-A6, B3, C3, BC2 and G2, which cross walls, and on the B2
  near-miss (B2's positive roots with (1, 2) moved to (1, 3)), which is
  no root system and takes the Fourier-Motzkin search, each with the
  chamber count and a sha256 of the returned ChamberSet's repr, so that
  equal digests across columns mean identical chambers, order, signs and
  samples;
- `sl`: for sl(n, R), n = 3..7, built from matrices, the median of 3
  runs of each stage: `cartan_subspace`, `restricted_roots` on it,
  `weyl_chambers` and one `check_anosov` of diag(n-1, n-3, ..., 1-n),
  each run on a freshly built algebra, with a sha256 of the repr of that
  certificate (`anosov_digest`), of the rows of the Cartan subspace
  (`cartan_digest`) and of the repr of its RootSystem (`roots_digest`),
  so that equal digests mean identical root data, not only identical
  chambers; for n <= 7 (`SWEEP_MAX`) also `find_anosov_elements` on the
  Cartan subspace, one certificate per chamber, and `classify` of that
  action, each with a sha256 of the repr of what it returns
  (`search_digest`, `classify_digest`);
- `catalog`: for each catalog example, the median of 3 runs of
  `find_anosov_elements` and then `classify` on a freshly built action,
  with the same two digests, so that equal digests mean identical
  elements, certificates and reports;
- `nilradical`: the median of 3 runs of each of `nilradical`,
  `radical`, `find_csa` and `is_csa` of that Cartan subalgebra, each
  run on a freshly built algebra, so that the nilradical's time
  includes the radical unless the builder has memoised it (some catalog
  builders do), with the dimension of the algebra and of the
  nilradical, a sha256 of the canonical basis rows of the nilradical
  (`digest`), of the radical (`radical_digest`) and of the Cartan
  subalgebra (`csa_digest`), and the `is_csa` verdict, on `NIL_PER_DIM`
  seeded solvable closures of each dimension 4-6 (drawn by
  `perfbench/inputs.py`'s `random_solvable` from
  `random.Random(NIL_SEED)`, named `solvable<dim>-<i>`), on every
  catalog algebra and on sl(2) x| Q^2 (`sl2-plane`), whose radical is
  [g, radical];
- `cli`: for sl(n, R), n = 3..7, with the Cartan subspace as its flow,
  `liecert anosov` and `liecert classify` run RUNS times each as a child
  process on a document written by SRC's `serialize_document`, with the
  median wall time (`wall_s`) and peak resident set size (`peak_rss_mb`,
  from `os.wait4` of that child: `RUSAGE_CHILDREN` would keep the
  largest of all earlier children), the exit code, the bytes of stdout
  and its sha256 (`digest`), so that equal digests mean byte-identical
  reports.

The script is a measurement, not a test; no test runs it.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
# the largest sl(n) whose chamber sweep is timed
SWEEP_MAX = 7
# solvable closures per dimension in the nilradical table, and their seed
NIL_PER_DIM = 5
NIL_SEED = 7


def _arrangements():
    def a(rank):
        return [
            tuple(int(i <= c <= j) for c in range(rank))
            for i in range(rank)
            for j in range(i, rank)
        ]

    return {
        "A3": a(3),
        "A4": a(4),
        "A5": a(5),
        "A6": a(6),
        "B3": [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
            (1, 1, 1), (0, 1, 2), (1, 1, 2), (1, 2, 2),
        ],
        "C3": [
            (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (0, 1, 1),
            (1, 1, 1), (0, 2, 1), (1, 2, 1), (2, 2, 1),
        ],
        "BC2": [(1, 0), (0, 1), (2, 0), (0, 2), (1, 1), (1, -1)],
        "G2": [(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)],
        "B2-near-miss": [(1, 0), (0, 1), (1, 1), (1, 3)],
    }


def _root_system(cartan, positive):
    """The arrangement +-v, v in positive, over the standard base of Q^k."""
    k = len(positive[0])
    roots = []
    for v in positive:
        for s in (1, -1):
            w = tuple(F(s * x) for x in v)
            roots.append(
                cartan.RootInfo(1, (), w, None, tuple((float(x), 0.0) for x in w), True)
            )
    base = tuple(tuple(F(int(i == j)) for j in range(k)) for i in range(k))
    return cartan.RootSystem(base, tuple(roots), True, ())


def _sl2_plane():
    """sl(2) x| Q^2 as 3x3 matrices: h, e, f, then the two translations."""

    def m(*rows):
        return tuple(tuple(F(x) for x in row) for row in rows)

    z = (0, 0, 0)
    return (
        m((1, 0, 0), (0, -1, 0), z),
        m((0, 1, 0), z, z),
        m(z, (1, 0, 0), z),
        m((0, 0, 1), z, z),
        m(z, (0, 0, 1), z),
    )


def _sl_regular(n):
    """diag(n-1, n-3, ..., 1-n) in the coordinates of `sl_basis(n)`."""
    d = [n - 1 - 2 * i for i in range(n)]
    return tuple(F(sum(d[: i + 1])) for i in range(n - 1)) + (F(0),) * (n * n - n)


def _timed(times: dict, stage: str, fn, *args):
    """fn(*args), its seconds recorded as times[stage]."""
    start = time.perf_counter()
    result = fn(*args)
    times[stage] = time.perf_counter() - start
    return result


def _medians(runs: list[dict], digits: int = 4) -> dict:
    """Each stage's median over the runs, in seconds."""
    return {stage: round(statistics.median(r[stage] for r in runs), digits) for stage in runs[0]}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _cli_run(src: Path, argv: list[str]) -> dict:
    """One `liecert` child run on SRC: its wall time, peak RSS, exit code,
    and the size and sha256 of its stdout, which is hashed as it arrives."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "liecert.cli", *argv], stdout=subprocess.PIPE, env=env
    )
    digest, size = hashlib.sha256(), 0
    while chunk := proc.stdout.read(1 << 20):
        digest.update(chunk)
        size += len(chunk)
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024,  # kilobytes on Linux
        "exit": proc.returncode,
        "bytes": size,
        "digest": digest.hexdigest(),
    }


def _cli_table(src: Path, column: str, document) -> dict:
    """The `cli` table: `anosov` and `classify` on sl(n), n = 3..SWEEP_MAX."""
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in range(3, SWEEP_MAX + 1):
            path = Path(tmp, f"sl{n}.json")
            path.write_text(document(n))
            for command in ("anosov", "classify"):
                runs = [_cli_run(src, [command, "--input", str(path)]) for _ in range(RUNS)]
                if len({(r["exit"], r["digest"]) for r in runs}) != 1:
                    raise RuntimeError(f"sl({n}) {command}: runs differ")
                row = {k: runs[0][k] for k in ("exit", "bytes", "digest")}
                for k in ("wall_s", "peak_rss_mb"):
                    row[k] = round(statistics.median(r[k] for r in runs), 3)
                table[f"sl{n}/{command}"] = row
                print(f"{column} sl({n}) {command}: {row}", file=sys.stderr)
    return table


def _provenance(src: Path) -> dict:
    import sympy

    def git(*args):
        run = subprocess.run(["git", *args], cwd=src, capture_output=True, text=True)
        return run.stdout.strip() if run.returncode == 0 else None

    commit = git("rev-parse", "HEAD")
    if commit and git("status", "--porcelain", "--untracked-files=no", "--", "."):
        commit += "-dirty"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "runs": RUNS,
    }


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    out, column = Path(argv[0]), argv[1]
    src = Path(argv[2] if len(argv) == 3 else ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    from liecert import (
        ActionSpec,
        Subspace,
        algebra_to_document,
        build_example,
        cartan,
        catalog_names,
        check_anosov,
        classify,
        find_anosov_elements,
        lie_algebra_from_matrices,
        nilradical,
        radical,
        serialize_document,
        sl_basis,
    )

    def sl_document(n: int) -> str:
        g = lie_algebra_from_matrices(sl_basis(n))
        flow = cartan.cartan_subspace(g).basis
        return serialize_document(algebra_to_document(g, {"flow": flow}, f"sl{n}"))

    cli = _cli_table(src, column, sl_document)

    arrangements = {}
    for name, positive in _arrangements().items():
        rs = _root_system(cartan, positive)
        runs = []
        for _ in range(RUNS):
            times = {}
            chambers = _timed(times, "weyl_chambers_s", cartan.weyl_chambers, rs)
            runs.append(times)
        arrangements[name] = {
            "chambers": chambers.count,
            "digest": _digest(chambers),
            **_medians(runs),
        }
        print(f"{column} {name}: {arrangements[name]}", file=sys.stderr)

    ladder = {}
    for n in range(3, 8):
        # each run builds a fresh algebra: it caches its radical and Killing form
        runs = []
        for _ in range(RUNS):
            g = lie_algebra_from_matrices(sl_basis(n))
            times = {}
            a = _timed(times, "cartan_subspace_s", cartan.cartan_subspace, g)
            rs = _timed(times, "restricted_roots_s", cartan.restricted_roots, g, a)
            chambers = _timed(times, "weyl_chambers_s", cartan.weyl_chambers, rs)
            action = ActionSpec(g, a)
            cert = _timed(times, "check_anosov_s", check_anosov, action, _sl_regular(n))
            if n <= SWEEP_MAX:
                found = _timed(times, "find_anosov_elements_s", find_anosov_elements, action)
                report = _timed(times, "classify_s", classify, action)
            runs.append(times)
        ladder[f"sl{n}"] = {
            "dim": g.dim,
            "chambers": chambers.count,
            "accepted": cert.accepted,
            "digest": _digest(chambers),
            "anosov_digest": _digest(cert),
            "cartan_digest": _digest(a.basis),
            "roots_digest": _digest(rs),
            **(
                {
                    "found": len(found),
                    "search_digest": _digest(found),
                    "classify_digest": _digest(report),
                }
                if n <= SWEEP_MAX
                else {}
            ),
            **_medians(runs),
        }
        print(f"{column} sl({n}): {ladder[f'sl{n}']}", file=sys.stderr)

    catalog = {}
    for name in catalog_names():
        runs = []
        for _ in range(RUNS):
            action = build_example(name)
            times = {}
            found = _timed(times, "find_anosov_elements_s", find_anosov_elements, action)
            report = _timed(times, "classify_s", classify, action)
            runs.append(times)
        catalog[name] = {
            "found": len(found),
            "search_digest": _digest(found),
            "classify_digest": _digest(report),
            **_medians(runs),
        }
        print(f"{column} {name}: {catalog[name]}", file=sys.stderr)

    sys.path.insert(0, str(ROOT))
    from perfbench.inputs import random_solvable  # seeded draws, independent of liecert

    rng = random.Random(NIL_SEED)
    builds = {}
    for dim in (4, 5, 6):
        for i in range(NIL_PER_DIM):
            mats = random_solvable(rng, dim).mats
            builds[f"solvable{dim}-{i}"] = functools.partial(lie_algebra_from_matrices, mats)
    for name in catalog_names():
        builds[name] = lambda name=name: build_example(name).ambient
    builds["sl2-plane"] = functools.partial(lie_algebra_from_matrices, _sl2_plane())
    nil_table = {}
    for name, build in builds.items():
        runs = []
        for _ in range(RUNS):
            g = build()
            times = {}
            nil = _timed(times, "nilradical_s", nilradical, g)
            rad = _timed(times, "radical_s", radical, build())
            csa = _timed(times, "find_csa_s", cartan.find_csa, build())
            fresh = build()
            is_csa = _timed(times, "is_csa_s", cartan.is_csa, fresh, Subspace(fresh, csa.basis))
            runs.append(times)
        nil_table[name] = {
            "dim": g.dim,
            "nilradical": nil.dim,
            "digest": _digest(nil.basis),
            "radical_digest": _digest(rad.basis),
            "csa_digest": _digest(csa.basis),
            "is_csa": is_csa,
            **_medians(runs, 6),
        }
        print(f"{column} {name}: {nil_table[name]}", file=sys.stderr)

    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[column] = {
        "provenance": _provenance(src),
        "arrangements": arrangements,
        "sl": ladder,
        "catalog": catalog,
        "nilradical": nil_table,
        "cli": cli,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
