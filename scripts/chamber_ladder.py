"""Chamber ladder: weyl_chambers times on root arrangements and sl(n) stage times.

Usage, from the repository root:

    python scripts/chamber_ladder.py OUT COLUMN [SRC]

imports liecert from SRC (default: this checkout's src/) and writes the
column COLUMN of the JSON file OUT, keeping the file's other columns.
Each change records its pair in a file of its own, so a run never
rewrites another change's record.  Timing a second checkout, for
example the parent commit, gives the before/after pair:

    python scripts/chamber_ladder.py BENCH_13.json parent /path/to/parent/src
    python scripts/chamber_ladder.py BENCH_13.json change

A column holds its provenance (commit, Python and sympy versions, core
count) and three tables:

- `arrangements`: the median of 3 `weyl_chambers` runs on the positive
  roots of A3-A6, B3, C3, BC2 and G2, each with the chamber count and a
  sha256 of the returned ChamberSet's repr, so that equal digests across
  columns mean identical chambers, order, signs and samples;
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
  elements, certificates and reports.

The script is a measurement, not a test; no test runs it.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 3
# the largest sl(n) whose chamber sweep is timed
SWEEP_MAX = 7


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


def _sl_basis(n):
    """sl(n, R): the diagonal differences E_ii - E_i+1,i+1, then every E_ij, i != j."""

    def unit(entries):
        return tuple(
            tuple(F(entries.get((r, c), 0)) for c in range(n)) for r in range(n)
        )

    diag = [unit({(i, i): 1, (i + 1, i + 1): -1}) for i in range(n - 1)]
    return tuple(diag + [unit({(i, j): 1}) for i in range(n) for j in range(n) if i != j])


def _sl_regular(n):
    """diag(n-1, n-3, ..., 1-n) in the coordinates of `_sl_basis(n)`."""
    d = [n - 1 - 2 * i for i in range(n)]
    return tuple(F(sum(d[: i + 1])) for i in range(n - 1)) + (F(0),) * (n * n - n)


def _timed(times: dict, stage: str, fn, *args):
    """fn(*args), its seconds recorded as times[stage]."""
    start = time.perf_counter()
    result = fn(*args)
    times[stage] = time.perf_counter() - start
    return result


def _medians(runs: list[dict]) -> dict:
    """Each stage's median over the runs, in seconds."""
    return {stage: round(statistics.median(r[stage] for r in runs), 4) for stage in runs[0]}


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()


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
        build_example,
        cartan,
        catalog_names,
        check_anosov,
        classify,
        find_anosov_elements,
        lie_algebra_from_matrices,
    )

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
            g = lie_algebra_from_matrices(_sl_basis(n))
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

    doc = json.loads(out.read_text()) if out.exists() else {}
    doc[column] = {
        "provenance": _provenance(src),
        "arrangements": arrangements,
        "sl": ladder,
        "catalog": catalog,
    }
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
