"""Every function of the package is reached by some command line.

`cli.main` runs in-process under `sys.setprofile` over the catalog and
over ten documents built here, each of which reaches a path that the
catalog does not (see `_documents`).  On the catalog the runs are
`build`, the six report commands in both formats, `anosov --h0` on the
first flow row, `catalog` and one malformed command line; on each test
document they are the six report commands in JSON.  A function or
method defined in src/liecert whose code no run enters fails the test,
unless it is a dunder or an entry of `EXEMPT`, which names why no
command needs to reach it.  Delete what stays dark, or give it a caller.

The same runs check robustness: no report command on a test document
ends in `cli.main`'s catch-all (stderr starting "error:"), and a second
run prints the same bytes.

To list every unreached function with its line count, exemptions
included:

    PYTHONPATH=src python tests/test_reachability.py
"""

import ast
import functools
import importlib
import io
import json
import pathlib
import sys
from fractions import Fraction as F

from liecert import (
    ActionSpec,
    LieAlgebra,
    action_to_document,
    algebra_to_document,
    build_heisenberg_starkov,
    build_suspension,
    build_weyl_chamber,
    catalog_names,
    direct_sum,
    lie_algebra_from_matrices,
    serialize_document,
    sl_basis,
)
from liecert.cli import main
from test_anosov import _span, _tilted_so13, sl2, sl2_semidirect_plane, so3

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecert"
REPORTS = ("validate", "analyze", "csa", "roots", "anosov", "classify")

# (module, qualified name) -> why no command line needs to reach it
EXEMPT = {
    ("algebra", "_bad"): "guards the shape of a dense table passed "
    "to the library; a document's table is built from sparse entries",
    ("anosov", "action_csa"): "library API, pinned by "
    "test_acceptance.py::test_universal_certificate_properties",
    ("cartan", "csa_from_action"): "the body of action_csa",
    ("anosov", "derived_ideal_check"): "library API, pinned by "
    "test_acceptance.py::test_universal_certificate_properties",
    ("anosov", "is_codimension_one"): "library API, pinned by "
    "test_acceptance.py::test_golden_sl2_geodesic",
    ("anosov", "nil_suspension_check"): "library API, pinned by "
    "test_acceptance.py; no report field reads it yet",
    ("algebra", "Quotient.push"): "read by nil_suspension_check alone",
    ("cartan", "engel_subalgebra"): "library API, pinned by "
    "test_acceptance.py::test_engel_minimality_brute_force",
    ("algebra", "center"): "library API named in README.md",
    ("builders", "build_modified_weyl"): "library API named in README.md",
    ("spectral", "spectral_gap"): "library API named in README.md, and "
    "profiled by name in perfbench/tracing.py",
    ("linalg", "in_span"): "profiled by name in perfbench/tracing.py",
    ("poly", "RationalPolynomial.monic"): "the monic form of a constant, and "
    "no command makes a constant monic",
}


def _document(g, **subspaces) -> str:
    rows = {key: tuple(tuple(map(F, r)) for r in span) for key, span in subspaces.items()}
    return serialize_document(algebra_to_document(g, rows))


def _action(action: ActionSpec) -> str:
    return serialize_document(action_to_document(action))


@functools.cache
def _documents() -> dict[str, str]:
    """Ten action documents; each comment names paths that it reaches and the catalog does not."""
    g = sl2()
    sl3 = lie_algebra_from_matrices(sl_basis(3))
    plane = sl2_semidirect_plane()
    starkov = direct_sum(sl2(), build_heisenberg_starkov().ambient)
    so3r = direct_sum(so3(), LieAlgebra.from_entries(1, ()))
    return {
        # the inexact gap bisection of an irrational spectrum
        "cat-map": _action(build_suspension([[[1, 1], [1, 0]]])),
        # classify's mixed branch, quotient_by_ideal, Levi over an abelian radical
        "sl2-plane": _action(ActionSpec(plane, _span(plane, 0))),
        # Levi over a non-abelian radical
        "sl2-starkov": _action(ActionSpec(starkov, _span(starkov, 0))),
        # a frame outside the flow, complex flow weights, sympy's factor loop
        "tilted-so13": _action(_tilted_so13()),
        # the inexact restricted roots of the hyperbolic base e + 2f
        "sl2-base": _document(g, flow=[(1, 0, 0)], base=[(0, 1, 2)]),
        # the root-system guard, wall crossing and the Fourier-Motzkin
        # combination of a rank-two root system
        "sl3-chambers": _action(build_weyl_chamber(sl3)),
        # the guard's refusal: on the base 3H1 + 2H2 the roots 5/3, 4/3 and
        # 1/3 are no root system, so `roots` runs the search over signs
        "sl3-base": _document(
            sl3, flow=[(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0)],
            base=[(3, 2, 0, 0, 0, 0, 0, 0)],
        ),
        # a flow that is not nilpotent: ActionCheck.summary, exit 3
        "sl2-ef": _document(g, flow=[(0, 1, 0), (0, 0, 1)]),
        # the reductive branch, Subspace.is_central and the inner correction
        "so3-r": _document(
            so3r, flow=[(1, 0, 0, 1)], isotropy=[(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
        ),
        # the Newton step of the Jordan-Chevalley decomposition, on
        # diag(1, 1, -2) + E_12, whose ad is neither semisimple nor nilpotent
        "sl3-jordan": _document(sl3, flow=[(1, 2, 1, 0, 0, 0, 0, 0)]),
    }


def _run(argv, stdin_text=""):
    """Run the CLI in-process: (exit code, stdout, stderr)."""
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        code = main(argv)
        return code, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved


def _run_all(documents) -> list:
    """Run every command line once: (argv, stdin, (exit code, stdout, stderr))."""
    runs = []

    def run(argv, doc=""):
        result = _run(argv, doc)
        runs.append((argv, doc, result))
        return result

    for name in catalog_names():
        _, doc, _ = run(["build", name])
        for command in REPORTS:
            for fmt in ("json", "text"):
                run([command, "--format", fmt], doc)
        run(["anosov", "--h0", ",".join(json.loads(doc)["subspaces"]["flow"][0])], doc)
    run(["catalog"])
    run(["no-such-command"])
    for doc in documents:
        for command in REPORTS:
            run([command], doc)
    return runs


def _definitions():
    """(module stem, first line) -> (qualified name, lines) of every function
    in the package.  The first line is a decorator's when there is one, as in
    the code object's co_firstlineno."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    name = prefix + child.name
                    out[path.stem, first] = name, child.end_lineno - first + 1
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")

        visit(ast.parse(path.read_text()), "")
    return out


def _clear_caches():
    """Forget what an earlier test memoised, so its callee is entered again."""
    for path in PACKAGE.glob("*.py"):
        module = importlib.import_module(f"liecert.{path.stem}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) == module.__name__ and hasattr(obj, "cache_clear"):
                obj.cache_clear()


@functools.cache
def _trace():
    """(the (module, first line) of every package function entered, the
    runs on the test documents)."""
    documents = list(_documents().values())
    _clear_caches()
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(hook)
    try:
        runs = _run_all(documents)
    finally:
        sys.setprofile(saved)
    reached = {
        (pathlib.Path(c.co_filename).stem, c.co_firstlineno)
        for c in entered
        if pathlib.Path(c.co_filename).parent == PACKAGE
    }
    return reached, [r for r in runs if r[1] in documents]


def unreached():
    """(module, qualified name, lines) of every function no run enters, dunders aside."""
    reached, _ = _trace()
    return [
        (module, name, lines)
        for (module, first), (name, lines) in sorted(_definitions().items())
        if (module, first) not in reached
        and not name.rsplit(".", 1)[-1].startswith("__")
    ]


def test_every_function_is_reached_by_a_command_line():
    dark = [(m, n) for m, n, _ in unreached()]
    assert [d for d in dark if d not in EXEMPT] == []
    # an exemption whose function is now reached, or gone, is stale
    assert sorted(EXEMPT) == sorted(dark)


def test_reports_on_the_test_documents_are_robust():
    _, results = _trace()
    assert len(results) == len(_documents()) * len(REPORTS)
    for argv, doc, (code, out, err) in results:
        assert not err.startswith("error:"), (argv, err)
        assert _run(argv, doc) == (code, out, err), argv


if __name__ == "__main__":
    total = 0
    for module, name, lines in unreached():
        tag = "  (exempt)" if (module, name) in EXEMPT else ""
        print(f"{module}.py: {name} ({lines} lines){tag}")
        total += lines
    print(f"{len(unreached())} functions, {total} lines")
