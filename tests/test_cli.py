"""Exit codes, determinism, and the document pipeline."""

import argparse
import io
import json
import os
import subprocess
import sys
import time

import pytest

import liecert
from liecert import action_to_document, build_suspension, check_anosov, serialize_document
from liecert.cli import build_parser, main
from liecert.documents import MAX_CONSTANT_DIGITS, MAX_DIM

SL2_DOC = json.dumps(
    {
        "format_version": "1",
        "dim": 3,
        "basis_labels": ["h", "e", "f"],
        "structure_constants": [
            [0, 1, 1, "2", "1"],
            [0, 2, 2, "-2", "1"],
            [1, 2, 0, "1", "1"],
        ],
        "subspaces": {"flow": [["1", "0", "0"]]},
    }
)

# [x, z] = x with [y, z] = 0 breaks the Jacobi identity
BROKEN_DOC = json.dumps(
    {
        "format_version": "1",
        "dim": 3,
        "structure_constants": [[0, 1, 2, "1", "1"], [0, 2, 0, "1", "1"]],
    }
)


def run(argv, stdin_text, monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- exit codes --------------------------------------------------------------------


def test_validate_ok(monkeypatch, capsys):
    code, out, _ = run(["validate"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["valid"] is True
    assert obj["result"]["dim"] == 3


def test_validate_negative(monkeypatch, capsys):
    code, out, _ = run(["validate"], BROKEN_DOC, monkeypatch, capsys)
    assert code == 1
    obj = json.loads(out)
    assert obj["result"]["valid"] is False
    assert obj["result"]["jacobi_failures"]


def test_anosov_accepts_element(monkeypatch, capsys):
    code, out, _ = run(
        ["anosov", "--h0", "1,0,0"], SL2_DOC, monkeypatch, capsys
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["accepted"] is True
    assert obj["result"]["unstable_dim"] == 1


def test_anosov_refuses_zero_element(monkeypatch, capsys):
    code, out, _ = run(
        ["anosov", "--h0", "0,0,0"], SL2_DOC, monkeypatch, capsys
    )
    assert code == 1
    assert json.loads(out)["result"]["accepted"] is False


def test_anosov_search_succeeds(monkeypatch, capsys):
    code, out, _ = run(["anosov"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    assert len(json.loads(out)["result"]["found"]) == 2


def test_anosov_search_inconclusive(monkeypatch, capsys):
    doc = serialize_document(
        action_to_document(build_suspension([[[0, 0], [0, 0]]]))
    )
    code, out, _ = run(
        ["anosov", "--budget", "20"], doc, monkeypatch, capsys
    )
    assert code == 2
    assert json.loads(out)["result"]["found"] == []


def test_classify_ok(monkeypatch, capsys):
    code, out, _ = run(["classify"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["result"]["case"] == "semisimple"


def test_classify_inconclusive(monkeypatch, capsys):
    doc = serialize_document(
        action_to_document(build_suspension([[[0, 0], [0, 0]]]))
    )
    code, out, _ = run(["classify", "--budget", "20"], doc, monkeypatch, capsys)
    assert code == 2
    assert json.loads(out)["result"]["case"] is None


def test_bad_json_is_input_error(monkeypatch, capsys):
    code, _, err = run(["validate"], "{nope", monkeypatch, capsys)
    assert code == 3
    assert "input error" in err


@pytest.mark.parametrize("where", ["json-integer", "rational-string"])
def test_oversized_number_is_input_error(monkeypatch, capsys, where):
    # 5000 digits: past the interpreter's 4300-digit limit for int(str)
    big = "7" * 5000
    doc = json.loads(SL2_DOC)
    if where == "json-integer":
        text = SL2_DOC.replace('"dim": 3', f'"dim": {big}')
    else:
        doc["structure_constants"][0][3] = f"1/{big}"
        text = json.dumps(doc)
    code, out, err = run(["validate"], text, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ")
    if where == "rational-string":
        # the message quotes a bounded prefix, not the 5000-digit string
        assert err.count("\n") <= 1
        assert len(err.encode()) < 300


@pytest.mark.parametrize("where", ["h0", "flow", "structure-constant"])
def test_huge_exponent_is_input_error_at_once(monkeypatch, capsys, where):
    # a few characters that stand for thousands or millions of digits
    doc = json.loads(SL2_DOC)
    argv = ["validate"]
    if where == "h0":
        argv = ["anosov", "--h0", "1e10000000,0,0"]
    elif where == "flow":
        doc["subspaces"]["flow"][0][0] = "1e10000000"
    else:
        doc["structure_constants"][0][3] = "1e5000"
    start = time.perf_counter()
    code, out, err = run(argv, json.dumps(doc), monkeypatch, capsys)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith("input error: ")
    assert "bad rational" in err


def test_oversized_dim_is_input_error(monkeypatch, capsys):
    def no_table(doc):
        raise AssertionError("table built for an oversized dim")

    monkeypatch.setattr("liecert.cli.document_to_algebra", no_table)
    doc = json.dumps({"format_version": "1", "dim": MAX_DIM + 1})
    code, out, err = run(["validate"], doc, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert "exceeds the maximum" in err


def _digits_document(total: int) -> str:
    """A dim-5 document whose constants have `total` decimal digits in all.

    The digits sit in numerators of at most 4000 digits, below the
    interpreter's limit for one integer; every denominator is 1.
    """
    slots = [(i, j, k) for i in range(5) for j in range(i + 1, 5) for k in range(5)]
    entries = []
    left = total
    for i, j, k in slots:
        if left <= 1:
            break
        digits = min(4000, left - 1)
        entries.append([i, j, k, "7" * digits, "1"])
        left -= digits + 1
    assert left == 0, "the slots hold too few digits"
    return json.dumps({"format_version": "1", "dim": 5, "structure_constants": entries})


def test_constant_digits_just_under_the_cap_are_accepted(monkeypatch, capsys):
    code, out, err = run(["validate"], _digits_document(MAX_CONSTANT_DIGITS), monkeypatch, capsys)
    assert code in (0, 1), err  # a report, valid or not, never an input error
    assert json.loads(out)["result"]["dim"] == 5


def test_constant_digits_over_the_cap_are_refused_before_any_table(monkeypatch, capsys):
    def no_table(doc):
        raise AssertionError("table built for a document over the digit cap")

    monkeypatch.setattr("liecert.cli.document_to_algebra", no_table)
    code, out, err = run(["validate"], _digits_document(MAX_CONSTANT_DIGITS + 1), monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert f"exceed {MAX_CONSTANT_DIGITS} digits" in err


def test_subspace_digits_count_toward_the_cap(monkeypatch, capsys):
    """Flow rows of 120 030 digits over one small constant: refused while parsed."""

    def no_action(doc):
        raise AssertionError("action built for a document over the digit cap")

    monkeypatch.setattr("liecert.cli.document_to_action", no_action)
    row = ["7" * 4000] * 5
    doc = json.dumps(
        {
            "format_version": "1",
            "dim": 5,
            "structure_constants": [[0, 1, 2, "1", "1"]],
            "subspaces": {"flow": [row] * 6},
        }
    )
    code, out, err = run(["anosov"], doc, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    # 2 + 25 * 4001 digits pass the cap at the 25th entry
    assert f"subspaces.flow[4][4]: structure constants and subspace entries exceed {MAX_CONSTANT_DIGITS} digits" in err


# -- options and environment ---------------------------------------------------------


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("source", ["--tolerance", "LIECERT_TOLERANCE"])
def test_tolerance_must_be_finite_and_nonnegative(monkeypatch, capsys, value, source):
    """The splitting is exact, so no tolerance is left and none of these values
    reaches a report: the flag is refused as unknown and the variable is not read."""
    argv = ["anosov", "--h0", "1,0,0"]
    monkeypatch.delenv("LIECERT_TOLERANCE", raising=False)
    if source == "--tolerance":
        code, out, err = run(argv + [f"--tolerance={value}"], SL2_DOC, monkeypatch, capsys)
        assert code == 3
        assert out == ""
        assert f"unrecognized arguments: --tolerance={value}" in err
    else:
        _, base_out, _ = run(argv, SL2_DOC, monkeypatch, capsys)
        monkeypatch.setenv("LIECERT_TOLERANCE", value)
        code, out, _ = run(argv, SL2_DOC, monkeypatch, capsys)
        assert code == 0
        assert out == base_out
        assert "tolerance" not in out


@pytest.mark.parametrize("command", ["anosov", "classify"])
def test_negative_budget_is_input_error(monkeypatch, capsys, command):
    code, out, err = run([command, "--budget", "-5"], SL2_DOC, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert err.startswith("input error: --budget: expected an integer >= 0")


def _no_float(text):
    raise AssertionError(f"float {text} in a report")


@pytest.mark.parametrize("value", ["0", "1e-9"])
def test_zero_and_default_tolerance_are_accepted(monkeypatch, capsys, value):
    """Eigenvalues +-sqrt 2: no split by sign over Q. Whatever LIECERT_TOLERANCE
    holds, at zero or at the old default, the run is accepted and the same as
    without it, with the whole carrier as the exact mixed part and no float."""
    monkeypatch.delenv("LIECERT_TOLERANCE", raising=False)
    doc = serialize_document(action_to_document(build_suspension([[[0, 1], [2, 0]]])))
    argv = ["anosov", "--h0", "0,0,1"]
    base_code, base_out, _ = run(argv, doc, monkeypatch, capsys)
    monkeypatch.setenv("LIECERT_TOLERANCE", value)
    code, out, _ = run(argv, doc, monkeypatch, capsys)
    assert code == base_code == 0
    assert out == base_out
    report = json.loads(out, parse_float=_no_float, parse_constant=_no_float)
    assert "tolerance" not in report["provenance"]
    result = report["result"]
    assert result["mixed"] == result["carrier"] and len(result["carrier"]) == 2
    assert result["stable_exact"] == result["unstable_exact"] == []
    assert result["invariance"]["ok"] and result["invariance"]["exact_mixed"]


def test_cat_map_suspension_is_certified_exactly(monkeypatch, capsys):
    """The suspension of the cat map [[1, 1], [1, 0]], eigenvalues (1 +- sqrt 5)/2,
    has no split by sign over Q: its whole carrier is the exact mixed part."""
    spec = build_suspension([[[1, 1], [1, 0]]])
    cert = check_anosov(spec, spec.ambient.basis_vector(2))
    assert cert.accepted
    assert cert.stable_exact == cert.unstable_exact == ()
    assert cert.mixed == cert.carrier and len(cert.carrier) == 2
    assert (cert.dim_stable, cert.dim_unstable) == (1, 1)
    assert cert.gap_exact is False
    doc = serialize_document(action_to_document(spec))
    code, out, _ = run(["anosov", "--h0", "0,0,1"], doc, monkeypatch, capsys)
    assert code == 0
    result = json.loads(out, parse_float=_no_float, parse_constant=_no_float)["result"]
    assert result["mixed"] == result["carrier"] == [["1", "0", "0"], ["0", "1", "0"]]
    assert result["invariance"]["ok"] and result["invariance"]["exact_mixed"]


def test_wrong_h0_length_is_input_error(monkeypatch, capsys):
    code, _, err = run(["anosov", "--h0", "1,0"], SL2_DOC, monkeypatch, capsys)
    assert code == 3
    assert "3 comma-separated" in err


def test_h0_outside_flow_is_input_error(monkeypatch, capsys):
    code, _, err = run(
        ["anosov", "--h0", "0,1,0"], SL2_DOC, monkeypatch, capsys
    )
    assert code == 3


def test_unknown_build_name_is_input_error(monkeypatch, capsys):
    code, _, err = run(["build", "nope"], "", monkeypatch, capsys)
    assert code == 3
    assert "sl2-geodesic" in err  # choices are listed


@pytest.mark.parametrize(
    "argv",
    [
        ["anosov", "--bogus"],
        [],
        ["anosov", "--search"],
        ["classify", "--budget", "many"],
        ["catalog", "--input", "x"],
        ["build", "sl2-geodesic", "--seed", "1"],
    ],
    ids=[
        "unknown-flag",
        "missing-subcommand",
        "removed-search",
        "bad-int",
        "catalog-input",
        "build-seed",
    ],
)
def test_usage_errors_are_input_errors(argv, monkeypatch, capsys):
    code, out, err = run(argv, SL2_DOC, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert "input error" in err


def test_build_rejects_parameters(monkeypatch, capsys):
    code, _, err = run(
        ["build", "wedge", "--param", "x=1"], "", monkeypatch, capsys
    )
    assert code == 3


# -- other commands ----------------------------------------------------------------


def test_analyze_reports_structure(monkeypatch, capsys):
    code, out, _ = run(["analyze"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["semisimple"] is True and res["radical"]["dim"] == 0


def test_csa_reports_verified_subalgebra(monkeypatch, capsys):
    code, out, _ = run(["csa"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["is_csa"] is True and res["csa"]["dim"] == 1


def test_roots_reports_chambers(monkeypatch, capsys):
    code, out, _ = run(["roots"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    res = json.loads(out)["result"]
    assert res["root_system"]["exact"] is True
    assert res["chambers"]["count"] == 2


def test_roots_honors_base_override(monkeypatch, capsys):
    obj = json.loads(SL2_DOC)
    obj["subspaces"]["base"] = [["1", "0", "0"]]
    code, out, _ = run(["roots"], json.dumps(obj), monkeypatch, capsys)
    assert code == 0
    assert json.loads(out)["result"]["root_system"]["base"] == [["1", "0", "0"]]


def test_catalog_lists_examples(monkeypatch, capsys):
    code, out, _ = run(["catalog"], "", monkeypatch, capsys)
    assert code == 0
    names = [e["name"] for e in json.loads(out)["result"]["examples"]]
    assert len(names) == 8 and "heisenberg-starkov" in names


def test_build_emits_parseable_document(monkeypatch, capsys):
    code, out, _ = run(["build", "so13-geodesic"], "", monkeypatch, capsys)
    assert code == 0
    obj = json.loads(out)
    assert obj["format_version"] == "1" and obj["dim"] == 6


# -- determinism and plumbing --------------------------------------------------------


def test_reports_are_byte_identical_across_runs(monkeypatch, capsys):
    runs = [
        run(["classify", "--seed", "7"], SL2_DOC, monkeypatch, capsys)
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert json.loads(runs[0][1])["provenance"]["seed"] == 7


DOCUMENT_COMMANDS = ("validate", "analyze", "csa", "roots", "anosov", "classify")


@pytest.mark.parametrize(
    "argv",
    [[c] for c in DOCUMENT_COMMANDS] + [["catalog"], ["build", "sl2-geodesic"]],
    ids=lambda argv: argv[0],
)
def test_output_flag_writes_file(tmp_path, monkeypatch, capsys, argv):
    target = tmp_path / "report.json"
    stdout_code, stdout, _ = run(argv, SL2_DOC, monkeypatch, capsys)
    code, out, _ = run(argv + ["--output", str(target)], SL2_DOC, monkeypatch, capsys)
    assert code == stdout_code == 0 and out == ""
    assert target.read_text() == stdout
    if argv == ["validate"]:
        assert json.loads(target.read_text())["result"]["valid"] is True


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
def test_input_flag_reads_file(tmp_path, monkeypatch, capsys, command):
    src = tmp_path / "alg.json"
    src.write_text(SL2_DOC)
    code, out, _ = run(
        [command, "--input", str(src)], "", monkeypatch, capsys
    )
    assert code == 0
    assert (code, out) == run([command], SL2_DOC, monkeypatch, capsys)[:2]
    if command == "validate":
        assert json.loads(out)["result"]["valid"] is True


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS)
def test_missing_input_file_is_input_error(monkeypatch, capsys, command):
    code, _, err = run(
        [command, "--input", "/no/such/file.json"], "", monkeypatch, capsys
    )
    assert code == 3
    assert "input error" in err


def test_text_format_renders_lines(monkeypatch, capsys):
    code, out, _ = run(
        ["classify", "--format", "text"], SL2_DOC, monkeypatch, capsys
    )
    assert code == 0
    assert "case: semisimple" in out


# Every subcommand's options: option string (or positional dest) -> (default, choices).
_REPORT_FLAGS = {
    "--output": (None, None),
    "--format": ("json", ["json", "text"]),
    "--seed": (0, None),
}
_DOCUMENT_FLAGS = {"--input": ("-", None), **_REPORT_FLAGS}
_BUDGET = {"--budget": (200, None)}
CLI_SURFACE = {
    "validate": _DOCUMENT_FLAGS,
    "analyze": _DOCUMENT_FLAGS,
    "csa": _DOCUMENT_FLAGS,
    "roots": _DOCUMENT_FLAGS,
    "anosov": {**_DOCUMENT_FLAGS, "--h0": (None, None), **_BUDGET},
    "classify": {**_DOCUMENT_FLAGS, **_BUDGET},
    "build": {"name": (None, None), "--output": (None, None)},
    "catalog": _REPORT_FLAGS,
}


def test_cli_surface_is_pinned():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    surface = {
        name: {
            (a.option_strings[-1] if a.option_strings else a.dest): (
                a.default,
                list(a.choices) if a.choices is not None else None,
            )
            for a in p._actions
            if a.dest != "help"
        }
        for name, p in subparsers.choices.items()
    }
    assert surface == CLI_SURFACE


def test_parser_is_built_once_and_seeds_default_to_zero():
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["anosov"]).seed == 0
    assert build_parser().parse_args(["anosov", "--seed", "2"]).seed == 2
    assert not hasattr(build_parser().parse_args(["build", "sl2-geodesic"]), "seed")


def test_shell_pipeline():
    # the child interpreters import the same liecert as this test
    src = os.path.dirname(os.path.dirname(liecert.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    build = subprocess.run(
        [sys.executable, "-m", "liecert.cli", "build", "heisenberg-starkov"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert build.returncode == 0
    classify = subprocess.run(
        [sys.executable, "-m", "liecert.cli", "classify"],
        input=build.stdout,
        capture_output=True,
        text=True,
        env=env,
    )
    assert classify.returncode == 0
    assert json.loads(classify.stdout)["result"]["case"] == "solvable"


_LAZY_SYMPY = """
import json, sys
from fractions import Fraction as F

import liecert.cli
checks = {"cli": "sympy" in sys.modules}

from liecert import ActionSpec, RationalPolynomial, cartan_subspace, check_anosov
from liecert import lie_algebra_from_matrices, restricted_roots
from liecert.spectral import factor_with_multiplicity


def unit(entries):
    return [[F(entries.get((r, c), 0)) for c in range(3)] for r in range(3)]


basis = [unit({(0, 0): 1, (1, 1): -1}), unit({(1, 1): 1, (2, 2): -1})]
basis += [unit({(i, j): 1}) for i in range(3) for j in range(3) if i != j]
g = lie_algebra_from_matrices(basis)
action = ActionSpec(g, cartan_subspace(g))
zero = (F(0),) * 6
verdicts = (
    restricted_roots(g, action.flow).exact,
    check_anosov(action, (F(2), F(2)) + zero).accepted,  # diag(2, 0, -2)
    check_anosov(action, (F(1), F(2)) + zero).accepted,  # diag(1, 1, -2)
)
checks["sl3"] = "sympy" in sys.modules
factor_with_multiplicity(RationalPolynomial([-2, 0, 0, 0, 1]))
checks["quartic"] = "sympy" in sys.modules
print(json.dumps({"checks": checks, "verdicts": verdicts}))
"""


def test_sympy_is_imported_only_for_an_irreducible_residual():
    # a fresh interpreter: the CLI and split spectra leave sympy unloaded
    src = os.path.dirname(os.path.dirname(liecert.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", _LAZY_SYMPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["verdicts"] == [True, True, False]
    assert out["checks"] == {"cli": False, "sl3": False, "quartic": True}


_ROOTS_WITHOUT_SYMPY = """
import contextlib, io, json, sys

from liecert.cli import main

doc = io.StringIO()
with contextlib.redirect_stdout(doc):
    built = main(["build", "so13-frame-flow"])
sys.stdin = io.StringIO(doc.getvalue())
with contextlib.redirect_stdout(io.StringIO()):
    roots = main(["roots"])
print(json.dumps({"exit": [built, roots], "sympy": "sympy" in sys.modules}))
"""


def test_roots_of_so13_leave_sympy_unloaded():
    # t^2 + 1, the only residual there, has no rational root: as a quadratic it is irreducible
    src = os.path.dirname(os.path.dirname(liecert.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    run = subprocess.run(
        [sys.executable, "-c", _ROOTS_WITHOUT_SYMPY],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == {"exit": [0, 0], "sympy": False}


_WITHOUT_NUMPY = """
import contextlib, io, json, sys

from liecert import action_to_document, build_suspension, serialize_document
from liecert.builders import catalog_names
from liecert.cli import main


def call(argv, stdin=""):
    sys.stdin = io.StringIO(stdin)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


codes = {}
for name in catalog_names():
    doc = call(["build", name])[1]
    codes[name] = [
        call([cmd], doc)[0]
        for cmd in ("validate", "analyze", "csa", "roots", "anosov", "classify")
    ]
cat_map = serialize_document(action_to_document(build_suspension([[[1, 1], [1, 0]]])))
codes["cat-map"] = call(["anosov"], cat_map)[0]
codes["sl2-irrational"] = call(["roots"], sys.argv[1])[0]
print(json.dumps({"codes": codes, "numpy": "numpy" in sys.modules}))
"""


def test_numpy_is_never_loaded():
    # a fresh interpreter: every command on the catalog, the cat-map
    # suspension and an inexact root system run without numpy
    src = os.path.dirname(os.path.dirname(liecert.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sl2 = json.loads(SL2_DOC)
    sl2["subspaces"] = {"base": [["1", "1", "1"]]}  # eigenvalues 0, +-2 sqrt 2
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(sl2)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["numpy"] is False
    codes = out["codes"]
    assert codes.pop("cat-map") == codes.pop("sl2-irrational") == 0
    # 8 examples by 6 commands: `roots` refuses the 4 solvable ones as input errors
    assert sorted(c for cs in codes.values() for c in cs) == [0] * 44 + [3] * 4
