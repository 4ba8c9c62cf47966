"""Exit codes, determinism, and the document pipeline."""

import io
import json
import os
import subprocess
import sys

import liecert
from liecert import action_to_document, build_suspension, serialize_document
from liecert.cli import build_parser, main
from liecert.documents import MAX_DIM

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
    code, out, _ = run(["anosov", "--search"], SL2_DOC, monkeypatch, capsys)
    assert code == 0
    assert len(json.loads(out)["result"]["found"]) == 2


def test_anosov_search_inconclusive(monkeypatch, capsys):
    doc = serialize_document(
        action_to_document(build_suspension([[[0, 0], [0, 0]]]))
    )
    code, out, _ = run(
        ["anosov", "--search", "--budget", "20"], doc, monkeypatch, capsys
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


def test_oversized_dim_is_input_error(monkeypatch, capsys):
    def no_table(doc):
        raise AssertionError("table built for an oversized dim")

    monkeypatch.setattr("liecert.cli.document_to_algebra", no_table)
    doc = json.dumps({"format_version": "1", "dim": MAX_DIM + 1})
    code, out, err = run(["validate"], doc, monkeypatch, capsys)
    assert code == 3
    assert out == ""
    assert "exceeds the maximum" in err


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


def test_output_flag_writes_file(tmp_path, monkeypatch, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        ["validate", "--output", str(target)], SL2_DOC, monkeypatch, capsys
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["result"]["valid"] is True


def test_input_flag_reads_file(tmp_path, monkeypatch, capsys):
    src = tmp_path / "alg.json"
    src.write_text(SL2_DOC)
    code, out, _ = run(
        ["validate", "--input", str(src)], "", monkeypatch, capsys
    )
    assert code == 0
    assert json.loads(out)["result"]["valid"] is True


def test_missing_input_file_is_input_error(monkeypatch, capsys):
    code, _, err = run(
        ["validate", "--input", "/no/such/file.json"], "", monkeypatch, capsys
    )
    assert code == 3


def test_text_format_renders_lines(monkeypatch, capsys):
    code, out, _ = run(
        ["classify", "--format", "text"], SL2_DOC, monkeypatch, capsys
    )
    assert code == 0
    assert "case: semisimple" in out


def test_env_defaults(monkeypatch):
    monkeypatch.setenv("LIECERT_SEED", "5")
    monkeypatch.setenv("LIECERT_TOLERANCE", "1e-6")
    args = build_parser().parse_args(["classify"])
    assert args.seed == 5 and args.tolerance == 1e-6


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
