"""Document parsing, serialization, and report payloads."""

import importlib.resources
import json
from fractions import Fraction as F

import pytest

from liecert import documents
from liecert import (
    DocumentError,
    action_to_document,
    build_example,
    cartan_subspace,
    catalog_names,
    check_anosov,
    classify,
    document_to_action,
    document_to_algebra,
    parse_document,
    restricted_roots,
    serialize_document,
)
from liecert.documents import (
    SCHEMA,
    certificate_payload,
    classification_payload,
    dump_json,
    frac_str,
    parse_frac,
    provenance,
    root_system_payload,
)


def _doc_text(name: str) -> str:
    return serialize_document(action_to_document(build_example(name)))


# -- round trips -----------------------------------------------------------------


@pytest.mark.parametrize("name", catalog_names())
def test_round_trip_catalog(name):
    text = _doc_text(name)
    doc = parse_document(text)
    action = document_to_action(doc)
    ref = build_example(name)
    assert action.ambient.table == ref.ambient.table
    assert action.flow.basis == ref.flow.basis
    assert action.isotropy.basis == ref.isotropy.basis
    # canonical text is a fixed point of parse + serialize
    assert serialize_document(doc) == text


def test_round_trip_preserves_labels_and_name():
    doc = parse_document(_doc_text("heisenberg-starkov"))
    assert doc.name == "heisenberg-starkov"
    assert doc.labels == ("e0", "e1", "T0", "z0")
    assert document_to_algebra(doc).labels == doc.labels


def test_entries_are_sorted_canonically():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 3,
            "structure_constants": [
                [1, 2, 0, "1", "1"],
                [0, 1, 2, "1", "1"],
                [0, 2, 1, "-1", "1"],
            ],
        }
    )
    doc = parse_document(text)
    assert [e[:3] for e in doc.entries] == [(0, 1, 2), (0, 2, 1), (1, 2, 0)]


def test_zero_valued_entry_is_dropped():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[0, 1, 0, "0", "5"]],
        }
    )
    assert parse_document(text).entries == ()


def test_integer_indices_accept_string_rationals_only_in_value_slots():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[0, 1, 0, 3, 2]],
        }
    )
    doc = parse_document(text)
    assert doc.entries == ((0, 1, 0, F(3, 2)),)


# -- rejection paths --------------------------------------------------------------


def test_bad_json_reports_position():
    with pytest.raises(DocumentError, match="line 1"):
        parse_document("{not json")


def test_wrong_format_version():
    with pytest.raises(DocumentError, match="format_version"):
        parse_document(json.dumps({"format_version": "2", "dim": 1}))


def test_missing_dim():
    with pytest.raises(DocumentError, match="dim"):
        parse_document(json.dumps({"format_version": "1"}))


def test_dim_bound_is_checked_before_anything_is_sized_by_dim(monkeypatch):
    def guarded_range(*args):
        if max(args, default=0) > documents.MAX_DIM:
            raise AssertionError("built something sized by an oversized dim")
        return range(*args)

    monkeypatch.setattr(documents, "range", guarded_range, raising=False)
    for dim in (documents.MAX_DIM + 1, 10**9):
        with pytest.raises(DocumentError, match="exceeds the maximum"):
            parse_document(json.dumps({"format_version": "1", "dim": dim}))
    doc = parse_document(json.dumps({"format_version": "1", "dim": documents.MAX_DIM}))
    assert len(doc.labels) == documents.MAX_DIM


def test_diagonal_entry_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[1, 1, 0, "1", "1"]],
        }
    )
    with pytest.raises(DocumentError, match="antisymmetry"):
        parse_document(text)


def test_lower_triangle_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[1, 0, 0, "1", "1"]],
        }
    )
    with pytest.raises(DocumentError, match="i < j"):
        parse_document(text)


def test_duplicate_entry_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[0, 1, 0, "1", "1"], [0, 1, 0, "2", "1"]],
        }
    )
    with pytest.raises(DocumentError, match="duplicate"):
        parse_document(text)


def test_zero_denominator_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[0, 1, 0, "1", "0"]],
        }
    )
    with pytest.raises(DocumentError, match="zero denominator"):
        parse_document(text)


def test_out_of_range_index_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[0, 5, 0, "1", "1"]],
        }
    )
    with pytest.raises(DocumentError, match="out of range"):
        parse_document(text)


def test_non_integer_num_den_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "structure_constants": [[0, 1, 0, "1/2", "1"]],
        }
    )
    with pytest.raises(DocumentError, match="must be integers"):
        parse_document(text)


def test_bad_rational_string_rejected():
    with pytest.raises(DocumentError, match="bad rational"):
        parse_frac("1.5x", "here")


def test_wrong_label_count_rejected():
    text = json.dumps(
        {"format_version": "1", "dim": 2, "basis_labels": ["only-one"]}
    )
    with pytest.raises(DocumentError, match="basis_labels"):
        parse_document(text)


def test_subspace_vector_wrong_length_rejected():
    text = json.dumps(
        {
            "format_version": "1",
            "dim": 2,
            "subspaces": {"flow": [["1"]]},
        }
    )
    with pytest.raises(DocumentError, match="subspaces.flow"):
        parse_document(text)


def test_action_requires_flow_subspace():
    doc = parse_document(json.dumps({"format_version": "1", "dim": 2}))
    with pytest.raises(DocumentError, match="flow"):
        document_to_action(doc)


# -- rational formatting -----------------------------------------------------------


def test_frac_str_forms():
    assert frac_str(F(3)) == "3"
    assert frac_str(F(-1, 2)) == "-1/2"
    assert parse_frac("-1/2", "x") == F(-1, 2)
    assert parse_frac(7, "x") == F(7)


# -- payload shapes ----------------------------------------------------------------


def test_certificate_payload_accepted():
    spec = build_example("sl2-geodesic")
    g = spec.ambient
    cert = check_anosov(spec, g.basis_vector(0))
    obj = certificate_payload(cert)
    assert obj["accepted"] is True
    assert obj["gap"] == {"exact": True, "value": "2"}
    assert obj["stable_exact"] == [["0", "0", "1"]]
    assert obj["unstable_exact"] == [["0", "1", "0"]]
    assert obj["splitting"]["tag"] == "certified-numeric"
    assert obj["invariance"]["ok"] is True
    json.dumps(obj)  # payloads must be JSON-ready


def test_certificate_payload_refusal():
    spec = build_example("sl2-geodesic")
    g = spec.ambient
    res = check_anosov(spec, tuple(F(0) for _ in range(3)))
    obj = certificate_payload(res)
    assert obj["accepted"] is False and obj["reason"]
    json.dumps(obj)


def test_root_system_payload_exact_and_inexact():
    g = build_example("sl2-geodesic").ambient
    rs = restricted_roots(g, cartan_subspace(g))
    obj = root_system_payload(rs)
    assert obj["exact"] is True
    nonzero = [r for r in obj["roots"] if not r["is_zero"]]
    assert all(r["values"]["exact"] for r in nonzero)
    json.dumps(obj)


def test_classification_payload_recurses():
    spec = build_example("heisenberg-starkov")
    rep = classify(spec)
    obj = classification_payload(rep)
    assert obj["case"] == "solvable"
    assert "flow_is_csa" in obj["evidence"]
    assert any("lattice" in c for c in obj["caveats"])
    json.dumps(obj)


def test_provenance_hash_is_stable():
    a = provenance("text", "classify", 0, 1e-9)
    b = provenance("text", "classify", 0, 1e-9)
    assert a == b
    assert a["input_sha256"] != provenance("other", "classify", 0, 1e-9)["input_sha256"]


def test_dump_json_is_deterministic():
    obj = {"b": 1, "a": [1, 2]}
    assert dump_json(obj) == dump_json({"a": [1, 2], "b": 1})
    assert dump_json(obj).endswith("\n")


# -- schema ------------------------------------------------------------------------


def test_schema_file_matches_inline_schema():
    text = (
        importlib.resources.files("liecert").joinpath("schema-v1.json").read_text()
    )
    assert json.loads(text) == SCHEMA


def test_canonical_documents_satisfy_schema_patterns():
    import re

    num = re.compile(SCHEMA["properties"]["structure_constants"]["items"]["items"][3]["pattern"])
    rat = re.compile(
        SCHEMA["properties"]["subspaces"]["additionalProperties"]["items"]["items"]["pattern"]
    )
    for name in catalog_names():
        obj = json.loads(_doc_text(name))
        for entry in obj["structure_constants"]:
            assert num.fullmatch(entry[3]) and num.fullmatch(entry[4])
        for rows in obj["subspaces"].values():
            for row in rows:
                assert all(rat.fullmatch(x) for x in row)
