"""Document parsing, serialization, and report payloads."""

import importlib.resources
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from liecert import documents
from liecert.algebra import LieAlgebra, ValidationError
from liecert import (
    DocumentError,
    action_to_document,
    build_example,
    build_suspension,
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
    CHUNK_CHARS,
    certificate_payload,
    classification_payload,
    dump_json,
    frac_str,
    parse_frac,
    provenance,
    root_system_payload,
    write_json,
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


def _dense_algebra(doc):
    """The algebra of a document built through the dense table constructor."""
    n = doc.dim
    table = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, v in doc.entries:
        table[i][j][k] = v
        table[j][i][k] = -v
    return LieAlgebra(table, doc.labels)


def test_document_to_algebra_builds_no_dense_table(monkeypatch):
    docs = [parse_document(_doc_text(name)) for name in catalog_names()]
    big = documents.MAX_DIM
    docs.append(parse_document(json.dumps({
        "format_version": "1",
        "dim": big,
        "structure_constants": [[0, big - 1, 5, "-3", "999999937"], [2, 7, big - 1, "4", "6"]],
    })))
    expected = [_dense_algebra(doc) for doc in docs]

    def dense(*args, **kwargs):
        raise AssertionError("dense table constructor used")

    monkeypatch.setattr(LieAlgebra, "__init__", dense)
    for doc, ref in zip(docs, expected):
        g = document_to_algebra(doc)
        assert g == ref and g.labels == ref.labels
    assert g.bracket(g.basis_vector(0), g.basis_vector(big - 1))[5] == F(-3, 999999937)


def test_from_entries_reads_entries_as_given():
    # no antisymmetry implied, a repeated entry keeps its last value, zeros vanish
    g = LieAlgebra.from_entries(2, [(0, 1, 1, F(1, 3)), (0, 1, 1, 2), (1, 1, 0, "5"), (1, 0, 0, 0)])
    assert g.table == (((0, 0), (0, 2)), ((0, 0), (5, 0)))
    with pytest.raises(ValidationError, match="out of range"):
        LieAlgebra.from_entries(2, [(0, 2, 0, 1)])


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


def _sl2_with(entry=(0, 1, 1, "2", "1"), **fields):
    obj = {
        "format_version": "1",
        "dim": 3,
        "structure_constants": [list(entry), [0, 2, 2, "-2", "1"], [1, 2, 0, "1", "1"]],
        "subspaces": {"flow": [["1", "0", "0"]]},
    }
    obj.update(fields)
    return obj


# JSON's true and false are Python ints, so each field must refuse them itself
@pytest.mark.parametrize(
    "obj, path",
    [
        ({"format_version": "1", "dim": True, "subspaces": {"flow": [[True]]}}, "dim"),
        (_sl2_with(entry=(True, 1, 1, "2", "1")), r"structure_constants\[0\]: index i"),
        (_sl2_with(entry=(0, True, 1, "2", "1")), r"structure_constants\[0\]: index j"),
        (_sl2_with(entry=(0, 1, True, "2", "1")), r"structure_constants\[0\]: index k"),
        (_sl2_with(entry=(0, 1, 1, True, "1")), r"structure_constants\[0\]\[3\]"),
        (_sl2_with(entry=(0, 1, 1, "2", True)), r"structure_constants\[0\]\[4\]"),
        (_sl2_with(subspaces={"flow": [[True, "0", "0"]]}), r"subspaces\.flow\[0\]\[0\]"),
        (_sl2_with(basis_labels=["h", 1, "f"]), r"basis_labels\[1\]: expected a string"),
    ],
    ids=["dim", "index-i", "index-j", "index-k", "numerator", "denominator", "subspace", "label"],
)
def test_booleans_and_non_string_labels_rejected(obj, path):
    with pytest.raises(DocumentError, match=path):
        parse_document(json.dumps(obj))
    assert parse_document(json.dumps(_sl2_with())).dim == 3


def test_action_requires_flow_subspace():
    doc = parse_document(json.dumps({"format_version": "1", "dim": 2}))
    with pytest.raises(DocumentError, match="flow"):
        document_to_action(doc)


# -- rational formatting -----------------------------------------------------------


def test_frac_str_forms():
    assert frac_str(F(3)) == "3"
    assert frac_str(F(-1, 2)) == "-1/2"
    assert frac_str(-12) == "-12"
    assert frac_str("4/6") == "2/3"
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
    assert obj["mixed"] == []  # the spectrum splits by sign over Q
    assert obj["invariance"]["ok"] is True
    json.dumps(obj)  # payloads must be JSON-ready


def test_certificate_payload_numeric_splitting():
    spec = build_suspension([[[0, 1], [2, 0]]])  # eigenvalues +-sqrt(2)
    obj = certificate_payload(check_anosov(spec, spec.ambient.basis_vector(2)))
    assert obj["stable_exact"] == obj["unstable_exact"] == []
    assert obj["mixed"] == obj["carrier"] and len(obj["mixed"]) == 2
    assert (obj["stable_dim"], obj["unstable_dim"]) == (1, 1)
    assert obj["invariance"]["exact_mixed"] is True
    json.dumps(obj)


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
    a = provenance("text", "classify", 0)
    b = provenance("text", "classify", 0)
    assert a == b
    assert a["input_sha256"] != provenance("other", "classify", 0)["input_sha256"]


def test_dump_json_is_deterministic():
    obj = {"b": 1, "a": [1, 2]}
    assert dump_json(obj) == dump_json({"a": [1, 2], "b": 1})
    assert dump_json(obj).endswith("\n")


_TRICKY = st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9", "\u2028", "\U0001f600", "a/b"])
_TEXT = st.text(max_size=6) | _TRICKY
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.floats(allow_nan=False, allow_infinity=False)
    | _TEXT
)
_JSON = st.recursive(
    _SCALARS | st.lists(_TEXT, max_size=4),
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(kids, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, kids, max_size=4),
    max_leaves=25,
)


def _chunks(obj) -> list[str]:
    chunks = []
    write_json(obj, chunks.append)
    return chunks


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_writer_matches_json_dumps(obj):
    want = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert dump_json(obj) == want
    assert "".join(_chunks(obj)) == want


def test_writer_streams_a_large_report_in_bounded_chunks():
    row = [str(F(i, 7)) for i in range(50)]
    obj = {"rows": [row] * 2000, "tail": [1, -2.5, None, True, {}, [], ()]}
    chunks = _chunks(obj)
    assert "".join(chunks) == json.dumps(obj, sort_keys=True, indent=2) + "\n"
    assert len(chunks) > 1 and max(map(len, chunks)) < 2 * CHUNK_CHARS
    with pytest.raises(TypeError):
        dump_json({"x": F(1, 2)})


# -- schema ------------------------------------------------------------------------


def _shipped_schema() -> dict:
    """schema-v1.json as shipped inside the package."""
    return json.loads(
        importlib.resources.files("liecert").joinpath("schema-v1.json").read_text()
    )


def test_shipped_schema_agrees_with_the_code():
    shipped = _shipped_schema()
    assert shipped["properties"]["dim"]["maximum"] == documents.MAX_DIM
    assert shipped["properties"]["format_version"]["const"] == documents.FORMAT_VERSION
    assert shipped["$id"] == f"liecert-algebra-document-v{documents.FORMAT_VERSION}"


def test_canonical_documents_satisfy_schema_patterns():
    import re

    schema = _shipped_schema()
    num = re.compile(schema["properties"]["structure_constants"]["items"]["items"][3]["pattern"])
    rat = re.compile(
        schema["properties"]["subspaces"]["additionalProperties"]["items"]["items"]["pattern"]
    )
    for name in catalog_names():
        obj = json.loads(_doc_text(name))
        for entry in obj["structure_constants"]:
            assert num.fullmatch(entry[3]) and num.fullmatch(entry[4])
        for rows in obj["subspaces"].values():
            for row in rows:
                assert all(rat.fullmatch(x) for x in row)
