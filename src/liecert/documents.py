"""Exact JSON documents for algebras, actions, and analysis reports.

Rationals travel as decimal strings so round trips never touch floating
point.  Structure constants are sparse (i, j, k, numerator, denominator)
entries with i < j; the i > j half is implied by antisymmetry.  Every
spectral quantity in a report is tagged exact or certified-numeric.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra, Subspace
from .anosov import (
    ActionSpec,
    AnosovCertificate,
    AnosovRefusal,
    ClassificationReport,
    InvarianceReport,
    NilSuspensionReport,
)
from .cartan import Chamber, ChamberSet, RootInfo, RootSystem
from .linalg import Matrix, Vector
from .poly import RationalPolynomial

FORMAT_VERSION = "1"
# Largest accepted `dim`: the structure table holds dim**2 vectors of
# length dim, so a larger document is refused before anything is built.
MAX_DIM = 128


class DocumentError(Exception):
    """Malformed document, with a JSON-path hint in the message."""


# -- rational scalars ----------------------------------------------------------


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_frac(s, path: str) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentError(f"{path}: expected a rational string, got {type(s).__name__}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"{path}: bad rational {s!r} ({exc})") from None


def vec_strs(v: Vector) -> list[str]:
    return [frac_str(x) for x in v]


def mat_strs(m: Matrix) -> list[list[str]]:
    return [vec_strs(r) for r in m]


def parse_vector(obj, n: int, path: str) -> Vector:
    if not isinstance(obj, list) or len(obj) != n:
        raise DocumentError(f"{path}: expected a list of {n} rationals")
    return tuple(parse_frac(x, f"{path}[{i}]") for i, x in enumerate(obj))


# -- algebra documents ---------------------------------------------------------


@dataclass(frozen=True)
class AlgebraDocument:
    dim: int
    labels: tuple[str, ...]
    entries: tuple[tuple[int, int, int, Fraction], ...]  # i < j, value nonzero
    subspaces: dict[str, Matrix]
    name: str | None = None

    def to_json_obj(self) -> dict:
        obj = {
            "format_version": FORMAT_VERSION,
            "dim": self.dim,
            "basis_labels": list(self.labels),
            "structure_constants": [
                [i, j, k, str(v.numerator), str(v.denominator)]
                for i, j, k, v in self.entries
            ],
            "subspaces": {
                key: mat_strs(rows) for key, rows in sorted(self.subspaces.items())
            },
        }
        if self.name is not None:
            obj["name"] = self.name
        return obj


def algebra_to_document(
    g: LieAlgebra,
    subspaces: dict[str, Matrix] | None = None,
    name: str | None = None,
) -> AlgebraDocument:
    entries = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k, v in enumerate(g.table[i][j]):
                if v != 0:
                    entries.append((i, j, k, Fraction(v)))
    return AlgebraDocument(
        g.dim, g.labels, tuple(entries), dict(subspaces or {}), name
    )


def action_to_document(action: ActionSpec) -> AlgebraDocument:
    return algebra_to_document(
        action.ambient,
        {"flow": action.flow.basis, "isotropy": action.isotropy.basis},
        action.name,
    )


def document_to_algebra(doc: AlgebraDocument) -> LieAlgebra:
    n = doc.dim
    zero = tuple(Fraction(0) for _ in range(n))
    table = [[zero] * n for _ in range(n)]
    for i, j, k, v in doc.entries:
        row = list(table[i][j])
        row[k] = v
        table[i][j] = tuple(row)
        row = list(table[j][i])
        row[k] = -v
        table[j][i] = tuple(row)
    return LieAlgebra(table, doc.labels)


def document_to_action(doc: AlgebraDocument) -> ActionSpec:
    g = document_to_algebra(doc)
    flow = doc.subspaces.get("flow")
    if flow is None:
        raise DocumentError("subspaces.flow: required for action commands")
    isotropy = doc.subspaces.get("isotropy", ())
    return ActionSpec(
        g, Subspace(g, flow), Subspace(g, isotropy), name=doc.name
    )


def parse_document(text: str) -> AlgebraDocument:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    if not isinstance(obj, dict):
        raise DocumentError("top level: expected an object")
    version = obj.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError(
            f"format_version: expected {FORMAT_VERSION!r}, got {version!r}"
        )
    dim = obj.get("dim")
    if not isinstance(dim, int) or dim < 0:
        raise DocumentError("dim: expected a nonnegative integer")
    if dim > MAX_DIM:
        raise DocumentError(f"dim: {dim} exceeds the maximum {MAX_DIM}")
    labels_obj = obj.get("basis_labels", [f"e{i}" for i in range(dim)])
    if not isinstance(labels_obj, list) or len(labels_obj) != dim:
        raise DocumentError(f"basis_labels: expected a list of {dim} strings")
    labels = tuple(str(s) for s in labels_obj)
    raw = obj.get("structure_constants", [])
    if not isinstance(raw, list):
        raise DocumentError("structure_constants: expected a list")
    entries = []
    seen = set()
    for idx, entry in enumerate(raw):
        path = f"structure_constants[{idx}]"
        if not isinstance(entry, list) or len(entry) != 5:
            raise DocumentError(f"{path}: expected [i, j, k, num, den]")
        i, j, k, num, den = entry
        for nm, val in (("i", i), ("j", j), ("k", k)):
            if not isinstance(val, int):
                raise DocumentError(f"{path}: index {nm} must be an integer")
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise DocumentError(f"{path}: index out of range for dim {dim}")
        if i == j:
            raise DocumentError(
                f"{path}: i == j entry is forced to zero by antisymmetry"
            )
        if i > j:
            raise DocumentError(
                f"{path}: store the i < j entry only; the other half is implied"
            )
        if (i, j, k) in seen:
            raise DocumentError(f"{path}: duplicate entry for ({i},{j},{k})")
        seen.add((i, j, k))
        n_num = parse_frac(num, f"{path}[3]")
        n_den = parse_frac(den, f"{path}[4]")
        if n_num.denominator != 1 or n_den.denominator != 1:
            raise DocumentError(f"{path}: numerator and denominator must be integers")
        if n_den == 0:
            raise DocumentError(f"{path}: zero denominator")
        v = Fraction(n_num.numerator, n_den.numerator)
        if v != 0:
            entries.append((i, j, k, v))
    subspaces_obj = obj.get("subspaces", {})
    if not isinstance(subspaces_obj, dict):
        raise DocumentError("subspaces: expected an object")
    subspaces = {}
    for key, rows in subspaces_obj.items():
        if not isinstance(rows, list):
            raise DocumentError(f"subspaces.{key}: expected a list of vectors")
        subspaces[str(key)] = tuple(
            parse_vector(r, dim, f"subspaces.{key}[{ri}]")
            for ri, r in enumerate(rows)
        )
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: expected a string")
    entries.sort(key=lambda e: e[:3])
    return AlgebraDocument(dim, labels, tuple(entries), subspaces, name)


def parse_algebra(text: str) -> tuple[AlgebraDocument, LieAlgebra]:
    doc = parse_document(text)
    return doc, document_to_algebra(doc)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def serialize_document(doc: AlgebraDocument) -> str:
    return dump_json(doc.to_json_obj())


# -- report payloads -----------------------------------------------------------


def exact_value(x: Fraction) -> dict:
    return {"exact": True, "value": frac_str(x)}


def numeric_value(x: float) -> dict:
    return {"exact": False, "value": float(x)}


def _poly_strs(p: RationalPolynomial) -> list[str]:
    return [frac_str(c) for c in p.coeffs]


def root_info_payload(r: RootInfo) -> dict:
    out: dict = {
        "multiplicity": r.multiplicity,
        "space": mat_strs(r.space),
        "is_zero": r.is_zero,
        "exact": r.exact,
    }
    if r.values is not None:
        out["values"] = {"exact": True, "values": [frac_str(v) for v in r.values]}
    else:
        out["values"] = {
            "exact": False,
            "minimal_polynomials": [_poly_strs(p) for p in (r.value_minpolys or ())],
            "witnesses": [[re, im] for re, im in r.value_floats],
        }
    return out


def root_system_payload(rs: RootSystem) -> dict:
    return {
        "base": mat_strs(rs.base),
        "exact": rs.exact,
        "roots": [root_info_payload(r) for r in rs.roots],
        "zero_complement": (
            mat_strs(rs.zero_complement) if rs.zero_complement is not None else None
        ),
    }


def chamber_payload(ch: Chamber) -> dict:
    return {"signs": list(ch.signs), "sample": vec_strs(ch.sample)}


def chamber_set_payload(cs: ChamberSet) -> dict:
    return {
        "count": cs.count,
        "representatives": mat_strs(cs.representatives),
        "chambers": [chamber_payload(c) for c in cs.chambers],
    }


def invariance_payload(rep: InvarianceReport) -> dict:
    return {
        "ok": rep.ok,
        "exact_carrier": rep.exact_carrier,
        "exact_stable": rep.exact_stable,
        "exact_unstable": rep.exact_unstable,
        "numeric_residual": rep.numeric_residual,
        "tolerance": rep.tolerance,
        "violations": list(rep.violations),
    }


def certificate_payload(res: AnosovCertificate | AnosovRefusal) -> dict:
    if isinstance(res, AnosovRefusal):
        return {
            "accepted": False,
            "element": vec_strs(res.h0),
            "reason": res.reason,
            "axis_eigenvalues_outside": res.axis_outside,
            "off_axis_eigenvalues_inside": res.off_axis_inside,
        }
    spl = None
    if res.splitting is not None:
        s = res.splitting
        spl = {
            "tag": "certified-numeric",
            "tolerance": s.tolerance,
            "residual": s.residual,
            "degraded": s.degraded,
            "stable": [list(map(float, r)) for r in (s.stable_basis or ())],
            "unstable": [list(map(float, r)) for r in (s.unstable_basis or ())],
        }
    return {
        "accepted": True,
        "element": vec_strs(res.h0),
        "neutral": mat_strs(res.neutral),
        "carrier": mat_strs(res.carrier),
        "stable_dim": res.dim_stable,
        "unstable_dim": res.dim_unstable,
        "stable_exact": mat_strs(res.stable_exact) if res.stable_exact is not None else None,
        "unstable_exact": (
            mat_strs(res.unstable_exact) if res.unstable_exact is not None else None
        ),
        "gap": {"exact": res.gap_exact, "value": frac_str(res.gap)},
        "splitting": spl,
        "invariance": invariance_payload(res.invariance) if res.invariance else None,
    }


def _evidence_payload(value):
    if isinstance(value, RootSystem):
        return root_system_payload(value)
    if isinstance(value, ChamberSet):
        return chamber_set_payload(value)
    if isinstance(value, Fraction):
        return frac_str(value)
    if isinstance(value, tuple):
        return [_evidence_payload(v) for v in value]
    return value


def classification_payload(rep: ClassificationReport) -> dict:
    return {
        "case": rep.case,
        "evidence": {k: _evidence_payload(v) for k, v in rep.evidence.items()},
        "caveats": list(rep.caveats),
        "subreport": classification_payload(rep.subreport) if rep.subreport else None,
    }


def nil_suspension_payload(rep: NilSuspensionReport) -> dict:
    return {
        "structure_ok": rep.structure_ok,
        "induced_hyperbolic": rep.induced_hyperbolic,
        "anosov": rep.anosov,
        "kind": rep.kind,
        "fiber_dim": rep.fiber_dim,
        "fixed_dim": rep.fixed_dim,
    }


def subspace_payload(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": mat_strs(s.basis)}


def provenance(text: str, command: str, seed: int, tolerance: float) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seed": seed,
        "tolerance": tolerance,
    }


def report_document(prov: dict, payload: dict) -> str:
    return dump_json({"provenance": prov, "result": payload})


# -- schema --------------------------------------------------------------------

SCHEMA: dict = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "$id": f"liecert-algebra-document-v{FORMAT_VERSION}",
    "title": "Algebra document",
    "type": "object",
    "required": ["format_version", "dim", "structure_constants"],
    "properties": {
        "format_version": {"const": FORMAT_VERSION},
        "dim": {"type": "integer", "minimum": 0, "maximum": MAX_DIM},
        "name": {"type": "string"},
        "basis_labels": {"type": "array", "items": {"type": "string"}},
        "structure_constants": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 5,
                "maxItems": 5,
                "items": [
                    {"type": "integer", "minimum": 0},
                    {"type": "integer", "minimum": 0},
                    {"type": "integer", "minimum": 0},
                    {"type": "string", "pattern": "^-?[0-9]+$"},
                    {"type": "string", "pattern": "^-?[0-9]+$"},
                ],
            },
            "description": "sparse (i, j, k, numerator, denominator) with i < j",
        },
        "subspaces": {
            "type": "object",
            "additionalProperties": {
                "type": "array",
                "items": {
                    "type": "array",
                    "items": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
                },
            },
        },
    },
}
