"""Exact JSON documents for algebras, actions, and analysis reports.

Rationals travel as decimal strings so round trips never touch floating
point.  Structure constants are sparse (i, j, k, numerator, denominator)
entries with i < j; the i > j half is implied by antisymmetry.  Every
spectral quantity in a report is tagged exact or not.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction

from .algebra import LieAlgebra, Subspace
from .anosov import (
    ActionSpec,
    AnosovCertificate,
    AnosovRefusal,
    ClassificationReport,
    InvarianceReport,
)
from .cartan import Chamber, ChamberSet, RootInfo, RootSystem
from .linalg import Matrix, Vector
from .poly import RationalPolynomial

FORMAT_VERSION = "1"
# Largest accepted `dim`: the structure table holds dim**2 vectors of
# length dim, so a larger document is refused before anything is built.
MAX_DIM = 128
# Largest accepted total of decimal digits over the numerators and
# denominators of all structure constants and subspace entries.  The
# algebra keeps its constants as integers over the lcm of their
# denominators, and every span its rows over theirs, whose size only this
# total bounds; a larger document is refused while it is read.
MAX_CONSTANT_DIGITS = 100_000


class DocumentError(Exception):
    """Malformed document, with a JSON-path hint in the message."""


# -- rational scalars ----------------------------------------------------------


def frac_str(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# Longest rejected string quoted whole in an error message; a longer one is
# shown by its prefix and length, so the message stays one short line.
QUOTED_CHARS = 40


# Most decimal digits a literal with an exponent may stand for: the
# mantissa's length plus the exponent, read but never expanded.  It is the
# interpreter's default int <-> str limit, which bounds the other literals.
MAX_LITERAL_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def parse_frac(s, path: str) -> Fraction:
    if isinstance(s, int):
        return Fraction(s)
    if not isinstance(s, str):
        raise DocumentError(f"{path}: expected a rational string, got {type(s).__name__}")
    try:
        exp = _EXPONENT.search(s)
        if exp and exp.start() + abs(int(exp[1])) > MAX_LITERAL_DIGITS:
            raise ValueError(f"more than {MAX_LITERAL_DIGITS} digits")
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        reason = str(exc)
        if len(s) > QUOTED_CHARS:
            # the exception text may repeat the whole string
            reason = f"{len(s)} characters; " + (
                "not a rational literal" if s in reason else reason
            )
            s = s[:QUOTED_CHARS] + "..."
        raise DocumentError(f"{path}: bad rational {s!r} ({reason})") from None


def _decimal_digits(n: int) -> int:
    """len(str(abs(n))) without the string: log10(2) to 11 places gives it or one less."""
    n = abs(n)
    d = max(1, (n.bit_length() - 1) * 30102999566 // 10**11 + 1)
    return d + (n >= 10**d)


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
    table = g.table
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k, v in enumerate(table[i][j]):
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
    """The algebra of a document, built in O(entries + dim**2)."""
    entries = [e for i, j, k, v in doc.entries for e in ((i, j, k, v), (j, i, k, -v))]
    return LieAlgebra.from_entries(doc.dim, entries, doc.labels)


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
    except ValueError as exc:  # an integer beyond the interpreter's digit limit
        raise DocumentError(f"invalid JSON: {exc}") from None
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
    digits = 0
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
        digits += _decimal_digits(n_num.numerator) + _decimal_digits(n_den.numerator)
        if digits > MAX_CONSTANT_DIGITS:
            raise DocumentError(
                f"{path}: structure constants exceed {MAX_CONSTANT_DIGITS} digits in total"
            )
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
        parsed = []
        for ri, r in enumerate(rows):
            path = f"subspaces.{key}[{ri}]"
            v = parse_vector(r, dim, path)
            for i, x in enumerate(v):
                digits += _decimal_digits(x.numerator) + _decimal_digits(x.denominator)
                if digits > MAX_CONSTANT_DIGITS:
                    raise DocumentError(
                        f"{path}[{i}]: structure constants and subspace entries "
                        f"exceed {MAX_CONSTANT_DIGITS} digits in total"
                    )
            parsed.append(v)
        subspaces[str(key)] = tuple(parsed)
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: expected a string")
    entries.sort(key=lambda e: e[:3])
    return AlgebraDocument(dim, labels, tuple(entries), subspaces, name)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def serialize_document(doc: AlgebraDocument) -> str:
    return dump_json(doc.to_json_obj())


# -- report payloads -----------------------------------------------------------


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
        "exact_mixed": rep.exact_mixed,
        "exact_unstable": rep.exact_unstable,
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
    return {
        "accepted": True,
        "element": vec_strs(res.h0),
        "neutral": mat_strs(res.neutral),
        "carrier": mat_strs(res.carrier),
        "stable_dim": res.dim_stable,
        "unstable_dim": res.dim_unstable,
        "stable_exact": mat_strs(res.stable_exact),
        "mixed": mat_strs(res.mixed),
        "unstable_exact": mat_strs(res.unstable_exact),
        "gap": {"exact": res.gap_exact, "value": frac_str(res.gap)},
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


def subspace_payload(s: Subspace) -> dict:
    return {"dim": s.dim, "basis": mat_strs(s.basis)}


def provenance(text: str, command: str, seed: int) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "input_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "seed": seed,
    }
