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
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable

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


def frac_str(x: Fraction | int) -> str:
    """x as "p" or "p/q" in lowest terms, as `str` writes a `Fraction` or an
    int; any other value is converted to a `Fraction` first."""
    return str(x if isinstance(x, (Fraction, int)) else Fraction(x))


# Longest rejected string quoted whole in an error message; a longer one is
# shown by its prefix and length, so the message stays one short line.
QUOTED_CHARS = 40


# Most decimal digits a literal with an exponent may stand for: the
# mantissa's length plus the exponent, read but never expanded.  It is the
# interpreter's default int <-> str limit, which bounds the other literals.
MAX_LITERAL_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


def _is_integer(x) -> bool:
    """Whether x is a JSON integer; JSON's true and false are Python ints too."""
    return isinstance(x, int) and not isinstance(x, bool)


def _rational(s) -> Fraction | int:
    """s as a rational: an int for a JSON integer or a plain ASCII decimal
    string (with an optional "-"), else a `Fraction`.  Raises
    DocumentError with the reason alone, for the caller to locate."""
    if _is_integer(s):
        return s
    if not isinstance(s, str):
        raise DocumentError(f"expected a rational string, got {type(s).__name__}")
    try:
        if s.isascii() and (s[1:] if s[:1] == "-" else s).isdigit():
            return int(s)
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
        raise DocumentError(f"bad rational {s!r} ({reason})") from None


def parse_frac(s, path: str) -> Fraction | int:
    """`_rational(s)`, its error message prefixed by path."""
    try:
        return _rational(s)
    except DocumentError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _decimal_digits(n: int) -> int:
    """len(str(abs(n))) without the string: log10(2) to 11 places gives it or one less."""
    n = abs(n)
    d = max(1, (n.bit_length() - 1) * 30102999566 // 10**11 + 1)
    return d + (n >= 10**d)


def vec_strs(v: Vector) -> list[str]:
    return list(map(frac_str, v))


def mat_strs(m: Matrix, memo: dict | None = None) -> list[list[str]]:
    """The rows of m as strings.  Within one payload build, a memo keyed by
    the matrix object gives each distinct matrix its lists once; it holds
    the matrix too, so that no other object takes its id meanwhile."""
    if memo is None:
        return [vec_strs(r) for r in m]
    hit = memo.get(id(m))
    if hit is None:
        hit = memo[id(m)] = (m, [vec_strs(r) for r in m])
    return hit[1]


def _row(obj, n: int) -> Vector:
    """A list of n rationals; a DocumentError's message continues the row's path."""
    if not isinstance(obj, list) or len(obj) != n:
        raise DocumentError(f": expected a list of {n} rationals")
    v = []
    try:
        for x in obj:
            v.append(_rational(x))
    except DocumentError as exc:
        raise DocumentError(f"[{len(v)}]: {exc}") from None
    return tuple(v)


def _constant(entry, dim: int, seen: set) -> tuple[int, int, int, int, int]:
    """i, j, k, numerator and denominator of one structure-constant entry,
    its (i, j, k) added to seen; a DocumentError's message continues the
    entry's path."""
    if not isinstance(entry, list) or len(entry) != 5:
        raise DocumentError(": expected [i, j, k, num, den]")
    i, j, k, num, den = entry
    for nm, val in (("i", i), ("j", j), ("k", k)):
        if not _is_integer(val):
            raise DocumentError(f": index {nm} must be an integer")
    if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
        raise DocumentError(f": index out of range for dim {dim}")
    if i == j:
        raise DocumentError(": i == j entry is forced to zero by antisymmetry")
    if i > j:
        raise DocumentError(": store the i < j entry only; the other half is implied")
    if (i, j, k) in seen:
        raise DocumentError(f": duplicate entry for ({i},{j},{k})")
    seen.add((i, j, k))
    parts = []
    try:
        for x in (num, den):
            parts.append(_rational(x))
    except DocumentError as exc:
        raise DocumentError(f"[{3 + len(parts)}]: {exc}") from None
    num, den = parts
    if num.denominator != 1 or den.denominator != 1:
        raise DocumentError(": numerator and denominator must be integers")
    if den == 0:
        raise DocumentError(": zero denominator")
    return i, j, k, num.numerator, den.numerator


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
    if not _is_integer(dim) or dim < 0:
        raise DocumentError("dim: expected a nonnegative integer")
    if dim > MAX_DIM:
        raise DocumentError(f"dim: {dim} exceeds the maximum {MAX_DIM}")
    labels_obj = obj.get("basis_labels", [f"e{i}" for i in range(dim)])
    if not isinstance(labels_obj, list) or len(labels_obj) != dim:
        raise DocumentError(f"basis_labels: expected a list of {dim} strings")
    for i, label in enumerate(labels_obj):
        if not isinstance(label, str):
            raise DocumentError(
                f"basis_labels[{i}]: expected a string, got {type(label).__name__}"
            )
    labels = tuple(labels_obj)
    raw = obj.get("structure_constants", [])
    if not isinstance(raw, list):
        raise DocumentError("structure_constants: expected a list")
    entries = []
    seen = set()
    digits = 0
    for idx, entry in enumerate(raw):
        # a path is spelled out only for an error
        try:
            i, j, k, num, den = _constant(entry, dim, seen)
        except DocumentError as exc:
            raise DocumentError(f"structure_constants[{idx}]{exc}") from None
        digits += _decimal_digits(num) + _decimal_digits(den)
        if digits > MAX_CONSTANT_DIGITS:
            raise DocumentError(
                f"structure_constants[{idx}]: structure constants exceed "
                f"{MAX_CONSTANT_DIGITS} digits in total"
            )
        if num:
            entries.append((i, j, k, Fraction(num, den)))
    subspaces_obj = obj.get("subspaces", {})
    if not isinstance(subspaces_obj, dict):
        raise DocumentError("subspaces: expected an object")
    subspaces = {}
    for key, rows in subspaces_obj.items():
        if not isinstance(rows, list):
            raise DocumentError(f"subspaces.{key}: expected a list of vectors")
        parsed = []
        for r in rows:
            try:
                v = _row(r, dim)
            except DocumentError as exc:
                raise DocumentError(f"subspaces.{key}[{len(parsed)}]{exc}") from None
            for i, x in enumerate(v):
                digits += _decimal_digits(x.numerator) + _decimal_digits(x.denominator)
                if digits > MAX_CONSTANT_DIGITS:
                    raise DocumentError(
                        f"subspaces.{key}[{len(parsed)}][{i}]: structure constants and "
                        f"subspace entries exceed {MAX_CONSTANT_DIGITS} digits in total"
                    )
            parsed.append(v)
        subspaces[str(key)] = tuple(parsed)
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name: expected a string")
    entries.sort(key=lambda e: e[:3])
    return AlgebraDocument(dim, labels, tuple(entries), subspaces, name)


# A streamed report reaches its sink in pieces of about this many characters.
CHUNK_CHARS = 1 << 16


def buffered(write: Callable[[str], object]) -> tuple[Callable[[str], None], Callable[[], None]]:
    """(put, flush): put holds strings and passes them on to write about
    CHUNK_CHARS characters at a time; flush passes on the rest."""
    held: list[str] = []
    size = 0

    def put(s: str) -> None:
        nonlocal size
        held.append(s)
        size += len(s)
        if size >= CHUNK_CHARS:
            flush()

    def flush() -> None:
        nonlocal size
        if held:
            write("".join(held))
            held.clear()
            size = 0

    return put, flush


def write_json(obj, write: Callable[[str], object]) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) + "\n" through write,
    in pieces of about CHUNK_CHARS characters.

    obj is built of dicts with string keys, lists, tuples, strings, ints,
    bools, None and finite floats.  A list of strings alone, such as a
    matrix row, is joined in one call."""
    put, flush = buffered(write)

    def value(x, pad: str) -> None:
        # pad is the newline and indentation that closes x
        if isinstance(x, str):
            put(_quote(x))
        elif x is None:
            put("null")
        elif x is True:
            put("true")
        elif x is False:
            put("false")
        elif isinstance(x, int):
            put(int.__repr__(x))
        elif isinstance(x, float):
            put(float.__repr__(x))
        elif isinstance(x, (list, tuple)):
            if not x:
                put("[]")
                return
            inner = pad + "  "
            try:
                flat = ("," + inner).join(map(_quote, x))
            except TypeError:  # not all strings
                sep = "[" + inner
                for item in x:
                    put(sep)
                    value(item, inner)
                    sep = "," + inner
                put(pad + "]")
            else:
                put("[" + inner + flat + pad + "]")
        elif isinstance(x, dict):
            if not x:
                put("{}")
                return
            inner = pad + "  "
            sep = "{" + inner
            for key in sorted(x):
                put(sep + _quote(key) + ": ")
                value(x[key], inner)
                sep = "," + inner
            put(pad + "}")
        else:
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")

    value(obj, "\n")
    put("\n")
    flush()


def dump_json(obj) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) + "\n", by `write_json`."""
    parts: list[str] = []
    write_json(obj, parts.append)
    return "".join(parts)


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
        "zero_complement": mat_strs(rs.zero_complement),
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


def certificate_payload(
    res: AnosovCertificate | AnosovRefusal, memo: dict | None = None
) -> dict:
    """The payload of one certificate; a memo shared by the certificates of
    one report gives each distinct matrix its strings once (`mat_strs`)."""
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
        "neutral": mat_strs(res.neutral, memo),
        "carrier": mat_strs(res.carrier, memo),
        "stable_dim": res.dim_stable,
        "unstable_dim": res.dim_unstable,
        "stable_exact": mat_strs(res.stable_exact, memo),
        "mixed": mat_strs(res.mixed, memo),
        "unstable_exact": mat_strs(res.unstable_exact, memo),
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
