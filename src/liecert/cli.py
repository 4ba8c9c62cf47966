"""Command line interface.

Exit codes: 0 success or accepted; 1 verified negative (invalid table,
Anosov refusal); 2 inconclusive (search budget exhausted); 3 input
error, a malformed command line included.  Reports are deterministic
JSON (or a text rendering of the same data) so that fixed inputs and
seeds reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from .algebra import (
    AlgebraError,
    Subspace,
    derived_series,
    is_nilpotent,
    is_solvable,
    levi_decomposition,
    lower_central_series,
    nilradical,
    radical,
)
from .anosov import (
    ActionSpec,
    Inconclusive,
    check_anosov,
    classify,
    find_anosov_elements,
)
from .builders import CATALOG, build_example, catalog_names
from .cartan import cartan_subspace, find_csa, is_csa, restricted_roots, weyl_chambers
from .documents import (
    DocumentError,
    action_to_document,
    certificate_payload,
    chamber_set_payload,
    classification_payload,
    document_to_action,
    document_to_algebra,
    dump_json,
    parse_document,
    parse_frac,
    provenance,
    root_system_payload,
    serialize_document,
    subspace_payload,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _render_text(obj, indent: int = 0, key: str | None = None) -> list[str]:
    pad = "  " * indent
    head = f"{pad}{key}: " if key is not None else pad
    if isinstance(obj, dict):
        lines = [f"{pad}{key}:"] if key is not None else []
        for k in sorted(obj):
            lines.extend(_render_text(obj[k], indent + (1 if key is not None else 0), k))
        return lines
    if isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            return [head + "[" + ", ".join(str(x) for x in obj) + "]"]
        lines = [f"{pad}{key}:"] if key is not None else []
        for i, x in enumerate(obj):
            lines.extend(_render_text(x, indent + 1, f"[{i}]"))
        return lines
    return [head + str(obj)]


def _emit(args, prov: dict, payload: dict) -> None:
    doc = {"provenance": prov, "result": payload}
    if args.format == "json":
        text = dump_json(doc)
    else:
        text = "\n".join(_render_text(doc)) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_input(args) -> str:
    if args.input and args.input != "-":
        try:
            with open(args.input) as fh:
                return fh.read()
        except OSError as exc:
            raise DocumentError(f"cannot read {args.input}: {exc}") from None
    return sys.stdin.read()


def _parse_h0(text: str, action: ActionSpec):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != action.ambient.dim:
        raise DocumentError(
            f"--h0 needs {action.ambient.dim} comma-separated rationals"
        )
    return tuple(parse_frac(p, f"--h0[{i}]") for i, p in enumerate(parts))


def _cmd_validate(args) -> int:
    text = _read_input(args)
    doc = parse_document(text)
    g = document_to_algebra(doc)
    rep = g.validate()
    payload = {
        "valid": rep.ok,
        "dim": rep.dim,
        "summary": rep.summary(),
        "antisymmetry_failures": [[i, j] for i, j, _ in rep.antisymmetry_failures],
        "jacobi_failures": [[i, j, k] for i, j, k, _ in rep.jacobi_failures],
    }
    _emit(args, provenance(text, "validate", args.seed), payload)
    return EXIT_OK if rep.ok else EXIT_NEGATIVE


def _cmd_analyze(args) -> int:
    text = _read_input(args)
    doc = parse_document(text)
    g = document_to_algebra(doc)
    levi, rad = levi_decomposition(g)
    payload = {
        "dim": g.dim,
        "lower_central_series": [s.dim for s in lower_central_series(g)],
        "derived_series": [s.dim for s in derived_series(g)],
        "nilpotent": is_nilpotent(g),
        "solvable": is_solvable(g),
        "radical": subspace_payload(radical(g)),
        "nilradical": subspace_payload(nilradical(g)),
        "levi": subspace_payload(levi),
        "semisimple": radical(g).dim == 0,
    }
    _emit(args, provenance(text, "analyze", args.seed), payload)
    return EXIT_OK


def _cmd_csa(args) -> int:
    text = _read_input(args)
    doc = parse_document(text)
    g = document_to_algebra(doc)
    csa = find_csa(g, seed=args.seed)
    payload = {
        "csa": subspace_payload(csa),
        "is_csa": is_csa(g, csa),
        "seed": args.seed,
    }
    _emit(args, provenance(text, "csa", args.seed), payload)
    return EXIT_OK


def _cmd_roots(args) -> int:
    text = _read_input(args)
    doc = parse_document(text)
    g = document_to_algebra(doc)
    base_rows = doc.subspaces.get("base")
    if base_rows is not None:
        base = Subspace(g, base_rows)
    else:
        base = cartan_subspace(g)
    rs = restricted_roots(g, base)
    payload = {"root_system": root_system_payload(rs)}
    if rs.exact:
        payload["chambers"] = chamber_set_payload(weyl_chambers(rs))
    else:
        payload["chambers"] = None
    _emit(args, provenance(text, "roots", args.seed), payload)
    return EXIT_OK


def _cmd_anosov(args) -> int:
    text = _read_input(args)
    doc = parse_document(text)
    action = document_to_action(doc)
    prov = provenance(text, "anosov", args.seed)
    if args.h0 is not None:
        h0 = _parse_h0(args.h0, action)
        res = check_anosov(action, h0)
        _emit(args, prov, certificate_payload(res))
        return EXIT_OK if res.accepted else EXIT_NEGATIVE
    found = find_anosov_elements(action, budget=args.budget, seed=args.seed)
    payload = {
        "budget": args.budget,
        "found": [certificate_payload(c) for _, c in found],
    }
    _emit(args, prov, payload)
    return EXIT_OK if found else EXIT_INCONCLUSIVE


def _cmd_classify(args) -> int:
    text = _read_input(args)
    doc = parse_document(text)
    action = document_to_action(doc)
    prov = provenance(text, "classify", args.seed)
    try:
        rep = classify(action, budget=args.budget, seed=args.seed)
    except Inconclusive as exc:
        _emit(args, prov, {"case": None, "inconclusive": str(exc)})
        return EXIT_INCONCLUSIVE
    _emit(args, prov, classification_payload(rep))
    return EXIT_OK


def _cmd_build(args) -> int:
    try:
        action = build_example(args.name)
    except KeyError:
        raise DocumentError(
            f"unknown example {args.name!r}; choices: {', '.join(catalog_names())}"
        ) from None
    doc = action_to_document(action)
    text = serialize_document(doc)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_catalog(args) -> int:
    payload = {
        "examples": [
            {
                "name": d.name,
                "parameters": d.parameters,
                "expected": d.expected,
                "annotation": d.annotation,
            }
            for d in CATALOG
        ]
    }
    _emit(args, provenance("", "catalog", args.seed), payload)
    return EXIT_OK


def _from_environment(name: str, default: str, kind):
    text = os.environ.get(name, default)
    try:
        return kind(text)
    except ValueError:
        raise DocumentError(f"{name}: expected {kind.__name__}, got {text!r}") from None


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error, not argparse's exit 2.

    `--seed` defaults to LIECERT_SEED as set when the command line is
    parsed, and a search budget must be >= 0.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DocumentError(message)

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if "budget" in ns and ns.budget < 0:
            raise DocumentError(f"--budget: expected an integer >= 0, got {ns.budget}")
        if "seed" in ns and ns.seed is None:
            ns.seed = _from_environment("LIECERT_SEED", "0", int)
        return ns, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="liecert",
        description="exact certificates for algebra-level Anosov actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", default="-", help="input document (default stdin)")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="seed for randomized searches",
        )

    p = sub.add_parser("validate", help="check antisymmetry and the Jacobi identity")
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="series, radical, nilradical, Levi part")
    common(p)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("csa", help="find a Cartan subalgebra")
    common(p)
    p.set_defaults(func=_cmd_csa)

    p = sub.add_parser("roots", help="restricted root decomposition and chambers")
    common(p)
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("anosov", help="certify an element or search for one")
    common(p)
    p.add_argument("--h0", default=None, help="candidate element, comma-separated")
    p.add_argument("--budget", type=int, default=200, help="search budget")
    p.set_defaults(func=_cmd_anosov)

    p = sub.add_parser("classify", help="structure-based case analysis")
    common(p)
    p.add_argument("--budget", type=int, default=200, help="search budget")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("build", help="emit a catalog example as a document")
    p.add_argument("name", help="example name; see the catalog command")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("catalog", help="list the example catalog")
    common(p, needs_input=False)
    p.set_defaults(func=_cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except DocumentError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Inconclusive as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except AlgebraError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # malformed input must not crash the process
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
