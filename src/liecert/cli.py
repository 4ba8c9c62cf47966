"""Command line interface.

Every report command is one entry of the table `COMMANDS`: a function
(document, args) -> (payload, exit code) that only computes, its help
line, its extra flags and whether it reads a document (`catalog` does
not).  The table drives both `build_parser` and the one runner, `_run`,
which reads `--input`, parses it, calls the command and emits the
payload under its provenance.  `build` writes a document, not a report,
and is its own command; it shares the `--output`-or-stdout writer.

Exit codes: 0 success or accepted; 1 verified negative (invalid table,
Anosov refusal); 2 inconclusive (search budget exhausted); 3 input
error, a malformed command line included, and an --output path that
cannot be written.  Reports are deterministic JSON (or a text rendering
of the same data) so that fixed inputs and seeds reproduce byte-identical
output.  A report is streamed: its text goes out in chunks as it is
encoded, never whole, to stdout or to the --output file, which is opened
only once the payload is complete.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Callable, Iterator, NamedTuple

from .algebra import (
    AlgebraError,
    Subspace,
    derived_series,
    levi_decomposition,
    lower_central_series,
    nilradical,
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
    buffered,
    certificate_payload,
    chamber_set_payload,
    classification_payload,
    document_to_action,
    document_to_algebra,
    parse_document,
    parse_frac,
    provenance,
    root_system_payload,
    serialize_document,
    subspace_payload,
    write_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT = 3


def _render_text(obj, indent: int = 0, key: str | None = None) -> Iterator[str]:
    """The lines of the text rendering of obj, one at a time."""
    pad = "  " * indent
    head = f"{pad}{key}: " if key is not None else pad
    if isinstance(obj, dict):
        if key is not None:
            yield f"{pad}{key}:"
        for k in sorted(obj):
            yield from _render_text(obj[k], indent + (1 if key is not None else 0), k)
    elif isinstance(obj, list):
        if all(not isinstance(x, (dict, list)) for x in obj):
            yield head + "[" + ", ".join(str(x) for x in obj) + "]"
            return
        if key is not None:
            yield f"{pad}{key}:"
        for i, x in enumerate(obj):
            yield from _render_text(x, indent + 1, f"[{i}]")
    else:
        yield head + str(obj)


def _write_text(obj, write: Callable[[str], object]) -> None:
    put, flush = buffered(write)
    for line in _render_text(obj):
        put(line + "\n")
    flush()


def _write(args, produce: Callable[[Callable[[str], object]], None]) -> None:
    """produce(write) streams a complete payload's text to --output or stdout.

    The output file is opened only now, so a command that fails before
    its payload is complete leaves no file behind."""
    if not args.output:
        try:
            produce(sys.stdout.write)
            sys.stdout.flush()
        except BrokenPipeError:
            # the reader stopped early, as `liecert ... | head` does: drop
            # the rest quietly, and keep the exit flush off the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return
    try:
        with open(args.output, "w") as fh:
            produce(fh.write)
    except OSError as exc:
        raise DocumentError(f"cannot write {args.output}: {exc}") from None


def _emit(args, prov: dict, payload: dict) -> None:
    doc = {"provenance": prov, "result": payload}
    _write(args, functools.partial(write_json if args.format == "json" else _write_text, doc))


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


def _validate(doc, args):
    rep = document_to_algebra(doc).validate()
    payload = {
        "valid": rep.ok,
        "dim": rep.dim,
        "summary": rep.summary(),
        "antisymmetry_failures": [[i, j] for i, j, _ in rep.antisymmetry_failures],
        "jacobi_failures": [[i, j, k] for i, j, k, _ in rep.jacobi_failures],
    }
    return payload, EXIT_OK if rep.ok else EXIT_NEGATIVE


def _analyze(doc, args):
    g = document_to_algebra(doc)
    levi, rad = levi_decomposition(g)
    lower = [s.dim for s in lower_central_series(g)]
    derived = [s.dim for s in derived_series(g)]
    return {
        "dim": g.dim,
        "lower_central_series": lower,
        "derived_series": derived,
        "nilpotent": lower[-1] == 0,
        "solvable": derived[-1] == 0,
        "radical": subspace_payload(rad),
        "nilradical": subspace_payload(nilradical(g)),
        "levi": subspace_payload(levi),
        "semisimple": rad.dim == 0,
    }, EXIT_OK


def _csa(doc, args):
    g = document_to_algebra(doc)
    csa = find_csa(g, seed=args.seed)
    return {
        "csa": subspace_payload(csa),
        "is_csa": is_csa(g, csa),
        "seed": args.seed,
    }, EXIT_OK


def _roots(doc, args):
    g = document_to_algebra(doc)
    base_rows = doc.subspaces.get("base")
    if base_rows is not None:
        base = Subspace(g, base_rows)
    else:
        base = cartan_subspace(g)
    rs = restricted_roots(g, base)
    chambers = chamber_set_payload(weyl_chambers(rs)) if rs.exact else None
    return {"root_system": root_system_payload(rs), "chambers": chambers}, EXIT_OK


def _anosov(doc, args):
    action = document_to_action(doc)
    if args.h0 is not None:
        res = check_anosov(action, _parse_h0(args.h0, action))
        return certificate_payload(res), EXIT_OK if res.accepted else EXIT_NEGATIVE
    found = find_anosov_elements(action, budget=args.budget, seed=args.seed)
    memo: dict = {}
    payload = {
        "budget": args.budget,
        "found": [certificate_payload(c, memo) for _, c in found],
    }
    return payload, EXIT_OK if found else EXIT_INCONCLUSIVE


def _classify(doc, args):
    action = document_to_action(doc)
    try:
        rep = classify(action, budget=args.budget, seed=args.seed)
    except Inconclusive as exc:
        return {"case": None, "inconclusive": str(exc)}, EXIT_INCONCLUSIVE
    return classification_payload(rep), EXIT_OK


def _catalog(doc, args):
    examples = [
        {
            "name": d.name,
            "parameters": d.parameters,
            "expected": d.expected,
            "annotation": d.annotation,
        }
        for d in CATALOG
    ]
    return {"examples": examples}, EXIT_OK


class _Command(NamedTuple):
    run: Callable  # (document, or None for catalog, args) -> (payload, exit code)
    help: str
    options: tuple[str, ...] = ()  # flags of _OPTIONS beyond the common ones
    reads_input: bool = True


_OPTIONS = {
    "--h0": {"default": None, "help": "candidate element, comma-separated"},
    "--budget": {"type": int, "default": 200, "help": "search budget"},
}

COMMANDS = {
    "validate": _Command(_validate, "check antisymmetry and the Jacobi identity"),
    "analyze": _Command(_analyze, "series, radical, nilradical, Levi part"),
    "csa": _Command(_csa, "find a Cartan subalgebra"),
    "roots": _Command(_roots, "restricted root decomposition and chambers"),
    "anosov": _Command(_anosov, "certify an element or search for one", ("--h0", "--budget")),
    "classify": _Command(_classify, "structure-based case analysis", ("--budget",)),
    "catalog": _Command(_catalog, "list the example catalog", reads_input=False),
}


def _run(args) -> int:
    """Read and parse the input, run the command, emit its report."""
    command = COMMANDS[args.command]
    if command.reads_input:
        text = _read_input(args)
        doc = parse_document(text)
    else:
        text, doc = "", None
    payload, code = command.run(doc, args)
    _emit(args, provenance(text, args.command, args.seed), payload)
    return code


def _cmd_build(args) -> int:
    try:
        action = build_example(args.name)
    except KeyError:
        raise DocumentError(
            f"unknown example {args.name!r}; choices: {', '.join(catalog_names())}"
        ) from None
    text = serialize_document(action_to_document(action))
    _write(args, lambda write: write(text))
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error, not argparse's
    exit 2; a search budget must be >= 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise DocumentError(message)

    def parse_known_args(self, args=None, namespace=None):
        ns, extras = super().parse_known_args(args, namespace)
        if "budget" in ns and ns.budget < 0:
            raise DocumentError(f"--budget: expected an integer >= 0, got {ns.budget}")
        return ns, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="liecert",
        description="exact certificates for algebra-level Anosov actions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        if command.reads_input:
            p.add_argument("--input", default="-", help="input document (default stdin)")
        p.add_argument("--output", default=None, help="output path (default stdout)")
        p.add_argument(
            "--format", choices=("json", "text"), default="json", help="output format"
        )
        p.add_argument("--seed", type=int, default=0, help="seed for randomized searches")
        for flag in command.options:
            p.add_argument(flag, **_OPTIONS[flag])
        p.set_defaults(func=_run)

    p = sub.add_parser("build", help="emit a catalog example as a document")
    p.add_argument("name", help="example name; see the catalog command")
    p.add_argument("--output", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_build)

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
