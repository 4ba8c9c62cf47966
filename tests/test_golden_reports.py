"""Pinned report bytes: sha256 digests of every CLI report on the catalog.

For each catalog example the digests cover the exit code and stdout of
``build``; of ``validate``, ``analyze``, ``csa``, ``roots`` and
``classify`` in ``--format json`` and ``--format text``; and of
``anosov`` in JSON.  ``catalog`` is hashed once, in JSON.  A change
that alters any report byte fails here.

The digests live in ``golden_reports.json``.  Rewrite them only in a
change that alters reports on purpose, and say so in its description:

    PYTHONPATH=src python tests/test_golden_reports.py > tests/golden_reports.json
"""

import hashlib
import io
import json
import pathlib
import sys

import pytest

from liecert import catalog_names
from liecert.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden_reports.json")
COMMANDS = ("validate", "analyze", "csa", "roots", "classify")
FORMATS = ("json", "text")


def _run(argv, stdin_text=""):
    """Run the CLI in-process and return (exit code, stdout)."""
    saved = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.StringIO(stdin_text), io.StringIO()
    try:
        code = main(argv)
        out = sys.stdout.getvalue()
    finally:
        sys.stdin, sys.stdout = saved
    return code, out


def _digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


def example_digests(name: str) -> dict[str, str]:
    code, doc = _run(["build", name])
    digests = {f"{name}/build": _digest(code, doc)}
    for command in COMMANDS:
        for fmt in FORMATS:
            digests[f"{name}/{command}/{fmt}"] = _digest(
                *_run([command, "--format", fmt], doc)
            )
    digests[f"{name}/anosov/json"] = _digest(*_run(["anosov"], doc))
    return digests


def catalog_digests() -> dict[str, str]:
    return {"catalog": _digest(*_run(["catalog"]))}


@pytest.fixture(autouse=True)
def _default_options(monkeypatch):
    monkeypatch.delenv("LIECERT_SEED", raising=False)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", catalog_names())
def test_example_reports_match_golden(name, golden):
    got = example_digests(name)
    assert got == {k: v for k, v in golden.items() if k.startswith(f"{name}/")}


def test_catalog_report_matches_golden(golden):
    assert catalog_digests() == {"catalog": golden["catalog"]}


def test_golden_covers_every_report(golden):
    per_example = 1 + len(COMMANDS) * len(FORMATS) + 1
    assert len(golden) == per_example * len(catalog_names()) + 1


if __name__ == "__main__":
    table = {}
    for example in catalog_names():
        table.update(example_digests(example))
    table.update(catalog_digests())
    print(json.dumps(table, indent=1, sort_keys=True))
