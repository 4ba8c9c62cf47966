"""numpy is not used by liecert; the tests keep it as an oracle only.

Rational roots are found by exact p-adic lifting and the float witnesses
of an inexact root system by a Weierstrass iteration on Python complex
numbers, so no module needs numpy.  Each module in src/liecert is parsed
with ast, and an import of numpy (or of one of its submodules) anywhere
fails here (`ALLOWED`, the functions once allowed to, is empty now); so
does numpy among the runtime dependencies of pyproject.toml.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecert"
ALLOWED: set[tuple[str, str]] = set()


def _numpy_imports(tree: ast.AST):
    """The line of every numpy import under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(n == "numpy" or n.startswith("numpy.") for n in names):
            yield node.lineno


def test_numpy_is_imported_only_in_its_two_uses():
    outside, inside = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = [
            n for n in tree.body
            if isinstance(n, ast.FunctionDef) and (path.name, n.name) in ALLOWED
        ]
        for fn in allowed:
            if any(_numpy_imports(fn)):
                inside.add((path.name, fn.name))
        for line in _numpy_imports(tree):
            if not any(fn.lineno <= line <= fn.end_lineno for fn in allowed):
                outside.append(f"{path.name}:{line}")
    assert outside == []
    assert inside == ALLOWED == set()
    # so no module imports numpy, and it is not installed with liecert
    for path in PACKAGE.glob("*.py"):
        assert not any(_numpy_imports(ast.parse(path.read_text()))), path.name
    assert _toml_list("dependencies") == ["sympy"]
    assert "numpy" in _toml_list("test")


def _toml_list(key: str) -> list[str]:
    """The list assigned to key on one line of pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text()
    line = next(x for x in text.splitlines() if x.startswith(f"{key} = "))
    return ast.literal_eval(line.split("=", 1)[1].strip())
