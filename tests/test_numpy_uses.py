"""numpy is reached in two places only: `spectral._linear_factors` and
`cartan.restricted_roots`.

The first proposes rational roots that exact division then confirms or
rejects; the second takes float witnesses for the roots of an inexact
root system.  Certificates hold no float, so nothing else may need
numpy.  Each module in src/liecert is parsed with ast, and an import of
numpy (or of one of its submodules) anywhere outside those two functions
fails here.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecert"
ALLOWED = {("spectral.py", "_linear_factors"), ("cartan.py", "restricted_roots")}


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
    assert inside == ALLOWED
