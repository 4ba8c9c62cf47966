"""sympy is reached through one function: `spectral.factor_with_multiplicity`.

Each module in src/liecert is parsed with ast.  An import of sympy (or of
one of its submodules) is allowed only inside that function, and so is a
call of `factor_list`; anywhere else either one is a second bridge.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecert"
BRIDGE = ("spectral.py", "factor_with_multiplicity")


def _uses(tree: ast.AST):
    """(line, what) for every sympy import and `factor_list` call under tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        elif isinstance(node, ast.Call):
            f = node.func
            name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")
            if name == "factor_list":
                yield node.lineno, "factor_list call"
            continue
        else:
            continue
        if any(n == "sympy" or n.startswith("sympy.") for n in names):
            yield node.lineno, "sympy import"


def test_sympy_is_used_only_in_the_bridge():
    outside, inside = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        bridge = None
        if path.name == BRIDGE[0]:
            bridge = next(
                n for n in tree.body
                if isinstance(n, ast.FunctionDef) and n.name == BRIDGE[1]
            )
            inside = list(_uses(bridge))
        for line, what in _uses(tree):
            if bridge is None or not bridge.lineno <= line <= bridge.end_lineno:
                outside.append(f"{path.name}:{line}: {what}")
    assert outside == []
    assert sorted(what for _, what in inside) == ["factor_list call", "sympy import"]
