"""The modules of liecert import each other in one order.

Each module in src/liecert is parsed with ast, and every import of a
package module is collected, at module level or inside a function.  The
layers, bottom first, are

    linalg < poly < spectral, algebra < cartan < anosov < builders, documents < cli

and a module may import only from a layer below its own: modules of one
layer do not import each other.  `__init__` re-exports the package and is
not in a layer; every other module must be.
"""

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "liecert"
LAYERS = (
    ("linalg",),
    ("poly",),
    ("spectral", "algebra"),
    ("cartan",),
    ("anosov",),
    ("builders", "documents"),
    ("cli",),
)


def _imported(module: str) -> set[str]:
    """The package modules that imports in `module` name: `from .m import x`,
    `from . import m`, `from liecert.m import x` and `import liecert.m`."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif node.module and node.module.startswith("liecert."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(
                alias.name.split(".")[1]
                for alias in node.names
                if alias.name.startswith("liecert.")
            )
    return out


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == {m for layer in LAYERS for m in layer}


def test_modules_import_only_from_lower_layers():
    rank = {m: i for i, layer in enumerate(LAYERS) for m in layer}
    wrong = []
    for module, level in sorted(rank.items()):
        for target in sorted(_imported(module)):
            if rank.get(target, level) >= level:
                wrong.append(f"{module} imports {target}")
    assert wrong == []

