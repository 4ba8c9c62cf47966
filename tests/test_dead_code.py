"""Every top-level name of the package is used somewhere.

Each module in src/liecert is parsed with ast; a top-level function,
class or constant passes when its name occurs as a word in src/, tests/
or perfbench/ outside its own definition and the package's re-export.
A name found nowhere else is dead code: delete it.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecert"
SEARCHED = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")


def _definitions(path: pathlib.Path):
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _word_index() -> dict[str, list[tuple[pathlib.Path, int]]]:
    """word -> every (file, line number) it occurs at, package re-export left out."""
    index = collections.defaultdict(list)
    for top in SEARCHED:
        for path in top.rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    index[word].append((path, lineno))
    return index


def test_every_top_level_name_is_used():
    index = _word_index()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(path):
            if name.startswith("__"):
                continue
            uses = [
                (p, line)
                for p, line in index.get(name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not uses:
                unused.append(f"{path.name}: {name}")
    assert unused == []
