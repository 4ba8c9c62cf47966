"""Every top-level name of the package is used by a program path.

Each module in src/liecert is parsed with ast.  A top-level function,
class or constant passes when its name occurs as a word in src/ or
perfbench/ outside its own definition and the package's re-export.  The
public names that liecert/__init__.py re-exports may be used by the
tests alone; any other name that only the tests use is dead code: delete
it, and move what a test still needs of it into the tests.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecert"
PROGRAM = (ROOT / "src", ROOT / "perfbench")
TESTS = ROOT / "tests"


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


def _exported() -> set[str]:
    """The names liecert/__init__.py imports from its modules."""
    return {
        alias.asname or alias.name
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _word_index(tops) -> dict[str, list[tuple[pathlib.Path, int]]]:
    """word -> every (file, line number) it occurs at, package re-export left out."""
    index = collections.defaultdict(list)
    for top in tops:
        for path in top.rglob("*.py"):
            if path == PACKAGE / "__init__.py":
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(re.findall(r"\w+", line)):
                    index[word].append((path, lineno))
    return index


def test_every_top_level_name_is_used():
    program = _word_index(PROGRAM)
    everywhere = _word_index(PROGRAM + (TESTS,))
    exported = _exported()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(path):
            if name.startswith("__"):
                continue
            index = everywhere if name in exported else program
            uses = [
                (p, line)
                for p, line in index.get(name, ())
                if not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not uses:
                unused.append(f"{path.name}: {name}")
    assert unused == []
