"""Every top-level name of the package is used by a program path.

Each module in src/liecert is parsed with ast.  A top-level function,
class or constant passes when src/ or perfbench/ uses it outside its own
definition.  A use is a read of an `ast.Name` with that name, or of an
`ast.Attribute` `<module>.name` qualified by the stem of the defining
module, so a word in a comment, a docstring or a string does not count,
and neither does an import or an assignment.  A Name read inside a
function, lambda or comprehension that binds the name itself (a
parameter or an assignment, not an import) reads that local, and an
attribute of another object (`Echelon(m).rank` for `linalg.rank`) is
that object's, so neither counts.  The (module, name) pairs of
perfbench/tracing.py's PROFILED table count as uses too: the benchmark
profiles those functions by name, so each of them must exist.  A public
name that liecert/__init__.py re-exports may instead be named in
backticks in README.md's library section, which makes it library API.
The tests alone keep no name alive: a name that only the tests use is
dead code; delete it, and move what a test still needs of it into the
tests.

Methods and properties defined in the package's classes are held to the
same rule, but only src/ and perfbench/ count, whatever the class: a
member is used when one of them reads an attribute of that name outside
the member's own definition.  Only an `ast.Attribute` counts here, so a
local variable that shares a member's name does not keep it alive.
Dunders are exempt, and so is a member
that overrides a method of a base class from outside the package (such
as argparse's `parse_known_args`), because that class calls it.
"""

import ast
import collections
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liecert"
PROGRAM = (ROOT / "src", ROOT / "perfbench")
README = ROOT / "README.md"


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


def _library_api() -> set[str]:
    """The names in inline code spans of README.md's library section, from
    its heading to the next one, fenced code left out: `sl_basis(n)` and
    `Subspace.basis` name sl_basis and Subspace."""
    text = README.read_text()
    start = text.index("\n## Library")
    section = text[start : text.index("\n## ", start + 1)]
    section = re.sub(r"```.*?```", "", section, flags=re.S)
    return set(re.findall(r"`([A-Za-z_]\w*)[^`]*`", section))


def _profiled() -> set[tuple[str, str]]:
    """The (module, function) pairs of the PROFILED table in perfbench/tracing.py."""
    for node in ast.parse((ROOT / "perfbench" / "tracing.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PROFILED" for t in node.targets
        ):
            return {tuple(ast.literal_eval(v)) for v in node.value.values}
    raise AssertionError("perfbench/tracing.py defines no PROFILED table")


_SCOPES = (
    ast.FunctionDef,
    ast.AsyncFunctionDef,
    ast.Lambda,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _local_names(scope) -> set[str]:
    """The names a function, lambda or comprehension binds in its own scope:
    parameters, assignment and loop targets, nested def and class names,
    less the names it declares global or nonlocal.  An import binds the
    name to the same object, so it is not counted."""
    bound, declared = set(), set()
    if not isinstance(scope, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
        args = scope.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        bound.update(a.arg for a in params if a is not None)
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif not isinstance(node, _SCOPES):
            todo.extend(ast.iter_child_nodes(node))
    return bound - declared


def _reads(node, shadowed=frozenset()):
    """(name, line, qualifier) for every Name and Attribute read under node.

    A Name has qualifier None and is left out where an enclosing function
    binds it (see `_local_names`); an Attribute's qualifier is the name
    before its dot, or "" when that is no plain or dotted name."""
    if isinstance(node, _SCOPES):
        shadowed = shadowed | _local_names(node)
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        if node.id not in shadowed:
            yield node.id, node.lineno, None
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        base = node.value
        qualifier = getattr(base, "id", None) or getattr(base, "attr", None) or ""
        yield node.attr, node.lineno, qualifier
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, shadowed)


def _use_index(tops) -> dict[str, list[tuple[pathlib.Path, int, str | None]]]:
    """name -> every (file, line number, qualifier) where it is read."""
    index = collections.defaultdict(list)
    for top in tops:
        for path in top.rglob("*.py"):
            for name, line, qualifier in _reads(ast.parse(path.read_text())):
                index[name].append((path, line, qualifier))
    return index


def test_profiled_functions_exist():
    defined = {(p.stem, name) for p in PACKAGE.glob("*.py") for name, _ in _definitions(p)}
    profiled = _profiled()
    assert ("linalg", "in_span") in profiled
    assert profiled <= defined


def test_every_top_level_name_is_used():
    program = _use_index(PROGRAM)
    library = _exported() & _library_api()
    profiled = _profiled()
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for name, node in _definitions(path):
            if name.startswith("__") or (path.stem, name) in profiled or name in library:
                continue
            uses = [
                (p, line)
                for p, line, qualifier in program.get(name, ())
                if qualifier in (None, path.stem)
                and not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not uses:
                unused.append(f"{path.name}: {name}")
    assert unused == []


def _members(path: pathlib.Path):
    """(class, method or property, node) for every function defined in a class body."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield node.name, item.name, item


def _overrides(module: str, cls: str, name: str) -> bool:
    """Whether cls.name overrides a method of a base class from outside the package."""
    bases = getattr(importlib.import_module(f"liecert.{module}"), cls).__mro__[1:]
    return any(
        not b.__module__.startswith("liecert") and name in vars(b) for b in bases
    )


def test_every_class_member_is_used():
    program = _use_index(PROGRAM)
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for cls, name, node in _members(path):
            if name.startswith("__") or _overrides(path.stem, cls, name):
                continue
            uses = [
                (p, line)
                for p, line, qualifier in program.get(name, ())
                if qualifier is not None
                and not (p == path and node.lineno <= line <= node.end_lineno)
            ]
            if not uses:
                unused.append(f"{path.name}: {cls}.{name}")
    assert unused == []
