"""Every private module-level name and every import under src/liqscreen is used.

A helper left behind when its last caller goes (a second copy of a
slope, an interval routine) is dead code that still reads as live, and
so is the import of a routine a module no longer calls. This parses
each module with ast and fails on any underscore-prefixed function,
class or module constant that no code under src/liqscreen references
outside its own definition, and on any module-level import that its
module never references (the package's __init__.py, which imports to
re-export, and __future__ imports aside). No function imports inside
its body either: the modules form no import cycle that a deferred
import would have to break, so every dependency is stated at the top.
Every dataclass field is read too, by some code, test or benchmark.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liqscreen"


def _references(node):
    """Names loaded and attributes read anywhere inside node."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def _private_definitions(tree):
    """(name, defining node) of each private module-level definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_definition_is_referenced():
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    refs = sum((_references(tree) for tree in trees.values()), Counter())
    unused = [f"{module}:{name}"
              for module, tree in trees.items()
              for name, node in _private_definitions(tree)
              if refs[name] - _references(node)[name] <= 0]
    assert not unused, f"private definitions with no reference: {unused}"


def _imported_names(tree):
    """Names bound by each module-level import, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (alias.asname or alias.name for alias in node.names)


def test_every_module_level_import_is_referenced():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        refs = _references(tree)
        unused += [f"{path.name}:{name}" for name in _imported_names(tree)
                   if not refs[name]]
    assert not unused, f"imports with no reference: {unused}"


def test_no_function_imports_inside_its_body():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested += [f"{path.name}:{node.lineno}" for node in ast.walk(func)
                           if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, f"imports inside a function body: {nested}"


def _is_dataclass(node):
    """True for a class decorated with @dataclass or @dataclass(...)."""
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _attribute_reads(tree):
    """Attribute names loaded, and literal names passed to getattr, in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_dataclass_field_is_read():
    """Each field of a dataclass under src/liqscreen is read somewhere.

    A field nothing reads (a bidder count kept beside the bids it
    produced, a label) still widens the class's equality and hash and
    reads as meaningful. A field counts as read when any module under
    src/, tests/ or perfbench/ loads an attribute of its name or passes
    its name as a literal to getattr. The match is by name only, so a
    field whose name other objects also carry (such as name, read off
    argparse namespaces and paths) passes even if no code reads it off
    the dataclass.
    """
    reads = {name for tree_root in ("src", "tests", "perfbench")
             for path in sorted((ROOT / tree_root).rglob("*.py"))
             for name in _attribute_reads(ast.parse(path.read_text(), str(path)))}
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                unread += [f"{path.name}:{node.name}.{stmt.target.id}"
                           for stmt in node.body
                           if isinstance(stmt, ast.AnnAssign)
                           and isinstance(stmt.target, ast.Name)
                           and stmt.target.id not in reads]
    assert not unread, f"dataclass fields nothing reads: {unread}"
