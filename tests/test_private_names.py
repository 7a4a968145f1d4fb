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
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "liqscreen"


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
