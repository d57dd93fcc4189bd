"""Every module of the package, of the tests and of the tools imports only
names it uses, and every name a package module's `__all__` lists can be
read from it: a name nothing reads is dead weight, and an `__all__` entry
that does not resolve breaks `from weightlab.<module> import *` and the
docs that list it."""

import ast
import importlib
from pathlib import Path

import weightlab

_SRC = Path(weightlab.__file__).resolve().parent
_MODULES = sorted(_SRC.glob("*.py"))
_ROOT = Path(__file__).resolve().parent.parent
_CHECKED = _MODULES + sorted(_ROOT.glob("tests/*.py")) + sorted(_ROOT.glob("tools/*.py"))


def _scopes(tree):
    """(scope, node) for every node, scope being the innermost enclosing
    function, or the module."""
    todo = [(tree, tree)]
    while todo:
        scope, node = todo.pop()
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield inner, child
            todo.append((inner, child))


def _exported(tree):
    """The strings of the module-level `__all__` list, if any."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts]
    return []


def _unused_imports(path):
    """The names an import binds that its own scope never reads; at module
    level a name `__all__` lists counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    exported = set(_exported(tree))
    unused = []
    for scope, node in _scopes(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        read = {n.id for n in ast.walk(scope)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        if scope is tree:
            read |= exported
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read:
                unused.append(f"{path.parent.name}/{path.name}: {name}")
    return unused


def test_every_imported_name_is_used():
    unused = [u for path in _CHECKED for u in _unused_imports(path)]
    assert not unused, f"imported but never used: {unused}"


def test_every_all_entry_resolves():
    missing = []
    for path in _MODULES:
        name = "weightlab" if path.stem == "__init__" else f"weightlab.{path.stem}"
        mod = importlib.import_module(name)
        for entry in _exported(ast.parse(path.read_text())):
            try:
                getattr(mod, entry)
            except AttributeError:
                missing.append(f"{path.stem}: {entry}")
    assert not missing, f"__all__ entries that do not resolve: {missing}"
