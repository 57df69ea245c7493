"""Dead code in the package sources: unused imports and unreferenced private names.

Both checks read the sources with the standard library's ``ast`` only.
"""

import ast
from pathlib import Path

import sumsign

SRC = Path(sumsign.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _is_private(name):
    return name.startswith("_") and not name.endswith("__")


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _loaded_names(tree):
    """Every name read in tree, as a bare name or as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _private_definitions(tree):
    """(name, line) of each private module-level name and private method.
    Every method of a private class but its dunders counts as private."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [(t.id, node.lineno) for t in targets if isinstance(t, ast.Name)]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [(node.name, node.lineno)]
        else:
            continue
        yield from ((name, line) for name, line in names if _is_private(name))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    _is_private(item.name) or _is_private(node.name) and not item.name.endswith("__")
                ):
                    yield item.name, item.lineno


def test_every_module_uses_its_imports():
    unused = []
    for name, tree in TREES.items():
        if name == "__init__.py":
            continue  # the package namespace re-exports what it imports
        loaded = set(_loaded_names(tree))
        unused += [f"{name}: {imported}" for imported in _imported_names(tree) if imported not in loaded]
    assert unused == []


def test_every_private_name_is_referenced():
    loaded = set()
    for tree in TREES.values():
        loaded.update(_loaded_names(tree))
    unreferenced = [
        f"{name}:{line} {private}"
        for name, tree in TREES.items()
        for private, line in _private_definitions(tree)
        if private not in loaded
    ]
    assert unreferenced == []
