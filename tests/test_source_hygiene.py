"""Dead code: unused imports in the package, its tests and its demos, and
unreferenced private names in the package.

Both checks read the sources with the standard library's ``ast`` only.
"""

import ast
from pathlib import Path

import sumsign

SRC = Path(sumsign.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
ROOT = Path(__file__).resolve().parent.parent
# The tests and demos are checked for unused imports only: their private
# names are read by the test runner or are the names under test.
SCRIPTS = {
    path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for folder in ("tests", "demos")
    for path in sorted((ROOT / folder).glob("*.py"))
}


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
    for name, tree in {**TREES, **SCRIPTS}.items():
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


# Where every option of the package must be used: its own modules, the demos
# and the benchmark. A call in the tests alone does not count.
CALLERS = [
    *TREES.values(),
    *(tree for name, tree in SCRIPTS.items() if name.startswith("demos/")),
    *(ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "perfbench").glob("*.py"))),
]
# Options no such call sets, each with the reason it stays.
UNSET_OPTIONS = {
    "cli.py main(out)": "the tests pass their own stream; the console script writes to stdout",
}


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _signature_options(fn, bound):
    """(parameter, position or None) of each defaulted parameter of fn; a
    position counts the arguments after the ``bound`` leading ones (self or
    cls), and a keyword-only parameter has None."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][bound:]
    for p, arg in enumerate(positional):
        if p >= len(positional) - len(args.defaults):
            yield arg.arg, p
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _options(tree):
    """(callable name, parameter, position or None) of each defaulted
    parameter of a public function, a public class's constructor and a
    public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not _is_private(node.name):
            yield from ((node.name, *option) for option in _signature_options(node, 0))
        if not isinstance(node, ast.ClassDef) or _is_private(node.name):
            continue
        methods = {item.name: item for item in node.body if isinstance(item, ast.FunctionDef)}
        if "__init__" in methods:
            yield from ((node.name, *o) for o in _signature_options(methods["__init__"], 1))
        elif _is_dataclass(node):
            fields = [item for item in node.body
                      if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
            for p, item in enumerate(fields):
                if item.value is not None:
                    yield node.name, item.target.id, p
        for name, item in methods.items():
            if _is_private(name) or name.startswith("__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
            yield from ((name, *option) for option in _signature_options(item, 0 if static else 1))


def _calls(trees):
    """{callable name: [(positional count, keyword names, has *args, has **kwargs)]}
    over every call in trees, by bare or attribute name."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append(
                (len(node.args), keywords - {None}, starred, None in keywords)
            )
    return calls


def test_every_option_is_set_by_some_call():
    """A defaulted parameter that no caller sets is a fork only tests reach."""
    calls = _calls(CALLERS)
    unset = set()
    for module, tree in TREES.items():
        for name, param, position in _options(tree):
            if not any(
                param in keywords or kwstar or position is not None and (count > position or star)
                for count, keywords, star, kwstar in calls.get(name, [])
            ):
                unset.add(f"{module} {name}({param})")
    assert unset == set(UNSET_OPTIONS)
