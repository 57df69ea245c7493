"""Dead code: unused imports in the package, its tests and its demos,
unreferenced private names in the package, options no caller sets and public
names no caller uses; and unbounded memos.

The checks read the sources with the standard library's ``ast`` only.
"""

import ast
import re
import sys
from collections import Counter
from pathlib import Path

import pytest

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
    yield from _attribute_names(tree)


def _attribute_names(tree):
    """Every name read in tree as an attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
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


def _callers(modules, scripts):
    """The trees where every option and public name of the package must be
    used: its own modules and the scripts under demos/ and perfbench/. A use
    in the tests alone does not count."""
    return [
        *modules.values(),
        *(tree for path, tree in scripts.items() if path.startswith(("demos/", "perfbench/"))),
    ]


BENCH = {
    path.relative_to(ROOT).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
    for path in sorted((ROOT / "perfbench").glob("*.py"))
}
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
    parameter of a module-level function, a class's constructor and a
    method of a class but its dunders, private ones included."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield from ((node.name, *option) for option in _signature_options(node, 0))
        if not isinstance(node, ast.ClassDef):
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
            if name.startswith("__"):
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


def _unset_options(modules, scripts):
    """'module name(parameter)' of each option (see _options) in modules
    that no call in a caller (see _callers) sets."""
    calls = _calls(_callers(modules, scripts))
    for module, tree in modules.items():
        for name, param, position in _options(tree):
            if not any(
                param in keywords or kwstar or position is not None and (count > position or star)
                for count, keywords, star, kwstar in calls.get(name, [])
            ):
                yield f"{module} {name}({param})"


@pytest.mark.parametrize(
    "modules, scripts, flagged",
    [
        ({"m.py": "def f(x=0): pass\nf(1)"}, {}, []),
        ({"m.py": "def f(x=0): pass\nf()"}, {"tests/test_m.py": "from m import f\nf(x=1)"}, ["m.py f(x)"]),
        # A private function and a private class's method, set only by a test.
        ({"m.py": "def _f(x, y=0): pass\n_f(1)"}, {"tests/test_m.py": "from m import _f\n_f(1, 2)"},
         ["m.py _f(y)"]),
        ({"m.py": "class _C:\n    def _g(self, y=0): pass\n_C()._g()"}, {}, ["m.py _g(y)"]),
        ({"m.py": "def _f(*, y=0): pass\n_f(**{})"}, {}, []),
    ],
    ids=["set", "set-by-a-test", "private-function", "private-method", "keywords-spread"],
)
def test_unset_option_check_sees_each_form(modules, scripts, flagged):
    modules, scripts = ({name: ast.parse(source) for name, source in d.items()} for d in (modules, scripts))
    assert list(_unset_options(modules, scripts)) == flagged


def test_every_option_is_set_by_some_call():
    """A defaulted parameter that no caller sets is a fork only tests reach,
    in private code as in public."""
    assert set(_unset_options(TREES, {**SCRIPTS, **BENCH})) == set(UNSET_OPTIONS)


# Public names no caller uses, each with the reason it stays.
UNCALLED_NAMES = {
    "verify.py Counterexample.sort_key": "the README documents it as the report order, and c06 compares against it",
    "labeling.py SignedLabeledGraph.edge_label": "it hides edge_key's canonical order from a caller",
    "labeling.py SignedLabeledGraph.sign": "it hides edge_key's canonical order from a caller",
}


def _public_definitions(tree):
    """(qualified name, name, node, reader) of each public module-level
    function and class of tree, and of each public method of a public class.
    ``reader`` yields the names in a tree that can use the definition: any
    read for a function or class, attribute reads alone for a method. A
    dunder is not public: the language calls it."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node.name, node, _loaded_names
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name, item, _attribute_names


def _uncalled(modules, scripts):
    """'module qualified-name' of each public definition in modules whose
    name no caller (see _callers) reads outside the definition's own body.
    An import is no read, so the ``__init__`` re-export is no use, and a
    bare name is no use of a method, so a local variable named like it is
    none either."""
    reads = {_loaded_names: Counter(), _attribute_names: Counter()}
    for tree in _callers(modules, scripts):
        for reader, counts in reads.items():
            counts.update(reader(tree))
    for module, tree in modules.items():
        for qualname, name, node, reader in _public_definitions(tree):
            if reads[reader][name] == sum(1 for loaded in reader(node) if loaded == name):
                yield f"{module} {qualname}"


@pytest.mark.parametrize(
    "modules, scripts, flagged",
    [
        # A function only tests call.
        ({"m.py": "def f(): pass"}, {"tests/test_m.py": "from m import f\nf()"}, ["m.py f"]),
        ({"m.py": "def f(): pass"}, {"demos/d.py": "from m import f\nf()"}, []),
        ({"m.py": "def f(): pass"}, {"perfbench/w.py": "import m\nm.f()"}, []),
        ({"m.py": "def f(): pass", "n.py": "from .m import f\nf()"}, {}, []),
        # A method, by its name.
        ({"m.py": "class C:\n    def run(self): pass\n    def stop(self): pass\nC().run()"}, {},
         ["m.py C.stop"]),
        # A method named like a caller's local variable.
        ({"m.py": "class C:\n    def sign(self): pass\ndef show(c: C):\n    sign = 1\n    return sign"},
         {"demos/d.py": "from m import show\nshow(None)"}, ["m.py C.sign"]),
        # A name read in its own body only.
        ({"m.py": "def f(n):\n    return f(n - 1)"}, {}, ["m.py f"]),
        ({"m.py": "class C:\n    def copy(self):\n        return C()"}, {"demos/d.py": "def dup(x): return x.copy()"},
         ["m.py C"]),
        # A re-export.
        ({"m.py": "def f(): pass", "__init__.py": "from .m import f"}, {}, ["m.py f"]),
        # Dunders.
        ({"m.py": "class C:\n    def __len__(self): return 0\nC()\ndef __getattr__(name): pass"}, {}, []),
    ],
    ids=["tests-only", "demo", "perfbench", "other-module", "method", "method-named-like-a-local",
         "recursion", "own-class", "re-export", "dunders"],
)
def test_uncalled_name_check_sees_each_form(modules, scripts, flagged):
    modules, scripts = ({name: ast.parse(source) for name, source in d.items()} for d in (modules, scripts))
    assert list(_uncalled(modules, scripts)) == flagged


def test_every_public_name_is_used_by_some_caller():
    """A public function, class or method that only tests call is API kept
    for them alone."""
    assert set(_uncalled(TREES, {**SCRIPTS, **BENCH})) == set(UNCALLED_NAMES)


# A module constant: an upper-case name, private or not.
_CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def _unbounded_memos(tree):
    """Line of each functools memo in tree that may grow without a named
    bound: ``cache``, a bare ``lru_cache`` (128 entries by default), and an
    ``lru_cache`` whose maxsize is missing, None or a literal, or reads any
    name but this module's upper-case constants."""
    constants = {
        target.id
        for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and _CONSTANT.fullmatch(target.id)
    }
    calls = {id(node.func): node for node in ast.walk(tree) if isinstance(node, ast.Call)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            if any(alias.name == "cache" for alias in node.names):
                yield node.lineno
            continue
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "functools":
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        else:
            continue
        if name == "cache" and isinstance(node, ast.Attribute):
            yield node.lineno
        if name != "lru_cache":
            continue
        call = calls.get(id(node))
        if call is None:
            yield node.lineno
            continue
        sizes = [k.value for k in call.keywords if k.arg == "maxsize"] + call.args[:1]
        names = [n.id for size in sizes for n in ast.walk(size) if isinstance(n, ast.Name)]
        if not names or not set(names) <= constants:
            yield node.lineno


@pytest.mark.parametrize(
    "source, faults",
    [
        ("from functools import cache", [1]),
        ("import functools\n@functools.cache\ndef f(x): pass", [2]),
        ("from functools import lru_cache\n@lru_cache\ndef f(x): pass", [2]),
        ("from functools import lru_cache\n@lru_cache(maxsize=None)\ndef f(x): pass", [2]),
        ("from functools import lru_cache\n@lru_cache(64)\ndef f(x): pass", [2]),
        ("from functools import lru_cache\n@lru_cache(maxsize=n)\ndef f(x, n): pass", [2]),
        ("import functools\nN = 4\n@functools.lru_cache(N + 1)\ndef f(x): pass", []),
        ("from functools import lru_cache\n_N = 4\n@lru_cache(maxsize=_N)\ndef f(x): pass", []),
    ],
)
def test_unbounded_memo_check_sees_each_form(source, faults):
    assert list(_unbounded_memos(ast.parse(source))) == faults


def test_every_memo_is_bounded_by_a_named_constant():
    """An unbounded memo holds every key it is ever given for the life of
    the process; each one in the package names its bound."""
    assert [f"{name}:{line}" for name, tree in TREES.items() for line in _unbounded_memos(tree)] == []


# The package modules the index-space search may read: the graph queries,
# the candidate sets' admissibility (``ap_profile``, ``ap_pair``) and the
# errors. Anything else of the package (derive, the balance checks, the
# transforms) belongs to the object-level replay, which must check the
# search independently.
SEARCH_IMPORTS = {"graphs", "intsets", "errors"}


def _package_imports(tree):
    """(line, module) of each import in tree: a module of the package by its
    bare name, any other module by its top-level name, and '..' for a
    relative import from outside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name.split(".")[0]) for alias in node.names)
        elif not isinstance(node, ast.ImportFrom):
            continue
        elif node.level == 0:
            yield node.lineno, node.module.split(".")[0]
        elif node.level > 1:
            yield node.lineno, ".."
        elif node.module:
            yield node.lineno, node.module.split(".")[0]
        else:
            yield from ((node.lineno, alias.name) for alias in node.names)


def _search_import_faults(tree):
    """'line module' of each import of tree that the search may not make:
    another module of the package, the package itself, or a module outside
    the standard library."""
    for line, module in _package_imports(tree):
        if module in SEARCH_IMPORTS or module in sys.stdlib_module_names:
            continue
        yield f"{line} {module}"


@pytest.mark.parametrize(
    "source, faults",
    [
        ("from __future__ import annotations\nimport itertools\nfrom .graphs import Graph", []),
        ("from .labeling import derive", ["1 labeling"]),
        ("from .balance import is_balanced_fast", ["1 balance"]),
        ("from . import graphs, transforms", ["1 transforms"]),
        ("from .. import sumsign", ["1 .."]),
        ("import sumsign.labeling", ["1 sumsign"]),
        ("from sumsign.graphs import Graph", ["1 sumsign"]),
        ("def f():\n    from .labeling import derive", ["2 labeling"]),
        ("import numpy", ["1 numpy"]),
    ],
)
def test_search_import_check_sees_each_form(source, faults):
    assert list(_search_import_faults(ast.parse(source))) == faults


def test_the_search_imports_no_replay_module():
    """The index-space search and the object-level replay check each other
    only while the search reads nothing of the replay: ``search.py`` imports
    from the graph, set and error modules and the standard library alone."""
    assert list(_search_import_faults(TREES["search.py"])) == []
