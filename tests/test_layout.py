"""Layout checks on the package source: no function without a caller, none
that only the tests or the benchmark call, no module-level cache beyond the
listed ones, one base class for every error the package raises, and no
import from outside the standard library."""

import ast
import importlib
import inspect
import pkgutil
import re
import sys
from pathlib import Path

import zomo

ROOT = Path(__file__).resolve().parents[1]
PKG = ROOT / "src" / "zomo"


def _defined_functions(path, text):
    """(name, def line) of every function and method, dunders left out."""
    for node in ast.walk(ast.parse(text, str(path))):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not (node.name.startswith("__")
                         and node.name.endswith("__"))):
            yield node.name, node.lineno


def _unreferenced(dirs):
    """(file:line, name) of each package function or method whose name
    occurs as a word in no .py file of ``dirs`` other than on its own
    ``def`` line."""
    lines = {path: path.read_text().splitlines()
             for d in dirs for path in sorted(d.glob("*.py"))}
    unreferenced = []
    for path in sorted(PKG.glob("*.py")):
        for name, lineno in _defined_functions(path, "\n".join(lines[path])):
            word = re.compile(r"\b%s\b" % re.escape(name))
            if not any(word.search(line)
                       for other, text in lines.items()
                       for i, line in enumerate(text, 1)
                       if (other, i) != (path, lineno)):
                unreferenced.append(("%s:%d" % (path.name, lineno), name))
    return unreferenced


def test_every_function_is_referenced():
    """Each function or method name occurs as a word in the package, the
    tests or the benchmark somewhere other than its own ``def`` line."""
    assert _unreferenced((PKG, ROOT / "tests", ROOT / "bench")) == []


# Kept without a caller in the package until the open items that wire them
# land: the extremal-type classification (is_extremal) and the Kummer
# divisor check at every place (verify_w_divisor).
PACKAGE_UNCALLED = {"is_extremal", "verify_w_divisor"}


def test_every_function_is_referenced_in_the_package():
    """The same with the package alone as the place to look: a helper that
    only the tests or the benchmark call belongs in them.  The names in
    PACKAGE_UNCALLED are the exceptions, and each must still be one."""
    found = _unreferenced((PKG,))
    assert [f for f in found if f[1] not in PACKAGE_UNCALLED] == []
    assert {name for _, name in found} == PACKAGE_UNCALLED


_CONTAINERS = {"dict", "list", "set", "defaultdict", "OrderedDict",
               "Counter"}
_CACHES = {"cache", "lru_cache"}


def _name(node):
    """The last name of a Name, an Attribute or a Call of either."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _module_state(path):
    """The module-level names of one source file bound to a mutable
    container, and its functions under a ``functools`` cache decorator."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            value = node.value
            if (isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp,
                                   ast.ListComp, ast.SetComp))
                    or (isinstance(value, ast.Call)
                        and _name(value) in _CONTAINERS)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                for target in targets:
                    for leaf in ast.walk(target):
                        if isinstance(leaf, ast.Name):
                            yield leaf.id
    for node in ast.walk(tree):
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(_name(d) in _CACHES for d in node.decorator_list)):
            yield node.name


# The module-level containers the package may keep.  The last three are
# caches that wait for the benchmark's per-run cache context (ROADMAP item
# 3), because bench/checks.py clears them by name; a new cache belongs in an
# explicit object, not in this set.
MODULE_STATE = {"catalog.PROPERTY_EVALUATORS", "catalog._group_cache",
                "kummer._GBAR_CACHE", "kummer._LIFT_CACHE"}


def test_no_new_module_level_cache():
    """Every module-level dict, list or set and every function under
    ``functools.cache`` or ``lru_cache`` in the package is in MODULE_STATE."""
    found = {"%s.%s" % (path.stem, name) for path in sorted(PKG.glob("*.py"))
             for name in _module_state(path)}
    assert found == MODULE_STATE


def test_every_exception_derives_from_zomo_error():
    """The command line turns a ``ZomoError`` into exit code 2 with a
    message; an error class outside that base would escape as a traceback."""
    stray = []
    for info in pkgutil.iter_modules(zomo.__path__):
        if info.name == "__main__":  # importing it runs the command line
            continue
        module = importlib.import_module("zomo." + info.name)
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == module.__name__
                    and not issubclass(obj, zomo.ZomoError)):
                stray.append("%s.%s" % (module.__name__, name))
    assert stray == []


def _absolute_imports(path):
    """The top-level module of each absolute import in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_package_imports_only_the_standard_library():
    imported = {name for path in sorted(PKG.rglob("*.py"))
                for name in _absolute_imports(path)}
    assert imported
    assert sorted(imported - sys.stdlib_module_names) == []
