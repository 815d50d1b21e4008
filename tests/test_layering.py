"""The package's layering: helpers that modules share live in core or errors,
the only import from outside the standard library is the tests' pytest, the
package republishes each module's __all__, and it holds no assert statement."""

import ast
import importlib
import sys
from pathlib import Path

import posetmatch

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "posetmatch"
SHARED = {"core", "errors"}
MODULES = ("core", "decomp", "lecount", "occur", "sat")  # the ones whose __all__ the package republishes


def test_private_names_come_only_from_core_and_errors():
    # a module may use another's underscore names only if that one is core
    # or errors, whether it imports the name or reads it off the module
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1]
        whole = set()  # siblings other than core and errors, imported as modules
        for node in imports:
            for alias in node.names:
                if node.module is None and alias.name not in SHARED:
                    whole.add(alias.asname or alias.name)
                elif node.module not in SHARED and alias.name.startswith("_"):
                    bad.append("%s: from .%s import %s" % (path.name, node.module, alias.name))
        bad += ["%s: %s.%s" % (path.name, node.value.id, node.attr) for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in whole and node.attr.startswith("_")]
    assert not bad, bad


def _foreign_imports(paths, allowed):
    """Each absolute import in these files whose root module is neither in
    the standard library nor in allowed."""
    bad = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            bad += ["%s:%d: %s" % (path.name, node.lineno, name) for name in names
                    if name.partition(".")[0] not in sys.stdlib_module_names | allowed]
    return bad


def test_imports_need_only_python_and_pytest():
    # the package runs on the standard library alone, and its tests add pytest
    assert not _foreign_imports(sorted(SRC.glob("*.py")), set())
    assert not _foreign_imports(sorted(TESTS.glob("*.py")), {"pytest", "posetmatch", "conftest"})


def _defined_names(path):
    """The names that a module's own top-level definitions and assignments bind."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    return names


def test_package_exports_each_modules_all_once():
    # __init__ republishes the modules' __all__ lists, so each public name
    # is declared once, in the module that defines it
    lists = {name: importlib.import_module("posetmatch." + name).__all__ for name in MODULES}
    for name, exported in lists.items():
        assert set(exported) <= _defined_names(SRC / (name + ".py")), name
    every = [x for exported in lists.values() for x in exported]
    assert len(every) == len(set(every)), sorted(x for x in set(every) if every.count(x) > 1)
    # plus the submodules themselves, errors among them since the others import it
    assert sorted(posetmatch.__all__) == sorted(every + list(MODULES) + ["errors"])


def test_package_has_no_assert_statements():
    # python -O strips assert statements, so a check the package relies on
    # must raise its own error
    bad = ["%s:%d" % (path.name, node.lineno) for path in sorted(SRC.glob("*.py"))
           for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))) if isinstance(node, ast.Assert)]
    assert not bad, bad
