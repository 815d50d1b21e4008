"""The package's layering: helpers that modules share live in core or errors,
and the only import from outside the standard library is the tests' pytest."""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "posetmatch"
SHARED = {"core", "errors"}


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
