"""Every module of the package imports only the modules below it, and only the standard library.

The package is one stack: partitions -> grassmann -> schur -> cost ->
degrees -> verify -> cli.  A module may import any module before it in
that order, at the top or inside a function, and none at or after it;
`__init__` sits on top and may import any of them.  `partitions`, the
bottom, is the one module that imports `decimal`: it holds the kinds a
long count takes.  Beyond itself the package imports the standard
library alone, and the tests add pytest and hypothesis, the `test` extra
of pyproject.toml.  No module keeps values in a `functools` cache: the
one store is `partitions.KEPT`.
"""

import ast
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "gaussdeg"
ORDER = ("partitions", "grassmann", "schur", "cost", "degrees", "verify", "cli", "__init__")


def _nodes(path: Path):
    """Every node of the file's syntax tree."""
    return ast.walk(ast.parse(path.read_text(), str(path)))


def _imports(path: Path) -> list[tuple[int, int, str]]:
    """(line, level, top-level module) for each import of the file, at any depth.

    Level 0 is an absolute import.
    """
    found = []
    for node in _nodes(path):
        if isinstance(node, ast.Import):
            found += [(node.lineno, 0, alias.name.split(".")[0]) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                found.append((node.lineno, node.level, node.module.split(".")[0]))
            else:  # `from . import name`
                found += [(node.lineno, node.level, alias.name) for alias in node.names]
    return found


def test_every_module_imports_only_the_modules_below_it():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert modules == sorted(ORDER), "place a new module in ORDER"
    upward = [
        f"{name}.py:{line} imports {target}"
        for name in modules
        for line, level, target in _imports(PACKAGE / f"{name}.py")
        if level and ORDER.index(target) >= ORDER.index(name)
    ]
    assert upward == [], f"imports at or above the importing module in {' -> '.join(ORDER)}"


def test_partitions_is_the_one_module_that_imports_decimal():
    importers = [
        path.stem
        for path in sorted(PACKAGE.glob("*.py"))
        if (0, "decimal") in {(level, module) for _, level, module in _imports(path)}
    ]
    assert importers == ["partitions"], "a count's kinds and EXACT live in partitions"


def test_no_module_keeps_values_outside_the_one_store():
    # `partitions.KEPT` holds every value kept across calls, under one byte
    # budget and one clear; a per-instance `cached_property` goes with its
    # instance and stays allowed
    caches = {"cache", "lru_cache"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in _nodes(path)
        if isinstance(node, ast.ImportFrom)
        and node.module == "functools"
        and caches & {alias.name for alias in node.names}
        or isinstance(node, ast.Attribute)
        and node.attr in caches
        and isinstance(node.value, ast.Name)
        and node.value.id == "functools"
    ]
    assert found == [], "keep values in partitions.KEPT, not in a functools cache"


def test_the_package_imports_only_the_standard_library():
    foreign = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, level, module in _imports(path)
        if not level and module not in sys.stdlib_module_names
    ]
    assert foreign == [], "the package stays stdlib-only"


def test_the_tests_import_only_the_standard_library_their_extra_and_the_package():
    siblings = {path.stem for path in TESTS.glob("*.py")}
    allowed = sys.stdlib_module_names | siblings | {"gaussdeg", "pytest", "hypothesis"}
    foreign = [
        f"{path.name}:{line} imports {module}"
        for path in sorted(TESTS.glob("*.py"))
        for line, level, module in _imports(path)
        if not level and module not in allowed
    ]
    assert foreign == [], "a test may need only pyproject.toml's `test` extra"
