"""Every module of the package imports only the modules below it.

The package is one stack: partitions -> grassmann -> schur -> cost ->
degrees -> verify -> cli.  A module may import any module before it in
that order, at the top or inside a function, and none at or after it;
`__init__` sits on top and may import any of them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "gaussdeg"
ORDER = ("partitions", "grassmann", "schur", "cost", "degrees", "verify", "cli", "__init__")


def _relative_imports(path: Path) -> list[tuple[int, str]]:
    """(line, module) for each relative import of the file, at any depth."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                found.append((node.lineno, node.module.split(".")[0]))
            else:  # `from . import name`
                found += [(node.lineno, alias.name) for alias in node.names]
    return found


def test_every_module_imports_only_the_modules_below_it():
    modules = sorted(path.stem for path in PACKAGE.glob("*.py"))
    assert modules == sorted(ORDER), "place a new module in ORDER"
    upward = [
        f"{name}.py:{line} imports {target}"
        for name in modules
        for line, target in _relative_imports(PACKAGE / f"{name}.py")
        if ORDER.index(target) >= ORDER.index(name)
    ]
    assert upward == [], f"imports at or above the importing module in {' -> '.join(ORDER)}"
