"""The README's examples run, and every `module.name` it or a docstring gives is defined."""

import ast
import importlib
import re
import shlex
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest

from gaussdeg.cli import main
from gaussdeg.schur import VeroneseVariety

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = README.parent / "src" / "gaussdeg"
MODULES = ("partitions", "grassmann", "schur", "cost", "degrees", "verify", "cli")
# a backticked `module.name`, or `gaussdeg.module.name`, with any further attributes
_NAMED = re.compile(r"`(?:gaussdeg\.)?(%s)((?:\.\w+)+)" % "|".join(MODULES))


def _blocks(language: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    fenced = re.findall(r"^```(\w*)\n(.*?)^```", text, re.M | re.S)
    return [body for lang, body in fenced if lang == language]


def _commands() -> list[list[str]]:
    """The `gaussdeg …` lines of the command-line block, split, comments dropped."""
    blocks = [block for block in _blocks("") if block.startswith("gaussdeg ")]
    assert len(blocks) == 1
    return [shlex.split(line, comments=True) for line in blocks[0].splitlines() if line.strip()]


def test_the_command_line_block_lists_every_subcommand():
    commands = _commands()
    assert {argv[0] for argv in commands} == {"gaussdeg"}
    assert {argv[1] for argv in commands} == {
        "degree", "table", "verify", "conjecture", "generic", "syt", "grassmann"
    }


@pytest.mark.parametrize("argv", _commands(), ids=" ".join)
def test_readme_command_exits_0(argv, tmp_path, monkeypatch, capsys):
    # `generic` reads mytable.json from the working directory
    monkeypatch.chdir(tmp_path)
    table = VeroneseVariety(2, 3).integral_table.to_json()
    (tmp_path / "mytable.json").write_text(table, encoding="utf-8")
    code = main(argv[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out and not captured.err


def test_readme_python_snippets():
    snippets = _blocks("python")
    assert len(snippets) == 2
    namespace: dict = {}
    for snippet in snippets:
        exec(snippet, namespace)
    v = namespace["v"]
    assert v.N == 5
    assert namespace["degree_main"](v, 3).deg_xm == 21
    assert namespace["bounds"](v, 3).ratio == Fraction(7, 18)
    assert namespace["tightest"][0]["within_conjecture"]


def _docs() -> list[tuple[str, str]]:
    """(where, text) for the README and every docstring of the package."""
    docs = [("README.md", README.read_text(encoding="utf-8"))]
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                if text := ast.get_docstring(node):
                    docs.append((path.name, text))
    return docs


@cache
def _borrowed(module: str) -> set[str]:
    """The names `module` imports from the package's other modules."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level
        for alias in node.names
    }


def _defined(module: str, names: list[str]) -> bool:
    """Whether `module` defines names[0], not only imports it, and the rest resolve under it."""
    if names[0] in _borrowed(module):
        return False
    value = importlib.import_module(f"gaussdeg.{module}")
    for name in names:
        if not hasattr(value, name):
            return False
        value = getattr(value, name)
    return True


def test_every_name_the_docs_give_resolves():
    # a name that moves must take its docs along: the module it moved from
    # may still import it, so an import alone does not count
    named = [(where, *match) for where, text in _docs() for match in _NAMED.findall(text)]
    assert len(named) > 40
    stale = [
        f"{where}: {module}{attributes}"
        for where, module, attributes in named
        if not _defined(module, attributes[1:].split("."))
    ]
    assert stale == [], "a doc names what its module does not define"
