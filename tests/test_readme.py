"""The README's examples run as written."""

import re
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from gaussdeg.cli import main
from gaussdeg.schur import VeroneseVariety

README = Path(__file__).resolve().parent.parent / "README.md"


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
    assert namespace["tightest"][0].within_conjecture
