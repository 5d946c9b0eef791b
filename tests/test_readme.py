"""Every `$ carmkit ...` example in README.md runs as written and prints what it shows."""

import shlex
from pathlib import Path

import pytest

from carmkit import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples():
    """(argv, expected stdout lines) for each `$ carmkit` line and the lines under it."""
    examples = []
    for block in README.read_text(encoding="utf-8").split("\n\n"):
        lines = block.strip("`\n").splitlines()
        if lines and lines[0].startswith("$ carmkit "):
            argv = shlex.split(lines[0])[2:]
            examples.append(pytest.param(argv, lines[1:], id=" ".join(argv)))
    return examples


def test_readme_has_examples():
    assert len(readme_examples()) >= 2


@pytest.mark.parametrize("argv,expected", readme_examples())
def test_readme_example(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == expected
