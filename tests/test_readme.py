"""README.md stays true: every `$ carmkit ...` example runs as written and
prints what it shows, and every name its library surface lists exists."""

import importlib
import re
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


def library_surface():
    """(module, name) for each backticked name under "## Library surface"."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library surface\n", 1)[1].split("\n## ", 1)[0]
    pairs = []
    for bullet in re.split(r"^- ", section, flags=re.M)[1:]:
        module, *names = re.findall(r"`([^`]+)`", bullet)
        pairs += [(module, name) for name in names]
    return pairs


def test_readme_library_surface_exists():
    pairs = library_surface()
    assert len(pairs) >= 20
    assert all(module.startswith("carmkit.") for module, _ in pairs)
    missing = [f"{m}.{n}" for m, n in pairs if not hasattr(importlib.import_module(m), n)]
    assert not missing
