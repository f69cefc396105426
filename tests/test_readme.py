"""The python examples of README.md run as written, and its CLI synopsis
names each command and the flags it reads."""

import re
from pathlib import Path

import pytest

from maxreg.cli import _COMMAND_OPTIONS, _EVERY_COMMAND

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SYNOPSIS = re.search(r"^## Command-line interface\n\n```\n(.*?)^```", TEXT,
                     re.M | re.S).group(1)


def test_readme_has_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("code", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_runs(code, capsys):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
    assert capsys.readouterr().out


def test_readme_cli_synopsis_matches_the_parser():
    """One synopsis line or more per command ("solve whole" and "solve half"
    are two), naming every flag that command reads beyond the ones every
    command takes, and no flag it does not take."""
    named = {}
    for line in SYNOPSIS.splitlines():
        prog, *words = line.split()
        assert prog == "maxreg"
        cmd = " ".join(words[:2]) if " ".join(words[:2]) in _COMMAND_OPTIONS else words[0]
        named.setdefault(cmd, set()).update(re.findall(r"--[a-z-]+", line))
    assert set(named) == set(_COMMAND_OPTIONS)
    every = {f"--{key}" for key in _EVERY_COMMAND}
    for cmd, keys in _COMMAND_OPTIONS.items():
        own = {f"--{key}" for key in keys}
        assert own <= named[cmd] <= own | every, cmd
