"""The python examples of README.md run as written, and its CLI synopsis
names the parser's subcommands and their flags."""

import argparse
import re
from pathlib import Path

import pytest

from maxreg.cli import _build_parser

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
    """One synopsis line or more per subcommand, naming every flag that
    subcommand adds to the global ones and no flag it does not take."""
    subparsers, = [a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    flags = {name: {s for a in sub._actions for s in a.option_strings
                    if s.startswith("--")}
             for name, sub in subparsers.choices.items()}
    common = set.intersection(*flags.values())
    named = {}
    for line in SYNOPSIS.splitlines():
        prog, cmd, *rest = line.split()
        assert prog == "maxreg"
        named.setdefault(cmd, set()).update(re.findall(r"--[a-z-]+", " ".join(rest)))
    assert set(named) == set(flags)
    for cmd, own in flags.items():
        assert own - common <= named[cmd] <= own, cmd
