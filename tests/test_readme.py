"""The python examples of README.md run as written, its CLI synopsis
names each command and the flags it reads, and its boundary file example
reads as the builtin pair it stands for."""

import json
import re
from pathlib import Path

import pytest

from maxreg.cli import _COMMAND_OPTIONS, _EVERY_COMMAND, main

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
SYNOPSIS = re.search(r"^## Command-line interface\n\n```\n(.*?)^```", TEXT,
                     re.M | re.S).group(1)
BOUNDARY_FILE = re.search(r"^  ```json\n(.*?)^  ```", TEXT, re.M | re.S).group(1)


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


@pytest.mark.parametrize("argv", [("check", "boundary"),
                                  ("solve", "half", "--grid", "K=4,Nn=64", "--bc")],
                         ids=["check", "solve"])
def test_readme_boundary_file_is_the_neumann_pair(argv, capsys, tmp_path):
    """The documented file gives the report data of the builtin neumann_13,
    apart from the name of the pair."""
    path = tmp_path / "neumann.json"
    path.write_text(BOUNDARY_FILE)
    json.loads(BOUNDARY_FILE)  # the example is plain JSON
    data = []
    for target in (str(path), "neumann_13"):
        assert main([*argv, target]) == 0
        report = json.loads(capsys.readouterr().out)["data"]
        report.pop("bc", None)
        data.append(report)
    assert data[0] == data[1]
