"""The README's examples run as written."""
import os
import re
import shlex

import pytest

from conftest import run_main

README = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "README.md")


def blocks(lang: str) -> list[str]:
    with open(README, encoding="utf-8") as fh:
        return re.findall(rf"^```{lang}\n(.*?)^```", fh.read(), re.M | re.S)


PYTHON = blocks("python")
# every `stonetrim ...` line of the shell blocks, as cli.main arguments
COMMANDS = [shlex.split(line)[1:] for block in blocks("sh")
            for line in block.splitlines() if line.startswith("stonetrim ")]


def test_readme_has_examples():
    assert PYTHON and COMMANDS


@pytest.mark.parametrize("source", PYTHON,
                         ids=[f"block{k}" for k in range(len(PYTHON))])
def test_python_block_runs(source):
    exec(compile(source, README, "exec"), {})


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_command_exits_zero(argv):
    code, _, err = run_main(argv)
    assert code == 0, err
