"""README's examples run as written: the library tour and every `dickesim` command."""

import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import dickesim

from conftest import consistent_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
SRC = str(Path(dickesim.__file__).resolve().parent.parent)
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def commands() -> list[str]:
    """Every `dickesim ...` line of the sh blocks, continuation lines joined."""
    lines = "\n".join(blocks("sh")).replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("dickesim ")]


def test_library_tour_runs_without_warnings(tmp_path):
    (tour,) = blocks("python")
    result = subprocess.run(
        [sys.executable, "-W", "error", "-c", tour], capture_output=True, text=True, cwd=tmp_path, env=ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""


def test_every_command_is_found():
    assert {shlex.split(c)[1] for c in commands()} == {"statistics", "collapse", "trajectory", "squeeze-scan", "physical"}


def example_id(command: str) -> str:
    """The subcommand and its --out directory, e.g. 'statistics-run1'."""
    words = shlex.split(command)
    return f"{words[1]}-{words[words.index('--out') + 1]}"


@pytest.mark.parametrize("command", commands(), ids=example_id)
def test_command_example_runs(tmp_path, command):
    (tmp_path / "config.json").write_text(json.dumps(asdict(consistent_config())))
    args = shlex.split(command)[1:]
    result = subprocess.run(
        [sys.executable, "-m", "dickesim.cli", *args], capture_output=True, text=True, cwd=tmp_path, env=ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("wrote ")
