"""README examples stay in step with the code: CLI lines parse, the quick start runs."""

import re
import shlex
from pathlib import Path

import pytest

from gpca.cli import build_parser

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def fenced_blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.MULTILINE | re.DOTALL)


CLI_LINES = [
    line
    for block in fenced_blocks("sh")
    for line in block.splitlines()
    if line.startswith("gpca ")
]


def test_readme_has_cli_examples_and_a_quick_start():
    assert len(CLI_LINES) >= 5
    assert len(fenced_blocks("python")) == 1


@pytest.mark.parametrize("line", CLI_LINES)
def test_cli_example_parses(line):
    # argparse exits with SystemExit(2) on an unknown flag or a bad value
    args = build_parser().parse_args(shlex.split(line, comments=True)[1:])
    assert callable(args.func)


def test_quick_start_runs(capsys):
    (source,) = fenced_blocks("python")
    exec(compile(source, "README.md", "exec"), {})
    assert "discovery report" in capsys.readouterr().out
