"""The README's examples run as written.

A command-line example whose comment is a JSON object, on its own line or
on the comment line after it, must print that document; the library quick
start must run.
"""

import json
import re
import shlex
from pathlib import Path

import pytest

from zfpaths.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _cli_examples():
    lines = re.search(r"## Command line\n.*?```sh\n(.*?)```", README, re.S).group(1).splitlines()
    examples = []
    for line, after in zip(lines, lines[1:] + [""]):
        command, _, comment = line.partition("#")
        if not command.startswith("zfpaths "):
            continue
        if not comment.strip() and after.lstrip().startswith("#"):
            comment = after.lstrip()[1:]
        try:
            expected = json.loads(comment)
        except ValueError:
            continue
        if isinstance(expected, dict):
            examples.append((command.strip(), expected))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_has_checked_cli_examples():
    assert CLI_EXAMPLES


@pytest.mark.parametrize("command, expected", CLI_EXAMPLES, ids=[c for c, _ in CLI_EXAMPLES])
def test_cli_example_prints_its_comment(capsys, command, expected):
    assert main(shlex.split(command)[1:]) == 0
    assert json.loads(capsys.readouterr().out) == expected


def test_library_quick_start_runs(capsys):
    code = re.search(r"## Library quick start\n+```python\n(.*?)```", README, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
