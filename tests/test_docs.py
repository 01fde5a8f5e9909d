"""The README's python snippet, its `pshdef` commands and every demo script
run as written."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from pshdef.cli import main

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_python_block_runs():
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert blocks, "README has no python block"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[:3] == ["Certified", "-4*Im(z)", "64"]


def readme_commands():
    """(argv, expected lines) per `pshdef` command of the "Command line" block.

    A command may continue over lines ending in a backslash; the `#` lines
    under it are its printed output, with `# ...` standing for any lines.
    """
    section = (ROOT / "README.md").read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    out = []
    for chunk in block.replace("\\\n", " ").strip().split("\n\n"):
        command, *comments = chunk.splitlines()
        argv = shlex.split(command)
        assert argv[0] == "pshdef", command
        out.append((argv[1:], [c.removeprefix("# ") for c in comments]))
    return out


def matches(lines, expected) -> bool:
    """Lines equal the expected ones, each `...` standing for any lines."""
    pattern = "\n".join(
        ".*" if e == "..." else re.escape(e) for e in expected
    )
    return re.fullmatch(pattern, "\n".join(lines), re.S) is not None


README_COMMANDS = readme_commands()


@pytest.mark.parametrize(
    "argv, expected", README_COMMANDS, ids=[a[0] for a, _ in README_COMMANDS]
)
def test_readme_command_output(capsys, argv, expected):
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert matches(lines, expected), lines


def test_readme_lists_four_commands():
    assert sorted(a[0] for a, _ in README_COMMANDS) == [
        "analyze",
        "construct",
        "levi",
        "verify",
    ]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
