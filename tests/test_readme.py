"""The Python snippets of README.md run and print what their comments
state, and its command lines run and exit 0."""

import contextlib
import io
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_readme_python_snippets():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    namespace: dict = {}
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    # each snippet line calling print prints one line, in order
    calls = [line for block in blocks for line in block.splitlines()
             if line.startswith("print(")]
    assert len(calls) == len(printed)
    stated = [(got, call.split("#", 1)[1].strip())
              for got, call in zip(printed, calls) if "#" in call]
    assert [got for got, _ in stated] == ["94", "1.0", "24", "1.0 2"]
    for got, comment in stated:
        assert comment == got or comment.startswith(got + " ")


def test_readme_command_lines_exit_0(tmp_path):
    # in order, in one directory: verify reads what decompose marker wrote
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("factorlang ")]
    assert len(lines) == 11
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for line in lines:
        argv = [sys.executable, "-m", "factorlang.cli", *shlex.split(line)[1:]]
        done = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, (line, done.stderr)
