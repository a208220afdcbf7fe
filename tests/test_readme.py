"""The Python snippets of README.md run and print what their comments state."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


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
