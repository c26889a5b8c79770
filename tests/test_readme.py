"""The Python examples of README.md run and print what their comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_examples_print_their_comments():
    """The ```python blocks run in order in one namespace, as a reader would
    paste them, and each print(...) line prints its trailing comment."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for block in blocks:
        expected = [
            line.partition("#")[2].strip() for line in block.splitlines() if line.startswith("print(")
        ]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == expected
