"""The examples of README.md run and print what README.md says they print."""

import contextlib
import importlib.util
import io
import re
import shlex
from pathlib import Path

from locaut.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


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


def cli_transcripts(text: str) -> list:
    """(argv, expected stdout lines) for each `$ locaut ...` line inside a
    plain ``` fence; the output runs to the next `$` line or the fence's
    end, with trailing blank lines dropped."""
    out = []
    fence = None  # the info string of the open fence, or None outside one
    lines = None  # the open transcript's output lines
    for line in text.splitlines():
        if line.startswith("```"):
            fence = line[3:] if fence is None else None
            lines = None
        elif fence == "" and line.startswith("$ "):
            lines = []
            out.append((shlex.split(line[2:]), lines))
        elif lines is not None:
            lines.append(line)
    for _, lines in out:
        while lines and not lines[-1]:
            lines.pop()
    return out


def test_readme_cli_transcripts_print_what_they_show(tmp_path, monkeypatch):
    """The README's make_inputs.py command writes the inputs into a fresh
    directory; each `$ locaut ...` transcript then runs there through
    locaut.cli.main, exits 0 and prints exactly the lines shown."""
    text = README.read_text()
    (make_line,) = [line for line in text.splitlines() if line.startswith("python3 scripts/make_inputs.py")]
    spec = importlib.util.spec_from_file_location("make_inputs", ROOT / "scripts" / "make_inputs.py")
    make_inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_inputs)
    monkeypatch.chdir(tmp_path)
    with contextlib.redirect_stdout(io.StringIO()):
        make_inputs.main(shlex.split(make_line)[2:])
    transcripts = cli_transcripts(text)
    assert len(transcripts) == 6
    for argv, expected in transcripts:
        assert argv[0] == "locaut"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv[1:])
        assert (code, out.getvalue().splitlines()) == (0, expected), argv
