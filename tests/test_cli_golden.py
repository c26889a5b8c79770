"""Byte-for-byte CLI output on the files scripts/make_inputs.py writes.

The expected stdout and exit code of each invocation, in text and in JSON
mode, live in tests/golden/cli_outputs.json, and the sha256 of every file
make_inputs.py writes in tests/golden/make_inputs_sha256.json.  Rewrite
those files only for an intended output change:

    PYTHONPATH=src python tests/test_cli_golden.py --record
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from locaut.cli import main

GOLDEN = Path(__file__).with_name("golden") / "cli_outputs.json"
DIGESTS = Path(__file__).with_name("golden") / "make_inputs_sha256.json"
ROOT = Path(__file__).resolve().parents[1]
MAKE_INPUTS = ROOT / "scripts" / "make_inputs.py"

# Input file names are relative to the make_inputs.py output directory.
INVOCATIONS = (
    [
        ("classify-sln", "--n", str(n), "--map", f"{name}{n}.json")
        for n in (2, 3, 4)
        for name in ("transpose", "negation", "double", "conjugation")
    ]
    + [("classify-sln", "--n", "4", "--map", "singular4.json")]
    + [("classify-sln", "--n", "3", "--map", "square_break3.json")]
    + [
        ("witness", "--n", str(n), "--map", f"negation{n}.json", "--at", f"point_e12_{n}.json")
        for n in (2, 3, 4)
    ]
    + [
        ("witness", "--n", "3", "--map", f"{name}3.json", "--at", "point_h_3.json")
        for name in ("conjugation", "double")
    ]
    + [
        ("witness", "--n", "3", "--map", f"{name}3.json", "--at", "point_regular_3.json")
        for name in ("transpose", "negation")
    ]
    + [("witness", "--n", "3", "--map", "transpose3.json", "--at", "point_upper_3.json")]
    + [
        ("leibniz-decide", "--n", "2", "--module", "vm:2", "--map", f"blockmap_{name}_vm2.json")
        for name in ("identity", "transpose", "singular", "double", "stretch")
    ]
    + [
        ("leibniz-decide", "--n", "3", "--module", name, "--map", f"blockmap_anti_{name}3.json")
        for name in ("natural", "adjoint")
    ]
    + [
        ("classify-mn", "--n", str(n), "--map", f"mn_{name}{n}.json")
        for n in (2, 3)
        for name in ("transpose", "conjugation", "double", "singular", "stretch")
    ]
    + [
        ("leibniz-build", "--n", "2", "--module", "vm:2", "--map", "conjugation2.json"),
        ("leibniz-build", "--n", "2", "--module", "adjoint", "--map", "conjugation2.json", "--omega", "3"),
        ("leibniz-build", "--n", "3", "--module", "natural", "--map", "conjugation3.json"),
        ("leibniz-build", "--n", "3", "--module", "natural", "--map", "negtranspose3.json"),
        ("leibniz-build", "--n", "2", "--module", "vm:2", "--map", "transpose2.json"),
        ("filiform-demo", "--n", "3", "--samples", "12", "--seed", "3"),
        ("filiform-demo", "--n", "5", "--samples", "12", "--seed", "3"),
        ("filiform-demo", "--n", "20", "--samples", "40", "--seed", "3"),
        ("selfcheck",),
    ]
)
CASES = [inv + mode for inv in INVOCATIONS for mode in ((), ("--json",))]


def case_id(argv) -> str:
    return " ".join(argv)


def make_inputs(out_dir: Path) -> None:
    spec = importlib.util.spec_from_file_location("make_inputs", MAKE_INPUTS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    with contextlib.redirect_stdout(io.StringIO()):
        mod.main(["--out-dir", str(out_dir)])


def input_digests(out_dir: Path) -> dict:
    """{file name: sha256 hex digest} of every file in out_dir."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


def run_cli(argv, inputs: Path):
    resolved = [str(inputs / a) if a.endswith(".json") else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(resolved)
    return {"exit": code, "stdout": buf.getvalue()}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    out = tmp_path_factory.mktemp("inputs")
    make_inputs(out)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(case_id(c) for c in CASES)


def test_make_inputs_files_match_digests(tmp_path):
    make_inputs(tmp_path)
    assert input_digests(tmp_path) == json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("argv", CASES, ids=case_id)
def test_cli_output_matches_golden(argv, inputs, golden):
    assert run_cli(argv, inputs) == golden[case_id(argv)]


def test_python_m_locaut_prints_the_golden_bytes(golden):
    """python -m locaut runs the same main as the locaut console script."""
    argv = ("filiform-demo", "--n", "5", "--samples", "12", "--seed", "3")
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, "-m", "locaut", *argv], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0
    assert proc.stdout == golden[case_id(argv)]["stdout"].encode()


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        make_inputs(Path(tmp))
        out = {case_id(c): run_cli(c, Path(tmp)) for c in CASES}
        digests = input_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
