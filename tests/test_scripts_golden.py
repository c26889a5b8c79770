"""Byte-for-byte stdout of the scripts and of selfcheck.

Each invocation runs in a fresh interpreter with src/ on the path, the way
CI runs it; selfcheck runs both plain and under python -O, which strips
asserts.  The expected stdout and exit code live in
tests/golden/script_outputs.json.  Rewrite that file only for an intended
output change:

    PYTHONPATH=src python tests/test_scripts_golden.py --record
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden") / "script_outputs.json"

INVOCATIONS = (
    ("scripts/classification_survey.py",),
    ("scripts/leibniz_tour.py",),
    ("scripts/filiform_sweep.py", "--n", "3", "--n", "5"),
    ("scripts/filiform_sweep.py", "--n", "10", "--n", "20", "--samples", "40"),
    ("-m", "locaut.cli", "selfcheck", "--json"),
    ("-O", "-m", "locaut.cli", "selfcheck", "--json"),
)


def case_id(argv) -> str:
    return " ".join(argv)


def run_python(argv):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    return {"exit": proc.returncode, "stdout": proc.stdout}


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(case_id(c) for c in INVOCATIONS)


@pytest.mark.parametrize("argv", INVOCATIONS, ids=case_id)
def test_script_output_matches_golden(argv):
    golden = json.loads(GOLDEN.read_text())
    assert run_python(argv) == golden[case_id(argv)]


def record() -> None:
    out = {case_id(c): run_python(c) for c in INVOCATIONS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(f"usage: {sys.argv[0]} --record")
    record()
