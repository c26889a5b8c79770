import re
import sys

import pytest

_PATTERN = re.compile(r"test_acceptance\.py::test_criterion_(\d+)")

_LABELS = {
    1: "shape recovery: class and conjugator over all four families",
    2: "scalings rejected unless lambda = +-1, exact probe polynomial",
    3: "pointwise witnesses for transpose and negation on sl_n",
    4: "characteristic polynomial probe vs cofactor oracle",
    5: "extended maps are local; anti S-blocks refuted by square certificates",
    6: "block structure of every extended automorphism",
    7: "squares ideal, right annihilation, liezation",
    8: "filiform: phi_alpha automorphism iff alpha = 1, delta locally covered",
    9: "exact kernel vs brute-force oracles, seeded round-trips",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    status = {}
    for key, worst in (("passed", "PASS"), ("failed", "FAIL"), ("error", "FAIL")):
        for rep in terminalreporter.stats.get(key, []):
            m = _PATTERN.search(getattr(rep, "nodeid", ""))
            if not m:
                continue
            if key == "passed" and rep.when != "call":
                continue
            num = int(m.group(1))
            if worst == "FAIL" or num not in status:
                status[num] = worst
    if not status:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for num in sorted(status):
        label = _LABELS.get(num, "")
        terminalreporter.write_line(f"criterion {num}: {status[num]}  {label}")


@pytest.fixture
def counting(monkeypatch):
    """counting(owner, name) rebinds owner.name to a wrapper that records
    the arguments of each call, and returns that list of calls."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def wrapper(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return install


@pytest.fixture
def forbid(monkeypatch):
    """forbid(name) rebinds name, in every locaut module that holds it, to a
    function that fails the test when called."""

    def install(name):
        def forbidden(*args):
            raise AssertionError(f"{name} was called")

        for key, mod in list(sys.modules.items()):
            if key.split(".")[0] == "locaut" and hasattr(mod, name):
                monkeypatch.setattr(mod, name, forbidden)

    return install
