"""The filiform chain algebras and the delta = phi_0 counterexample."""

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import pytest

from locaut.algebra import StructureAlgebra, unit_vector
from locaut.cli import main
from locaut.exact import GR_ONE, GR_ZERO, GaussianRational, InternalCheckError
from locaut.filiform import (
    FiliformAlgebra,
    PhiAlpha,
    PsiBeta,
    delta_map,
    filiform_local_witness,
    map_is_automorphism,
    model_filiform,
    phi_is_automorphism,
    sample_points,
    counterexample_demo,
    witnesses_are_automorphisms,
)
from locaut.linalg import Matrix


def gr(x):
    return GaussianRational(x)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_model_filiform_valid(n):
    fl = model_filiform(n)
    assert fl.n == n
    # the single chain: [e1, e_i] = e_{i+1}
    for i in range(1, n - 1):
        assert fl.algebra.bracket(fl.algebra.unit(0), fl.algebra.unit(i)) == unit_vector(i + 1, n)
    assert all(
        x.is_zero() for x in fl.algebra.bracket(fl.algebra.unit(0), fl.algebra.unit(n - 1))
    )


def test_model_filiform_validates_jacobi_once(monkeypatch):
    calls = []
    validate_lie = StructureAlgebra.validate_lie

    def counting(alg):
        calls.append(alg.dim)
        return validate_lie(alg)

    monkeypatch.setattr(StructureAlgebra, "validate_lie", counting)
    model_filiform(5)
    assert calls == [5]


def test_model_filiform_dimension_floor():
    with pytest.raises(ValueError):
        model_filiform(2)


def test_filiform_rejects_abelian():
    n = 4
    table = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
    with pytest.raises(ValueError):
        FiliformAlgebra(StructureAlgebra(n, ["a", "b", "c", "d"], table))


def test_filiform_rejects_non_adapted():
    # scale the first chain step: filiform but the basis is not adapted
    n = 4
    table = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
    two_e3 = [x + x for x in unit_vector(2, n)]
    table[0][1] = two_e3
    table[1][0] = [-x for x in two_e3]
    table[0][2] = unit_vector(3, n)
    table[2][0] = [-x for x in unit_vector(3, n)]
    with pytest.raises(ValueError):
        FiliformAlgebra(StructureAlgebra(n, [f"e{i}" for i in range(n)], table))


def test_phi_matrix_general_n():
    fl = model_filiform(5)
    m = PhiAlpha(gr(7)).matrix(fl)
    expect = [[1, 0, 0, 0, 0],
              [0, 1, 0, 0, 0],
              [0, 0, 1, 0, 0],
              [0, 7, 0, 1, 0],
              [0, 0, 1, 0, 1]]
    assert m == Matrix(expect)


def test_phi_matrix_degenerate_n3():
    # n = 3 collapses e_{n-1} onto e_2: phi is diagonal there
    fl = model_filiform(3)
    m = PhiAlpha(gr(7)).matrix(fl)
    assert m == Matrix(((1, 0, 0), (0, 8, 0), (0, 0, 2)))


def test_psi_matrix():
    fl = model_filiform(4)
    m = PsiBeta(gr(-2)).matrix(fl)
    expect = [[1, 0, 0, 0],
              [0, 1, 0, 0],
              [0, 0, 1, 0],
              [0, -2, 0, 1]]
    assert m == Matrix(expect)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("alpha", [0, 1, 2, -1, Fraction(1, 2)])
def test_phi_automorphism_iff_alpha_one(n, alpha):
    fl = model_filiform(n)
    ok, _ = phi_is_automorphism(fl, GaussianRational(alpha))
    assert ok == (alpha == 1)


@pytest.mark.parametrize("beta", [0, 1, -3, Fraction(5, 7)])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_psi_always_automorphism(n, beta):
    fl = model_filiform(n)
    ok, pair = map_is_automorphism(fl, PsiBeta(GaussianRational(beta)).matrix(fl))
    assert ok and pair is None


def test_delta_is_not_an_automorphism():
    for n in (3, 4, 5):
        fl = model_filiform(n)
        ok, pair = map_is_automorphism(fl, delta_map(fl))
        assert not ok
        assert pair is not None
        # re-check the failure at the named pair
        i, j = pair
        d = delta_map(fl)
        lhs = d.apply(fl.algebra.table[i][j])
        rhs = fl.algebra.bracket(d.apply(fl.algebra.unit(i)), d.apply(fl.algebra.unit(j)))
        assert tuple(lhs) != tuple(rhs)


def test_singular_map_fails_without_pair():
    fl = model_filiform(3)
    ok, pair = map_is_automorphism(fl, Matrix.zeros(3, 3))
    assert not ok and pair is None


def test_witness_branches():
    fl = model_filiform(5)
    w0 = filiform_local_witness(fl, (gr(2), gr(0), gr(3), gr(1), gr(0)))
    assert isinstance(w0, PhiAlpha) and w0.alpha == GR_ONE
    w1 = filiform_local_witness(fl, (gr(2), gr(4), gr(6), gr(1), gr(0)))
    assert isinstance(w1, PsiBeta)
    assert w1.beta == gr(6) * gr(4).inverse()


def test_witness_agrees_with_delta():
    fl = model_filiform(4)
    d = delta_map(fl)
    for x in sample_points(4, 40, seed=11):
        w = filiform_local_witness(fl, x)
        assert tuple(w.matrix(fl).apply(x)) == tuple(d.apply(x))


def test_witness_rejects_wrong_dimension():
    fl = model_filiform(4)
    with pytest.raises(ValueError):
        filiform_local_witness(fl, (gr(1), gr(2)))


def test_sample_points_deterministic_and_split():
    pts1 = sample_points(5, 20, seed=3)
    pts2 = sample_points(5, 20, seed=3)
    assert pts1 == pts2
    assert len(pts1) == 20
    for t, p in enumerate(pts1):
        if t % 4 == 0:
            assert p[1].is_zero()


@pytest.mark.parametrize("samples", [0, -3])
def test_counterexample_demo_rejects_non_positive_samples(samples):
    """A report that checked no point must not say all_verified."""
    with pytest.raises(ValueError, match="samples must be positive"):
        counterexample_demo(model_filiform(4), samples=samples)


def test_counterexample_demo_report():
    fl = model_filiform(4)
    rep = counterexample_demo(fl, samples=24, seed=5)
    assert not rep.delta_is_automorphism
    assert rep.failing_pair is not None
    assert rep.samples == 24
    assert rep.phi_witnesses + rep.psi_witnesses == 24
    assert rep.phi_witnesses >= 6  # every fourth point is forced onto phi
    assert rep.all_verified
    data = rep.to_json()
    assert data["witness_counts"] == {"phi": rep.phi_witnesses, "psi": rep.psi_witnesses}
    assert data["delta_is_automorphism"] is False


def test_each_demo_scans_five_maps(counting):
    """A demo scans delta once and proves the witness families from phi_1
    and psi_0, psi_1, psi_2; no sample runs a scan."""
    fl = model_filiform(6)
    calls = counting(StructureAlgebra, "failing_pair")
    for seed in range(3):
        assert counterexample_demo(fl, samples=12, seed=seed).all_verified
    scanned = [PhiAlpha(gr(0)), PhiAlpha(gr(1)), PsiBeta(gr(0)), PsiBeta(gr(1)), PsiBeta(gr(2))]
    assert [m for _, m in calls] == [f.matrix(fl) for f in scanned] * 3


def _psi_on_e_n_minus_1(self, fl):
    """u + beta u_2 e_{n-1}: breaks [e_1, e_2] = e_3 for beta != 0."""
    rows = [[gr(1 if i == j else 0) for j in range(fl.n)] for i in range(fl.n)]
    rows[fl.n - 2][1] = rows[fl.n - 2][1] + self.beta
    return Matrix(rows)


def _run_filiform_sweep(argv):
    path = Path(__file__).resolve().parents[1] / "scripts" / "filiform_sweep.py"
    spec = importlib.util.spec_from_file_location("filiform_sweep", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main(argv)


def test_a_broken_psi_family_is_reported_not_verified(monkeypatch, capsys):
    monkeypatch.setattr(PsiBeta, "matrix", _psi_on_e_n_minus_1)
    fl = model_filiform(6)
    assert not witnesses_are_automorphisms(fl)
    assert counterexample_demo(fl, samples=12, seed=3).all_verified is False
    filiform_local_witness(fl, (gr(1), gr(0), gr(2), gr(0), gr(0), gr(0)))  # phi_1 still holds
    with pytest.raises(InternalCheckError, match="automorphism check"):
        filiform_local_witness(fl, (gr(1), gr(1), gr(2), gr(0), gr(0), gr(0)))

    assert main(["filiform-demo", "--n", "6", "--samples", "12"]) == 1
    assert "all verified: False" in capsys.readouterr().out.splitlines()

    assert main(["selfcheck", "--json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks if c["status"] == "FAIL"] == [
        "filiform family: automorphism exactly at alpha = 1"
    ]

    assert _run_filiform_sweep(["--n", "6", "--samples", "12"]) == 1
    assert "no verified witness" in capsys.readouterr().err


def test_a_delta_that_passes_the_bracket_check_is_reported_not_verified(monkeypatch, capsys):
    """With a bracket scan that finds no failing pair, delta reads as an
    automorphism and the witness proof holds: the demo shows nothing, so it
    must not report itself verified."""
    monkeypatch.setattr(StructureAlgebra, "failing_pair", lambda self, m: None)
    rep = counterexample_demo(model_filiform(6), samples=12, seed=3)
    assert rep.delta_is_automorphism is True
    assert rep.all_verified is False

    assert main(["filiform-demo", "--n", "6", "--samples", "12"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "delta (= phi_0) is an automorphism: True" in out
    assert "all verified: False" in out

    assert _run_filiform_sweep(["--n", "6", "--samples", "12"]) == 1
    assert "delta is an automorphism" in capsys.readouterr().err


def test_a_witness_that_misses_delta_is_caught_by_sampling(monkeypatch):
    """psi_{2 beta} is still an automorphism, so the proof holds; only the
    per-sample comparison with delta sees the wrong witness."""
    matrix = PsiBeta.matrix
    monkeypatch.setattr(PsiBeta, "matrix", lambda self, fl: matrix(PsiBeta(self.beta + self.beta), fl))
    fl = model_filiform(6)
    assert witnesses_are_automorphisms(fl)
    assert counterexample_demo(fl, samples=12, seed=3).all_verified is False
    with pytest.raises(InternalCheckError, match="does not match delta"):
        filiform_local_witness(fl, (gr(1), gr(1), gr(1), gr(0), gr(0), gr(0)))


def test_a_family_that_matches_delta_everywhere_still_needs_the_proof(monkeypatch):
    """u + beta u_2 e_n + (beta u_2 - u_3) e_{n-1} equals delta at every
    point where it is picked (beta = x_3 / x_2), but breaks [e_1, e_2] = e_3:
    only the proof sees it, so all_verified reads it."""
    matrix = PsiBeta.matrix

    def matches_delta(self, fl):
        m = [list(row) for row in matrix(self, fl).data]
        m[fl.n - 2][1] = self.beta
        m[fl.n - 2][2] = -GR_ONE
        return Matrix(m)

    monkeypatch.setattr(PsiBeta, "matrix", matches_delta)
    fl = model_filiform(6)
    rep = counterexample_demo(fl, samples=12, seed=3)
    assert rep.psi_witnesses > 0 and rep.all_verified is False
    with pytest.raises(InternalCheckError, match="automorphism check"):
        filiform_local_witness(fl, (gr(1), gr(1), gr(2), gr(0), gr(0), gr(0)))


def test_a_singular_psi_family_fails_the_proof(monkeypatch):
    """u -> u_1 e_1 + (1 - beta) (u - u_1 e_1) preserves every bracket but
    is singular at beta = 1: only psi_beta psi_{-beta} = 1 catches it."""
    def scaled(self, fl):
        return Matrix.diagonal([GR_ONE] + [GR_ONE - self.beta] * (fl.n - 1))

    monkeypatch.setattr(PsiBeta, "matrix", scaled)
    assert not witnesses_are_automorphisms(model_filiform(6))


def test_a_psi_family_quadratic_in_beta_fails_the_proof(monkeypatch):
    """exp(beta ad e_1) on the 4-dimensional algebra has the entry beta^2 / 2.
    It passes the bracket and psi_beta psi_{-beta} = 1 checks at beta = 0, 1,
    2, but three values prove a degree-2 identity only for a family affine in
    beta, so the proof refuses it."""
    def exp_ad_e1(self, fl):
        b = self.beta
        return Matrix([
            [GR_ONE, GR_ZERO, GR_ZERO, GR_ZERO],
            [GR_ZERO, GR_ONE, GR_ZERO, GR_ZERO],
            [GR_ZERO, b, GR_ONE, GR_ZERO],
            [GR_ZERO, b * b * gr(Fraction(1, 2)), b, GR_ONE],
        ])

    monkeypatch.setattr(PsiBeta, "matrix", exp_ad_e1)
    fl = model_filiform(4)
    psi = {b: PsiBeta(gr(b)).matrix(fl) for b in range(-2, 3)}
    for b in range(3):
        assert fl.algebra.failing_pair(psi[b]) is None and psi[b] @ psi[-b] == Matrix.identity(4)
    assert not witnesses_are_automorphisms(fl)
