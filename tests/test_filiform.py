"""The filiform chain algebras and the delta = phi_0 counterexample."""

import importlib.util
import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut import filiform
from locaut.algebra import StructureAlgebra, unit_vector
from locaut.cli import main
from locaut.exact import GR_ONE, GR_ZERO, GaussianRational, InternalCheckError
from locaut.filiform import (
    FiliformAlgebra,
    PhiAlpha,
    PsiBeta,
    _apply_entries,
    _identity_plus,
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
    assert [s.dim for s in fl.algebra.lower_central_series()] == list(range(n - 2, -1, -1))


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


def _table(n, brackets):
    """The antisymmetric table with [e_i, e_j] = v for each (i, j): v."""
    table = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for (i, j), v in brackets.items():
        table[i][j] = tuple(v)
        table[j][i] = tuple(-x for x in v)
    return table


def _chain(n):
    """The model's brackets [e1, e_i] = e_{i+1}."""
    return {(0, i): unit_vector(i + 1, n) for i in range(1, n - 1)}


def _with_a_square(table):
    """table plus [e2, e2] = e3."""
    table[1][1] = unit_vector(2, len(table))
    return table


@pytest.mark.parametrize(
    "table, message",
    [
        # filiform and adapted, but not alternating
        (_with_a_square(_table(4, _chain(4))), "not a Lie algebra"),
        # [e1, e2] = e3, [e1, e3] = e4, [e2, e3] = e2: alternating and
        # adapted, Jacobi fails on (e1, e2, e3), and [L, L] has dimension 3
        (_table(4, {**_chain(4), (1, 2): unit_vector(1, 4)}), "not a Lie algebra"),
        # abelian, and not adapted either
        (_table(4, {}), r"lower central series dims \(0,\) are not filiform"),
        # [e1, e2] = e3 in dimension 4: nilpotent of class 2
        (_table(4, {(0, 1): unit_vector(2, 4)}), r"lower central series dims \(1, 0\) are not filiform"),
        # the first chain step scaled by 2: filiform, but not adapted
        (
            _table(4, {**_chain(4), (0, 1): [x + x for x in unit_vector(2, 4)]}),
            "basis is not adapted to the filiform chain",
        ),
    ],
    ids=["non-alternating", "jacobi", "abelian", "class-two", "non-adapted"],
)
def test_filiform_rejects(table, message):
    """Lie, then the series dimensions, then the adapted basis: the first
    check that fails names itself."""
    with pytest.raises(ValueError, match=message):
        FiliformAlgebra(StructureAlgebra(4, [f"e{i + 1}" for i in range(4)], table))


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


def test_each_demo_scans_three_maps(counting):
    """A demo scans delta once and proves the witness families from phi_1
    and psi_1; no sample runs a scan."""
    fl = model_filiform(6)
    calls = counting(StructureAlgebra, "failing_pair")
    for seed in range(3):
        assert counterexample_demo(fl, samples=12, seed=seed).all_verified
    scanned = [PhiAlpha(gr(0)), PhiAlpha(gr(1)), PsiBeta(gr(1))]
    assert [m for _, m in calls] == [f.matrix(fl) for f in scanned] * 3


def test_a_demo_applies_no_matrix_and_builds_one_per_scan(counting):
    """Samples apply the maps entry-wise and the proof reads psi's entries:
    a demo builds only the three matrices it scans, whatever its sample
    count, and never multiplies or applies a Matrix."""
    fl = model_filiform(6)
    matmuls = counting(Matrix, "__matmul__")
    applies = counting(Matrix, "apply")
    builds = counting(filiform, "_identity_plus")
    per_demo = []
    for samples in (1, 40):
        before = len(builds)
        assert counterexample_demo(fl, samples=samples, seed=3).all_verified
        per_demo.append(len(builds) - before)
    assert matmuls == [] and applies == []
    assert per_demo == [3, 3]


fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
scalars = st.builds(GaussianRational, fractions, fractions)


@cache
def _model(n):
    return model_filiform(n)


@st.composite
def sparse_entries(draw, n):
    """An entry dict of up to six entries, diagonal ones drawn as often as
    any other: the map I + entries."""
    index = st.integers(0, n - 1)
    keys = st.one_of(st.tuples(index, index), index.map(lambda i: (i, i)))
    return draw(st.dictionaries(keys, scalars, max_size=6))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_entrywise_application_matches_the_matrix(data):
    n = data.draw(st.integers(3, 12), label="n")
    fl = _model(n)
    x = tuple(data.draw(st.lists(scalars, min_size=n, max_size=n), label="x"))
    for entries in (
        PhiAlpha(data.draw(scalars, label="alpha")).entries(fl),
        PsiBeta(data.draw(scalars, label="beta")).entries(fl),
        data.draw(sparse_entries(n), label="entries"),
    ):
        dense = Matrix([[entries.get((i, j), GR_ZERO) for j in range(n)] for i in range(n)])
        assert _identity_plus(n, entries) == Matrix.identity(n) + dense
        assert _apply_entries(entries, x) == _identity_plus(n, entries).apply(x)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_the_psi_family_is_linear_unitriangular_and_preserves_brackets(data):
    """The premises of the proof against dense oracles at a random beta:
    psi_beta - I = beta (psi_1 - I), strictly lower triangular, inverted by
    psi_{-beta}, with no failing basis pair."""
    n = data.draw(st.integers(3, 12), label="n")
    fl = _model(n)
    beta = data.draw(scalars, label="beta")
    one = Matrix.identity(n)
    psi, step = PsiBeta(beta).matrix(fl), PsiBeta(GR_ONE).matrix(fl) - one
    assert psi - one == step * beta
    assert all(step[i, j].is_zero() for i in range(n) for j in range(i, n))
    assert psi @ PsiBeta(-beta).matrix(fl) == one
    assert fl.algebra.failing_pair(psi) is None


def _psi_on_e_n_minus_1(self, fl):
    """u + beta u_2 e_{n-1}: breaks [e_1, e_2] = e_3 for beta != 0."""
    return {(fl.n - 2, 1): self.beta}


def _run_filiform_sweep(argv):
    path = Path(__file__).resolve().parents[1] / "scripts" / "filiform_sweep.py"
    spec = importlib.util.spec_from_file_location("filiform_sweep", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main(argv)


def test_a_broken_psi_family_is_reported_not_verified(monkeypatch, capsys):
    monkeypatch.setattr(PsiBeta, "entries", _psi_on_e_n_minus_1)
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
    entries = PsiBeta.entries
    monkeypatch.setattr(PsiBeta, "entries", lambda self, fl: entries(PsiBeta(self.beta + self.beta), fl))
    fl = model_filiform(6)
    assert witnesses_are_automorphisms(fl)
    assert counterexample_demo(fl, samples=12, seed=3).all_verified is False
    with pytest.raises(InternalCheckError, match="does not match delta"):
        filiform_local_witness(fl, (gr(1), gr(1), gr(1), gr(0), gr(0), gr(0)))


def test_a_family_that_matches_delta_everywhere_still_needs_the_proof(monkeypatch):
    """u + beta u_2 e_n + (beta u_2 - u_3) e_{n-1} equals delta at every
    point where it is picked (beta = x_3 / x_2), but breaks [e_1, e_2] = e_3:
    only the proof sees it, so all_verified reads it."""
    entries = PsiBeta.entries

    def matches_delta(self, fl):
        return {**entries(self, fl), (fl.n - 2, 1): self.beta, (fl.n - 2, 2): -GR_ONE}

    monkeypatch.setattr(PsiBeta, "entries", matches_delta)
    fl = model_filiform(6)
    rep = counterexample_demo(fl, samples=12, seed=3)
    assert rep.psi_witnesses > 0 and rep.all_verified is False
    with pytest.raises(InternalCheckError, match="automorphism check"):
        filiform_local_witness(fl, (gr(1), gr(1), gr(2), gr(0), gr(0), gr(0)))


def test_a_singular_psi_family_fails_the_proof(monkeypatch):
    """u -> u_1 e_1 + (1 - beta) (u - u_1 e_1) preserves every bracket and
    is linear in beta, but singular at beta = 1: its entries lie on the
    diagonal, and only the triangularity check catches it."""
    def scaled(self, fl):
        return {(i, i): -self.beta for i in range(1, fl.n)}

    monkeypatch.setattr(PsiBeta, "entries", scaled)
    assert not witnesses_are_automorphisms(model_filiform(6))


def test_a_psi_family_quadratic_in_beta_fails_the_proof(monkeypatch):
    """exp(beta ad e_1) on the 4-dimensional algebra has the entry beta^2 / 2.
    It is unitriangular and passes the bracket and psi_beta psi_{-beta} = 1
    checks at beta = 0, 1, 2, but two bracket scans prove the family only
    when its entries are linear in beta: psi_2's entries are not twice
    psi_1's, so the proof refuses it."""
    def exp_ad_e1(self, fl):
        b = self.beta
        return {(2, 1): b, (3, 1): b * b * gr(Fraction(1, 2)), (3, 2): b}

    monkeypatch.setattr(PsiBeta, "entries", exp_ad_e1)
    fl = model_filiform(4)
    psi = {b: PsiBeta(gr(b)).matrix(fl) for b in range(-2, 3)}
    for b in range(3):
        assert fl.algebra.failing_pair(psi[b]) is None and psi[b] @ psi[-b] == Matrix.identity(4)
    assert not witnesses_are_automorphisms(fl)


def test_an_affine_psi_family_of_automorphisms_fails_the_proof(monkeypatch, counting):
    """u + (u_1 + beta u_2) e_n is an automorphism for every beta (e_n is
    central and no bracket has an e_1 or e_2 part), but psi_0 != I, so the
    entries are not beta times psi_1's and the proof refuses the family
    before scanning it."""
    def affine(self, fl):
        return {(fl.n - 1, 0): GR_ONE, (fl.n - 1, 1): self.beta}

    monkeypatch.setattr(PsiBeta, "entries", affine)
    fl = model_filiform(6)
    for b in (0, 1, 2, -3):
        assert map_is_automorphism(fl, PsiBeta(gr(b)).matrix(fl)) == (True, None)
    scans = counting(StructureAlgebra, "failing_pair")
    assert not witnesses_are_automorphisms(fl)
    assert scans == []


def test_a_psi_family_broken_only_at_beta_zero_fails_the_proof(monkeypatch):
    """u + (beta - 1)(beta - 2) u_2 e_{n-1} is the identity at beta = 1 and
    2, so both scans pass and psi_2's entries are twice psi_1's (all zero),
    but psi_0 breaks [e_1, e_2] = e_3: only the check psi_0 = I refuses it."""
    def broken_at_zero(self, fl):
        b = self.beta
        return {(fl.n - 2, 1): (b - GR_ONE) * (b - gr(2))}

    monkeypatch.setattr(PsiBeta, "entries", broken_at_zero)
    fl = model_filiform(6)
    assert not map_is_automorphism(fl, PsiBeta(GR_ZERO).matrix(fl))[0]
    assert not witnesses_are_automorphisms(fl)


def test_a_psi_family_in_non_commuting_rows_fails_the_proof(monkeypatch, counting):
    """On the adapted filiform algebra [e1, e_i] = e_{i+1}, [e2, e3] = e5,
    psi_beta = I + beta E with E's entries in rows e2..e5 passes the
    linearity and triangularity checks, and phi_1 and psi_1 pass their
    scans, but psi_2 breaks the bracket of (e1, e2): the quadratic term
    [Ex, Ey] of the bracket defect is not zero, because [e2, e3] != 0.
    Only the check on E's rows sees it, so the proof refuses the family
    before scanning it."""
    n = 5
    table = _table(n, {**_chain(n), (1, 2): unit_vector(4, n)})
    fl = FiliformAlgebra(StructureAlgebra(n, [f"e{i + 1}" for i in range(n)], table))
    e = {(1, 0): 1, (2, 0): -1, (2, 1): -1, (3, 1): 1, (3, 2): -1, (4, 2): 1}
    monkeypatch.setattr(PsiBeta, "entries", lambda self, fl: {k: self.beta * gr(v) for k, v in e.items()})
    assert phi_is_automorphism(fl, 1)[0]
    assert fl.algebra.failing_pair(PsiBeta(gr(1)).matrix(fl)) is None
    assert fl.algebra.failing_pair(PsiBeta(gr(2)).matrix(fl)) == (0, 1)
    scans = counting(StructureAlgebra, "failing_pair")
    assert not witnesses_are_automorphisms(fl)
    assert scans == []
