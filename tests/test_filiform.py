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
    _every_multiple_is_automorphism,
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
from test_algebra import full_scan_automorphism_check


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


def _algebra(n, brackets):
    return StructureAlgebra(n, [f"e{i + 1}" for i in range(n)], _table(n, brackets))


def _filiform(n, brackets):
    """The adapted filiform algebra with the chain plus brackets."""
    return FiliformAlgebra(_algebra(n, {**_chain(n), **brackets}))


# [e1, e_i] = e_{i+1} and [e2, e3] = e5
E23 = (5, {(1, 2): unit_vector(4, 5)})
# Q_6: [e1, e_i] = e_{i+1} and [e_i, e_{7-i}] = (-1)^i e6
Q6 = (6, {(1, 4): unit_vector(5, 6), (2, 3): tuple(-x for x in unit_vector(5, 6))})


@pytest.mark.parametrize("n", [1, 2])
def test_filiform_refuses_dimensions_below_three(n):
    """The abelian algebras of dimension 1 and 2 have no e_3 for phi and psi
    to reach: refused before any other check, as model_filiform refuses."""
    with pytest.raises(ValueError, match=r"filiform algebras need dimension >= 3"):
        FiliformAlgebra(_algebra(n, {}))


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


def test_each_demo_scans_delta_and_phi_1(counting):
    """A demo scans delta once and proves the witness families with one
    scan, of phi_1; the psi family and the samples run none."""
    fl = model_filiform(6)
    calls = counting(StructureAlgebra, "failing_pair")
    for seed in range(3):
        assert counterexample_demo(fl, samples=12, seed=seed).all_verified
    scanned = [PhiAlpha(gr(0)), PhiAlpha(gr(1))]
    assert [m for _, m in calls] == [f.matrix(fl) for f in scanned] * 3


def test_a_demo_applies_no_matrix_and_builds_one_per_scan(counting):
    """Samples apply the maps entry-wise and the proof reads psi's stored E:
    a demo builds only the two matrices it scans, whatever its sample count,
    and never multiplies or applies a Matrix."""
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
    assert per_demo == [2, 2]


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


def _store(monkeypatch, direction):
    """Rebind the one stored E, so every psi_beta is I + beta direction(fl)."""
    monkeypatch.setattr(PsiBeta, "direction", staticmethod(direction))


@pytest.mark.parametrize("n", [3, 6])
def test_every_psi_beta_is_beta_times_the_one_stored_e(monkeypatch, n):
    """psi_beta's entries and matrix are built from E alone, so the family
    is linear in beta by construction, whatever E is stored."""
    fl = model_filiform(n)
    assert PsiBeta.direction(fl) == {(n - 1, 1): GR_ONE}
    stored = {(n - 1, 1): GR_ONE, (n - 1, 0): gr(Fraction(2, 3)), (1, 2): -GR_ONE}
    for e in (PsiBeta.direction(fl), stored):
        _store(monkeypatch, lambda fl, e=e: dict(e))
        dense = Matrix([[e.get((i, j), GR_ZERO) for j in range(n)] for i in range(n)])
        for b in (0, 1, 2, 3, Fraction(-1, 2)):
            beta = gr(b)
            assert PsiBeta(beta).entries(fl) == {k: beta * v for k, v in e.items()}
            assert PsiBeta(beta).matrix(fl) == Matrix.identity(n) + dense * beta


def test_the_proof_reads_e_once_and_scans_no_psi(monkeypatch, counting):
    """The psi family is proved from the stored E and the structure
    constants: one read of E, no psi_beta built, and the one bracket scan
    is phi_1's."""
    fl = model_filiform(6)
    reads = []
    direction = PsiBeta.direction
    _store(monkeypatch, lambda fl: reads.append(fl) or direction(fl))
    entries = counting(PsiBeta, "entries")
    scans = counting(StructureAlgebra, "failing_pair")
    assert witnesses_are_automorphisms(fl)
    assert reads == [fl] and entries == []
    assert [m for _, m in scans] == [PhiAlpha(GR_ONE).matrix(fl)]


@pytest.mark.parametrize("case", [E23, Q6], ids=["e2e3", "Q6"])
@settings(max_examples=15, deadline=None)
@given(beta=scalars)
def test_the_proof_holds_beyond_the_model_algebra(case, beta):
    """The proof reads the structure constants, not L_n's: on two other
    adapted filiform algebras it holds, and a dense scan agrees at beta."""
    fl = _filiform(*case)
    assert witnesses_are_automorphisms(fl)
    assert full_scan_automorphism_check(fl.algebra, PsiBeta(beta).matrix(fl)) == (True, None)


def _e_n_minus_1_direction(fl):
    """E = e_{n-1} e_2^T: psi_beta breaks [e_1, e_2] = e_3 for beta != 0."""
    return {(fl.n - 2, 1): GR_ONE}


def _run_filiform_sweep(argv):
    path = Path(__file__).resolve().parents[1] / "scripts" / "filiform_sweep.py"
    spec = importlib.util.spec_from_file_location("filiform_sweep", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.main(argv)


def test_a_broken_psi_family_is_reported_not_verified(monkeypatch, capsys):
    """E's row e_{n-1} is not central: [e_1, e_{n-1}] = e_n."""
    _store(monkeypatch, _e_n_minus_1_direction)
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
    """E doubled gives psi_{2 beta}, still an automorphism, so the proof
    holds; only the per-sample comparison with delta sees the wrong
    witness."""
    _store(monkeypatch, lambda fl: {(fl.n - 1, 1): gr(2)})
    fl = model_filiform(6)
    assert witnesses_are_automorphisms(fl)
    assert counterexample_demo(fl, samples=12, seed=3).all_verified is False
    with pytest.raises(InternalCheckError, match="does not match delta"):
        filiform_local_witness(fl, (gr(1), gr(1), gr(1), gr(0), gr(0), gr(0)))


def test_a_singular_psi_family_fails_the_proof(monkeypatch, counting):
    """E = -(I - e_1 e_1^T): u -> u_1 e_1 + (1 - beta) (u - u_1 e_1)
    preserves every bracket of L_6 but is singular at beta = 1.  Its rows
    are not central, so the proof refuses it before any scan.  On an abelian
    algebra every row is central and no bracket reads a column, so there
    only the triangularity check refuses a diagonal E."""
    _store(monkeypatch, lambda fl: {(i, i): -GR_ONE for i in range(1, fl.n)})
    fl = model_filiform(6)
    assert fl.algebra.failing_pair(PsiBeta(GR_ONE).matrix(fl)) is None
    scans = counting(StructureAlgebra, "failing_pair")
    assert not witnesses_are_automorphisms(fl)
    assert scans == []

    abelian = _algebra(3, {})
    assert not _every_multiple_is_automorphism(abelian, {(i, i): -GR_ONE for i in range(1, 3)})
    assert _every_multiple_is_automorphism(abelian, {(2, 1): -GR_ONE, (1, 0): GR_ONE})


def test_a_psi_family_reading_a_bracket_column_fails_the_proof(monkeypatch, counting):
    """E = e_n e_3^T on L_6: its row e_6 is central and it is strictly lower,
    but [e_1, e_2] = e_3 has a component in its column, so psi_1 breaks that
    bracket.  Only the column check sees it, before any scan."""
    _store(monkeypatch, lambda fl: {(fl.n - 1, 2): GR_ONE})
    fl = model_filiform(6)
    assert full_scan_automorphism_check(fl.algebra, PsiBeta(GR_ONE).matrix(fl)) == (False, (0, 1))
    scans = counting(StructureAlgebra, "failing_pair")
    assert not witnesses_are_automorphisms(fl)
    assert scans == []


def test_a_psi_family_in_non_commuting_rows_fails_the_proof(monkeypatch, counting):
    """On the adapted filiform algebra [e1, e_i] = e_{i+1}, [e2, e3] = e5,
    psi_beta = I + beta E with E's entries in rows e2..e5 is strictly
    lower, and phi_1 and psi_1 pass their scans, but psi_2 breaks the
    bracket of (e1, e2): the quadratic term [Ex, Ey] of the bracket defect
    is not zero, because [e2, e3] != 0.  E's rows are not central (and
    [e1, e2] = e3 reads its column e3), so the proof refuses the family
    before any scan."""
    fl = _filiform(*E23)
    e = {(1, 0): 1, (2, 0): -1, (2, 1): -1, (3, 1): 1, (3, 2): -1, (4, 2): 1}
    _store(monkeypatch, lambda fl: {k: gr(v) for k, v in e.items()})
    assert phi_is_automorphism(fl, 1)[0]
    assert fl.algebra.failing_pair(PsiBeta(gr(1)).matrix(fl)) is None
    assert fl.algebra.failing_pair(PsiBeta(gr(2)).matrix(fl)) == (0, 1)
    scans = counting(StructureAlgebra, "failing_pair")
    assert not witnesses_are_automorphisms(fl)
    assert scans == []
