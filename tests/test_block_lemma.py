"""The block lemma: Phi = [[phi, 0], [C, theta]] is an automorphism of
sl_n + I iff phi is in Aut(sl_n), theta is invertible, and theta and C
intertwine on the Chevalley generators.  The full bracket scan is the
reference: the decision's check and the recheck of a claim that carries
phi's shape must both agree with it."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut import algebra, classify, leibniz
from locaut.classify import automorphism_shape, classify_sln, random_unimodular
from locaut.exact import GaussianRational
from locaut.leibniz import (
    LOCAL_AUT,
    BlockMap,
    LeibnizVerdict,
    RightModule,
    block_automorphism_shape,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    inner_automorphism_matrix,
    is_automorphism,
    is_simple,
)
from locaut.linalg import Matrix
from locaut.recheck import RecheckError, recheck_leibniz_verdict
from locaut.sln import SIGMA_ID, SIGMA_T, CanonicalShape, SlnModel, shape_map_matrix

MODULES = (
    [(2, f"vm:{m}") for m in range(7)] + [(n, "natural") for n in (2, 3, 4)] + [(2, "adjoint"), (3, "adjoint")]
)


@lru_cache(maxsize=None)
def semidirect(n, name):
    model = SlnModel(n)
    return build_semidirect(model, build_module(model, name))


def bump(m: Matrix, r: int, s: int, c) -> Matrix:
    """m with c added at entry (r, s)."""
    return Matrix(tuple(tuple(x + c if (i, j) == (r, s) else x for j, x in enumerate(row))
                        for i, row in enumerate(m.data)))


def block_maps(lb, rng, data):
    """Named block maps: extensions, their one-entry perturbations, a
    singular, a zero, a scaled and a twisted I-block, an anti-family S-block
    and -1 on S."""
    model = lb.model
    ds, di = lb.dim_s, lb.dim_i
    ext = [extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(model.n, rng)), omega)
           for omega in (0, 1)]
    base = ext[data.draw(st.integers(0, 1), label="base omega")]
    c = data.draw(st.sampled_from((GaussianRational(1), GaussianRational(-2), GaussianRational(0, 1))), label="c")
    entry = lambda rows, cols: (data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1)))
    g = random_unimodular(model.n, rng)
    # I + R_e12 commutes with R_e12 but not with the other generators'
    # actions (unless the module is trivial), so only a later generator
    # shows that this I-block breaks the lemma
    first = lb.module.actions[model.generator_indices[0]]
    maps = {
        "inner_omega0": ext[0],
        "inner_omega1": ext[1],
        "perturbed_s": BlockMap(bump(base.s_block, *entry(ds, ds), c), base.coupling, base.i_block),
        "perturbed_coupling": BlockMap(base.s_block, bump(base.coupling, *entry(di, ds), c), base.i_block),
        "perturbed_i": BlockMap(base.s_block, base.coupling, bump(base.i_block, *entry(di, di), c)),
        "singular_i": BlockMap(base.s_block, base.coupling,
                               base.i_block @ Matrix.diagonal([0 if p == 0 else 1 for p in range(di)])),
        "scaled_i": BlockMap(base.s_block, base.coupling, base.i_block * GaussianRational(3)),
        "zero_i": BlockMap(base.s_block, Matrix.zeros(di, ds), Matrix.zeros(di, di)),
        "first_generator_only_i": BlockMap(base.s_block, base.coupling,
                                           base.i_block @ (Matrix.identity(di) + first)),
        "anti_s": BlockMap(shape_map_matrix(model, CanonicalShape(1, SIGMA_T, g)), Matrix.zeros(di, ds),
                           Matrix.identity(di)),
        "minus_s": BlockMap(model.scalar_map(-1), Matrix.zeros(di, ds), Matrix.identity(di)),
    }
    # -a x^T a^-1 is an automorphism; it extends when the twisted module is
    # isomorphic to I (always on sl_2 and on the adjoint module)
    neg_t = extend_automorphism(lb, shape_map_matrix(model, CanonicalShape(-1, SIGMA_T, g)), 1)
    if neg_t is not None:
        maps["neg_transpose"] = neg_t
    return maps


def own_shape(model, phi):
    """phi's own fitted shape: its automorphism shape, else the primary
    shape of classify_sln (an anti family), else None."""
    shape = automorphism_shape(model, phi)
    return shape if shape is not None else classify_sln(model, phi).shape


@pytest.mark.parametrize("n, name", MODULES)
@given(data=st.data())
@settings(max_examples=3, deadline=None)
def test_block_check_and_recheck_agree_with_the_bracket_scan(n, name, data):
    """Every LocalAutomorphism claim carries the S-block's own fitted
    shape, so a false claim whose S-block is an automorphism is refused by
    the I-block or coupling check, not for its witness."""
    lb = semidirect(n, name)
    rng = random.Random(data.draw(st.integers(0, 10_000), label="seed"))
    for kind, bm in block_maps(lb, rng, data).items():
        want = is_automorphism(lb, bm)[0]
        shape = block_automorphism_shape(lb, bm)
        assert (shape is not None) == want, kind
        if want:
            recheck_leibniz_verdict(lb, bm, LeibnizVerdict(LOCAL_AUT, s_shape=shape))
        else:
            claim = LeibnizVerdict(LOCAL_AUT, s_shape=own_shape(lb.model, bm.s_block))
            with pytest.raises(RecheckError) as refusal:
                recheck_leibniz_verdict(lb, bm, claim)
            if automorphism_shape(lb.model, bm.s_block) is not None:
                assert "I-block" in str(refusal.value) or "coupling" in str(refusal.value), kind
        if kind in ("inner_omega0", "inner_omega1", "scaled_i", "neg_transpose"):
            assert want, kind
        if kind in ("singular_i", "zero_i", "anti_s", "minus_s"):
            assert not want, kind
        if kind == "first_generator_only_i":
            assert want == lb.module.actions[lb.model.generator_indices[0]].is_zero(), kind


def test_recheck_refuses_a_zero_i_block():
    """theta = 0 meets both generator identities, so only theta != 0 shows
    the map singular; on an irreducible module that is all Schur's lemma
    needs."""
    lb = semidirect(2, "vm:2")
    bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, random_unimodular(2, random.Random(3))), 0)
    zero_i = BlockMap(bm.s_block, bm.coupling, Matrix.zeros(lb.dim_i, lb.dim_i))
    claim = LeibnizVerdict(LOCAL_AUT, s_shape=automorphism_shape(lb.model, bm.s_block))
    with pytest.raises(RecheckError, match="I-block is zero"):
        recheck_leibniz_verdict(lb, zero_i, claim)


def test_recheck_refuses_a_singular_i_block_on_an_irreducible_module():
    """A nonzero singular theta cannot intertwine on the irreducible vm:2,
    so the generator identities refuse it before the zero test."""
    lb = semidirect(2, "vm:2")
    bm = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.diagonal([1, 1, 0]))
    claim = LeibnizVerdict(LOCAL_AUT, s_shape=CanonicalShape(1, SIGMA_ID, Matrix.identity(2)))
    with pytest.raises(RecheckError, match="I-block is not an intertwiner"):
        recheck_leibniz_verdict(lb, bm, claim)


def test_recheck_refuses_a_reducible_module():
    """On V(1) + V(1) the projection onto one summand is nonzero, singular
    and an intertwiner, so the identity map with that I-block meets every
    product the recheck makes; only the irreducibility of I, which Schur's
    lemma needs, refuses the claim."""
    model = SlnModel(2)
    vm1 = build_module(model, "vm:1")
    doubled = [Matrix(tuple(row + (0, 0) for row in a.data) + tuple((0, 0) + row for row in a.data))
               for a in vm1.actions]
    lb = build_semidirect(model, RightModule(model, "V(1)+V(1)", doubled))
    projection = BlockMap(Matrix.identity(3), Matrix.zeros(4, 3), Matrix.diagonal([1, 1, 0, 0]))
    assert not is_automorphism(lb, projection)[0]
    claim = LeibnizVerdict(LOCAL_AUT, s_shape=CanonicalShape(1, SIGMA_ID, Matrix.identity(2)))
    with pytest.raises(RecheckError, match="module is not irreducible"):
        recheck_leibniz_verdict(lb, projection, claim)


def own_line_solves(solves, module):
    """The highest-weight solves, of those counted, on the module's own
    actions; module_isomorphism's solves on twisted actions are not."""
    return sum(args[1] is module.actions for args in solves)


def test_positive_rechecks_decide_irreducibility_once_per_module(counting):
    """Irreducibility is a fact of the module, so extending, deciding, two
    positive rechecks and is_simple solve its highest-weight line once."""
    model = SlnModel(2)
    module = build_module(model, "vm:2")
    solves = counting(leibniz, "_highest_weight_space")
    lb = build_semidirect(model, module)
    bm = extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(2, random.Random(5))), 1)
    claim = decide_local_aut(lb, bm)
    assert claim.verdict == LOCAL_AUT
    recheck_leibniz_verdict(lb, bm, claim)
    recheck_leibniz_verdict(lb, bm, claim)
    assert is_simple(lb)
    assert own_line_solves(solves, module) == 1


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "natural"), (3, "adjoint")])
def test_two_algebras_on_one_module_solve_its_highest_weight_line_once(counting, n, name):
    """Each algebra built on one RightModule reads the module's one line:
    for y_beta, a weight certificate, positive and negative rechecks and
    is_simple."""
    model = SlnModel(n)
    module = build_module(model, name)
    solves = counting(leibniz, "_highest_weight_space")
    rng = random.Random(n)
    for lb in (build_semidirect(model, module), build_semidirect(model, module)):
        local = extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(n, rng)), 1)
        minus_s = BlockMap(model.scalar_map(-1), Matrix.zeros(lb.dim_i, lb.dim_s), Matrix.identity(lb.dim_i))
        verdicts = [(bm, decide_local_aut(lb, bm)) for bm in (local, minus_s)]
        assert [v.verdict for _, v in verdicts] == [LOCAL_AUT, "NotLocal"]
        assert verdicts[1][1].certificate.kind == "weight_structure"
        for bm, v in verdicts:
            recheck_leibniz_verdict(lb, bm, v)
        assert is_simple(lb)
        assert lb.y_beta == module.highest_weight_line.basis[0]
    assert own_line_solves(solves, module) == 1


def test_recheck_checks_the_fitted_s_shape(monkeypatch):
    """On the trivial module every I-block identity holds, so only the
    S-block shows that transposition is no automorphism.  The claim's shape
    (1, transpose, 1) reproduces it, and the recheck, which fits nothing,
    must refuse its family."""
    lb = semidirect(2, "vm:0")
    anti = BlockMap(lb.model.transpose_map(), Matrix.zeros(1, 3), Matrix.identity(1))
    shape = CanonicalShape(1, SIGMA_T, Matrix.identity(2))
    assert shape_map_matrix(lb.model, shape) == anti.s_block
    monkeypatch.setattr(classify, "fit_shape_family", None)
    with pytest.raises(RecheckError, match="automorphism family"):
        recheck_leibniz_verdict(lb, anti, LeibnizVerdict(LOCAL_AUT, s_shape=shape))


@pytest.mark.parametrize("n, name, scans", [(2, "vm:2", 1), (3, "adjoint", 0), (2, "adjoint", 0), (3, "natural", 0)])
def test_adjoint_module_is_built_once_per_algebra(counting, n, name, scans):
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, name))
    calls = counting(RightModule, "law_violations")
    rng = random.Random(n)
    for _ in range(3):
        phi = inner_automorphism_matrix(model, random_unimodular(n, rng))
        assert extend_automorphism(lb, phi, 1) is not None
    assert len(calls) == scans
    if name == "adjoint":
        assert lb.adjoint_module is lb.module


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "adjoint"), (4, "natural")])
@pytest.mark.parametrize("omega", [0, 1])
def test_positive_decision_and_recheck_make_no_bracket_call(counting, n, name, omega):
    lb = semidirect(n, name)
    phi = inner_automorphism_matrix(lb.model, random_unimodular(n, random.Random(omega)))
    bm = extend_automorphism(lb, phi, omega)
    calls = counting(algebra.StructureAlgebra, "bracket")
    v = decide_local_aut(lb, bm)
    assert v.verdict == LOCAL_AUT
    assert calls == []
    recheck_leibniz_verdict(lb, bm, v)
    assert calls == []
