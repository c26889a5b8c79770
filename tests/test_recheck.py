"""Tamper-resistance of the first-principles certificate rechecker."""

import random
import sys
import time
from dataclasses import replace
from fractions import Fraction
from functools import cached_property

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from locaut import algebra, classify, cli, filiform, leibniz, linalg, recheck, sln
from locaut.algebra import unit_vector
from locaut.classify import automorphism_shape, classify_sln, classify_mn, pointwise_witness, random_unimodular
from locaut.exact import GR_ONE, GR_ZERO, GaussianRational, Polynomial
from locaut.leibniz import (
    BlockMap,
    BracketFailure,
    InheritedSlnObstruction,
    LeibnizVerdict,
    RightModule,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    inner_automorphism_matrix,
    weight_components,
    weight_decomposition,
)
from locaut.linalg import Matrix, charpoly, det, inverse
from locaut.recheck import (
    RecheckError,
    adjugate_inverse,
    charpoly_via_cofactor,
    cofactor_det,
    recheck_extension_structure,
    recheck_leibniz_verdict,
    recheck_sln_verdict,
    recheck_witness_at,
)
from locaut.sln import SIGMA_ID, SIGMA_T, CanonicalShape, MnModel, SlnModel, shape_map_matrix


def gr(x):
    return GaussianRational(x)


def semidirect(n, module_text):
    model = SlnModel(n)
    return build_semidirect(model, build_module(model, module_text))


def no_shape_map(model):
    # fixes e12 and e21; h1 goes to (3/5) h1 + (4/5)(e12 + e21), which keeps
    # the square-zero screen happy and the probe determinant at -1
    cols = [
        (1, 0, 0),
        (0, 1, 0),
        (Fraction(4, 5), Fraction(4, 5), Fraction(3, 5)),
    ]
    return Matrix(tuple(tuple(gr(cols[j][i]) for j in range(3)) for i in range(3)))


# -- first-principles kernels ----------------------------------------------


def test_cofactor_det_hand_values():
    assert cofactor_det(Matrix(((1, 2), (3, 4)))) == gr(-2)
    assert cofactor_det(Matrix.identity(4)) == GR_ONE


def test_adjugate_inverse_matches_elimination():
    m = Matrix(((2, 1, 0), (0, 1, 1), (1, 0, 1)))
    assert adjugate_inverse(m) == inverse(m)


def test_adjugate_inverse_rejects_singular():
    with pytest.raises(RecheckError):
        adjugate_inverse(Matrix(((1, 2), (2, 4))))


def test_charpoly_via_cofactor_example():
    m = Matrix.diagonal([gr(3), gr(-1)])
    assert charpoly_via_cofactor(m) == Polynomial((-3, -2, 1))
    assert charpoly_via_cofactor(m) == charpoly(m)


_small = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_qi = st.one_of(st.just(GR_ZERO), st.builds(GaussianRational, _small, _small))


@st.composite
def qi_matrices(draw):
    n = draw(st.integers(1, 4))
    return Matrix(tuple(tuple(draw(_qi) for _ in range(n)) for _ in range(n)))


@given(qi_matrices())
@settings(max_examples=80, deadline=None)
def test_laplace_kernels_match_elimination(m):
    assert cofactor_det(m) == det(m)
    # det's numerator is far below p here, so its image mod p vanishes
    # only when it does
    assert recheck.full_rank_mod_p(m) == (not det(m).is_zero())
    assert charpoly_via_cofactor(m) == charpoly(m)
    if not det(m).is_zero():
        assert adjugate_inverse(m) == inverse(m)


# -- sl_n verdicts: positives then tampering --------------------------------


def test_recheck_accepts_all_sln_verdict_kinds():
    m2 = SlnModel(2)
    maps = [
        m2.identity_map(),
        m2.transpose_map(),
        m2.scalar_map(2),
        m2.scalar_map(gr(Fraction(1, 2))),
        Matrix.diagonal([0, 1, 1]),
        no_shape_map(m2),
    ]
    for d in maps:
        recheck_sln_verdict(m2, d, classify_sln(m2, d))


def test_recheck_accepts_square_zero_certificate():
    m2 = SlnModel(2)
    cols = [
        m2.coords(m2.e(0, 1) + m2.h(0)),
        m2.coords(m2.e(1, 0)),
        m2.coords(m2.h(0)),
    ]
    d = Matrix(zip(*cols))
    recheck_sln_verdict(m2, d, classify_sln(m2, d))


def test_tampered_shape_rejected():
    m2 = SlnModel(2)
    d = m2.identity_map()
    v = classify_sln(m2, d)
    bad_shape = replace(v.shape, a=Matrix(((1, 1), (0, 1))))
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, replace(v, shape=bad_shape, shapes=(bad_shape,)))


def test_mismatched_verdict_label_rejected():
    m2 = SlnModel(2)
    d = m2.identity_map()
    v = classify_sln(m2, d)
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, replace(v, verdict="AntiAutomorphism"))


def test_tampered_kernel_vector_rejected():
    m2 = SlnModel(2)
    d = Matrix.diagonal([0, 1, 1])
    v = classify_sln(m2, d)
    bad = replace(v, obstruction=replace(v.obstruction, kernel_vector=(GR_ONE, GR_ONE, GR_ONE)))
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, bad)


def test_tampered_lambda_rejected():
    m2 = SlnModel(2)
    d = m2.scalar_map(2)
    v = classify_sln(m2, d)
    bad = replace(v, obstruction=replace(v.obstruction, lam_squared=GR_ONE))
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, bad)
    t = Polynomial((0, 1))
    bad2 = replace(v, obstruction=replace(v.obstruction, probe_charpoly=t * t))
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, bad2)


def test_tampered_square_zero_witness_rejected():
    m2 = SlnModel(2)
    cols = [
        m2.coords(m2.e(0, 1) + m2.h(0)),
        m2.coords(m2.e(1, 0)),
        m2.coords(m2.h(0)),
    ]
    d = Matrix(zip(*cols))
    v = classify_sln(m2, d)
    bad = replace(v, obstruction=replace(v.obstruction, witness=m2.h(0)))
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, bad)


def test_tampered_fit_dimension_rejected():
    m2 = SlnModel(2)
    d = no_shape_map(m2)
    v = classify_sln(m2, d)
    ob = v.obstruction
    wrong = tuple((fam, dim + 1) for fam, dim in ob.fit_dimensions)
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, replace(v, obstruction=replace(ob, fit_dimensions=wrong)))


def test_recheck_witness_at():
    m2 = SlnModel(2)
    d = m2.transpose_map()
    x = m2.e(0, 1)
    shape = pointwise_witness(m2, d, x)
    recheck_witness_at(m2, d, x, shape)
    with pytest.raises(RecheckError):
        recheck_witness_at(m2, d, m2.e(0, 1) + m2.h(0), shape)


def test_recheck_witness_at_rejects_a_singular_conjugator():
    # a = 0 satisfies epsilon a sigma(x) = Delta(x) a at every x; only the
    # determinant rules it out
    m2 = SlnModel(2)
    d = m2.transpose_map()
    with pytest.raises(RecheckError, match="singular"):
        recheck_witness_at(m2, d, m2.e(0, 1), CanonicalShape(1, SIGMA_ID, Matrix.zeros(2, 2)))


def _locaut_modules_holding(name):
    return [mod for key, mod in list(sys.modules.items()) if key.split(".")[0] == "locaut" and hasattr(mod, name)]


def _diagonal_witness(n, entries):
    """The identity map at a diagonal x, with the diagonal conjugator
    diag(entries): a x = x a, so only det(a) != 0 is in question."""
    model = SlnModel(n)
    x = Matrix.diagonal([gr(k + 1) for k in range(n - 1)] + [gr(-n * (n - 1) // 2)])
    a = Matrix.diagonal([gr(e) for e in entries])
    return model, model.identity_map(), x, CanonicalShape(1, SIGMA_ID, a)


@pytest.mark.parametrize("first", [linalg._P, Fraction(1, linalg._P)], ids=["det_p", "denominator_p"])
def test_recheck_witness_at_falls_back_to_exact_elimination(counting, first):
    """diag(p, 1, 1) is singular mod p, and p divides a denominator of
    diag(1/p, 1, 1): neither proves anything mod p, so the exact
    determinant decides, and both are invertible."""
    model, d, x, shape = _diagonal_witness(3, [first, 1, 1])
    assert not recheck.full_rank_mod_p(shape.a)
    dets = counting(recheck, "det")
    recheck_witness_at(model, d, x, shape)
    assert dets == [(shape.a,)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_recheck_witness_at_refuses_a_conjugator_of_rank_n_minus_1(n):
    model, d, x, shape = _diagonal_witness(n, [1] * (n - 1) + [0])
    with pytest.raises(RecheckError, match="conjugator is singular"):
        recheck_witness_at(model, d, x, shape)


def test_witness_determinant_does_not_lean_on_linalg_elimination_mod_p(monkeypatch):
    """With linalg's test mod p answering "nonsingular" for everything, a
    rank n - 1 conjugator is still refused: the recheck runs its own
    elimination."""
    model, d, x, shape = _diagonal_witness(3, [1, 1, 0])

    def echelon_full_rank(m, root):
        return [list(row) for row in m.data], list(range(m.nrows))

    for mod in _locaut_modules_holding("is_nonsingular"):
        monkeypatch.setattr(mod, "is_nonsingular", lambda m: True)
    monkeypatch.setattr(linalg, "_echelon_mod_p", echelon_full_rank)
    assert linalg.is_nonsingular(shape.a)
    with pytest.raises(RecheckError, match="conjugator is singular"):
        recheck_witness_at(model, d, x, shape)


def test_pointwise_witnesses_recheck_past_the_workload_sizes():
    """At n = 6, 7, 8 the transpose and the negation have a witness at
    random traceless integer points, each rechecked in well under the time
    of a Laplace determinant (67.8 ms at n = 7), and the full rank mod p
    agrees with det(a) != 0."""
    rng = random.Random(68)
    for n in (6, 7, 8):
        model = SlnModel(n)
        for d in (model.transpose_map(), model.scalar_map(-1)):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            rows[-1][-1] -= sum(rows[i][i] for i in range(n))
            x = Matrix(rows)
            shape = pointwise_witness(model, d, x)
            assert shape is not None
            start = time.perf_counter()
            recheck_witness_at(model, d, x, shape)
            assert time.perf_counter() - start < 0.05
            assert recheck.full_rank_mod_p(shape.a) == (not det(shape.a).is_zero())


def test_recheck_mn_identity_not_fixed():
    model = MnModel(2)
    d = model.map_matrix(lambda x: x + x)
    v = classify_mn(model, d)
    recheck_sln_verdict(model, d, v)
    bad = replace(v, obstruction=replace(v.obstruction, image_of_identity=Matrix.identity(2)))
    with pytest.raises(RecheckError):
        recheck_sln_verdict(model, d, bad)


# -- Leibniz verdicts -------------------------------------------------------


def leibniz_cases():
    lb = semidirect(2, "vm:2")
    model = lb.model
    zero = Matrix.zeros(3, 3)
    ident = Matrix.identity(3)
    flip = Matrix(tuple(tuple(1 if p + q == 2 else 0 for q in range(3)) for p in range(3)))
    return lb, {
        "local": extend_automorphism(lb, inner_automorphism_matrix(model, Matrix(((1, 1), (0, 1)))), 1),
        "not_injective": BlockMap(ident, zero, Matrix.diagonal([1, 1, 0])),
        "sln_block": BlockMap(model.scalar_map(2), zero, ident),
        "bracket_square": BlockMap(model.transpose_map(), zero, ident),
        "weight_structure": BlockMap(model.scalar_map(-1), zero, ident),
        "bracket_failure": BlockMap(ident, zero, Matrix.diagonal([1, 1, 2])),
        "flip_square": BlockMap(model.scalar_map(-1), zero, flip),
    }


def test_recheck_accepts_all_leibniz_kinds():
    lb, cases = leibniz_cases()
    for bm in cases.values():
        recheck_leibniz_verdict(lb, bm, decide_local_aut(lb, bm))


def test_false_local_claim_rejected():
    """The identity S-block's own shape comes with the claim, so only the
    I-block diag(1, 1, 2) refutes it."""
    lb, cases = leibniz_cases()
    bm = cases["bracket_failure"]
    claim = LeibnizVerdict("LocalAutomorphism", s_shape=automorphism_shape(lb.model, bm.s_block))
    with pytest.raises(RecheckError, match="I-block is not an intertwiner"):
        recheck_leibniz_verdict(lb, bm, claim)


def test_positive_verdict_without_an_s_shape_rejected():
    lb, cases = leibniz_cases()
    bm = cases["local"]
    v = decide_local_aut(lb, bm)
    recheck_leibniz_verdict(lb, bm, v)
    with pytest.raises(RecheckError, match="positive verdict without an S-shape"):
        recheck_leibniz_verdict(lb, bm, replace(v, s_shape=None))


def tampered_shapes(shape):
    """shape with 1 added to one entry of a (no multiple of a, which has
    another nonzero entry), then with epsilon, then sigma, flipped."""
    rows = [list(r) for r in shape.a.data]
    rows[0][0] = rows[0][0] + 1
    return [
        replace(shape, a=Matrix(rows)),
        replace(shape, epsilon=-shape.epsilon),
        replace(shape, sigma=SIGMA_T if shape.sigma == SIGMA_ID else SIGMA_ID),
    ]


def test_tampered_s_shape_rejected():
    lb, cases = leibniz_cases()
    bm = cases["local"]
    v = decide_local_aut(lb, bm)
    assert v.s_shape.is_automorphism_family()
    for shape in tampered_shapes(v.s_shape):
        with pytest.raises(RecheckError, match="shape"):
            recheck_leibniz_verdict(lb, bm, replace(v, s_shape=shape))


def test_tampered_reducer_shape_rejected():
    lb, cases = leibniz_cases()
    bm = cases["weight_structure"]
    v = decide_local_aut(lb, bm)
    cert = v.certificate
    assert cert.kind == "weight_structure"
    for shape in tampered_shapes(cert.reducer_shape) + [None]:
        with pytest.raises(RecheckError, match="shape"):
            recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(cert, reducer_shape=shape)))


def test_inherited_positive_sln_verdict_rejected():
    """A NotLocal claim on a local map whose sln_block certificate wraps the
    S-block's own, positive and valid, sl_n verdict."""
    lb, cases = leibniz_cases()
    bm = cases["local"]
    s_verdict = classify_sln(lb.model, bm.s_block)
    recheck_sln_verdict(lb.model, bm.s_block, s_verdict)
    forged = LeibnizVerdict("NotLocal", InheritedSlnObstruction(s_verdict))
    with pytest.raises(RecheckError, match="not NotLocal"):
        recheck_leibniz_verdict(lb, bm, forged)


def test_rechecking_leibniz_claims_fits_no_shape(counting):
    """A positive verdict, a weight certificate's reducer and an extension
    are checked against the shape that comes with them."""
    fits = counting(classify, "fit_shape_family")
    lb, cases = leibniz_cases()
    claims = [(bm, decide_local_aut(lb, bm)) for bm in (cases["local"], cases["weight_structure"])]
    assert [v.verdict for _, v in claims] == ["LocalAutomorphism", "NotLocal"]
    assert claims[1][1].certificate.kind == "weight_structure"
    g = Matrix(((2, 1), (1, 1)))
    ext = extend_automorphism(lb, inner_automorphism_matrix(lb.model, g), 1)
    fits.clear()
    for bm, v in claims:
        recheck_leibniz_verdict(lb, bm, v)
    recheck_extension_structure(lb, ext, CanonicalShape(1, SIGMA_ID, g))
    assert fits == []


def test_tampered_bracket_square_rejected():
    lb, cases = leibniz_cases()
    bm = cases["bracket_square"]
    v = decide_local_aut(lb, bm)
    assert v.certificate.kind == "bracket_square"
    # shift z to a point with [z, z] != 0
    h0y = tuple(
        a + b
        for a, b in zip(
            lb.embed_s(lb.model.coords(lb.model.strongly_regular_element())), lb.embed_i(lb.y_beta)
        )
    )
    bad_z = replace(v.certificate, z=h0y)
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=bad_z))
    wrong_sq = replace(v.certificate, image_square=(GR_ONE,) * lb.dim)
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=wrong_sq))


def test_tampered_weight_certificate_rejected():
    lb, cases = leibniz_cases()
    bm = cases["weight_structure"]
    v = decide_local_aut(lb, bm)
    cert = v.certificate
    assert cert.kind == "weight_structure"
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(cert, sign=-cert.sign)))
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(
            lb, bm, replace(v, certificate=replace(cert, beta=(Fraction(-4),)))
        )
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(
            lb, bm, replace(v, certificate=replace(cert, i_part=tuple(lb.y_beta)))
        )
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(
            lb, bm, replace(v, certificate=replace(cert, reduced=bm))
        )


ANTI_ALGEBRAS = [(2, "vm:2"), (2, "vm:6"), (3, "natural"), (3, "adjoint"), (4, "natural")]


def anti_maps_after_inner(lb, rng):
    """minus_s, then transpose_s with I-block 2, after a random inner
    extension (omega 0, then 1).  The S-blocks fit (-1, identity) and
    (1, transpose) with a != 1, so a weight certificate's reducer is no
    identity map."""
    model, ds, di = lb.model, lb.dim_s, lb.dim_i
    anti = [BlockMap(model.scalar_map(-1), Matrix.zeros(di, ds), Matrix.identity(di)),
            BlockMap(model.transpose_map(), Matrix.zeros(di, ds), Matrix.identity(di) * gr(2))]
    maps = []
    for omega in (0, 1):
        inner = extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(model.n, rng)), omega)
        maps += [inner.compose(bm) for bm in anti]
    return maps


@pytest.mark.parametrize("n, name", ANTI_ALGEBRAS)
def test_anti_maps_after_an_inner_extension_recheck(counting, n, name):
    """The product check of a weight certificate's reduced map meets
    reducers other than the identity; no recheck inverts a matrix, through
    any module's binding of linalg.inverse."""
    lb = semidirect(n, name)
    owners = [m for m in (algebra, classify, cli, filiform, leibniz, linalg, recheck, sln)
              if getattr(m, "inverse", None) is linalg.inverse]
    assert {linalg, leibniz, sln} <= set(owners)
    inversions = [counting(owner, "inverse") for owner in owners]
    reducers = []
    for bm in anti_maps_after_inner(lb, random.Random(8000 + n)):
        v = decide_local_aut(lb, bm)
        assert v.verdict == "NotLocal"
        for calls in inversions:
            calls.clear()
        recheck_leibniz_verdict(lb, bm, v)
        assert inversions == [[]] * len(owners)
        if v.certificate.kind == "weight_structure":
            reducers.append(v.certificate.reducer)
    assert len(reducers) == 2  # both minus_s maps
    assert all(r.s_block != Matrix.identity(lb.dim_s) for r in reducers)


def tampered_block_maps(bm):
    """bm with one block changed in one entry, then with an S-block or an
    I-block one size too large."""
    ds, di = bm.s_block.nrows, bm.i_block.nrows

    def bump(m):
        return m + Matrix(tuple(tuple(int(r == c == 0) for c in range(m.ncols)) for r in range(m.nrows)))

    return [
        BlockMap(bump(bm.s_block), bm.coupling, bm.i_block),
        BlockMap(bm.s_block, bump(bm.coupling), bm.i_block),
        BlockMap(bm.s_block, bm.coupling, bump(bm.i_block)),
        BlockMap(Matrix.identity(ds + 1), Matrix.zeros(di, ds + 1), bm.i_block),
        BlockMap(bm.s_block, Matrix.zeros(di + 1, ds), Matrix.identity(di + 1)),
    ]


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "natural")])
def test_tampered_reduced_map_raises_recheck_error(n, name):
    """A stored reduced map with one block changed, or a reduced map or
    reducer of the wrong size, fails the recheck: never a ValueError from a
    product of mismatched blocks."""
    lb = semidirect(n, name)
    bm = anti_maps_after_inner(lb, random.Random(8000 + n))[0]
    v = decide_local_aut(lb, bm)
    assert v.certificate.kind == "weight_structure"
    for red in tampered_block_maps(v.certificate.reduced):
        with pytest.raises(RecheckError, match="reduced map"):
            recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(v.certificate, reduced=red)))
    oversized = tampered_block_maps(v.certificate.reducer)[3]
    with pytest.raises(RecheckError, match="block sizes"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(v.certificate, reducer=oversized)))


def test_weight_table_is_read_once_per_module(monkeypatch):
    """Deciding and rechecking a weight_structure verdict, on two algebras
    built on one module, and its weight decomposition share the module's one
    weight table."""
    calls = []
    real = RightModule.weight_table.func

    def counting(module):
        calls.append(module.name)
        return real(module)

    spy = cached_property(counting)
    spy.__set_name__(RightModule, "weight_table")
    monkeypatch.setattr(RightModule, "weight_table", spy)
    model = SlnModel(2)
    module = build_module(model, "vm:2")
    for lb in (build_semidirect(model, module), build_semidirect(model, module)):
        bm = BlockMap(model.scalar_map(-1), Matrix.zeros(lb.dim_i, lb.dim_s), Matrix.identity(lb.dim_i))
        v = decide_local_aut(lb, bm)
        assert v.certificate.kind == "weight_structure"
        recheck_leibniz_verdict(lb, bm, v)
    assert [ws.values for ws in weight_decomposition(module)] == [(2,), (0,), (-2,)]
    assert calls == ["V(2)"]


def test_tampered_bracket_failure_rejected():
    lb, cases = leibniz_cases()
    bm = cases["bracket_failure"]
    v = decide_local_aut(lb, bm)
    assert v.certificate.kind == "bracket_failure"
    # point the certificate at a pair where brackets do agree
    agreeing = replace(v.certificate, i=0, j=0)
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=agreeing))


# -- extension structure ----------------------------------------------------


def test_extension_structure_positive():
    lb = semidirect(2, "vm:3")
    g = Matrix(((2, 1), (1, 1)))
    bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, g), 0)
    recheck_extension_structure(lb, bm, CanonicalShape(1, SIGMA_ID, g))
    for shape in tampered_shapes(CanonicalShape(1, SIGMA_ID, g)):
        with pytest.raises(RecheckError, match="shape"):
            recheck_extension_structure(lb, bm, shape)


IDENTITY_SHAPE = CanonicalShape(1, SIGMA_ID, Matrix.identity(2))


def test_extension_structure_rejects_forced_coupling():
    lb = semidirect(2, "vm:3")
    bm = extend_automorphism(lb, Matrix.identity(3), 0)
    with_coupling = BlockMap(bm.s_block, Matrix(((1,) + (0,) * 2,) * 4), bm.i_block)
    with pytest.raises(RecheckError, match="coupling must vanish"):
        recheck_extension_structure(lb, with_coupling, IDENTITY_SHAPE)


def test_extension_structure_rejects_broken_intertwiner():
    lb = semidirect(2, "vm:2")
    bm = extend_automorphism(lb, Matrix.identity(3), 0)
    scaled = BlockMap(bm.s_block, bm.coupling, Matrix.diagonal([1, 1, 2]))
    with pytest.raises(RecheckError, match="I-block is not an intertwiner"):
        recheck_extension_structure(lb, scaled, IDENTITY_SHAPE)


# -- certificates that name too few families or carry extra entries ---------


def test_no_shape_fits_must_list_every_family():
    """The identity of sl_3 fits (1, identity); a certificate that refits no
    family, or only (1, transpose), must not pass."""
    from locaut.classify import NoShapeFits, Verdict, local_aut_probe

    m3 = SlnModel(3)
    d = m3.identity_map()
    probe, required, _, _ = local_aut_probe(m3, d)
    for dims in ((), (((1, "transpose"), 0),)):
        fake = Verdict("NotLocal", obstruction=NoShapeFits(dims, probe, required))
        with pytest.raises(RecheckError, match="famil"):
            recheck_sln_verdict(m3, d, fake)


def test_no_shape_fits_families_follow_the_model():
    """An M_n certificate lists the two M_n families, an sl_n one all four,
    each in the classifier's order."""
    from locaut.classify import MN_FAMILIES

    mn = MnModel(2)
    d = Matrix.diagonal([1, 2, 1, 1])
    v = classify_mn(mn, d)
    assert v.obstruction.kind == "no_shape_fits"
    recheck_sln_verdict(mn, d, v)
    assert tuple(fam for fam, _ in v.obstruction.fit_dimensions) == MN_FAMILIES
    reordered = tuple(reversed(v.obstruction.fit_dimensions))
    with pytest.raises(RecheckError, match="famil"):
        recheck_sln_verdict(mn, d, replace(v, obstruction=replace(v.obstruction, fit_dimensions=reordered)))


def test_bracket_square_image_with_extra_entry_rejected():
    lb, cases = leibniz_cases()
    bm = cases["bracket_square"]
    v = decide_local_aut(lb, bm)
    cert = v.certificate
    longer = replace(cert, image_square=tuple(cert.image_square) + (GR_ZERO,))
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=longer))


def minus_s_weight_case(n=3, name="natural"):
    lb = semidirect(n, name)
    bm = BlockMap(lb.model.scalar_map(-1), Matrix.zeros(lb.dim_i, lb.dim_s), Matrix.identity(lb.dim_i))
    v = decide_local_aut(lb, bm)
    assert v.certificate.kind == "weight_structure"
    recheck_leibniz_verdict(lb, bm, v)
    return lb, bm, v


@pytest.mark.parametrize("field", ["i_part", "z"])
def test_weight_certificate_vector_with_extra_entry_rejected(field):
    lb, bm, v = minus_s_weight_case()
    cert = v.certificate
    longer = replace(cert, **{field: tuple(getattr(cert, field)) + (GR_ZERO,)})
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=longer))


@pytest.mark.parametrize("extra", [GR_ZERO, GR_ONE])
def test_kernel_vector_of_wrong_length_rejected(extra):
    m2 = SlnModel(2)
    d = Matrix.diagonal([0, 1, 1])
    v = classify_sln(m2, d)
    longer = tuple(v.obstruction.kernel_vector) + (extra,)
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, replace(v, obstruction=replace(v.obstruction, kernel_vector=longer)))
    lb, cases = leibniz_cases()
    bm = cases["not_injective"]
    lv = decide_local_aut(lb, bm)
    longer = tuple(lv.certificate.kernel_vector) + (extra,)
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(lv, certificate=replace(lv.certificate, kernel_vector=longer)))


@pytest.mark.parametrize("n, calls", [(2, 2), (3, 1), (4, 1)])
def test_recheck_shape_runs_once_per_distinct_shape(monkeypatch, n, calls):
    """At n = 2 the transpose fits two families, at n >= 3 one; each shape is
    checked once, against the columns of the map, never through apply_map."""
    model = SlnModel(n)
    d = model.transpose_map()
    v = classify_sln(model, d)
    seen = []
    real = recheck.recheck_shape

    def counting(model, images, shape):
        seen.append(shape)
        return real(model, images, shape)

    def no_apply_map(self, d, x):
        raise AssertionError("recheck went through apply_map")

    monkeypatch.setattr(recheck, "recheck_shape", counting)
    monkeypatch.setattr(SlnModel, "apply_map", no_apply_map)
    recheck_sln_verdict(model, d, v)
    assert len(seen) == len(set(seen)) == calls


# -- one product identity per shape; the weight certificate's own z ---------


def test_positive_verdicts_and_witnesses_invert_nothing(counting):
    """Shapes are checked by epsilon a sigma(x) = y a, and a positive
    verdict's conjugator and I-block are invertible by Schur's lemma, so no
    positive sl_n or Leibniz verdict, extension or weight certificate's
    reducer is rechecked with an inverse or a determinant; a pointwise
    witness takes exactly one full rank mod p, on its conjugator, with no
    Laplace determinant, no exact fallback and no linalg.is_nonsingular."""
    rng = random.Random(19)
    cases = []
    for n in (2, 3, 4):
        model = SlnModel(n)
        g = random_unimodular(n, rng)
        g_inv = inverse(g)
        conj = model.map_matrix(lambda x: g @ x @ g_inv)
        for d in (conj, model.transpose_map(), model.scalar_map(-1)):
            x = model.matrix([gr(rng.randint(-3, 3)) for _ in range(model.dim)])
            cases.append((model, d, classify_sln(model, d), x, pointwise_witness(model, d, x)))
    leibniz_positives, extensions, weight_cases = [], [], []
    for n, name in ((2, "vm:2"), (3, "natural"), (3, "adjoint")):
        lb = semidirect(n, name)
        a = random_unimodular(n, rng)
        bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, a), 1)
        v = decide_local_aut(lb, bm)
        assert v.verdict == "LocalAutomorphism"
        leibniz_positives.append((lb, bm, v))
        extensions.append((lb, bm, CanonicalShape(1, SIGMA_ID, a)))
        weight_cases.append(minus_s_weight_case(n, name))
    # every binding of linalg.inverse, and the adjugate
    inversions = [counting(owner, "inverse") for owner in (linalg, leibniz, sln)]
    inversions.append(counting(recheck, "adjugate_inverse"))
    dets = [counting(recheck, name) for name in ("cofactor_det", "det")]
    # every binding of linalg.is_nonsingular, which the decision uses
    nonsingular = [counting(mod, "is_nonsingular") for mod in _locaut_modules_holding("is_nonsingular")]
    ranks = counting(recheck, "full_rank_mod_p")
    for model, d, v, x, shape in cases:
        assert v.verdict in ("Automorphism", "AntiAutomorphism")
        recheck_sln_verdict(model, d, v)
    for lb, bm, v in leibniz_positives + weight_cases:
        recheck_leibniz_verdict(lb, bm, v)
    for lb, bm, shape in extensions:
        recheck_extension_structure(lb, bm, shape)
    assert inversions == [[], [], [], []]
    assert ranks == []
    for model, d, _, x, shape in cases:
        recheck_witness_at(model, d, x, shape)
    assert inversions == [[], [], [], []]
    assert dets == [[], []]
    assert nonsingular and all(calls == [] for calls in nonsingular)
    assert [a for (a,) in ranks] == [shape.a for *_, shape in cases]


def test_positive_recheck_at_n_9_takes_no_determinant(counting):
    """A conjugator's Laplace determinant has up to n! terms; the positive
    recheck shows it invertible by Schur's lemma instead, so both
    automorphism families recheck at n = 9, where the expansion would have
    up to 9! = 362880.  The maps come from shape_map_matrix, so no decision
    runs."""
    model = SlnModel(9)
    a = random_unimodular(9, random.Random(9))
    claims = []
    for eps, sigma in ((1, SIGMA_ID), (-1, SIGMA_T)):
        shape = CanonicalShape(eps, sigma, a)
        claims.append((shape_map_matrix(model, shape), classify.Verdict(classify.AUTOMORPHISM, shape, (shape,))))
    dets = counting(recheck, "cofactor_det")
    for d, v in claims:
        recheck_sln_verdict(model, d, v)
    assert dets == []


@pytest.mark.parametrize("a, message", [
    (Matrix.zeros(2, 2), "conjugator is zero"),
    (Matrix.identity(3), "wrong size"),
    (None, "wrong size"),
    (((1, 0), (0, 1)), "wrong size"),
    (Matrix(((1, 0), (0, 0))), "shape does not reproduce the map"),
])
def test_positive_verdict_with_a_bad_conjugator_rejected(a, message):
    """a = 0 satisfies epsilon a sigma(x) = y a at every basis element, so
    only a != 0 rules it out; a singular nonzero a, here the rank-one E_11,
    breaks the product identity, because sl_2 acts irreducibly on Q(i)^2;
    a 3 x 3 conjugator on sl_2, or one that is no Matrix, is refused before
    any product."""
    m2 = SlnModel(2)
    d = m2.identity_map()
    v = classify_sln(m2, d)
    bad = replace(v.shape, a=a)
    with pytest.raises(RecheckError, match=message):
        recheck_sln_verdict(m2, d, replace(v, shape=bad, shapes=(bad,)))


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "natural")])
def test_weight_recheck_on_a_fresh_algebra_takes_no_highest_weight_kernel(monkeypatch, n, name):
    """The certificate's z carries y_beta, so rechecking it on an algebra
    that has decided nothing never solves for the highest-weight line."""
    _, bm, v = minus_s_weight_case(n, name)
    calls = []
    real = leibniz.highest_weight_vector

    def spy(module):
        calls.append(module.name)
        return real(module)

    monkeypatch.setattr(leibniz, "highest_weight_vector", spy)
    monkeypatch.setattr(recheck, "highest_weight_vector", spy, raising=False)
    fresh = semidirect(n, name)
    recheck_leibniz_verdict(fresh, bm, v)
    assert calls == []
    assert "y_beta" not in vars(fresh)


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "natural")])
def test_weight_certificate_z_off_h0_plus_y_beta_rejected(n, name):
    """z = 2 h0 + y_beta with the stored I-part of its image, z = h0 +
    2 y_beta, and z = h0 + a lower-weight unit vector stored with that
    vector's own weight are each refused at z."""
    lb, bm, v = minus_s_weight_case(n, name)
    cert = v.certificate
    s_part, y = lb.split(cert.z)
    two_h0 = tuple(x + x for x in s_part) + y
    _, i_part = lb.split(cert.reduced.full_matrix().apply(two_h0))
    with pytest.raises(RecheckError, match="S-part"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(cert, z=two_h0, i_part=i_part)))
    doubled = replace(cert, z=s_part + tuple(x + x for x in y))
    with pytest.raises(RecheckError, match="unit vector"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=doubled))
    low = unit_vector(lb.dim_i - 1, lb.dim_i)
    assert low != y
    (low_beta,) = weight_components(lb, low)
    lowered = replace(cert, z=s_part + low, beta=low_beta)
    with pytest.raises(RecheckError, match="positive root"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=lowered))


# -- malformed certificates raise RecheckError, never another error ---------


@pytest.mark.parametrize("pair", [(99, 0), (-1, 0)])
def test_bracket_failure_pair_outside_the_basis_rejected(pair):
    """99 is past the basis and -1 would index its last element."""
    lb, cases = leibniz_cases()
    bm = cases["bracket_failure"]
    v = decide_local_aut(lb, bm)
    with pytest.raises(RecheckError, match="basis pair"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=BracketFailure(*pair)))


@pytest.mark.parametrize("pair", [(False, 0), (0, False)])
def test_bracket_failure_pair_of_bools_rejected(pair):
    """A coupling that sends e12 to v2 breaks the bracket at (e12, e12), and
    False indexes like 0 and compares equal to it, but is not the int."""
    lb = semidirect(2, "vm:2")
    coupling = Matrix(tuple(tuple(1 if (r, s) == (1, 0) else 0 for s in range(3)) for r in range(3)))
    bm = BlockMap(Matrix.identity(3), coupling, Matrix.identity(3))
    v = decide_local_aut(lb, bm)
    assert (v.certificate.kind, v.certificate.to_json()["basis_pair"]) == ("bracket_failure", [0, 0])
    recheck_leibniz_verdict(lb, bm, v)
    with pytest.raises(RecheckError, match="basis pair"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=BracketFailure(*pair)))


@pytest.mark.parametrize("epsilon", [True, 1.0, -1.0, Fraction(1)])
def test_shape_epsilon_other_than_the_int_one_or_minus_one_rejected(epsilon):
    """True, 1.0 and Fraction(1) compare equal to 1 but are not the int, so
    no shape, and hence no positive sl_3 verdict, carries one."""
    m3 = SlnModel(3)
    d = m3.identity_map()
    v = classify_sln(m3, d)
    recheck_sln_verdict(m3, d, v)
    with pytest.raises(ValueError, match="int 1 or -1"):
        replace(v.shape, epsilon=epsilon)


@pytest.mark.parametrize("epsilon", [1.9, -1.0, True, "1"])
def test_shape_from_json_refuses_a_non_integer_epsilon(epsilon):
    shape = CanonicalShape(-1, SIGMA_T, Matrix.identity(3))
    assert CanonicalShape.from_json(shape.to_json()) == shape
    with pytest.raises(ValueError, match="int 1 or -1"):
        CanonicalShape.from_json({**shape.to_json(), "epsilon": epsilon})


def test_square_zero_witness_of_the_wrong_size_rejected():
    m2 = SlnModel(2)
    cols = [m2.coords(m2.e(0, 1) + m2.h(0)), m2.coords(m2.e(1, 0)), m2.coords(m2.h(0))]
    d = Matrix(zip(*cols))
    v = classify_sln(m2, d)
    assert v.obstruction.kind == "square_zero_broken"
    e13 = Matrix(((0, 0, 1), (0, 0, 0), (0, 0, 0)))
    with pytest.raises(RecheckError, match="wrong size"):
        recheck_sln_verdict(m2, d, replace(v, obstruction=replace(v.obstruction, witness=e13)))


# -- stored scalars and polynomials must equal the recomputed ones ----------


@pytest.mark.parametrize("sign", [5, 0, -7, -1.0, False])
def test_weight_certificate_sign_other_than_the_int_one_or_minus_one_rejected(sign):
    """minus_s has sign -1; 5, 0 and -7 are not signs, and -1.0 and False
    compare equal to one but are not the int."""
    lb, bm, v = minus_s_weight_case()
    assert v.certificate.sign == -1
    with pytest.raises(RecheckError, match="sign"):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(v.certificate, sign=sign)))


@pytest.mark.parametrize("lam", [gr(2), GaussianRational(0, 1)])
def test_lambda_must_be_the_canonical_square_root(lam):
    """scalar_map(lam) on sl_3 gets lambda_not_unit with lambda = lam, the
    canonical root of lam^2; a missing lambda or -lam fails."""
    m3 = SlnModel(3)
    d = m3.scalar_map(lam)
    v = classify_sln(m3, d)
    ob = v.obstruction
    assert ob.kind == "lambda_not_unit" and ob.lam == lam
    recheck_sln_verdict(m3, d, v)
    for bad in (None, -lam):
        with pytest.raises(RecheckError, match="canonical square root"):
            recheck_sln_verdict(m3, d, replace(v, obstruction=replace(ob, lam=bad)))


def test_no_shape_fits_probe_polynomials_are_rechecked_on_sl_n():
    """The n = 2 screen evader's certificate must carry the probe's
    polynomial and the required one, not None or another polynomial."""
    m2 = SlnModel(2)
    d = no_shape_map(m2)
    v = classify_sln(m2, d)
    ob = v.obstruction
    assert ob.kind == "no_shape_fits"
    recheck_sln_verdict(m2, d, v)
    for field, bad in (("probe_charpoly", None), ("required_charpoly", None),
                       ("required_charpoly", Polynomial((5, 1)))):
        with pytest.raises(RecheckError, match="polynomial is wrong"):
            recheck_sln_verdict(m2, d, replace(v, obstruction=replace(ob, **{field: bad})))


def test_no_shape_fits_on_m_n_carries_no_probe_polynomials():
    """classify_mn runs no probe, so either polynomial on an M_n
    certificate fails, even the values the sl_2 probe would give."""
    mn = MnModel(2)
    d = Matrix.diagonal([1, 2, 1, 1])
    v = classify_mn(mn, d)
    ob = v.obstruction
    assert ob.kind == "no_shape_fits" and ob.probe_charpoly is None and ob.required_charpoly is None
    probe = charpoly(mn.apply_map(d, Matrix.diagonal([1, -1])))
    for field, bad in (("probe_charpoly", probe), ("required_charpoly", Polynomial((-1, 0, 1)))):
        with pytest.raises(RecheckError, match="polynomial is wrong"):
            recheck_sln_verdict(mn, d, replace(v, obstruction=replace(ob, **{field: bad})))


# -- stored probe polynomials, checked by Newton's power sums ---------------


def random_gaussian_matrix(n, rng):
    return Matrix(tuple(tuple(GaussianRational(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n))
                        for _ in range(n)))


@pytest.mark.parametrize("n", range(1, 9))
def test_power_sum_check_accepts_the_characteristic_polynomial(n):
    """Laplace (the oracle up to n = 4) and Faddeev-LeVerrier agree with the
    power-sum check on seeded Gaussian-integer matrices."""
    rng = random.Random(100 + n)
    for _ in range(4):
        m = random_gaussian_matrix(n, rng)
        assert recheck._is_charpoly(m, charpoly(m))
        if n <= 4:
            assert recheck._is_charpoly(m, charpoly_via_cofactor(m))


@pytest.mark.parametrize("n", range(1, 9))
def test_power_sum_check_refuses_one_added_at_each_coefficient(n):
    """p + t^k for every k: the constant term (k = 0) is seen only by the
    k = n identity, and k = n makes p non-monic."""
    m = random_gaussian_matrix(n, random.Random(200 + n))
    p = charpoly(m)
    for k in range(n + 1):
        assert not recheck._is_charpoly(m, p + Polynomial((0,) * k + (1,)))


def probe_polynomial_tampers(p):
    """Each single-coefficient change, None, a non-monic p and the degrees
    n - 1 and n + 1, both monic."""
    n = p.degree
    yield from (p + Polynomial((0,) * k + (1,)) for k in range(n))
    yield from (None, p * 2, Polynomial(p.coeffs[1:]), p * Polynomial((0, 1)))


def lambda_not_unit_case(n):
    model = SlnModel(n)
    d = model.scalar_map(2)
    return model, d, classify_sln(model, d)


def no_shape_fits_case():
    model = SlnModel(2)
    d = no_shape_map(model)
    return model, d, classify_sln(model, d)


@pytest.mark.parametrize("case", [
    pytest.param(lambda: lambda_not_unit_case(3), id="lambda_not_unit-3"),
    pytest.param(lambda: lambda_not_unit_case(5), id="lambda_not_unit-5"),
    pytest.param(no_shape_fits_case, id="no_shape_fits-2"),
])
def test_tampered_probe_polynomial_rejected(case):
    model, d, v = case()
    ob = v.obstruction
    assert ob.kind in ("lambda_not_unit", "no_shape_fits")
    recheck_sln_verdict(model, d, v)
    for bad in probe_polynomial_tampers(ob.probe_charpoly):
        with pytest.raises(RecheckError, match="stored probe polynomial is wrong"):
            recheck_sln_verdict(model, d, replace(v, obstruction=replace(ob, probe_charpoly=bad)))


def test_lambda_not_unit_rechecks_at_n_9_in_under_a_second():
    """n - 1 = 8 products of 9 x 9 matrices check the probe polynomial,
    where a Laplace expansion over polynomial entries has up to 9! terms."""
    model, d, v = lambda_not_unit_case(9)
    ob = v.obstruction
    assert ob.kind == "lambda_not_unit"
    start = time.perf_counter()
    recheck_sln_verdict(model, d, v)
    assert time.perf_counter() - start < 1.0
    bad = ob.probe_charpoly + Polynomial((1,))
    with pytest.raises(RecheckError, match="stored probe polynomial is wrong"):
        recheck_sln_verdict(model, d, replace(v, obstruction=replace(ob, probe_charpoly=bad)))


def test_probe_polynomials_are_checked_without_computing_one(forbid):
    """Neither linalg.charpoly nor the Laplace charpoly runs in a
    lambda_not_unit, a no_shape_fits or a Leibniz sln_block recheck."""
    sln_cases = [lambda_not_unit_case(3), no_shape_fits_case()]
    lb, cases = leibniz_cases()
    bm = cases["sln_block"]
    lv = decide_local_aut(lb, bm)
    assert lv.certificate.kind == "sln_block"
    assert not hasattr(recheck, "charpoly")
    forbid("charpoly")
    forbid("charpoly_via_cofactor")
    for model, d, v in sln_cases:
        recheck_sln_verdict(model, d, v)
    recheck_leibniz_verdict(lb, bm, lv)


# -- malformed fields raise RecheckError like false ones --------------------


def sln_obstruction_with(case, **fields):
    model, d, v = case
    return model, d, replace(v, obstruction=replace(v.obstruction, **fields))


@pytest.mark.parametrize("bad", [None, "4"])
def test_lambda_squared_of_the_wrong_type_rejected(bad):
    model, d, v = sln_obstruction_with(lambda_not_unit_case(3), lam_squared=bad)
    with pytest.raises(RecheckError, match="lambda squared"):
        recheck_sln_verdict(model, d, v)


@pytest.mark.parametrize("bad", [None, (0, 0, 1)])
def test_kernel_vector_of_the_wrong_type_rejected(bad):
    """The sl_n and Leibniz not_injective checks share the guard."""
    m2 = SlnModel(2)
    d = Matrix.diagonal([0, 1, 1])
    model, d, v = sln_obstruction_with((m2, d, classify_sln(m2, d)), kernel_vector=bad)
    with pytest.raises(RecheckError, match="kernel vector"):
        recheck_sln_verdict(model, d, v)
    lb, cases = leibniz_cases()
    bm = cases["not_injective"]
    lv = decide_local_aut(lb, bm)
    with pytest.raises(RecheckError, match="kernel vector"):
        recheck_leibniz_verdict(lb, bm, replace(lv, certificate=replace(lv.certificate, kernel_vector=bad)))


@pytest.mark.parametrize("bad", [None, ((0, 1), (0, 0))])
def test_square_zero_witness_of_the_wrong_type_rejected(bad):
    m2 = SlnModel(2)
    cols = [m2.coords(m2.e(0, 1) + m2.h(0)), m2.coords(m2.e(1, 0)), m2.coords(m2.h(0))]
    d = Matrix(zip(*cols))
    model, d, v = sln_obstruction_with((m2, d, classify_sln(m2, d)), witness=bad)
    with pytest.raises(RecheckError, match="witness is not a matrix"):
        recheck_sln_verdict(model, d, v)


@pytest.mark.parametrize("bad", [None, (0, 0, 0, 0)])
def test_fit_dimensions_of_the_wrong_type_rejected(bad):
    model, d, v = sln_obstruction_with(no_shape_fits_case(), fit_dimensions=bad)
    with pytest.raises(RecheckError, match="fit dimensions"):
        recheck_sln_verdict(model, d, v)


@pytest.mark.parametrize("bad", [None, 5])
@pytest.mark.parametrize("kind, field", [
    ("sln_block", "verdict"),
    ("bracket_square", "z"),
    ("bracket_square", "image_square"),
    ("weight_structure", "z"),
    ("weight_structure", "i_part"),
    ("weight_structure", "reducer"),
    ("weight_structure", "reduced"),
    ("weight_structure", "reducer_shape"),
])
def test_leibniz_certificate_field_of_the_wrong_type_rejected(kind, field, bad):
    lb, cases = leibniz_cases()
    bm = cases[kind]
    v = decide_local_aut(lb, bm)
    assert v.certificate.kind == kind
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, certificate=replace(v.certificate, **{field: bad})))


@pytest.mark.parametrize("case, field, bad", [
    ("local", "s_shape", 5),
    ("local", "certificate", 5),
    ("sln_block", "certificate", None),
    ("sln_block", "certificate", 5),
    ("sln_block", "s_shape", 5),
])
def test_leibniz_verdict_field_of_the_wrong_type_rejected(case, field, bad):
    """A positive verdict carries an S-shape and no certificate, a negative
    one a certificate and no S-shape."""
    lb, cases = leibniz_cases()
    bm = cases[case]
    v = decide_local_aut(lb, bm)
    recheck_leibniz_verdict(lb, bm, v)
    with pytest.raises(RecheckError):
        recheck_leibniz_verdict(lb, bm, replace(v, **{field: bad}))


# -- sl_n verdict fields that contradict the label --------------------------


@pytest.mark.parametrize("field, bad", [("obstruction", 5), ("shape", 5), ("shapes", (5,)), ("shapes", 5)])
def test_positive_sln_verdict_with_a_contradicting_field_rejected(field, bad):
    m2 = SlnModel(2)
    d = m2.identity_map()
    v = classify_sln(m2, d)
    recheck_sln_verdict(m2, d, v)
    with pytest.raises(RecheckError):
        recheck_sln_verdict(m2, d, replace(v, **{field: bad}))


@pytest.mark.parametrize("field, bad", [
    ("shape", 5),
    ("shapes", (5,)),
    ("shape", CanonicalShape(1, SIGMA_ID, Matrix.identity(3))),
])
def test_negative_sln_verdict_with_a_shape_rejected(field, bad):
    model, d, v = lambda_not_unit_case(3)
    recheck_sln_verdict(model, d, v)
    with pytest.raises(RecheckError, match="negative verdict carries a shape"):
        recheck_sln_verdict(model, d, replace(v, **{field: bad}))
