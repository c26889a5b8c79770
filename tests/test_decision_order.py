"""Each decider runs its defining test first and only then picks a certificate.

The reference functions below keep the screen-first order the deciders used
before: injectivity, then the square-zero screen (sl_n) or Delta(1) = 1
(M_n), then the family fit; and for sl_n + I the kernel, then the sl_n
verdict of the S-block, then the bracket check.  The verdict JSON of both
orders must agree on inputs that reach every certificate kind.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_linalg import jordan_matrices, square_matrices

from locaut import classify, leibniz, linalg, sln
from locaut.algebra import StructureAlgebra
from locaut.classify import (
    AUTOMORPHISM,
    MN_FAMILIES,
    NOT_LOCAL,
    IdentityNotFixed,
    LambdaNotUnit,
    NoShapeFits,
    NotInjective,
    SquareZeroBroken,
    Verdict,
    _fit_families,
    basis_images,
    classify_mn,
    classify_sln,
    local_aut_probe,
    pointwise_witness,
    random_unimodular,
    square_zero_counterexample,
)
from locaut.exact import GR_ONE, GR_ZERO, GaussianRational, internal_check
from locaut.leibniz import (
    LOCAL_AUT,
    BlockMap,
    BracketFailure,
    InheritedSlnObstruction,
    LeibnizVerdict,
    _weight_obstruction,
    bracket_square_obstruction,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    inner_automorphism_matrix,
    block_automorphism_shape,
    is_automorphism,
)
from locaut.linalg import (
    Matrix,
    charpoly,
    conjugator,
    cyclic_companion,
    invariant_factors,
    inverse,
    kernel,
    negated_factors,
)
from locaut.recheck import charpoly_via_cofactor, recheck_witness_at
from locaut.sln import SHAPE_FAMILIES, SIGMA_ID, SIGMA_T, CanonicalShape, MnModel, SlnModel, shape_map_matrix

# -- screen-first references --------------------------------------------------


def reference_injectivity(model, d):
    if d.nrows != model.dim or d.ncols != model.dim:
        raise ValueError("map matrix has wrong size for this model")
    ker = kernel(d)
    return Verdict(NOT_LOCAL, obstruction=NotInjective(ker.basis[0])) if ker.dim else None


def reference_classify_sln(model, d):
    verdict = reference_injectivity(model, d)
    if verdict is not None:
        return verdict
    images = basis_images(model, d)
    bad = square_zero_counterexample(model, d, images)
    if bad is not None:
        return Verdict(NOT_LOCAL, obstruction=SquareZeroBroken(bad))
    verdict, dims = _fit_families(model, d, images, SHAPE_FAMILIES, first_only=model.n >= 3)
    if verdict is not None:
        return verdict
    probe, required, lam_sq, lam = local_aut_probe(model, d)
    if lam_sq is not None and not (lam_sq - GR_ONE).is_zero():
        return Verdict(NOT_LOCAL, obstruction=LambdaNotUnit(lam, lam_sq, probe, required))
    return Verdict(NOT_LOCAL, obstruction=NoShapeFits(dims, probe, required))


def reference_classify_mn(model, d):
    verdict = reference_injectivity(model, d)
    if verdict is not None:
        return verdict
    one = Matrix.identity(model.n)
    d_one = model.apply_map(d, one)
    if d_one != one:
        return Verdict(NOT_LOCAL, obstruction=IdentityNotFixed(d_one))
    verdict, dims = _fit_families(model, d, basis_images(model, d), MN_FAMILIES, first_only=True)
    if verdict is not None:
        return verdict
    return Verdict(NOT_LOCAL, obstruction=NoShapeFits(dims, None, None))


def reference_obstruction_points(lb):
    """e_alpha + c y_beta over simple alpha (c = 1 then 2), then h0 + y_beta."""
    y = lb.y_beta
    pts = []
    for c in (1, 2):
        for k in range(lb.model.n - 1):
            zs = lb.embed_s(lb.model.coords(lb.model.e(k, k + 1)))
            zi = lb.embed_i(tuple(x * GaussianRational(c) for x in y))
            pts.append(tuple(a + b for a, b in zip(zs, zi)))
    h0c = lb.embed_s(lb.model.coords(lb.model.strongly_regular_element()))
    pts.append(tuple(a + b for a, b in zip(h0c, lb.embed_i(y))))
    return pts


def reference_decide_local_aut(lb, bm):
    ker = kernel(bm.full_matrix())
    if ker.dim > 0:
        return LeibnizVerdict(NOT_LOCAL, NotInjective(ker.basis[0]))
    s_verdict = reference_classify_sln(lb.model, bm.s_block)
    if s_verdict.verdict == NOT_LOCAL:
        return LeibnizVerdict(NOT_LOCAL, InheritedSlnObstruction(s_verdict))
    if s_verdict.verdict == AUTOMORPHISM:
        ok, pair = is_automorphism(lb, bm)
        if ok:
            return LeibnizVerdict(LOCAL_AUT)
        return LeibnizVerdict(NOT_LOCAL, BracketFailure(*pair))
    for z in reference_obstruction_points(lb):
        cert = bracket_square_obstruction(lb, bm, z)
        if cert is not None:
            return LeibnizVerdict(NOT_LOCAL, cert)
    inner = CanonicalShape(1, SIGMA_ID, s_verdict.shape.a)
    reducer = extend_automorphism(lb, shape_map_matrix(lb.model, inner), 0)
    s_inv, i_inv = inverse(reducer.s_block), inverse(reducer.i_block)
    reducer_inv = BlockMap(s_inv, -(i_inv @ reducer.coupling @ s_inv), i_inv)
    cert = _weight_obstruction(lb, reducer, inner, reducer_inv.compose(bm), s_verdict.shape.epsilon)
    if cert is not None:
        return LeibnizVerdict(NOT_LOCAL, cert)
    ok, pair = is_automorphism(lb, bm)
    internal_check(not ok, "anti-family S-block cannot give a full automorphism")
    return LeibnizVerdict(NOT_LOCAL, BracketFailure(*pair))


# -- seeded inputs ------------------------------------------------------------


def conjugated(model, rng, map_matrix):
    """map_matrix followed by conjugation with a random unimodular g."""
    g = random_unimodular(model.n, rng)
    ginv = inverse(g)
    return model.map_matrix(lambda x: g @ x @ ginv) @ map_matrix


def screen_evading_map():
    """n = 2: fixes e12, e21 and sends h to (3/5)h + (4/5)(e12 + e21); it
    passes injectivity, the square-zero screen and the probe, yet fits no
    family."""
    return Matrix([[1, 0, Fraction(4, 5)], [0, 1, Fraction(4, 5)], [0, 0, Fraction(3, 5)]])


def sln_maps(model, rng):
    identity = Matrix.identity(model.dim)
    cases = []
    for eps, sigma in SHAPE_FAMILIES:
        g = random_unimodular(model.n, rng)
        cases.append(("family", shape_map_matrix(model, CanonicalShape(eps, sigma, g))))
    for lam in (GaussianRational(2), GaussianRational(0, 1)):
        cases.append(("scaled", conjugated(model, rng, identity) * lam))
    drop = rng.randrange(model.dim)
    proj = Matrix.diagonal([0 if i == drop else 1 for i in range(model.dim)])
    cases.append(("singular", conjugated(model, rng, proj)))
    rows = [list(r) for r in identity.data]
    rows[len(model.off_pairs) + rng.randrange(model.n - 1)][rng.randrange(len(model.off_pairs))] = 1
    cases.append(("square_zero_breaker", conjugated(model, rng, Matrix(rows))))
    if model.n == 2:
        cases.append(("screen_evader", conjugated(model, rng, screen_evading_map())))
    return cases


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classify_sln_matches_screen_first_reference(n):
    model = SlnModel(n)
    kinds = set()
    for label, d in sln_maps(model, random.Random(7000 + n)):
        got = classify_sln(model, d).to_json()
        assert got == reference_classify_sln(model, d).to_json(), label
        kinds.add(got["verdict"] if got["obstruction"] is None else got["obstruction"]["kind"])
    expected = {"Automorphism", "AntiAutomorphism", "lambda_not_unit", "not_injective", "square_zero_broken"}
    assert kinds == expected | ({"no_shape_fits"} if n == 2 else set())


@pytest.mark.parametrize("n", [2, 3])
def test_classify_mn_matches_screen_first_reference(n):
    model = MnModel(n)
    rng = random.Random(7100 + n)
    identity = Matrix.identity(model.dim)
    unfit = Matrix.diagonal([2 if i == 1 else 1 for i in range(model.dim)])  # scales e12 only
    maps = [conjugated(model, rng, identity), conjugated(model, rng, model.map_matrix(lambda x: x.T))]
    maps += [conjugated(model, rng, identity) * GaussianRational(2), conjugated(model, rng, unfit)]
    maps.append(conjugated(model, rng, Matrix.diagonal([0] + [1] * (model.dim - 1))))
    kinds = set()
    for d in maps:
        got = classify_mn(model, d).to_json()
        assert got == reference_classify_mn(model, d).to_json()
        kinds.add(got["verdict"] if got["obstruction"] is None else got["obstruction"]["kind"])
    assert kinds == {"Automorphism", "AntiAutomorphism", "identity_not_fixed", "no_shape_fits", "not_injective"}


def leibniz_maps(lb, rng):
    model = lb.model
    ds, di = lb.dim_s, lb.dim_i
    ext = [extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(model.n, rng)), omega)
           for omega in (0, 1)]
    base = ext[1]
    p, q = rng.randrange(di), rng.randrange(ds)
    bump = Matrix(tuple(tuple(1 if (r, s) == (p, q) else 0 for s in range(ds)) for r in range(di)))
    proj = Matrix.diagonal([0] + [1] * (di - 1))
    proj_s = Matrix.diagonal([0] + [1] * (ds - 1))
    return ext + [
        BlockMap(model.transpose_map(), Matrix.zeros(di, ds), Matrix.identity(di) * GaussianRational(2)),
        BlockMap(model.scalar_map(-1), Matrix.zeros(di, ds), Matrix.identity(di)),
        BlockMap(base.s_block, base.coupling + bump, base.i_block),
        BlockMap(base.s_block, base.coupling, base.i_block @ proj),
        BlockMap(base.s_block * GaussianRational(2), base.coupling, base.i_block),
        BlockMap(base.s_block @ proj_s, base.coupling, base.i_block),
    ]


LEIBNIZ_CASES = [(2, "vm:2"), (2, "vm:0"), (2, "vm:6"), (3, "natural"), (3, "adjoint"), (4, "natural")]
NONTRIVIAL_KINDS = [LOCAL_AUT, LOCAL_AUT, "bracket_square", "weight_structure", "bracket_failure",
                    "not_injective", "sln_block", "not_injective"]
# on the trivial module both anti S-blocks (transpose and -1) fall through
# to the bracket scan: no square-zero point breaks and beta = 0
TRIVIAL_KINDS = [LOCAL_AUT, LOCAL_AUT, "bracket_failure", "bracket_failure", "bracket_failure",
                 "not_injective", "sln_block", "not_injective"]


def leibniz_case(n, name):
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, name))
    return lb, leibniz_maps(lb, random.Random(7200 + n))


def kind_of(verdict):
    got = verdict.to_json()
    return got["verdict"] if got["certificate"] is None else got["certificate"]["kind"]


@pytest.mark.parametrize("n, name", LEIBNIZ_CASES)
def test_decide_local_aut_matches_screen_first_reference(n, name):
    lb, maps = leibniz_case(n, name)
    kinds = []
    for bm in maps:
        got = decide_local_aut(lb, bm)
        assert got.to_json() == reference_decide_local_aut(lb, bm).to_json()
        kinds.append(kind_of(got))
    assert kinds == (TRIVIAL_KINDS if name == "vm:0" else NONTRIVIAL_KINDS)


# -- call counts ----------------------------------------------------------------


def test_local_automorphism_classifies_no_s_block(counting):
    model = SlnModel(2)
    lb = build_semidirect(model, build_module(model, "vm:2"))
    calls = counting(leibniz, "classify_sln")
    for bm in leibniz_maps(lb, random.Random(1))[:2]:
        assert decide_local_aut(lb, bm).verdict == LOCAL_AUT
    assert calls == []


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (2, "vm:6"), (3, "natural"), (3, "adjoint"), (4, "natural")])
def test_extension_and_decision_check_no_module_law(counting, n, name):
    """An S map that passes the automorphism check gives the twisted actions
    the module law, so extending it builds no RightModule to check that law."""
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, name))
    calls = counting(leibniz.RightModule, "law_violations")
    phi = inner_automorphism_matrix(model, random_unimodular(n, random.Random(n)))
    assert extend_automorphism(lb, phi, 0) is not None
    minus_s = BlockMap(model.scalar_map(-1), Matrix.zeros(lb.dim_i, lb.dim_s), Matrix.identity(lb.dim_i))
    assert decide_local_aut(lb, minus_s).verdict == NOT_LOCAL
    assert calls == []


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "natural"), (4, "natural")])
def test_a_weight_structure_decision_fits_no_shape_again(counting, n, name):
    """The weight certificate's reducer extends Ad(a) for the a of
    classify_sln's fit, and carries that shape: no extend_automorphism
    input check, and no fit beyond those of the block check and of
    classify_sln on the S-block.  Ad(a) is read off the S-block as phi tau,
    so the decision inverts a no more often than classify_sln alone does,
    builds no shape map, and forms one inverse of its own: theta_R's."""
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, name))
    inner = extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(n, random.Random(n))), 0)
    bm = inner.compose(BlockMap(model.scalar_map(-1), Matrix.zeros(lb.dim_i, lb.dim_s), Matrix.identity(lb.dim_i)))
    fits = counting(classify, "fit_shape_family")
    shape_inverses = counting(sln, "inverse")
    assert block_automorphism_shape(lb, bm) is None
    a = classify_sln(model, bm.s_block).shape.a
    expected, expected_inverses = len(fits), len(shape_inverses)
    fits.clear()
    shape_inverses.clear()
    extensions = counting(leibniz, "extend_automorphism")
    inverses = counting(leibniz, "inverse")
    shape_maps = [counting(owner, "shape_map_matrix") for owner in (sln, leibniz)]
    cert = decide_local_aut(lb, bm).certificate
    assert cert.kind == "weight_structure"
    assert extensions == [] and len(fits) == expected
    assert len(shape_inverses) <= expected_inverses
    assert inverses == [(cert.reducer.i_block,)]
    assert shape_maps == [[], []]
    assert cert.reducer_shape == CanonicalShape(1, SIGMA_ID, a)
    assert shape_map_matrix(model, cert.reducer_shape) == cert.reducer.s_block


@pytest.mark.parametrize("n, name", LEIBNIZ_CASES)
def test_decision_solves_no_intertwiner_system(forbid, n, name):
    """Module isomorphisms come from the highest-weight line, so no map of
    any kind, the anti-family ones whose reducer extends Ad(a) included,
    reaches intertwiner_space."""
    lb, maps = leibniz_case(n, name)
    forbid("intertwiner_space")
    kinds = [kind_of(decide_local_aut(lb, bm)) for bm in maps]
    assert kinds == (TRIVIAL_KINDS if name == "vm:0" else NONTRIVIAL_KINDS)


@pytest.mark.parametrize("n, name", LEIBNIZ_CASES)
def test_bracket_scan_runs_only_to_name_a_bracket_failure_pair(counting, n, name):
    lb, maps = leibniz_case(n, name)
    scans = counting(StructureAlgebra, "failing_pair")
    for bm in maps:
        scans.clear()
        kind = kind_of(decide_local_aut(lb, bm))
        assert len(scans) == (kind == "bracket_failure"), kind


def test_a_singular_i_block_is_tested_once(counting):
    """The block check finds theta singular, and the singularity test reuses
    that answer instead of testing theta again."""
    lb, maps = leibniz_case(3, "natural")
    singular_i = maps[5]
    tests = counting(leibniz, "is_nonsingular")
    assert kind_of(decide_local_aut(lb, singular_i)) == "not_injective"
    assert len(tests) == 1 and tests[0][0] is singular_i.i_block


def test_extension_tests_its_i_block_once(counting):
    """module_isomorphism tests the I-block it returns, and the block check
    of the extension does not test it again."""
    model = SlnModel(3)
    lb = build_semidirect(model, build_module(model, "natural"))
    tests = counting(leibniz, "is_nonsingular")
    bm = extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(3, random.Random(3))), 0)
    assert [args[0] for args in tests] == [bm.i_block]


def test_a_non_family_s_block_is_tested_once(counting):
    """decide_local_aut leaves the S-block's singularity to classify_sln's
    injectivity test, so the 8 x 8 block 2 phi is tested once modulo p, by
    linalg's one F_p elimination."""
    lb, maps = leibniz_case(3, "natural")
    scaled_s = maps[6]
    tests = [counting(leibniz, "is_nonsingular"), counting(linalg, "_echelon_mod_p")]
    assert kind_of(decide_local_aut(lb, scaled_s)) == "sln_block"
    s_tests = [args[0] for calls in tests for args in calls if args[0].nrows == lb.dim_s]
    assert s_tests == [scaled_s.s_block]


@pytest.mark.parametrize("n, name", LEIBNIZ_CASES)
def test_full_matrix_is_built_only_for_a_kernel_or_a_failing_pair(counting, n, name):
    """BlockMap.apply works block by block, so a decision builds the full
    matrix once at most: for the kernel vector of a singular map or to name
    a bracket_failure pair."""
    lb, maps = leibniz_case(n, name)
    builds = counting(BlockMap, "full_matrix")
    for bm in maps:
        builds.clear()
        kind = kind_of(decide_local_aut(lb, bm))
        assert len(builds) == (kind in ("not_injective", "bracket_failure")), kind


@pytest.mark.parametrize("n, name", LEIBNIZ_CASES)
def test_extension_makes_no_bracket_call(counting, n, name):
    """phi_s is validated by the family fit, not by the sl_n bracket scan,
    on success and on both ValueError paths alike."""
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, name))
    phi = inner_automorphism_matrix(model, random_unimodular(n, random.Random(n)))
    brackets = counting(StructureAlgebra, "bracket")
    for omega in (0, 1):
        assert extend_automorphism(lb, phi, omega) is not None
    for bad, message in ((model.transpose_map(), "not an automorphism of sl_n"),
                         (Matrix.zeros(lb.dim_s, lb.dim_s), "singular")):
        with pytest.raises(ValueError, match=message):
            extend_automorphism(lb, bad)
    assert brackets == []


@pytest.mark.parametrize("n", [2, 3])
def test_fitted_map_runs_no_screen(counting, n):
    model = SlnModel(n)
    injectivity = counting(classify, "_injectivity_verdict")
    square_zero = counting(classify, "square_zero_counterexample")
    for eps, sigma in SHAPE_FAMILIES:
        d = shape_map_matrix(model, CanonicalShape(eps, sigma, random_unimodular(n, random.Random(n))))
        assert classify_sln(model, d).obstruction is None
    assert injectivity == [] and square_zero == []
    singular = Matrix.diagonal([0] + [1] * (model.dim - 1))
    assert classify_sln(model, singular).obstruction.kind == "not_injective"
    assert len(injectivity) == 1 and square_zero == []


def test_pointwise_witness_builds_intertwiners_only_for_similar_pairs(counting):
    calls = counting(linalg, "intertwiner_space")
    # the dim-7 near-miss: e12 and its image have different Jordan types, and
    # so has -(e12^T)
    model = SlnModel(4)
    e12 = model.e(0, 1)
    d = model.map_matrix(lambda x: x + model.e(1, 2) * x[0, 1])
    assert pointwise_witness(model, d, e12) is None
    assert calls == []
    # x -> -x at diag(1, 1, -2): x and -x are not similar, but -(x^T) = -x is
    model = SlnModel(3)
    x = Matrix.diagonal([1, 1, -2])
    shape = pointwise_witness(model, model.scalar_map(-1), x)
    assert (shape.epsilon, shape.sigma) == (-1, SIGMA_T)
    assert len(calls) == 1


def test_pointwise_witness_at_a_cyclic_point_takes_no_smith_form(counting):
    # e1 is a cyclic vector of x, of x^T and of -x, and x is not similar to
    # -x, so the transpose map matches by conjugation and the negation by
    # the anti-twist, both through the Krylov conjugator
    factors = counting(classify, "invariant_factors")
    spaces = counting(linalg, "intertwiner_space")
    model = SlnModel(3)
    x = Matrix(((1, 1, 0), (0, 2, 1), (1, 0, -3)))
    for d, family in ((model.transpose_map(), (1, SIGMA_ID)), (model.scalar_map(-1), (-1, SIGMA_T))):
        shape = pointwise_witness(model, d, x)
        assert (shape.epsilon, shape.sigma) == family
    assert factors == [] and spaces == []


def near_miss_map(model):
    """The identity except e12 -> e12 + e23 + ... + e_(n-1)n (+ e21 at
    n = 2): at e12, which is derogatory for n >= 3, the image is one
    nilpotent Jordan block, whose last unit vector is cyclic."""
    img = model.e(0, 1) + (model.e(1, 0) if model.n == 2 else Matrix.zeros(model.n, model.n))
    for k in range(1, model.n - 1):
        img = img + model.e(k, k + 1)
    return model.map_matrix(lambda x: x + (img - model.e(0, 1)) * x[0, 1])


def test_pointwise_witness_takes_a_smith_form_only_on_a_side_without_a_cyclic_unit_vector(counting):
    factors = counting(classify, "invariant_factors")
    # near-miss: e12 is derogatory, its image e12 + e23 + e34 is cyclic
    model = SlnModel(4)
    e12 = model.e(0, 1)
    assert pointwise_witness(model, near_miss_map(model), e12) is None
    assert factors == [(e12,)]
    # x -> -x at diag(1, 1, -2): both sides derogatory
    factors.clear()
    model = SlnModel(3)
    x = Matrix.diagonal([1, 1, -2])
    shape = pointwise_witness(model, model.scalar_map(-1), x)
    assert (shape.epsilon, shape.sigma) == (-1, SIGMA_T)
    assert factors == [(x,), (-x,)]
    # diag(1, 2, -3) is nonderogatory, but no unit vector is cyclic for it
    # or for its image: the Smith form still decides, and the witness follows
    factors.clear()
    x = Matrix.diagonal([1, 2, -3])
    for d, family in ((model.transpose_map(), (1, SIGMA_ID)), (model.scalar_map(-1), (-1, SIGMA_T))):
        shape = pointwise_witness(model, d, x)
        assert (shape.epsilon, shape.sigma) == family
        recheck_witness_at(model, d, x, shape)
    assert factors == [(x,), (x,), (x,), (-x,)]
    assert [len(invariant_factors(m)) for m, in factors] == [1, 1, 1, 1]


@pytest.mark.parametrize("negate, searches", [(False, 2), (True, 3)])
def test_pointwise_witness_searches_each_matrix_for_a_cyclic_unit_vector_once(counting, negate, searches):
    """No unit vector is cyclic for diag(1, 2, -3) or for its image, and the
    conjugator takes x's failed search from pointwise_witness instead of
    running it again.  The anti-twist under x -> -x searches -(x^T), a
    third matrix."""
    model = SlnModel(3)
    d = model.scalar_map(-1) if negate else model.identity_map()
    x = Matrix.diagonal([1, 2, -3])
    want = reference_pointwise_witness(model, d, x).to_json()
    calls = [counting(module, "cyclic_companion") for module in (classify, linalg)]
    shape = pointwise_witness(model, d, x)
    assert sum(map(len, calls)) == searches
    assert shape.to_json() == want


# -- reference: the decision by two Smith forms --------------------------------


def reference_pointwise_witness(model, d, x):
    """pointwise_witness as it was before cyclic points skipped the Smith
    form: the invariant factors of x and of Delta(x) decide."""
    target = model.apply_map(d, x)
    fx = invariant_factors(x)
    ft = invariant_factors(target)
    if fx == ft:
        return CanonicalShape(1, SIGMA_ID, conjugator(x, target, cyclic_companion(x), cyclic_companion(target.T)))
    if negated_factors(fx) == ft:
        return CanonicalShape(
            -1, SIGMA_T, conjugator(-(x.T), target, cyclic_companion(-(x.T)), cyclic_companion(target.T))
        )
    return None


def traceless(m):
    n = m.nrows
    return m - Matrix.identity(n) * (m.trace() / n)


@st.composite
def witness_cases(draw):
    """(model, map, point) for n = 2..5: a random integer point, a
    conjugated Jordan point with eigenvalues in {0, 1} (often derogatory)
    or a conjugated multiple of e12, under the transpose, the negation, a
    twisted conjugation x -> h x^T h^-1 or the near-miss map conjugated by
    the same g as the point, so that a conjugated e12 is its near miss."""
    n = draw(st.integers(2, 5))
    model = SlnModel(n)
    g = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    ginv = inverse(g)
    kind = draw(st.sampled_from(["random", "jordan", "e12"]))
    if kind == "random":
        x = traceless(draw(square_matrices(n, -3, 3)))
    elif kind == "jordan":
        x = traceless(g @ draw(jordan_matrices(n)) @ ginv)
    else:
        x = g @ model.e(0, 1) @ ginv * draw(st.sampled_from([1, 2, -3]))
    h = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    base = near_miss_map(model)
    maps = {
        "transpose": lambda: model.transpose_map(),
        "negation": lambda: model.scalar_map(-1),
        "twisted": lambda: shape_map_matrix(model, CanonicalShape(1, SIGMA_T, h)),
        "near_miss": lambda: model.map_matrix(lambda y: g @ model.apply_map(base, ginv @ y @ g) @ ginv),
    }
    return model, maps[draw(st.sampled_from(sorted(maps)))](), x


@given(witness_cases())
@settings(max_examples=80, deadline=None)
def test_pointwise_witness_matches_the_two_smith_form_reference(case):
    model, d, x = case
    got = pointwise_witness(model, d, x)
    want = reference_pointwise_witness(model, d, x)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.to_json() == want.to_json()
        recheck_witness_at(model, d, x, got)
    for m in (x, model.apply_map(d, x)):
        companion = cyclic_companion(m)
        factors = invariant_factors(m)
        if len(factors) > 1:  # derogatory: no vector is cyclic
            assert companion is None
        if companion is None:
            continue
        k, k_inv, chi = companion
        assert k_inv @ k == Matrix.identity(model.n)
        assert (chi,) == factors
        assert chi == charpoly(m)
        if model.n <= 4:
            assert chi == charpoly_via_cofactor(m)
        # K^-1 m K is the companion matrix of chi
        n = model.n
        want = [[GR_ONE if i == j + 1 else GR_ZERO for j in range(n - 1)] + [-chi.coeffs[i]] for i in range(n)]
        assert k_inv @ m @ inverse(k_inv) == Matrix(want)
