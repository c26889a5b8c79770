"""Classification pipeline on sl_n and M_n, with certificate checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut import classify, linalg
from locaut.classify import (
    ANTI_AUTOMORPHISM,
    AUTOMORPHISM,
    NOT_LOCAL,
    automorphism_shape,
    classify_mn,
    classify_sln,
    fit_shape_family,
    local_aut_probe,
    pointwise_witness,
    random_unimodular,
    required_probe_charpoly,
)
from locaut.exact import GR_ONE, GaussianRational, Polynomial, parse_scalar
from locaut.linalg import Matrix, det, intertwiner_space, inverse, kernel, matrix_from_flat
from locaut.sln import (
    SHAPE_FAMILIES,
    SIGMA_ID,
    SIGMA_T,
    CanonicalShape,
    MnModel,
    SlnModel,
    shape_map_matrix,
)


def conjugation_map(model, g):
    ginv = inverse(g)
    return model.map_matrix(lambda x: g @ x @ ginv)


# -- scalar maps ------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_identity_is_automorphism(n):
    model = SlnModel(n)
    v = classify_sln(model, model.identity_map())
    assert v.verdict == AUTOMORPHISM
    assert v.shape.epsilon == 1 and v.shape.sigma == SIGMA_ID


def test_minus_identity_n2_primary_shape():
    model = SlnModel(2)
    v = classify_sln(model, model.scalar_map(-1))
    assert v.verdict == ANTI_AUTOMORPHISM
    # first fitting family in the fixed order is (1, transpose), via the
    # symplectic matrix; (-1, identity) also fits and is reported
    assert (v.shape.epsilon, v.shape.sigma) == (1, SIGMA_T)
    assert {(s.epsilon, s.sigma) for s in v.shapes} == {(1, SIGMA_T), (-1, SIGMA_ID)}


def test_minus_identity_n3_single_shape():
    model = SlnModel(3)
    v = classify_sln(model, model.scalar_map(-1))
    assert v.verdict == ANTI_AUTOMORPHISM
    assert (v.shape.epsilon, v.shape.sigma) == (-1, SIGMA_ID)
    assert len(v.shapes) == 1


def test_transpose_n2_both_shapes():
    model = SlnModel(2)
    v = classify_sln(model, model.transpose_map())
    assert v.verdict == ANTI_AUTOMORPHISM
    assert (v.shape.epsilon, v.shape.sigma) == (1, SIGMA_T)
    assert {(s.epsilon, s.sigma) for s in v.shapes} == {(1, SIGMA_T), (-1, SIGMA_ID)}


def test_neg_transpose_is_automorphism():
    for n in (2, 3):
        model = SlnModel(n)
        d = model.map_matrix(lambda x: -(x.T))
        v = classify_sln(model, d)
        assert v.verdict == AUTOMORPHISM


# -- conjugations -----------------------------------------------------------


@pytest.mark.parametrize("n,seed", [(2, 1), (2, 2), (3, 3), (3, 4)])
def test_conjugation_recovers_automorphism(n, seed):
    model = SlnModel(n)
    g = random_unimodular(n, random.Random(seed))
    d = conjugation_map(model, g)
    v = classify_sln(model, d)
    assert v.verdict == AUTOMORPHISM
    assert (v.shape.epsilon, v.shape.sigma) == (1, SIGMA_ID)
    # the fitted conjugator induces the same map, so it is g up to scalar
    ratio = v.shape.a @ inverse(g)
    c = ratio[0, 0]
    assert ratio == Matrix.identity(n) * c


def test_twisted_conjugation_recovers_anti():
    model = SlnModel(3)
    g = random_unimodular(3, random.Random(7))
    ginv = inverse(g)
    d = model.map_matrix(lambda x: g @ x.T @ ginv)
    v = classify_sln(model, d)
    assert v.verdict == ANTI_AUTOMORPHISM
    assert (v.shape.epsilon, v.shape.sigma) == (1, SIGMA_T)


# -- scaled maps and the probe ---------------------------------------------


@pytest.mark.parametrize("lam_text", ["2", "-3", "1*i", "1/2"])
@pytest.mark.parametrize("n", [2, 3])
def test_scaled_identity_rejected(n, lam_text):
    lam = parse_scalar(lam_text)
    model = SlnModel(n)
    v = classify_sln(model, model.scalar_map(lam))
    assert v.verdict == NOT_LOCAL
    ob = v.obstruction
    assert ob.kind == "lambda_not_unit"
    assert ob.lam_squared == lam * lam
    assert ob.lam is not None and ob.lam * ob.lam == lam * lam
    # char(lam * y) = (t - lam)(t + lam) t^(n-2) exactly
    t = Polynomial((0, 1))
    shift = Polynomial((0,) * (n - 2) + (1,))
    assert ob.probe_charpoly == (t - lam) * (t + lam) * shift
    assert ob.required_charpoly == required_probe_charpoly(n)


@pytest.mark.parametrize("n", list(range(2, 7)))
def test_probe_polynomial_all_n(n):
    model = SlnModel(n)
    probe, required, lam_sq, lam = local_aut_probe(model, model.scalar_map(1))
    assert probe == required
    assert lam_sq == GR_ONE and lam is not None and lam * lam == GR_ONE
    t = Polynomial((0, 1))
    shift = Polynomial((0,) * (n - 2) + (1,))
    assert required == (t - 1) * (t + 1) * shift


def test_probe_detects_scaling_lambda():
    model = SlnModel(4)
    lam = GaussianRational(0, 1)
    _, _, lam_sq, lam_back = local_aut_probe(model, model.scalar_map(lam))
    assert lam_sq == lam * lam
    assert lam_back is not None and lam_back * lam_back == lam_sq


# -- other obstructions -----------------------------------------------------


def test_singular_map_not_injective():
    model = SlnModel(2)
    d = Matrix.diagonal([0, 1, 1])
    v = classify_sln(model, d)
    assert v.verdict == NOT_LOCAL
    assert v.obstruction.kind == "not_injective"
    kv = v.obstruction.kernel_vector
    assert any(not x.is_zero() for x in kv)
    assert all(x.is_zero() for x in d.apply(kv))


def test_injectivity_needs_a_kernel_only_for_a_singular_map(counting):
    """A full rank modulo p proves an n = 5 map injective with one F_p
    elimination; a singular map gets the same exact kernel vector as
    always, found modulo p under both embeddings of i and checked, so it
    makes no map-sized kernel call at all.  The family fits take n x n
    kernels only."""
    model = SlnModel(5)
    inner = shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, random_unimodular(5, random.Random(5))))
    singular = inner @ Matrix.diagonal([0 if i == 3 else 1 for i in range(model.dim)])
    expected = kernel(singular).basis[0]
    calls = [counting(classify, "kernel"), counting(linalg, "kernel")]
    eliminations = counting(linalg, "_echelon_mod_p")

    def map_sized(calls):
        return [args for args in calls if args[0].nrows == model.dim]

    scaled = inner * GaussianRational(2)
    assert classify_sln(model, scaled).obstruction.kind == "lambda_not_unit"
    assert map_sized(eliminations) == [(scaled, linalg._R)]
    eliminations.clear()
    v = classify_sln(model, singular)
    assert v.obstruction.kind == "not_injective"
    assert v.obstruction.kernel_vector == expected
    assert map_sized(eliminations) == [(singular, linalg._R), (singular, linalg._P - linalg._R)]
    assert [map_sized(c) for c in calls] == [[], []]


def test_square_zero_broken():
    model = SlnModel(2)
    # e12 -> e12 + h1 with everything else fixed: injective, but the image
    # of the square-zero element e12 squares to the identity matrix
    cols = [
        model.coords(model.e(0, 1) + model.h(0)),
        model.coords(model.e(1, 0)),
        model.coords(model.h(0)),
    ]
    d = Matrix(zip(*cols))
    v = classify_sln(model, d)
    assert v.verdict == NOT_LOCAL
    assert v.obstruction.kind == "square_zero_broken"
    w = v.obstruction.witness
    assert (w @ w).is_zero()
    img = model.apply_map(d, w)
    assert not (img @ img).is_zero()


def test_wrong_size_rejected():
    with pytest.raises(ValueError):
        classify_sln(SlnModel(2), Matrix.identity(4))


def test_verdict_json_shapes_field():
    model2 = SlnModel(2)
    v2 = classify_sln(model2, model2.transpose_map())
    data2 = v2.to_json()
    assert data2["verdict"] == "AntiAutomorphism"
    assert isinstance(data2["shapes"], list) and len(data2["shapes"]) == 2
    model3 = SlnModel(3)
    v3 = classify_sln(model3, model3.transpose_map())
    assert v3.to_json()["shapes"] is None


# -- full matrix algebra ----------------------------------------------------


def test_mn_conjugation():
    model = MnModel(2)
    g = Matrix(((1, 1), (0, 1)))
    d = conjugation_map(model, g)
    v = classify_mn(model, d)
    assert v.verdict == AUTOMORPHISM
    assert v.shape.sigma == SIGMA_ID


def test_mn_transpose():
    model = MnModel(3)
    v = classify_mn(model, model.map_matrix(lambda x: x.T))
    assert v.verdict == ANTI_AUTOMORPHISM
    assert v.shape.sigma == SIGMA_T


def test_mn_scaling_breaks_identity():
    model = MnModel(2)
    v = classify_mn(model, model.map_matrix(lambda x: x + x))
    assert v.verdict == NOT_LOCAL
    assert v.obstruction.kind == "identity_not_fixed"
    assert v.obstruction.image_of_identity == Matrix.identity(2) * GaussianRational(2)


def test_mn_singular():
    model = MnModel(2)
    v = classify_mn(model, Matrix.diagonal([0, 1, 1, 1]))
    assert v.verdict == NOT_LOCAL
    assert v.obstruction.kind == "not_injective"


def test_mn_unfit_map():
    model = MnModel(2)
    # fixes 1 and is injective but scales e12 only: no family fits
    d = Matrix.diagonal([1, 2, 1, 1])
    v = classify_mn(model, d)
    assert v.verdict == NOT_LOCAL
    assert v.obstruction.kind == "no_shape_fits"


# -- pointwise witnesses ----------------------------------------------------


def test_pointwise_witness_transpose_at_nilpotent():
    model = SlnModel(2)
    d = model.transpose_map()
    x = model.e(0, 1)
    shape = pointwise_witness(model, d, x)
    assert shape is not None
    assert shape.is_automorphism_family()
    assert shape.apply(x) == model.apply_map(d, x)


def test_pointwise_witness_scaling_at_nilpotent():
    # 2 * e12 is similar to e12, so scaling has a pointwise witness there
    # even though it is not a local automorphism
    model = SlnModel(2)
    d = model.scalar_map(2)
    x = model.e(0, 1)
    shape = pointwise_witness(model, d, x)
    assert shape is not None
    assert shape.apply(x) == x + x


def test_pointwise_witness_fails_on_scaled_cartan():
    model = SlnModel(2)
    d = model.scalar_map(2)
    assert pointwise_witness(model, d, model.h(0)) is None


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_random_conjugations_classify_as_automorphisms(seed):
    model = SlnModel(2)
    g = random_unimodular(2, random.Random(seed))
    v = classify_sln(model, conjugation_map(model, g))
    assert v.verdict == AUTOMORPHISM


@given(st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_unimodular_has_unit_determinant(seed):
    g = random_unimodular(3, random.Random(seed))
    assert det(g) == GR_ONE


# -- the fit path -------------------------------------------------------------


def fit_maps(model, seed):
    """A conjugation, its transpose twist, a scaling and a random integer map."""
    rng = random.Random(seed)
    g = random_unimodular(model.n, rng)
    conj = conjugation_map(model, g)
    twisted = conj @ model.map_matrix(lambda x: x.T)
    rows = tuple(tuple(rng.randint(-2, 2) for _ in range(model.dim)) for _ in range(model.dim))
    return [conj, twisted, model.map_matrix(lambda x: x * 2), Matrix(rows)]


@pytest.mark.parametrize(
    "model", [SlnModel(2), SlnModel(3), MnModel(2)], ids=["sl2", "sl3", "M2"]
)
@pytest.mark.parametrize("eps,sigma", SHAPE_FAMILIES)
def test_fit_space_unchanged_by_leading_h0_pair(model, eps, sigma):
    # the prepended (Delta(h0), eps h0) pair follows from the basis pairs by
    # linearity, so the canonical space is the same without it
    for d in fit_maps(model, seed=model.dim):
        plain = intertwiner_space(
            (model.apply_map(d, e.T if sigma == SIGMA_T else e), e * eps) for e in model.basis
        )
        space, _ = fit_shape_family(model, d, eps, sigma)
        assert space == plain


# -- fit spaces are at most a line ------------------------------------------


@st.composite
def maps_near_families(draw):
    """A model, and on it a family map or the zero map plus a sparse integer
    perturbation, which may be empty so that the map fits exactly."""
    model = draw(st.sampled_from([SlnModel(2), SlnModel(3), MnModel(2), MnModel(3)]))
    if draw(st.booleans()):
        eps, sigma = draw(st.sampled_from(SHAPE_FAMILIES))
        g = random_unimodular(model.n, random.Random(draw(st.integers(0, 10_000))))
        rows = [list(r) for r in shape_map_matrix(model, CanonicalShape(eps, sigma, g)).data]
        changes = draw(st.integers(0, 2))
    else:
        rows = [[GaussianRational(0)] * model.dim for _ in range(model.dim)]
        changes = 2 * model.dim
    for _ in range(changes):
        i = draw(st.integers(0, model.dim - 1))
        j = draw(st.integers(0, model.dim - 1))
        rows[i][j] = rows[i][j] + draw(st.integers(-2, 2))
    return model, Matrix(rows)


@given(maps_near_families())
@settings(max_examples=100, deadline=None)
def test_fit_space_is_at_most_a_line_of_invertibles(case):
    # the kernel of a fit is invariant under the irreducible action on Q(i)^n,
    # so every nonzero fit is invertible and two fits differ by a scalar
    model, d = case
    for eps, sigma in SHAPE_FAMILIES:
        space, a = fit_shape_family(model, d, eps, sigma)
        assert space.dim <= 1
        if space.dim == 0:
            assert a is None
        else:
            b = matrix_from_flat(space.basis[0], model.n)
            assert not det(b).is_zero()
            assert a == b


# -- the torus fit against the intertwiner system ---------------------------


def intertwiner_fit(model, d, eps, sigma):
    """The family fit solved as one intertwiner system: the h0 pair, then
    every basis pair."""
    h0 = model.strongly_regular_element()
    pairs = [(model.apply_map(d, h0), h0 * eps)]
    pairs += [(model.apply_map(d, e.T if sigma == SIGMA_T else e), e * eps) for e in model.basis]
    space = intertwiner_space(pairs)
    return space, matrix_from_flat(space.basis[0], model.n) if space.dim else None


def repeated_eigenvalue_map(model, eps, rng):
    """A map with Delta(h0) = diag(l, l, -2 l, 0, ...) on sl_n (n >= 3), or
    diag(l, l, 0, ...) on M_n (n >= 2), for l = eps h0_11, so that the
    eigenspace of the first column has dimension 2; the root vectors go to
    random integer matrices."""
    h0 = model.strongly_regular_element()
    lam = h0[0, 0] * eps
    tail = [-2 * lam] if isinstance(model, SlnModel) else []
    top = Matrix.diagonal(([lam, lam] + tail + [0] * model.n)[: model.n]) * h0[0, 0].inverse()
    images = {(i, j): model.matrix([GaussianRational(rng.randint(-2, 2)) for _ in range(model.dim)])
              for i in range(model.n) for j in range(model.n) if i != j}

    def f(x):
        out = top * x[0, 0]
        for (i, j), m in images.items():
            out = out + m * x[i, j]
        return out

    return model.map_matrix(f)


@st.composite
def torus_fit_cases(draw):
    """A model, and on it a family map, a scaled or one-entry-bumped family
    map, or a map whose Delta(h0) has a repeated eigenvalue."""
    model = draw(st.sampled_from([SlnModel(n) for n in (2, 3, 4, 5)] + [MnModel(n) for n in (1, 2, 3, 4)]))
    eps, sigma = draw(st.sampled_from(SHAPE_FAMILIES))
    rng = random.Random(draw(st.integers(0, 10_000)))
    # sl_2 has no room for it: Delta(h0) is traceless, so l I is out of reach
    repeats = model.n >= (3 if isinstance(model, SlnModel) else 2)
    kinds = ["family", "scaled", "bumped"] + (["repeated"] if repeats else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "repeated":
        return model, kind, repeated_eigenvalue_map(model, eps, rng)
    d = shape_map_matrix(model, CanonicalShape(eps, sigma, random_unimodular(model.n, rng)))
    if kind == "scaled":
        d = d * draw(st.sampled_from([GaussianRational(2), GaussianRational(0, 1), GaussianRational(-1)]))
    elif kind == "bumped":
        d = one_entry_bump(d, rng.randrange(model.dim), rng.randrange(model.dim))
    return model, kind, d


@given(torus_fit_cases())
@settings(max_examples=60, deadline=None)
def test_torus_fit_matches_the_intertwiner_system(case):
    """Same canonical space and same witness, family by family."""
    model, kind, d = case
    dims = []
    for eps, sigma in SHAPE_FAMILIES:
        got = fit_shape_family(model, d, eps, sigma)
        assert got == intertwiner_fit(model, d, eps, sigma)
        dims.append(got[0].dim)
    if kind == "family":
        assert 1 in dims
    if kind == "repeated":
        assert dims == [0, 0, 0, 0]


@pytest.mark.parametrize("model", [SlnModel(3), SlnModel(4), MnModel(2), MnModel(3)], ids=["sl3", "sl4", "M2", "M3"])
@pytest.mark.parametrize("eps", [1, -1])
def test_a_repeated_eigenvalue_of_delta_h0_ends_the_fit(counting, model, eps):
    """An eigenspace of Delta(h0) of dimension 2 rules the family out: a fit
    would make Delta(h0) similar to eps h0, whose eigenvalues are simple."""
    d = repeated_eigenvalue_map(model, eps, random.Random(model.dim))
    kernels = counting(classify, "kernel")
    for sigma in (SIGMA_ID, SIGMA_T):
        kernels.clear()
        space, a = fit_shape_family(model, d, eps, sigma)
        assert (space.dim, a) == (0, None)
        assert [kernel(*args).dim for args in kernels] == [2]
        assert intertwiner_fit(model, d, eps, sigma)[0].dim == 0


def test_a_positive_n5_fit_solves_no_intertwiner_system(counting):
    model = SlnModel(5)
    calls = counting(linalg, "intertwiner_space")
    for eps, sigma in SHAPE_FAMILIES:
        d = shape_map_matrix(model, CanonicalShape(eps, sigma, random_unimodular(5, random.Random(eps))))
        space, a = fit_shape_family(model, d, eps, sigma)
        assert space.dim == 1 and shape_map_matrix(model, CanonicalShape(eps, sigma, a)) == d
    assert calls == []


def test_dim7_near_miss_is_decided_without_search(monkeypatch):
    # e12 -> e12 + e23 changes the Jordan type at e12, and the intertwiner
    # space there has dimension 7: invariant factors settle it, no search runs
    model = SlnModel(4)
    e12 = model.e(0, 1)
    d = model.map_matrix(lambda x: x + model.e(1, 2) * x[0, 1])
    assert intertwiner_space([(model.apply_map(d, e12), e12)]).dim == 7
    calls = []
    search = linalg.invertible_element

    def counting(space, n):
        calls.append(space.dim)
        return search(space, n)

    monkeypatch.setattr(linalg, "invertible_element", counting)
    assert pointwise_witness(model, d, e12) is None
    assert calls == []
    assert pointwise_witness(model, model.transpose_map(), e12) is not None
    assert len(calls) == 1


# -- automorphism test by fit ------------------------------------------------


def one_entry_bump(d: Matrix, r: int, s: int) -> Matrix:
    return Matrix(tuple(tuple(x + 1 if (i, j) == (r, s) else x for j, x in enumerate(row))
                        for i, row in enumerate(d.data)))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_automorphism_shape_agrees_with_the_bracket_scan(n):
    """The family fit is the only automorphism test of sl_n; the bracket
    scan of the structure algebra is its reference."""
    model = SlnModel(n)
    rng = random.Random(8000 + n)
    maps = []
    for eps, sigma in SHAPE_FAMILIES:
        maps.append(shape_map_matrix(model, CanonicalShape(eps, sigma, random_unimodular(n, rng))))
    inner = maps[0]
    maps += [inner * GaussianRational(2), inner * GaussianRational(0, 1), model.scalar_map(-1)]
    drop = rng.randrange(model.dim)
    maps += [inner @ Matrix.diagonal([0 if i == drop else 1 for i in range(model.dim)]),
             Matrix.zeros(model.dim, model.dim)]
    maps += [one_entry_bump(d, rng.randrange(model.dim), rng.randrange(model.dim)) for d in maps[:4]]
    scan = model.structure_algebra()
    verdicts = []
    for d in maps:
        want = scan.automorphism_check(d)[0]
        shape = automorphism_shape(model, d)
        assert (shape is not None) == want
        if shape is not None:
            assert shape.is_automorphism_family()
            assert shape_map_matrix(model, shape) == d
        verdicts.append(want)
    # exactly the (1, id) and (-1, T) families are automorphisms
    assert verdicts[:7] == [True, False, False, True, False, False, False]
