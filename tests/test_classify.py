"""Classification pipeline on sl_n and M_n, with certificate checks."""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locaut import linalg, sln
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
    scaled_probe_charpoly,
)
from locaut.exact import GR_ONE, GaussianRational, Polynomial, parse_scalar
from locaut.linalg import Matrix, Subspace, det, intertwiner_space, inverse, kernel, matrix_from_flat
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
    assert ob.probe_charpoly == scaled_probe_charpoly(n, lam * lam)
    assert ob.required_charpoly == scaled_probe_charpoly(n, 1)


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
    always, found modulo p under both embeddings of i and checked.  No
    step, the family fits included, calls kernel."""
    model = SlnModel(5)
    inner = shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, random_unimodular(5, random.Random(5))))
    singular = inner @ Matrix.diagonal([0 if i == 3 else 1 for i in range(model.dim)])
    expected = kernel(singular).basis[0]
    kernels = counting(linalg, "kernel")
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
    assert kernels == []


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
    # the fit's space is the canonical space of the basis pairs alone; a
    # prepended (Delta(h0), eps h0) pair would follow from them by linearity
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


def one_entry_bump(d: Matrix, r: int, s: int) -> Matrix:
    return Matrix(tuple(tuple(x + 1 if (i, j) == (r, s) else x for j, x in enumerate(row))
                        for i, row in enumerate(d.data)))


# -- the root-image fit against the intertwiner system -----------------------


def intertwiner_fit(model, d, eps, sigma):
    """The family fit solved as one intertwiner system over every basis
    pair."""
    pairs = [(model.apply_map(d, e.T if sigma == SIGMA_T else e), e * eps) for e in model.basis]
    space = intertwiner_space(pairs)
    return space, matrix_from_flat(space.basis[0], model.n) if space.dim else None


def torus_element(model):
    """A diagonal element with distinct entries: h0 on sl_n, diag(1, ..., n)
    on M_n."""
    if isinstance(model, SlnModel):
        return model.strongly_regular_element()
    return Matrix.diagonal(range(1, model.n + 1))


def repeated_eigenvalue_map(model, eps, rng):
    """A map with Delta(h0) = diag(l, l, -2 l, 0, ...) on sl_n (n >= 3), or
    diag(l, l, 0, ...) on M_n (n >= 2), for l = eps h0_11, so that the
    eigenspace of the first column has dimension 2; the root vectors go to
    random integer matrices."""
    h0 = torus_element(model)
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


def read_by_the_candidate(model):
    """Basis indices whose images a fit reads before its final check, for
    either sigma: the corner and its transpose, the simple root vectors and
    their transposes, and the last basis element."""
    corner = model.corner_index
    return {corner, model.transpose_index[corner], model.dim - 1, *model.generator_indices}


def fit_case_kinds(model):
    kinds = ["family", "scaled", "bumped", "swapped"]
    if model.n >= 2:
        kinds.append("rank2_corner")
    if len(read_by_the_candidate(model)) < model.dim:
        kinds.append("off_path")
    # sl_2 has no room for it: Delta(h0) is traceless, so l I is out of reach
    if model.n >= (3 if isinstance(model, SlnModel) else 2):
        kinds.append("repeated")
    return kinds


def fit_case(model, kind, eps, sigma, seed):
    """(model, kind, family, d): a map of the family (eps, sigma), changed as
    kind says.  scaled multiplies it by 2, i or -1; bumped adds 1 to one
    random entry; off_path adds 1 to the image of a basis element that no
    step before the final check reads; swapped is the family of -eps;
    rank2_corner is with_rank_two_corner; repeated is
    repeated_eigenvalue_map."""
    rng = random.Random(seed)
    if kind == "repeated":
        return model, kind, (eps, sigma), repeated_eigenvalue_map(model, eps, rng)
    sign = -eps if kind == "swapped" else eps
    d = shape_map_matrix(model, CanonicalShape(sign, sigma, random_unimodular(model.n, rng)))
    if kind == "scaled":
        d = d * rng.choice([GaussianRational(2), GaussianRational(0, 1), GaussianRational(-1)])
    elif kind == "bumped":
        d = one_entry_bump(d, rng.randrange(model.dim), rng.randrange(model.dim))
    elif kind == "off_path":
        off = [k for k in range(model.dim) if k not in read_by_the_candidate(model)]
        d = one_entry_bump(d, rng.randrange(model.dim), rng.choice(off))
    elif kind == "rank2_corner":
        d = with_rank_two_corner(model, d, sigma)
    return model, kind, (eps, sigma), d


def with_rank_two_corner(model, d, sigma):
    """d with the image T of sigma(E_n,1) made rank two.  When T's first
    nonzero column u is not the last, E_m,n with u outside the line of e_m
    is added, so that the fit's candidate, read from u, stays right and only
    the rank test refuses T; otherwise T becomes E_n,1 + E_1,n."""
    n = model.n
    k = model.transpose_index[model.corner_index] if sigma == SIGMA_T else model.corner_index
    t = model.matrix(d.column(k))
    j, u = next((j, u) for j, u in enumerate(t.T.data) if any(u))
    lines = [m for m in range(n - 1) if any(y for r, y in enumerate(u) if r != m)]
    if j < n - 1 and lines:
        t = t + Matrix(tuple(tuple(int((r, c) == (lines[0], n - 1)) for c in range(n)) for r in range(n)))
    else:
        t = model.basis[model.corner_index] + model.basis[model.corner_index].T
    col = model.coords(t)
    return Matrix(tuple(tuple(col[i] if c == k else x for c, x in enumerate(row)) for i, row in enumerate(d.data)))


@st.composite
def fit_cases(draw):
    model = draw(st.sampled_from([SlnModel(n) for n in (2, 3, 4, 5)] + [MnModel(n) for n in (1, 2, 3, 4)]))
    eps, sigma = draw(st.sampled_from(SHAPE_FAMILIES))
    kind = draw(st.sampled_from(fit_case_kinds(model)))
    return fit_case(model, kind, eps, sigma, draw(st.integers(0, 10_000)))


@given(fit_cases())
@example(fit_case(MnModel(1), "family", 1, SIGMA_T, 1))
@example(fit_case(MnModel(1), "swapped", -1, SIGMA_ID, 2))
@example(fit_case(MnModel(2), "off_path", 1, SIGMA_T, 3))
@example(fit_case(MnModel(2), "rank2_corner", -1, SIGMA_ID, 4))
@example(fit_case(SlnModel(2), "family", -1, SIGMA_ID, 5))
@example(fit_case(SlnModel(2), "swapped", 1, SIGMA_T, 6))
@example(fit_case(SlnModel(2), "rank2_corner", -1, SIGMA_T, 7))
@example(fit_case(SlnModel(3), "off_path", -1, SIGMA_ID, 8))
@settings(max_examples=80, deadline=None)
def test_torus_fit_matches_the_intertwiner_system(case):
    """Same canonical space and same witness, family by family.  The map's
    own family reaches the one inverse, in the final check, only when the
    change lies off the candidate's path."""
    model, kind, family, d = case
    dims = []
    for eps, sigma in SHAPE_FAMILIES:
        with mock.patch.object(sln, "inverse", wraps=sln.inverse) as inverses:
            got = fit_shape_family(model, d, eps, sigma)
        assert got == intertwiner_fit(model, d, eps, sigma)
        dims.append(got[0].dim)
        if (eps, sigma) == family:
            own = (got[0].dim, inverses.call_count)
    if kind == "family":
        assert own == (1, 1)
    if kind == "off_path":
        assert own == (0, 1)
    if kind in ("swapped", "rank2_corner", "repeated"):
        assert own == (0, 0)
    if kind == "repeated":
        assert dims == [0, 0, 0, 0]


@pytest.mark.parametrize("model", [SlnModel(3), SlnModel(4), MnModel(2), MnModel(3)], ids=["sl3", "sl4", "M2", "M3"])
@pytest.mark.parametrize("eps", [1, -1])
def test_a_repeated_eigenvalue_of_delta_h0_ends_the_fit(counting, model, eps):
    """An eigenspace of Delta(h0) of dimension 2 rules the family out, since
    a fit would make Delta(h0) similar to eps h0.  The fit refuses such a
    map from its root images alone: no kernel and no inverse."""
    d = repeated_eigenvalue_map(model, eps, random.Random(model.dim))
    kernels = counting(linalg, "kernel")
    inverses = counting(sln, "inverse")
    for sigma in (SIGMA_ID, SIGMA_T):
        space, a = fit_shape_family(model, d, eps, sigma)
        assert (space.dim, a) == (0, None)
        assert (kernels, inverses) == ([], [])
        assert intertwiner_fit(model, d, eps, sigma)[0].dim == 0
        kernels.clear()


@pytest.mark.parametrize("eps,sigma", SHAPE_FAMILIES)
def test_a_positive_sl9_fit_recovers_the_conjugator_line(eps, sigma):
    model = SlnModel(9)
    g = random_unimodular(9, random.Random(9))
    d = shape_map_matrix(model, CanonicalShape(eps, sigma, g))
    space, a = fit_shape_family(model, d, eps, sigma)
    assert space == Subspace(81, [g.flatten()])
    assert a == matrix_from_flat(space.basis[0], 9)


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
