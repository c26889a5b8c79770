"""Exact linear algebra: elimination, invariant factors, intertwiners."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut import linalg
from locaut.classify import classify_sln, random_unimodular
from locaut.exact import GR_ONE, GR_ZERO, GaussianRational, InternalCheckError, Polynomial
from locaut.linalg import (
    Matrix,
    Subspace,
    certified_kernel,
    charpoly,
    combine,
    conjugator,
    cyclic_companion,
    det,
    intertwiner_space,
    invariant_factors,
    inverse,
    invertible_element,
    is_nonsingular,
    kernel,
    matrix_from_flat,
    negated_factors,
    similarity_witness,
    solve_linear,
)
from locaut.recheck import charpoly_via_cofactor, cofactor_det
from locaut.sln import SHAPE_FAMILIES, CanonicalShape, MnModel, SlnModel, shape_map_matrix
from test_exact import DENOMINATORS, assert_canonical, scalars_over


def int_matrix(rows):
    return Matrix(tuple(tuple(r) for r in rows))


def square_matrices(n, lo=-4, hi=4):
    entry = st.integers(lo, hi)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(int_matrix)


def vectors(n, lo=-4, hi=4):
    return st.lists(st.integers(lo, hi), min_size=n, max_size=n).map(
        lambda v: tuple(GaussianRational(x) for x in v)
    )


# -- matrix basics ----------------------------------------------------------


def test_matrix_shape_and_access():
    m = int_matrix([[1, 2, 3], [4, 5, 6]])
    assert (m.nrows, m.ncols) == (2, 3)
    assert m[1, 2] == GaussianRational(6)
    assert m.data[0] == tuple(GaussianRational(x) for x in (1, 2, 3))
    assert m.column(1) == tuple(GaussianRational(x) for x in (2, 5))


def test_transpose_and_trace():
    m = int_matrix([[1, 2], [3, 4]])
    assert m.T == int_matrix([[1, 3], [2, 4]])
    assert m.trace() == GaussianRational(5)
    wide = int_matrix([[1, 2, 3], [4, 5, 6]]).T
    assert wide == int_matrix([[1, 4], [2, 5], [3, 6]])
    assert (wide.nrows, wide.ncols) == (3, 2)


def test_public_constructor_checks_its_rows():
    with pytest.raises(ValueError, match="at least one row"):
        Matrix(())
    with pytest.raises(ValueError, match="ragged"):
        Matrix(((1, 2), (3,)))
    # a 1 x 0 matrix is allowed, but its transpose would have no rows
    with pytest.raises(ValueError, match="at least one row"):
        Matrix(((),)).T


ENTRY_KINDS = {
    "int": [3, -1, 0, 2],
    "Fraction": [Fraction(1, 3), Fraction(-5, 2), Fraction(0), Fraction(4)],
    "GaussianRational": [GaussianRational(1, -2), GaussianRational(Fraction(1, 2)), GR_ZERO, GaussianRational(0, 3)],
}


def all_scalars(m):
    return all(isinstance(x, GaussianRational) for row in m.data for x in row)


@pytest.mark.parametrize("kind", sorted(ENTRY_KINDS))
def test_constructors_match_the_public_constructor(kind):
    """diagonal, identity, zeros and the models' matrix skip the public
    constructor's coercion, and build the same matrix of Q(i) scalars."""
    es = ENTRY_KINDS[kind]
    n = len(es)
    built = {
        "diagonal": (Matrix.diagonal(es), [[es[i] if i == j else 0 for j in range(n)] for i in range(n)]),
        "identity": (Matrix.identity(n), [[int(i == j) for j in range(n)] for i in range(n)]),
        "zeros": (Matrix.zeros(2, n), [[0] * n, [0] * n]),
    }
    for name, (m, rows) in built.items():
        assert m == Matrix(rows) and all_scalars(m), name
    model = SlnModel(3)
    v = (es * 2)[: model.dim]
    m = model.matrix(v)
    want = Matrix.zeros(3, 3)
    for c, b in zip(v, model.basis):
        want = want + b * c
    assert m == want and all_scalars(m)
    assert model.coords(m) == tuple(v)
    m = MnModel(2).matrix(es)
    assert m == Matrix([es[:2], es[2:]]) and all_scalars(m)


def test_matmul_identity():
    m = int_matrix([[1, 2], [3, 4]])
    assert Matrix.identity(2) @ m == m
    assert m @ Matrix.identity(2) == m


def test_matmul_shape_mismatch():
    with pytest.raises(ValueError):
        int_matrix([[1, 2]]) @ int_matrix([[1, 2]])


def test_apply_is_column_action():
    m = int_matrix([[1, 2], [3, 4]])
    v = (GaussianRational(1), GaussianRational(-1))
    assert m.apply(v) == (GaussianRational(-1), GaussianRational(-1))


def fold_product(a: Matrix, b: Matrix):
    """The rows of a @ b as left folds of scalar + and *."""
    rows = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = GR_ZERO
            for k in range(a.ncols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(tuple(row))
    return tuple(rows)


@st.composite
def kernel_matrices(draw, nrows, ncols, denominators):
    """Entries over the given denominators, in lowest terms, or zero."""
    entry = st.one_of(st.just(GR_ZERO), st.sampled_from(denominators).flatmap(scalars_over))
    return Matrix._of_rows(tuple(tuple(draw(entry) for _ in range(ncols)) for _ in range(nrows)))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_matmul_and_apply_match_a_fold_of_scalar_ops(data):
    """The dot product under @ and apply sums over a common denominator:
    integer entries only, one d > 1 throughout (so every term repeats the
    running denominator), or mixed denominators, each with zeros."""
    r, k, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    d = data.draw(st.sampled_from(DENOMINATORS))
    denominators = data.draw(st.sampled_from(((1,), (d,), (1,) + DENOMINATORS)))
    a = data.draw(kernel_matrices(r, k, denominators))
    b = data.draw(kernel_matrices(k, c, denominators))
    want = fold_product(a, b)
    got = a @ b
    assert got.data == want
    for z in got.flatten():
        assert_canonical(z)
    for j in range(c):
        assert a.apply(b.column(j)) == tuple(row[j] for row in want)


def test_a_product_of_integer_matrices_makes_no_raw_call(counting):
    """Integer sums need no gcd; a sum with d > 1 is reduced once, not once
    per term."""
    a = Matrix(((2**70, -1, 0), (3, GaussianRational(0, 5), 7)))
    b = Matrix(((1, GaussianRational(2, -1)), (0, 4), (-(2**65), 1)))
    want = Matrix(((2**70, GaussianRational(2**71 - 4, -(2**70))), (3 - 7 * 2**65, GaussianRational(13, 17))))
    half = Matrix(((Fraction(1, 2),) * 2,) * 2)
    raws = counting(GaussianRational, "_raw")
    assert a @ b == want
    assert a.apply(b.column(0)) == want.column(0)
    assert raws == []
    assert half @ half == half and len(raws) == 4


def test_json_roundtrip():
    m = Matrix(((GaussianRational(1, 2), GR_ZERO), (GR_ONE, GaussianRational(-3))))
    assert Matrix.from_json(m.to_json()) == m
    assert m.to_json()[0][0] == "1+2*i"


# -- elimination ------------------------------------------------------------


def test_rref_pivots():
    m = int_matrix([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    assert Subspace(3, m.data).basis == tuple(
        tuple(GaussianRational(x) for x in row) for row in ((1, 2, 0), (0, 0, 1))
    )


def test_rank_examples():
    for m, rank in ((int_matrix([[1, 2], [2, 4]]), 1), (Matrix.zeros(3, 3), 0), (Matrix.identity(4), 4)):
        assert m.ncols - kernel(m).dim == rank


@given(square_matrices(3))
@settings(max_examples=40, deadline=None)
def test_rank_nullity(m):
    assert Subspace(3, m.data).dim + kernel(m).dim == 3


@given(square_matrices(3))
@settings(max_examples=40, deadline=None)
def test_kernel_vectors_annihilate(m):
    for v in kernel(m).basis:
        assert all(x.is_zero() for x in m.apply(v))


@given(square_matrices(3), vectors(3))
@settings(max_examples=40, deadline=None)
def test_solve_roundtrip(m, x):
    b = m.apply(x)
    sol = solve_linear(m, b)
    assert sol is not None
    assert m.apply(sol) == b


def test_solve_inconsistent():
    m = int_matrix([[1, 1], [1, 1]])
    assert solve_linear(m, (GaussianRational(0), GaussianRational(1))) is None


# -- determinant, inverse, charpoly ----------------------------------------


def test_det_hand_values():
    assert det(int_matrix([[1, 2], [3, 4]])) == GaussianRational(-2)
    assert det(Matrix.identity(5)) == GR_ONE
    assert det(int_matrix([[0, 1], [1, 0]])) == GaussianRational(-1)


def test_det_non_square():
    with pytest.raises(ValueError):
        det(Matrix.zeros(2, 3))


@given(square_matrices(3))
@settings(max_examples=50, deadline=None)
def test_det_matches_cofactor_expansion(m):
    assert det(m) == cofactor_det(m)


@given(square_matrices(2), square_matrices(2))
@settings(max_examples=40, deadline=None)
def test_det_multiplicative(a, b):
    assert det(a @ b) == det(a) * det(b)


# -- nonsingularity modulo p -------------------------------------------------


def is_prime(n):
    """Deterministic Miller-Rabin: the first twelve prime bases decide every
    n < 3.3 * 10^24 (Sorenson and Webster, Math. Comp. 86, 2017)."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    if n in bases:
        return True
    if any(n % a == 0 for a in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_miller_rabin_matches_trial_division():
    for n in range(3000):
        assert is_prime(n) == (n > 1 and all(n % k for k in range(2, int(n ** 0.5) + 1))), n
    assert not is_prime(3215031751)  # a strong pseudoprime to the bases 2, 3, 5 and 7


def test_modular_constants():
    p, r = linalg._P, linalg._R
    assert p == 2 ** 61 - 31
    assert is_prime(p)
    assert p % 4 == 1
    assert (r * r + 1) % p == 0


P = linalg._P


@st.composite
def nonsingularity_cases(draw):
    """Q(i) matrices of size 1-6 with entries (a + b i)/d.  Some get a row
    replaced by a combination of the others (det = 0); some get a row scaled
    by p or 1/p, so that the residue is zero or undefined mod p."""
    n = draw(st.integers(1, 6))
    entry = st.builds(
        lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
        st.integers(-3, 3), st.integers(-3, 3), st.integers(1, 4),
    )
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    k = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        coeffs = draw(st.lists(entry, min_size=n, max_size=n))
        rows[k] = [sum((coeffs[i] * rows[i][j] for i in range(n) if i != k), GR_ZERO) for j in range(n)]
    scale = GaussianRational(draw(st.sampled_from((1, P, Fraction(1, P)))))
    rows[-1 - k] = [x * scale for x in rows[-1 - k]]
    return Matrix(rows)


@given(nonsingularity_cases())
@settings(max_examples=200, deadline=None)
def test_is_nonsingular_matches_det(m):
    assert is_nonsingular(m) == (not det(m).is_zero())


def test_a_det_divisible_by_p_falls_back_to_det():
    for rows in ([[P, 0], [0, 1]], [[P, 0], [1, GaussianRational(1, 1)]]):  # det = p, p (1 + i)
        assert len(linalg._echelon_mod_p(int_matrix(rows), linalg._R)[1]) == 1
        assert is_nonsingular(int_matrix(rows))
    assert not is_nonsingular(int_matrix([[P, 2 * P], [1, 2]]))


def test_a_denominator_divisible_by_p_falls_back_to_det():
    m = int_matrix([[Fraction(1, P), 0], [0, 1]])
    assert linalg._echelon_mod_p(m, linalg._R) is None
    assert is_nonsingular(m)
    assert not is_nonsingular(int_matrix([[Fraction(1, P), 0], [0, 0]]))


def test_is_nonsingular_rejects_non_square():
    with pytest.raises(ValueError):
        is_nonsingular(Matrix.zeros(2, 3))


# -- kernels found modulo p -------------------------------------------------


def gaussian_entries(lo=-3, hi=3, den=4):
    return st.builds(
        lambda a, b, d: GaussianRational(Fraction(a, d), Fraction(b, d)),
        st.integers(lo, hi), st.integers(lo, hi), st.integers(1, den),
    )


@st.composite
def singular_matrices(draw):
    """Q(i) matrices with 1-8 rows and 1-8 columns, up to 3 columns of which
    are combinations of the others, so the kernel has dimension 0-3 (more
    when there are fewer rows than columns)."""
    nrows, ncols = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    entry = gaussian_entries()
    cols = draw(st.lists(st.lists(entry, min_size=nrows, max_size=nrows), min_size=ncols, max_size=ncols))
    k = draw(st.integers(0, min(3, ncols - 1)))
    dependent = draw(st.lists(st.integers(0, ncols - 1), min_size=k, max_size=k, unique=True))
    for j in dependent:
        coeffs = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        free = [i for i in range(ncols) if i not in dependent]
        cols[j] = [sum((coeffs[i] * cols[i][r] for i in free), GR_ZERO) for r in range(nrows)]
    return Matrix(tuple(zip(*cols)))


@given(singular_matrices())
@settings(max_examples=150, deadline=None)
def test_certified_kernel_is_the_kernel(m):
    assert certified_kernel(m) == kernel(m)


@given(st.integers(2, 5), st.randoms(use_true_random=False), st.sampled_from(SHAPE_FAMILIES),
       st.integers(1, 3), st.booleans())
@settings(max_examples=15, deadline=None)
def test_certified_kernel_of_a_conjugated_projection(n, rng, family, drops, project_first):
    """A family map composed with a coordinate projection, on either side:
    the kernel is spanned by unit vectors, or by columns of the inverse
    family map, whose entries the reconstruction has to meet."""
    model = SlnModel(n)
    conj = shape_map_matrix(model, CanonicalShape(*family, random_unimodular(n, rng)))
    dropped = rng.sample(range(model.dim), drops)
    proj = Matrix.diagonal([0 if i in dropped else 1 for i in range(model.dim)])
    d = conj @ proj if project_first else proj @ conj
    ker = certified_kernel(d)
    assert ker == kernel(d)
    assert ker.dim == drops


def test_rational_reconstruction_inverts_small_fractions():
    bound = linalg._RECONSTRUCTION_BOUND
    for a, b in ((0, 1), (1, 1), (-7, 3), (bound, 1), (-bound, bound - 1), (1, bound), (bound - 1, bound)):
        assert linalg._rational_mod_p(a * pow(b, -1, P) % P) == Fraction(a, b)
    assert linalg._rational_mod_p((bound + 1) % P) is None


def test_a_kernel_entry_beyond_the_bound_falls_back_to_kernel():
    """2^40 + 1/3 has no reconstruction within the bound; p + 1 has the
    wrong one, 1, which the exact check refuses."""
    for big in (GaussianRational(Fraction(3 * 2 ** 40 + 1, 3)), GaussianRational(P + 1, 1)):
        m = Matrix(((1, -big), (2, -2 * big)))
        ker = certified_kernel(m)
        assert ker == kernel(m)
        assert ker.basis == ((GR_ONE, big.inverse()),)


def test_a_rank_that_drops_mod_p_is_still_injective():
    """det = p: the residue of the map has a kernel vector, which the exact
    check refuses, so the map is injective and classify_sln finds no
    kernel vector."""
    m = Matrix.diagonal([P, 1, 1])
    assert len(linalg._echelon_mod_p(m, linalg._R)[1]) == 2
    assert certified_kernel(m) == kernel(m) == Subspace(3, ())
    verdict = classify_sln(SlnModel(2), m)
    assert verdict.obstruction is None or verdict.obstruction.kind != "not_injective"


def test_a_denominator_divisible_by_p_falls_back_to_kernel():
    m = int_matrix([[Fraction(1, P), 1], [Fraction(2, P), 2]])
    assert linalg._echelon_mod_p(m, linalg._R) is None
    ker = certified_kernel(m)
    assert ker == kernel(m)
    assert ker.dim == 1


def test_pivots_that_differ_between_the_embeddings_fall_back_to_kernel():
    """(p - R) + i vanishes under i -> R but not under i -> -R."""
    a = GaussianRational(P - linalg._R, 1)
    m = Matrix(((a, 1), (2 * a, 2)))
    assert linalg._echelon_mod_p(m, linalg._R)[1] == [1]
    assert linalg._echelon_mod_p(m, P - linalg._R)[1] == [0]
    ker = certified_kernel(m)
    assert ker == kernel(m)
    assert ker.basis == ((GR_ONE, -a),)


def test_inverse_roundtrip():
    m = int_matrix([[2, 1], [1, 1]])
    assert m @ inverse(m) == Matrix.identity(2)
    assert inverse(m) @ m == Matrix.identity(2)


def test_inverse_singular():
    with pytest.raises(ZeroDivisionError):
        inverse(int_matrix([[1, 2], [2, 4]]))


def test_charpoly_diagonal():
    m = Matrix.diagonal([GaussianRational(2), GaussianRational(-1)])
    assert charpoly(m) == Polynomial((-2, -1, 1))


@given(square_matrices(3, -3, 3))
@settings(max_examples=30, deadline=None)
def test_charpoly_matches_cofactor(m):
    assert charpoly(m) == charpoly_via_cofactor(m)


@given(square_matrices(3, -3, 3))
@settings(max_examples=30, deadline=None)
def test_cayley_hamilton(m):
    p = charpoly(m)
    acc = Matrix.zeros(3, 3)
    power = Matrix.identity(3)
    for c in p.coeffs:
        acc = acc + power * c
        power = power @ m
    assert acc.is_zero()


# -- invariant factors ------------------------------------------------------


def test_invariant_factors_zero_matrix():
    t = Polynomial((0, 1))
    assert invariant_factors(Matrix.zeros(2, 2)) == (t, t)


def test_invariant_factors_nilpotent_jordan():
    t = Polynomial((0, 1))
    assert invariant_factors(int_matrix([[0, 1], [0, 0]])) == (t * t,)


def test_invariant_factors_split_diagonal():
    m = Matrix.diagonal([GaussianRational(1), GaussianRational(-1)])
    assert invariant_factors(m) == (Polynomial((-1, 0, 1)),)


def test_invariant_factors_scalar_matrix():
    t = Polynomial((0, 1))
    assert invariant_factors(Matrix.identity(2)) == (t - 1, t - 1)


@given(square_matrices(3, -3, 3))
@settings(max_examples=25, deadline=None)
def test_invariant_factor_product_is_charpoly(m):
    prod = Polynomial((1,))
    for p in invariant_factors(m):
        prod = prod * p
    assert prod == charpoly(m)


@given(
    st.one_of(
        *(square_matrices(n, -3, 3) for n in (1, 2, 3)),
        st.integers(2, 4).flatmap(lambda n: jordan_matrices(n)),
    )
)
@settings(max_examples=40, deadline=None)
def test_negated_factors_are_those_of_minus_transpose(m):
    assert negated_factors(invariant_factors(m)) == invariant_factors(-(m.T))


# -- intertwiners and similarity --------------------------------------------


def test_intertwiner_space_commutant_of_identity():
    space = intertwiner_space([(Matrix.identity(2), Matrix.identity(2))])
    assert space.dim == 4


def test_intertwiner_space_distinct_diagonals():
    a = Matrix.diagonal([GaussianRational(1), GaussianRational(2)])
    space = intertwiner_space([(a, a)])
    # commutant of a regular diagonal matrix: diagonal matrices only
    assert space.dim == 2


def test_negative_transpose_on_sl2_is_symplectic_conjugation():
    # the maps a with a x = (-x^T) a for all x in sl(2) form a line
    # spanned by the symplectic form
    e = int_matrix([[0, 1], [0, 0]])
    f = int_matrix([[0, 0], [1, 0]])
    h = int_matrix([[1, 0], [0, -1]])
    pairs = [(-(x.T), x) for x in (e, f, h)]
    space = intertwiner_space(pairs)
    assert space.dim == 1
    s = int_matrix([[0, 1], [-1, 0]])
    assert space.contains(s.flatten())


def test_plain_transpose_on_sl2_has_no_intertwiner():
    # x -> x^T reverses brackets, so no invertible a with a x a^-1 = x^T
    # can work for the whole of sl(2); the intertwiner space is zero
    e = int_matrix([[0, 1], [0, 0]])
    f = int_matrix([[0, 0], [1, 0]])
    h = int_matrix([[1, 0], [0, -1]])
    pairs = [(x.T, x) for x in (e, f, h)]
    assert intertwiner_space(pairs).dim == 0


def kronecker_intertwiner_space(pairs) -> Subspace:
    """Brute force: the kernel of the stacked system A (x) I - I (x) B^T,
    which sends the row-major flattening of a to that of A a - a B."""
    n = pairs[0][0].nrows
    rows = []
    for a, b in pairs:
        for r in range(n):
            for c in range(n):
                rows.append(
                    tuple(
                        (a[r, i] if j == c else GR_ZERO) - (b[j, c] if i == r else GR_ZERO)
                        for i in range(n)
                        for j in range(n)
                    )
                )
    return kernel(Matrix(rows))


def gaussian_matrices(n, lo=-2, hi=2):
    entry = st.builds(GaussianRational, st.integers(lo, hi), st.integers(lo, hi))
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n).map(
        int_matrix
    )


@st.composite
def intertwiner_pairs(draw):
    """1-3 pairs of size 1-3: random (A, B), or (g x g^-1, x) for a shared
    invertible g, so that the solution space is not always zero."""
    n = draw(st.integers(1, 3))
    g = draw(gaussian_matrices(n))
    similar = draw(st.booleans()) and not det(g).is_zero()
    pairs = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(gaussian_matrices(n))
        y = g @ x @ inverse(g) if similar else draw(gaussian_matrices(n))
        pairs.append((y, x))
    return pairs


@st.composite
def diagonal_first_pairs(draw):
    """A diagonal first B with repeated and zero entries, an A that shares
    some of its eigenvalues (g D' g^-1) or a random one, then 0-2 more
    pairs, similar through one g or random."""
    n = draw(st.integers(1, 4))
    values = st.sampled_from([0, 0, 1, -1, 2, GaussianRational(0, 1)])
    b = Matrix.diagonal([draw(values) for _ in range(n)])
    g = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    ginv = inverse(g)
    if draw(st.booleans()):
        a = g @ Matrix.diagonal([draw(values) for _ in range(n)]) @ ginv
    else:
        a = draw(gaussian_matrices(n, -1, 1))
    pairs = [(a, b)]
    for _ in range(draw(st.integers(0, 2))):
        x = draw(gaussian_matrices(n, -1, 1))
        pairs.append((g @ x @ ginv if draw(st.booleans()) else draw(gaussian_matrices(n, -1, 1)), x))
    return pairs


@given(st.one_of(intertwiner_pairs(), diagonal_first_pairs()))
@settings(max_examples=80, deadline=None)
def test_intertwiner_space_matches_kronecker_kernel(pairs):
    assert intertwiner_space(pairs) == kronecker_intertwiner_space(pairs)


@given(st.one_of(intertwiner_pairs(), diagonal_first_pairs()))
@settings(max_examples=80, deadline=None)
def test_intertwiner_space_basis_intertwines_every_pair(pairs):
    """Each basis vector, as a matrix a, solves A a = a B for every pair,
    checked by matrix products rather than by the stacked system."""
    n = pairs[0][0].nrows
    for v in intertwiner_space(pairs).basis:
        a = matrix_from_flat(v, n)
        assert all(x @ a == a @ y for x, y in pairs)


_E = int_matrix([[0, 1], [0, 0]])
_F = int_matrix([[0, 0], [1, 0]])
_H = int_matrix([[1, 0], [0, -1]])
_G3 = int_matrix([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
_D3 = Matrix.diagonal([1, 2, 3])
_J3 = int_matrix([[1, 1, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize(
    "pairs",
    [
        [(_G3 @ _D3 @ inverse(_G3), _D3)],  # a diagonal first pair
        [(-(x.T), x) for x in (_E, _F, _H)],  # three pairs, none diagonal
        [(-(x.T), x) for x in (_H, _E, _F)],  # a diagonal first pair, then two more
        [(_G3 @ _J3 @ inverse(_G3), _J3)],  # one pair, not diagonal
    ],
)
def test_intertwiner_space_solves_one_stacked_system(monkeypatch, pairs):
    """One kernel call per call, on n^2 columns and n^2 rows per pair."""
    shapes = []

    def spy(m):
        shapes.append((m.nrows, m.ncols))
        return kernel(m)

    monkeypatch.setattr(linalg, "kernel", spy)
    space = intertwiner_space(pairs)
    n = pairs[0][0].nrows
    assert shapes == [(n * n * len(pairs), n * n)]
    assert space == kronecker_intertwiner_space(pairs)


def test_matrix_from_flat_roundtrip():
    m = int_matrix([[1, 2], [3, 4]])
    assert matrix_from_flat(m.flatten(), 2) == m


def test_invertible_element_in_diagonal_plane():
    space = Subspace(4, [Matrix.diagonal([1, 0]).flatten(), Matrix.diagonal([0, 1]).flatten()])
    a = invertible_element(space, 2)
    assert a is not None
    assert not det(a).is_zero()


def test_invertible_element_raises_in_nilpotent_line():
    # the search has a precondition, not a give-up exit: a space without an
    # invertible element is a caller bug
    space = Subspace(4, [int_matrix([[0, 1], [0, 0]]).flatten()])
    with pytest.raises(InternalCheckError):
        invertible_element(space, 2)


def test_similarity_witness_conjugates():
    x = int_matrix([[1, 1], [0, 1]])
    g = int_matrix([[2, 1], [1, 1]])
    y = g @ x @ inverse(g)
    a = similarity_witness(x, y)
    assert a is not None
    assert a @ x @ inverse(a) == y


def test_similarity_witness_permuted_diagonal():
    x = Matrix.diagonal([GaussianRational(1), GaussianRational(2)])
    y = Matrix.diagonal([GaussianRational(2), GaussianRational(1)])
    a = similarity_witness(x, y)
    assert a is not None
    assert a @ x == y @ a


def test_similarity_witness_rejects_dissimilar():
    assert similarity_witness(int_matrix([[0, 1], [0, 0]]), Matrix.zeros(2, 2)) is None
    # same charpoly, different invariant factors
    x = int_matrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert similarity_witness(x, Matrix.zeros(3, 3)) is None


# -- reference: the search-first similarity_witness ---------------------------
#
# Copies of invertible_element and similarity_witness as they were when the
# search ran before the invariant-factor comparison.  Deciding first must not
# change a single witness, so the new code is compared with these verbatim.


def reference_invertible_element(space, n, persistent=False):
    k = space.dim
    if k == 0:
        return None

    def candidate(coeffs):
        flat = combine([GaussianRational(c) for c in coeffs], space.basis)
        if not any(x.a or x.b for x in flat):
            return None
        m = matrix_from_flat(flat, n)
        return m if not det(m).is_zero() else None

    if k <= 3:
        for coeffs in product(range(n + 1), repeat=k):
            got = candidate(coeffs)
            if got is not None:
                return got
        return None

    rng = random.Random(0x1E7E57)
    for _ in range(64):
        got = candidate(tuple(rng.randint(-n, n) for _ in range(k)))
        if got is not None:
            return got
    if (n + 1) ** k <= 200_000:
        for coeffs in product(range(n + 1), repeat=k):
            got = candidate(coeffs)
            if got is not None:
                return got
        return None
    if not persistent:
        return None
    spread = n + 1
    while True:
        for _ in range(64):
            got = candidate(tuple(rng.randint(-spread, spread) for _ in range(k)))
            if got is not None:
                return got
        spread *= 2


def reference_similarity_witness(x, y):
    n = x.nrows
    space = intertwiner_space([(y, x)])
    if space.dim == 0:
        return None
    a = reference_invertible_element(space, n)
    if a is None:
        if invariant_factors(x) != invariant_factors(y):
            return None
        a = reference_invertible_element(space, n, persistent=True)
    return a


@st.composite
def jordan_matrices(draw, n):
    """A Jordan form with eigenvalues in {0, 1}: repeated eigenvalues make
    the intertwiner spaces large and the Jordan types collide often."""
    rows = [[0] * n for _ in range(n)]
    pos = 0
    while pos < n:
        size = draw(st.integers(1, n - pos))
        lam = draw(st.sampled_from([0, 1]))
        for k in range(size):
            rows[pos + k][pos + k] = lam
            if k:
                rows[pos + k - 1][pos + k] = 1
        pos += size
    return int_matrix(rows)


@st.composite
def similarity_pairs(draw):
    """(x, y) for n = 2..4, each a conjugated Jordan form; y is similar to x
    in about half the draws, otherwise its Jordan form is drawn anew."""
    n = draw(st.integers(2, 4))
    jx = draw(jordan_matrices(n))
    jy = jx if draw(st.booleans()) else draw(jordan_matrices(n))
    g = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    h = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    return h @ jx @ inverse(h), g @ jy @ inverse(g)


@given(similarity_pairs())
@settings(max_examples=60, deadline=None)
def test_similarity_witness_matches_search_first_reference(pair):
    x, y = pair
    got = similarity_witness(x, y)
    space = intertwiner_space([(y, x)])
    if invariant_factors(x) != invariant_factors(y) and space.dim > 4:
        # the reference walks up to (n+1)^dim determinants here before it
        # gives None (78125 for the n=4, dim-7 near-miss): too slow to run
        assert got is None
    else:
        assert got == reference_similarity_witness(x, y)


def reference_conjugator(x, y):
    """similarity_witness on a similar pair, as it was before conjugator:
    the search over the Kronecker intertwiner space."""
    return invertible_element(kronecker_intertwiner_space([(y, x)]), x.nrows)


@st.composite
def similar_pairs(draw):
    """(x, g x g^-1) for n = 2..5 where x is a random integer matrix (cyclic,
    with a cyclic unit vector, in most draws), diag(1, .., n) (cyclic, but no
    unit vector is) or a conjugated Jordan form with eigenvalues in {0, 1}
    (often derogatory); or (h y h^-1, y) for a random integer y whose first
    row is (lam, 0, .., 0), so that e_1 is an eigenvector of y^T and not
    cyclic for it."""
    n = draw(st.integers(2, 5))
    h = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    kind = draw(st.sampled_from(["random", "diagonal", "jordan", "eigenrow"]))
    if kind == "eigenrow":
        y = draw(square_matrices(n, -3, 3))
        y = Matrix((((draw(st.integers(-2, 2)),) + (0,) * (n - 1)),) + y.data[1:])
        return h @ y @ inverse(h), y
    if kind == "random":
        x = draw(square_matrices(n, -3, 3))
    elif kind == "diagonal":
        x = Matrix.diagonal(range(1, n + 1))
    else:
        x = h @ draw(jordan_matrices(n)) @ inverse(h)
    g = random_unimodular(n, random.Random(draw(st.integers(0, 10_000))))
    return x, g @ x @ inverse(g)


@given(similar_pairs())
@settings(max_examples=80, deadline=None)
def test_conjugator_matches_kronecker_search(pair):
    x, y = pair
    assert conjugator(x, y, cyclic_companion(x), cyclic_companion(y.T)) == reference_conjugator(x, y)


_REGULAR = int_matrix([[1, 1, 0], [0, 2, 1], [1, 0, -3]])  # e1 is cyclic for it and its transpose
_UPPER = int_matrix([[1, 1, 0], [0, 2, 1], [0, 0, -3]])  # e3 is cyclic, e1 an eigenvector
_G7 = random_unimodular(3, random.Random(7))


@pytest.mark.parametrize(
    "x, y, stacked",
    [
        (_REGULAR, _G7 @ _REGULAR @ inverse(_G7), False),
        (_UPPER, _G7 @ _UPPER @ inverse(_G7), False),  # v = e3 for x, e1 for y^T
        (_UPPER, _UPPER.T, True),  # e1 is not cyclic for y^T = x
        (Matrix.diagonal([1, 2, 3]), _G7 @ Matrix.diagonal([1, 2, 3]) @ inverse(_G7), True),  # no cyclic unit vector
        (_J3, _G7 @ _J3 @ inverse(_G7), True),  # derogatory
    ],
)
def test_conjugator_solves_the_kronecker_system_only_off_the_first_row_path(monkeypatch, x, y, stacked):
    """The stacked system is solved exactly when no unit vector is cyclic
    for x or e1 is not cyclic for y^T."""
    calls = []

    def counted(pairs):
        calls.append(pairs)
        return intertwiner_space(pairs)

    monkeypatch.setattr(linalg, "intertwiner_space", counted)
    cx, ct = cyclic_companion(x), cyclic_companion(y.T)
    assert stacked == (cx is None or ct is None or ct[0].column(0) != tuple(Matrix.identity(3).column(0)))
    assert conjugator(x, y, cx, ct) == reference_conjugator(x, y)
    assert len(calls) == (1 if stacked else 0)


@pytest.mark.parametrize("x", [_REGULAR, _UPPER])
def test_conjugator_on_the_first_row_path_searches_no_subspace(monkeypatch, x):
    """From the first row, conjugator calls no invertible_element and no
    intertwiner_space, and builds no Subspace."""
    y = _G7 @ x @ inverse(_G7)
    cx, ct = cyclic_companion(x), cyclic_companion(y.T)
    want = reference_conjugator(x, y)
    calls = []
    for name in ("invertible_element", "intertwiner_space", "Subspace"):
        monkeypatch.setattr(linalg, name, lambda *args, name=name: calls.append(name))
    assert conjugator(x, y, cx, ct) == want
    assert calls == []


# -- subspaces --------------------------------------------------------------


def test_subspace_membership():
    s = Subspace(3, [(1, 0, 0), (0, 1, 0)])
    assert s.dim == 2
    assert s.contains((GaussianRational(2), GaussianRational(-3), GR_ZERO))
    assert not s.contains((GR_ZERO, GR_ZERO, GR_ONE))


_qi = st.one_of(
    st.just(GR_ZERO),
    st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)),
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_reduce_round_trip(data):
    ambient = data.draw(st.integers(1, 4))
    vec = st.lists(_qi, min_size=ambient, max_size=ambient).map(tuple)
    gens = data.draw(st.lists(vec, max_size=3))
    space = Subspace(ambient, gens)
    in_span = st.lists(_qi, min_size=len(gens), max_size=len(gens)).map(
        lambda cs: tuple(sum((c * g[i] for c, g in zip(cs, gens)), GR_ZERO) for i in range(ambient))
    )
    # a vector of the span half the time, so both outcomes of contains occur
    v = data.draw(st.one_of(vec, in_span))
    coeffs, residual = space.reduce(v)
    assert len(coeffs) == space.dim
    total = residual
    for c, b in zip(coeffs, space.basis):
        total = tuple(x + c * y for x, y in zip(total, b))
    assert total == v
    assert all(x.is_zero() for x in residual) == space.contains(v)


def test_subspace_coordinates():
    s = Subspace(2, [(1, 1)])
    three = GaussianRational(3)
    assert s.reduce((three, three)) == ((three,), (GR_ZERO, GR_ZERO))
    assert s.reduce((GR_ONE, GR_ZERO)) == ((GR_ONE,), (GR_ZERO, -GR_ONE))
