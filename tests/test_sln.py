"""Coordinate model of sl_n, canonical shapes, structure constants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut.classify import random_unimodular
from locaut.exact import GaussianRational
from locaut.linalg import Matrix, inverse
from locaut.sln import (
    SHAPE_FAMILIES,
    SIGMA_ID,
    SIGMA_T,
    CanonicalShape,
    MnModel,
    SlnModel,
    shape_map_matrix,
)


def test_basis_order_n2():
    m = SlnModel(2)
    assert m.labels == ["e12", "e21", "h1"]
    assert m.dim == 3
    assert m.e(0, 1) == Matrix(((0, 1), (0, 0)))
    assert m.h(0) == Matrix(((1, 0), (0, -1)))


def test_basis_order_n3():
    m = SlnModel(3)
    assert m.labels == ["e12", "e13", "e21", "e23", "e31", "e32", "h1", "h2"]
    assert m.dim == 8


def test_n_too_small():
    with pytest.raises(ValueError):
        SlnModel(1)


def test_coords_matrix_roundtrip():
    m = SlnModel(3)
    x = m.e(0, 2) * GaussianRational(3) + m.h(1) * GaussianRational(1, 2)
    assert m.matrix(m.coords(x)) == x
    v = tuple(GaussianRational(k) for k in (1, 2, 3, 4, 5, 6, -7, 8))
    assert m.coords(m.matrix(v)) == v


@st.composite
def sln_coordinates(draw):
    """(n, coordinate vector) with Q(i) entries, n = 2..5."""
    n = draw(st.integers(2, 5))
    part = st.integers(-9, 9)
    entry = st.builds(
        lambda a, b, d: GaussianRational(a, b) / d, part, part, st.integers(1, 4)
    )
    return n, tuple(draw(st.lists(entry, min_size=n * n - 1, max_size=n * n - 1)))


@given(sln_coordinates())
@settings(max_examples=60, deadline=None)
def test_coords_matrix_roundtrip_qi(case):
    n, v = case
    m = SlnModel(n)
    x = m.matrix(v)
    assert x.trace().is_zero()
    assert m.coords(x) == v
    assert m.matrix(m.coords(x)) == x
    # the same matrix as the coordinate-weighted sum of the basis
    acc = Matrix.zeros(n, n)
    for c, b in zip(v, m.basis):
        acc = acc + b * c
    assert x == acc


def test_coords_rejects_trace():
    m = SlnModel(2)
    with pytest.raises(ValueError):
        m.coords(Matrix.identity(2))
    with pytest.raises(ValueError):
        m.coords(Matrix.zeros(3, 3))


def test_bracket_constants():
    m2 = SlnModel(2)
    e, f, h = m2.e(0, 1), m2.e(1, 0), m2.h(0)
    assert SlnModel.bracket(e, f) == h
    assert SlnModel.bracket(h, e) == e + e
    assert SlnModel.bracket(h, f) == -(f + f)
    m3 = SlnModel(3)
    assert SlnModel.bracket(m3.e(0, 1), m3.e(1, 2)) == m3.e(0, 2)
    assert SlnModel.bracket(m3.e(0, 1), m3.e(0, 2)).is_zero()


@pytest.mark.parametrize("n", [2, 3])
def test_structure_algebra_is_lie(n):
    assert SlnModel(n).structure_algebra().validate_lie() == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_strongly_regular_element(n):
    m = SlnModel(n)
    h0 = m.strongly_regular_element()
    assert m.is_strongly_regular(h0)


def test_strongly_regular_rejects():
    m3 = SlnModel(3)
    # h1 = diag(1,-1,0) repeats root values across off pairs
    assert not m3.is_strongly_regular(m3.h(0))
    # off-diagonal entries disqualify outright
    assert not m3.is_strongly_regular(m3.e(0, 1))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_square_zero_spanning_set(n):
    m = SlnModel(n)
    elems = m.square_zero_spanning_set()
    assert len(elems) == m.dim
    for x in elems:
        assert (x @ x).is_zero()
        assert x.trace().is_zero()


def test_transpose_map_coordinates():
    m = SlnModel(2)
    d = m.transpose_map()
    assert m.apply_map(d, m.e(0, 1)) == m.e(1, 0)
    assert m.apply_map(d, m.h(0)) == m.h(0)


def test_scalar_map_is_diagonal():
    m = SlnModel(3)
    assert m.scalar_map(2) == Matrix.identity(m.dim) * GaussianRational(2)


def test_map_matrix_vs_direct_application():
    m = SlnModel(3)
    d = m.map_matrix(lambda x: x.T)
    x = m.e(0, 1) + m.h(0) * GaussianRational(5)
    assert m.apply_map(d, x) == x.T


# -- canonical shapes -------------------------------------------------------


def test_shape_validation():
    with pytest.raises(ValueError):
        CanonicalShape(2, SIGMA_ID, Matrix.identity(2))
    with pytest.raises(ValueError):
        CanonicalShape(1, "flip", Matrix.identity(2))
    shape = CanonicalShape(1, SIGMA_ID, Matrix.identity(3))
    for x in (Matrix(((0, 1), (0, 0))), Matrix.identity(4), Matrix(((1, 2, 3),))):
        with pytest.raises(ValueError, match="wrong size"):
            shape.apply(x)


def test_shape_apply_definition():
    """apply, by outer products, equals epsilon a sigma(x) a^-1 by two
    matrix products, for every family, on every basis element and on dense
    random x, over sl_n for n = 2..4 and M_n for n = 1..4; shape_map_matrix
    equals the map_matrix of that reference."""
    rng = random.Random(400)
    for model in [SlnModel(n) for n in (2, 3, 4)] + [MnModel(n) for n in (1, 2, 3, 4)]:
        n = model.n
        scales = Matrix.diagonal([GaussianRational(k + 1, k % 2) for k in range(n)])
        a = random_unimodular(n, rng) @ scales
        a_inv = inverse(a)

        def reference(eps, sigma, x):
            out = a @ (x.T if sigma == SIGMA_T else x) @ a_inv
            return out if eps == 1 else -out

        dense = [
            model.matrix([GaussianRational(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(model.dim)])
            for _ in range(3)
        ]
        for eps, sigma in SHAPE_FAMILIES:
            shape = CanonicalShape(eps, sigma, a)
            for x in (*model.basis, *dense):
                assert shape.apply(x) == reference(eps, sigma, x)
            assert shape_map_matrix(model, shape) == model.map_matrix(lambda x: reference(eps, sigma, x))
        assert CanonicalShape(1, SIGMA_ID, a).apply(Matrix.zeros(n, n)) == Matrix.zeros(n, n)


def test_family_automorphism_flags():
    a = Matrix.identity(2)
    flags = {
        (eps, sigma): CanonicalShape(eps, sigma, a).is_automorphism_family()
        for eps, sigma in SHAPE_FAMILIES
    }
    assert flags == {
        (1, SIGMA_ID): True,
        (1, SIGMA_T): False,
        (-1, SIGMA_ID): False,
        (-1, SIGMA_T): True,
    }


def test_shape_json_roundtrip():
    s = CanonicalShape(-1, SIGMA_T, Matrix(((0, 1), (-1, 0))))
    assert CanonicalShape.from_json(s.to_json()) == s


def test_bracket_behavior_by_family():
    model = SlnModel(2)
    g = Matrix(((2, 1), (1, 1)))

    def preserves(eps, sigma):
        d = shape_map_matrix(model, CanonicalShape(eps, sigma, g))
        return model.structure_algebra().automorphism_check(d)[0]

    assert preserves(1, SIGMA_ID)
    assert preserves(-1, SIGMA_T)
    assert not preserves(1, SIGMA_T)
    assert not preserves(-1, SIGMA_ID)


def test_anti_families_reverse_brackets():
    model = SlnModel(2)
    g = Matrix(((1, 2), (0, 1)))
    shape = CanonicalShape(1, SIGMA_T, g)
    for x in model.basis:
        for y in model.basis:
            lhs = shape.apply(SlnModel.bracket(x, y))
            rhs = SlnModel.bracket(shape.apply(y), shape.apply(x))
            assert lhs == rhs


def test_shape_map_matrix_consistency():
    model = SlnModel(2)
    shape = CanonicalShape(1, SIGMA_ID, Matrix(((1, 1), (0, 1))))
    d = shape_map_matrix(model, shape)
    x = model.e(1, 0)
    assert model.apply_map(d, x) == shape.apply(x)


# -- full matrix algebra ----------------------------------------------------


def test_mn_roundtrip():
    m = MnModel(2)
    x = Matrix(((1, 2), (3, 4)))
    assert m.matrix(m.coords(x)) == x
    assert m.dim == 4


def test_mn_map_matrix():
    m = MnModel(2)
    d = m.map_matrix(lambda x: x.T)
    assert m.apply_map(d, Matrix(((1, 2), (3, 4)))) == Matrix(((1, 3), (2, 4)))
