"""Scalar and polynomial arithmetic over Q(i)."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut.exact import (
    GR_I,
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Polynomial,
    format_scalar,
    parse_scalar,
)

small_fractions = st.fractions(
    min_value=-9, max_value=9, max_denominator=7
)
scalars = st.builds(GaussianRational, small_fractions, small_fractions)
nonzero_scalars = scalars.filter(lambda z: not z.is_zero())


def test_construction_normalizes():
    z = GaussianRational(Fraction(2, 4), Fraction(-6, 8))
    assert z.re == Fraction(1, 2)
    assert z.im == Fraction(-3, 4)


def test_int_construction():
    assert GaussianRational(3).re == 3
    assert GaussianRational(3).im == 0
    assert GaussianRational(0).is_zero()
    assert GaussianRational(1).is_one()


def test_basic_identities():
    assert GR_I * GR_I == GaussianRational(-1)
    assert (GR_ONE + GR_I) * (GR_ONE - GR_I) == GaussianRational(2)


def test_inverse_of_i():
    assert GR_I.inverse() == -GR_I


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        GR_ZERO.inverse()


def test_division():
    z = GaussianRational(Fraction(3), Fraction(4))
    w = GaussianRational(Fraction(1), Fraction(-2))
    assert (z / w) * w == z


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(nonzero_scalars)
@settings(max_examples=60, deadline=None)
def test_field_inverse(a):
    assert a * a.inverse() == GR_ONE


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_conjugate_norm(a):
    assert a * GaussianRational(a.re, -a.im) == GaussianRational(a.re * a.re + a.im * a.im)


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_format_parse_roundtrip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize(
    "text,re,im",
    [
        ("0", 0, 0),
        ("5", 5, 0),
        ("-7/2", Fraction(-7, 2), 0),
        ("i", 0, 1),
        ("-i", 0, -1),
        ("2i", 0, 2),
        ("3/4*i", 0, Fraction(3, 4)),
        ("1/2+3/4*i", Fraction(1, 2), Fraction(3, 4)),
        ("1-2i", 1, -2),
        ("-1/3-1/3i", Fraction(-1, 3), Fraction(-1, 3)),
    ],
)
def test_parse_forms(text, re, im):
    z = parse_scalar(text)
    assert z.re == re and z.im == im


@pytest.mark.parametrize("bad", ["", "x", "1/0", "1 + + i", "i2", "*i", "-*i", "1+*i"])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_scalar(bad)


@pytest.mark.parametrize("text, part", [("1+2", "real"), ("i+2i", "imaginary"), ("1-i+3", "real")])
def test_parse_rejects_a_repeated_part(text, part):
    with pytest.raises(ValueError, match=f"repeated {part} part"):
        parse_scalar(text)


@pytest.mark.parametrize(
    "z,s",
    [
        (GR_ZERO, "0"),
        (GaussianRational(Fraction(1, 2)), "1/2"),
        (GR_I, "1*i"),
        (-GR_I, "-1*i"),
        (GaussianRational(Fraction(0), Fraction(-3, 4)), "-3/4*i"),
        (GaussianRational(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4*i"),
        (GaussianRational(Fraction(1), Fraction(-1)), "1-1*i"),
    ],
)
def test_format_forms(z, s):
    assert format_scalar(z) == s


def test_sqrt_perfect_squares():
    assert GaussianRational(Fraction(9, 4)).sqrt() == GaussianRational(Fraction(3, 2))
    assert GaussianRational(-1).sqrt() == GR_I
    assert GaussianRational(-4).sqrt() == GaussianRational(0, 2)
    # 2i = (1+i)^2
    assert GaussianRational(0, 2).sqrt() == GR_ONE + GR_I


def test_sqrt_none_for_nonsquares():
    assert GaussianRational(2).sqrt() is None
    assert GaussianRational(3, 5).sqrt() is None


@given(scalars)
@settings(max_examples=40, deadline=None)
def test_sqrt_squares_back(a):
    r = (a * a).sqrt()
    assert r is not None
    assert r * r == a * a


# -- reference: the square root through Fractions -----------------------------
#
# GaussianRational.sqrt as it was before it worked on the integer triple.


def _fraction_sqrt(q):
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn != q.numerator or rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)


def reference_sqrt(z):
    if z.is_zero():
        return GR_ZERO
    A, B = z.re, z.im
    if B == 0:
        if A > 0:
            s = _fraction_sqrt(A)
            return None if s is None else GaussianRational(s)
        s = _fraction_sqrt(-A)
        return None if s is None else GaussianRational(0, s)
    r = _fraction_sqrt(A * A + B * B)
    if r is None:
        return None
    c = _fraction_sqrt((A + r) / 2)
    if c is None or c == 0:
        return None
    return GaussianRational(c, B / (2 * c))


wide_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=40)
sqrt_cases = st.one_of(
    st.builds(GaussianRational, wide_fractions, wide_fractions),  # mostly non-squares, d > 1
    st.builds(lambda z: z * z, st.builds(GaussianRational, small_fractions, small_fractions)),  # squares
    st.builds(lambda q: GaussianRational(-q * q), small_fractions),  # negative real squares
    st.builds(lambda q: GaussianRational(0, q), wide_fractions),  # pure imaginaries
    st.builds(lambda q: GaussianRational(0, 2 * q * q), small_fractions),  # pure imaginary squares
    st.just(GR_ZERO),
)


@given(sqrt_cases)
@settings(max_examples=300, deadline=None)
def test_sqrt_matches_the_fraction_reference(z):
    assert z.sqrt() == reference_sqrt(z)


@pytest.mark.parametrize(
    "z",
    [
        GR_ZERO,
        GaussianRational(Fraction(4, 9)),
        GaussianRational(Fraction(-9, 49)),
        GaussianRational(Fraction(2, 9)),
        GaussianRational(0, Fraction(-1, 2)),
        GaussianRational(Fraction(-5, 36), Fraction(1, 3)),  # (1/3 + 1/2 i)^2
        GaussianRational(3, 4),
        GaussianRational(Fraction(3, 4), 1),
    ],
)
def test_sqrt_matches_the_fraction_reference_at_hand_values(z):
    assert z.sqrt() == reference_sqrt(z)


def test_pow():
    z = GaussianRational(1, 1)
    assert z**4 == GaussianRational(-4)
    assert z**0 == GR_ONE


# -- polynomials ------------------------------------------------------------


def test_polynomial_zero_degree():
    assert Polynomial(()).degree == -1
    assert Polynomial((0, 0)).degree == -1
    assert Polynomial((5,)).degree == 0
    assert Polynomial((0, 1)).degree == 1


def test_polynomial_arithmetic():
    t = Polynomial((0, 1))
    p = (t - 1) * (t + 1)
    assert p == Polynomial((-1, 0, 1))
    assert p(GaussianRational(3)) == GaussianRational(8)


def test_polynomial_divmod():
    t = Polynomial((0, 1))
    p = t * t * t - t
    q, r = divmod(p, t - 1)
    assert r.is_zero()
    assert q == t * (t + 1)


def test_polynomial_divmod_remainder():
    t = Polynomial((0, 1))
    q, r = divmod(t * t + 1, t - 1)
    assert q == t + 1
    assert r == Polynomial((2,))


def test_poly_json_roundtrip():
    t = Polynomial((0, 1))
    p = t * t - GaussianRational(0, 1) * t + 3
    assert Polynomial.from_json(p.to_json()) == p


@given(st.lists(st.integers(-5, 5), max_size=5), st.lists(st.integers(-5, 5), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_divmod_reconstructs(pc, qc):
    p = Polynomial(pc)
    q = Polynomial(qc)
    if q.is_zero():
        return
    quo, rem = divmod(p, q)
    assert quo * q + rem == p
    assert rem.degree < q.degree
