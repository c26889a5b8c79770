"""Scalar and polynomial arithmetic over Q(i)."""

from fractions import Fraction
from math import gcd, isqrt

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


# -- the scalar kernel against (Fraction re, Fraction im) pairs ---------------
#
# +, - and * take shortcuts when both denominators are 1, when they are
# equal, and when both operands are real.  The operands below are drawn to
# take each of them, with numerators and denominators above 2^64 too.

BIG = 2**64
# Primes, so that any numerator not divisible by one keeps it as d.
DENOMINATORS = (2, 3, 5, 7, 2**61 - 1, 2**89 - 1)
numerators = st.one_of(st.integers(-9, 9), st.integers(BIG, 4 * BIG), st.integers(-4 * BIG, -BIG))


def assert_canonical(z):
    """gcd(a, b, d) = 1 and d > 0, zero as (0, 0, 1), and a real value
    hashing like its Fraction."""
    assert z.__class__ is GaussianRational
    assert all(type(x) is int for x in (z.a, z.b, z.d))
    assert z.d > 0 and gcd(gcd(z.a, z.b), z.d) == 1
    if z.a == 0 and z.b == 0:
        assert z.d == 1
    if z.b == 0:
        assert hash(z) == hash(Fraction(z.a, z.d))


@st.composite
def scalars_over(draw, d: int):
    """(a + b*i)/d in lowest terms with this very d: a is prime to d, or
    zero when d = 1.  b = 0 (a real value) half the time."""
    a = draw(numerators)
    if d > 1:
        a = a * d + draw(st.integers(1, d - 1))
    b = draw(st.one_of(st.just(0), numerators))
    z = GaussianRational._raw(a, b, d)
    assert z.d == d
    return z


@st.composite
def kernel_operands(draw):
    """Pairs on each branch: d = 1 on both sides, one equal d > 1, two
    different d."""
    kind = draw(st.sampled_from(("integral", "same_d", "different_d")))
    if kind == "integral":
        d, e = 1, 1
    elif kind == "same_d":
        d = e = draw(st.sampled_from(DENOMINATORS))
    else:
        d, e = draw(st.lists(st.sampled_from((1,) + DENOMINATORS), min_size=2, max_size=2, unique=True))
    return draw(scalars_over(d)), draw(scalars_over(e))


kernel_scalars = st.one_of(st.sampled_from((1,) + DENOMINATORS).flatmap(scalars_over), st.just(GR_ZERO))

REFERENCE_OPS = {
    "+": (lambda x, y: x + y, lambda p, q: (p[0] + q[0], p[1] + q[1])),
    "-": (lambda x, y: x - y, lambda p, q: (p[0] - q[0], p[1] - q[1])),
    "*": (lambda x, y: x * y, lambda p, q: (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])),
}


@given(kernel_operands(), st.sampled_from(sorted(REFERENCE_OPS)))
@settings(max_examples=400, deadline=None)
def test_scalar_kernel_matches_the_fraction_reference(pair, op):
    x, y = pair
    scalar_op, reference_op = REFERENCE_OPS[op]
    re, im = reference_op((x.re, x.im), (y.re, y.im))
    for z in (scalar_op(x, y), scalar_op(y, x)):
        assert_canonical(z)
    z = scalar_op(x, y)
    assert (z.re, z.im) == (re, im)


@given(kernel_scalars, st.one_of(st.integers(-BIG, BIG), st.fractions(max_denominator=BIG)))
@settings(max_examples=200, deadline=None)
def test_scalar_kernel_coerces_ints_and_fractions_on_either_side(x, q):
    re, im = x.re, x.im
    for got, want in (
        (x + q, (re + q, im)),
        (q + x, (re + q, im)),
        (x - q, (re - q, im)),
        (q - x, (q - re, -im)),
        (x * q, (re * q, im * q)),
        (q * x, (re * q, im * q)),
    ):
        assert_canonical(got)
        assert (got.re, got.im) == want


@given(numerators, st.one_of(st.just(0), numerators))
@settings(max_examples=100, deadline=None)
def test_constructor_takes_gaussian_integers_as_they_are(a, b):
    z = GaussianRational(a, b)
    assert_canonical(z)
    assert (z.a, z.b, z.d) == (a, b, 1)
    assert z == GaussianRational(Fraction(a), Fraction(b))


def test_constructor_reads_bools_as_ints():
    for z in (GaussianRational(True), GaussianRational(False, True)):
        assert_canonical(z)
    assert (GaussianRational(True), GaussianRational(False, True)) == (GR_ONE, GR_I)


@pytest.mark.parametrize(
    "x, y",
    [
        (GaussianRational(3, -4), GaussianRational(-3, 4)),  # integral sum zero
        (GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(1, 2))),  # equal d, sum integral
        (GaussianRational(Fraction(1, 6), Fraction(1, 6)), GaussianRational(Fraction(1, 6), Fraction(5, 6))),
        (GaussianRational(Fraction(1, 2), Fraction(1, 2)), GaussianRational(1, -1)),  # (1+i)(1-i)/2 = 1
        (GaussianRational(BIG), GaussianRational(Fraction(1, BIG))),
        (GR_ZERO, GaussianRational(Fraction(7, 3), 1)),
    ],
)
def test_scalar_kernel_reduces_at_hand_values(x, y):
    for z in (x + y, x - y, y - x, x * y):
        assert_canonical(z)
    assert (x + y, x - y, x * y) == (
        GaussianRational(x.re + y.re, x.im + y.im),
        GaussianRational(x.re - y.re, x.im - y.im),
        GaussianRational(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re),
    )


def test_scalar_kernel_refuses_other_types():
    with pytest.raises(TypeError):
        GR_ONE + 1.5
    with pytest.raises(TypeError):
        "1" * GR_I


def complex_quotient(p, q):
    """(p0 + p1 i) / (q0 + q1 i) over Fractions."""
    n = q[0] * q[0] + q[1] * q[1]
    return (p[0] * q[0] + p[1] * q[1]) / n, (p[1] * q[0] - p[0] * q[1]) / n


@given(kernel_operands())
@settings(max_examples=300, deadline=None)
def test_division_and_equality_match_the_fraction_reference(pair):
    x, y = pair
    for u, v in ((x, y), (y, x)):
        if v:
            z = u / v
            assert_canonical(z)
            assert (z.re, z.im) == complex_quotient((u.re, u.im), (v.re, v.im))
        else:
            with pytest.raises(ZeroDivisionError):
                u / v
    same = (x.re, x.im) == (y.re, y.im)
    assert (x == y, y == x, x != y) == (same, same, not same)
    assert x == GaussianRational._raw(x.a, x.b, x.d) and hash(x) == hash(GaussianRational._raw(x.a, x.b, x.d))


@given(kernel_scalars, st.one_of(st.integers(-BIG, BIG), st.fractions(max_denominator=BIG)))
@settings(max_examples=200, deadline=None)
def test_division_and_equality_coerce_ints_and_fractions_on_either_side(x, q):
    re, im = x.re, x.im
    if q:
        assert_canonical(x / q)
        assert ((x / q).re, (x / q).im) == (re / q, im / q)
    if x:
        assert_canonical(q / x)
        assert ((q / x).re, (q / x).im) == complex_quotient((Fraction(q), 0), (re, im))
    assert_canonical(x.__rsub__(q))
    assert (x.__rsub__(q).re, x.__rsub__(q).im) == (q - re, -im)
    same = (re, im) == (q, 0)
    assert (x == q, q == x, x != q) == (same, same, not same)
    if same:
        assert hash(x) == hash(q)
    real = GaussianRational(q)
    assert real == q and q == real and hash(real) == hash(q)


def test_division_subtraction_and_equality_refuse_other_types():
    for x in (GR_ZERO, GR_ONE, GR_I, GaussianRational(Fraction(1, 2))):
        assert x.__truediv__(1.5) is NotImplemented
        assert x.__rtruediv__("1") is NotImplemented
        assert x.__rsub__(1.5) is NotImplemented
        assert x.__eq__("1") is NotImplemented
        assert x.__eq__(0.5) is NotImplemented
        assert not x == 0.5 and x != 0.5
        assert not x == "1" and x != "1"
        with pytest.raises(TypeError):
            x / 1.5
        with pytest.raises(TypeError):
            "1" / x
        with pytest.raises(TypeError):
            "1" - x


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


@pytest.mark.parametrize("data", [5, "12"])
def test_poly_from_json_requires_a_list(data):
    """A bare string is not read as its characters: "12" is not 1 + 2t."""
    with pytest.raises(ValueError, match="JSON list of coefficients"):
        Polynomial.from_json(data)


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
