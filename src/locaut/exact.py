"""Exact scalars: Gaussian rationals and dense polynomials.

GaussianRational is the workhorse scalar of the whole package.  It stores
(a + b*i)/d as three machine-unbounded ints with gcd(a, b, d) == 1 and d > 0,
which keeps the inner loops of Gaussian elimination roughly an order of
magnitude faster than a pair of fractions.Fraction would be.  +, -, *, /
and == take a GaussianRational operand as it is, with no coercion.  Every
+, - and * reduces its result once, and not at all when it is a Gaussian
integer: with d = 1 on both sides the result is built with no gcd (a real
product also skips the cross terms), and equal denominators add the
numerators over that one d.  linalg's dot product reduces a whole sum once.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, isqrt

class InternalCheckError(Exception):
    """An internal consistency check failed: a bug in this package, never bad
    input.  Raised explicitly so that `python -O` cannot strip the check."""


def internal_check(cond, msg: str) -> None:
    if not cond:
        raise InternalCheckError(msg)


class GaussianRational:
    """An element of Q(i), stored as (a + b*i)/d in lowest terms."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if re.__class__ is int and im.__class__ is int:
            self.a = re
            self.b = im
            self.d = 1
            return
        re = Fraction(re)
        im = Fraction(im)
        den = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        a = re.numerator * (den // re.denominator)
        b = im.numerator * (den // im.denominator)
        g = gcd(gcd(abs(a), abs(b)), den)
        self.a = a // g
        self.b = b // g
        self.d = den // g

    @classmethod
    def _raw(cls, a: int, b: int, d: int) -> "GaussianRational":
        # Caller guarantees nothing; normalize cheaply with one gcd chain.
        if d < 0:
            a, b, d = -a, -b, -d
        g = gcd(gcd(a, b), d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        z = object.__new__(cls)
        z.a = a
        z.b = b
        z.d = d
        return z

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_one(self) -> bool:
        return self.a == self.d and self.b == 0

    def inverse(self) -> "GaussianRational":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero in Q(i)")
        return GaussianRational._raw(self.d * self.a, -self.d * self.b, n)

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _integral(self.a + other.a, self.b + other.b)
            return GaussianRational._raw(self.a + other.a, self.b + other.b, d)
        return GaussianRational._raw(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        d, e = self.d, other.d
        if d == e:
            if d == 1:
                return _integral(self.a - other.a, self.b - other.b)
            return GaussianRational._raw(self.a - other.a, self.b - other.b, d)
        return GaussianRational._raw(self.a * e - other.a * d, self.b * e - other.b * d, d * e)

    def __rsub__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return other - self

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        if b or e:
            re, im = a * c - b * e, a * e + b * c
        else:
            re, im = a * c, 0
        d = self.d * other.d
        if d == 1:
            return _integral(re, im)
        return GaussianRational._raw(re, im, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        z = object.__new__(GaussianRational)
        z.a = -self.a
        z.b = -self.b
        z.d = self.d
        return z

    def sqrt(self) -> "GaussianRational | None":
        """Canonical exact square root in Q(i), or None if none exists.

        Canonical means positive real part, or zero real part with
        non-negative imaginary part.
        """
        a, b, d = self.a, self.b, self.d
        if b == 0:
            # gcd(a, d) = 1, so a/d is a square iff |a| and d are
            ra, rd = isqrt(abs(a)), isqrt(d)
            if ra * ra != abs(a) or rd * rd != d:
                return None
            return GaussianRational._raw(ra, 0, rd) if a >= 0 else GaussianRational._raw(0, ra, rd)
        # |self| = s/d with s^2 = a^2 + b^2; the real part of the root is
        # c = sqrt((a + s)/(2d)) = p/q, and its imaginary part b/(2dc)
        s = isqrt(a * a + b * b)
        if s * s != a * a + b * b:
            return None
        g = gcd(a + s, 2 * d)
        num, den = (a + s) // g, 2 * d // g
        p, q = isqrt(num), isqrt(den)
        if p * p != num or q * q != den:
            return None
        w = GaussianRational._raw(2 * d * p * p, b * q * q, 2 * d * p * q)
        internal_check(w * w == self, "square root does not square back")
        return w

    def __eq__(self, other):
        if other.__class__ is not GaussianRational:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.a == other.a and self.b == other.b and self.d == other.d

    def __hash__(self):
        if self.b == 0:
            return hash(Fraction(self.a, self.d))
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


def _integral(a: int, b: int) -> GaussianRational:
    """The Gaussian integer a + b*i: d = 1 is lowest terms, so no gcd."""
    z = object.__new__(GaussianRational)
    z.a = a
    z.b = b
    z.d = 1
    return z


def as_scalar(x) -> GaussianRational:
    """x as a GaussianRational: returned as is, or converted (int, Fraction,
    or any string Fraction accepts)."""
    return x if isinstance(x, GaussianRational) else GaussianRational(x)


def _coerce(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussianRational(x)
    return NotImplemented


GR_ZERO = GaussianRational(0)
GR_ONE = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_scalar(z: GaussianRational) -> str:
    """Canonical string form: "a/b", "c/d*i" or "a/b+c/d*i"."""
    z = _coerce(z)
    if z.b == 0:
        return _format_fraction(z.re)
    im_part = _format_fraction(abs(z.im)) + "*i"
    if z.a == 0:
        return im_part if z.b > 0 else "-" + im_part
    sign = "+" if z.b > 0 else "-"
    return _format_fraction(z.re) + sign + im_part


_TERM_RE = _re.compile(r"^[+-]?(\d+(/\d+)?(\*?i)?|i)$")


def parse_scalar(text: str) -> GaussianRational:
    """Parse "a/b", "a/b+c/d*i" and common variants ("i", "2i", "-3/4i")."""
    if not isinstance(text, str):
        raise ValueError(f'scalar must be a string such as "1/2+3*i", got {text!r}')
    s = text.strip().replace(" ", "")
    if not s:
        raise ValueError(f"empty scalar string: {text!r}")
    # Split into signed terms; signs only occur at term boundaries since
    # there is no exponent syntax.
    terms: list[str] = []
    start = 0
    for j in range(1, len(s)):
        if s[j] in "+-" and s[j - 1] not in "+-*/":
            terms.append(s[start:j])
            start = j
    terms.append(s[start:])
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    try:
        for term in terms:
            if not _TERM_RE.match(term):
                raise ValueError(f"bad scalar term {term!r} in {text!r}")
            if term.endswith("i"):
                if seen_im:
                    raise ValueError(f"repeated imaginary part in {text!r}")
                seen_im = True
                body = term[:-1].rstrip("*")
                if body in ("", "+"):
                    im_part = Fraction(1)
                elif body == "-":
                    im_part = Fraction(-1)
                else:
                    im_part = Fraction(body)
            else:
                if seen_re:
                    raise ValueError(f"repeated real part in {text!r}")
                seen_re = True
                re_part = Fraction(term)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    return GaussianRational(re_part, im_part)


def json_fields(data, what: str, keys) -> tuple:
    """The values at keys of data, which must be a JSON object holding them
    all; anything else raises ValueError naming what is wrong."""
    if not isinstance(data, dict):
        names = ", ".join(f'"{k}"' for k in keys)
        raise ValueError(f"{what} must be a JSON object with keys {names}")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{what} is missing {', '.join(repr(k) for k in missing)}")
    return tuple(data[k] for k in keys)


class Polynomial:
    """Dense univariate polynomial over Q(i), coefficients constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        # Zero polynomial reports degree -1.
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def leading(self) -> GaussianRational:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        inv = self.leading().inverse()
        return Polynomial(tuple(c * inv for c in self.coeffs))

    def __add__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            tuple(
                (self.coeffs[k] if k < len(self.coeffs) else GR_ZERO)
                + (other.coeffs[k] if k < len(other.coeffs) else GR_ZERO)
                for k in range(n)
            )
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return Polynomial(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return Polynomial()
        out = [GR_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for j, cj in enumerate(self.coeffs):
            if cj.is_zero():
                continue
            for k, ck in enumerate(other.coeffs):
                out[j + k] = out[j + k] + cj * ck
        return Polynomial(tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [GR_ZERO] * max(0, len(rem) - len(other.coeffs) + 1)
        inv_lead = other.leading().inverse()
        for k in range(len(rem) - len(other.coeffs), -1, -1):
            c = rem[k + len(other.coeffs) - 1] * inv_lead
            q[k] = c
            if not c.is_zero():
                for j, oc in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * oc
        return Polynomial(tuple(q)), Polynomial(tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        other = _coerce_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Polynomial({[str(c) for c in self.coeffs]})"

    def to_json(self) -> list[str]:
        return [format_scalar(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data) -> "Polynomial":
        if not isinstance(data, list):
            raise ValueError("polynomial must be a JSON list of coefficients, constant first")
        return cls(tuple(parse_scalar(c) for c in data))


def _coerce_poly(x) -> Polynomial:
    if isinstance(x, Polynomial):
        return x
    if isinstance(x, (int, Fraction, GaussianRational)):
        return Polynomial((x,))
    return NotImplemented
