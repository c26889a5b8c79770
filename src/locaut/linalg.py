"""Exact dense linear algebra over Q(i).

Matrices are immutable tuples of rows of canonical GaussianRational.
Products and matrix-vector products go through one dot product, _dot,
which sums the numerators over a running common denominator and reduces
once per entry; a Gaussian-integer entry takes no gcd at all.  Row
operations skip the entries that a zero multiplier leaves as they are.

One elimination runs modulo a prime p = 1 (mod 4), with i sent to a
square root of -1 (_echelon_mod_p).  is_nonsingular decides det != 0
with it before Q(i), and certified_kernel finds kernel
vectors with it, reconstructs them as Gaussian rationals and keeps them
only once m v = 0 holds exactly; both fall back to Q(i) when the residues
settle nothing.  Every other elimination is plain Gauss-Jordan over Q(i)
with division: Q(i) is a field and the triple-of-ints scalar keeps entries
normalized, so fraction-free pivoting buys nothing here.

conjugator builds a similarity witness a (y a = a x) from Krylov
matrices, one candidate per first row of a (proof in its docstring); the
stacked n^2 x n^2 intertwiner system is solved only when no unit vector is
cyclic for x or e_1 is not cyclic for y^T.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import gcd, isqrt

from .exact import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    Polynomial,
    _integral,
    as_scalar,
    format_scalar,
    internal_check,
    parse_scalar,
)

Vector = tuple


class Matrix:
    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, rows):
        data = tuple(tuple(as_scalar(x) for x in row) for row in rows)
        if not data:
            raise ValueError("matrix needs at least one row")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        self.data = data
        self.nrows = len(data)
        self.ncols = ncols

    @classmethod
    def _of_rows(cls, data) -> "Matrix":
        """The matrix on data, a tuple of equal-length tuples of
        GaussianRational, taken as is: results of the arithmetic below."""
        if not data:
            raise ValueError("matrix needs at least one row")
        m = object.__new__(cls)
        m.data = data
        m.nrows = len(data)
        m.ncols = len(data[0])
        return m

    @classmethod
    def zeros(cls, r: int, c: int) -> "Matrix":
        return cls._of_rows(((GR_ZERO,) * c,) * r)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls.diagonal([GR_ONE] * n)

    @classmethod
    def diagonal(cls, entries) -> "Matrix":
        es = [as_scalar(x) for x in entries]
        n = len(es)
        return cls._of_rows(tuple(tuple(es[i] if i == j else GR_ZERO for j in range(n)) for i in range(n)))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int):
        return tuple(r[j] for r in self.data)

    @property
    def T(self) -> "Matrix":
        return Matrix._of_rows(tuple(zip(*self.data)))

    def trace(self) -> GaussianRational:
        if self.nrows != self.ncols:
            raise ValueError("trace of non-square matrix")
        acc = GR_ZERO
        for i in range(self.nrows):
            acc = acc + self.data[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_diagonal(self) -> bool:
        return all(x.is_zero() for i, row in enumerate(self.data) for j, x in enumerate(row) if i != j)

    def flatten(self):
        return tuple(x for row in self.data for x in row)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix._of_rows(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return Matrix._of_rows(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.data, other.data)
            )
        )

    def __neg__(self):
        return Matrix._of_rows(tuple(tuple(-a for a in row) for row in self.data))

    def __mul__(self, scalar):
        s = as_scalar(scalar)
        return Matrix._of_rows(tuple(tuple(a * s for a in row) for row in self.data))

    __rmul__ = __mul__

    def __matmul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matmul")
        cols = tuple(zip(*other.data))
        return Matrix._of_rows(tuple(tuple([_dot(row, col) for col in cols]) for row in self.data))

    def apply(self, v):
        """Matrix times coordinate vector."""
        if len(v) != self.ncols:
            raise ValueError("vector length mismatch")
        return tuple([_dot(row, v) for row in self.data])

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x) for x in row) for row in self.data)
        return f"Matrix[{body}]"

    def to_json(self):
        return [[format_scalar(x) for x in row] for row in self.data]

    @classmethod
    def from_json(cls, data) -> "Matrix":
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError("matrix must be a JSON list of rows")
        return cls(tuple(tuple(parse_scalar(x) for x in row) for row in data))


def _dot(u, v) -> GaussianRational:
    """sum_k u[k] v[k], reduced once.

    The numerators of the nonzero terms are summed over a running common
    denominator: a term whose denominator equals it adds at once, any other
    costs one gcd to reach the lcm of the two.  A Gaussian-integer sum is
    built with no gcd at all.
    """
    sa = sb = 0
    sd = 1
    for x, y in zip(u, v):
        xa, xb = x.a, x.b
        if not (xa or xb):
            continue
        ya, yb = y.a, y.b
        if not (ya or yb):
            continue
        if xb or yb:
            ta, tb = xa * ya - xb * yb, xa * yb + xb * ya
        else:
            ta, tb = xa * ya, 0
        td = x.d * y.d
        if td == sd:
            sa += ta
            sb += tb
        else:
            g = gcd(sd, td)
            m, k = td // g, sd // g
            sa = sa * m + ta * k
            sb = sb * m + tb * k
            sd *= m
    if sd == 1:
        return _integral(sa, sb)
    return GaussianRational._raw(sa, sb, sd)


def _rref_in_place(rows: list, ncols: int):
    """Reduced row echelon form; returns pivot column list."""
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            e = rows[i][c]
            if e.a or e.b:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = prow = [x * inv if x.a or x.b else x for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            f = rows[i][c]
            if f.a or f.b:
                ri = rows[i]
                rows[i] = [x - f * p if p.a or p.b else x for x, p in zip(ri, prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


class Subspace:
    """A subspace of Q(i)^n held in a canonical reduced-echelon basis."""

    __slots__ = ("ambient", "basis")

    def __init__(self, ambient: int, vectors):
        rows = [[as_scalar(x) for x in v] for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector has wrong ambient dimension")
        if rows:
            _rref_in_place(rows, ambient)
        basis = [tuple(r) for r in rows if any(x.a or x.b for x in r)]
        self.ambient = ambient
        self.basis = tuple(basis)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def reduce(self, v):
        """(coeffs, residual) with v = sum coeffs[k] * basis[k] + residual.

        The residual vanishes at every pivot column, so it is zero exactly
        when v lies in the subspace.
        """
        v = [as_scalar(x) for x in v]
        coeffs = []
        for row in self.basis:
            p = next(j for j, x in enumerate(row) if x.a or x.b)
            f = v[p]
            coeffs.append(f)
            if f.a or f.b:
                v = [x - f * y if y.a or y.b else x for x, y in zip(v, row)]
        return tuple(coeffs), tuple(v)

    def contains(self, v) -> bool:
        if len(v) != self.ambient:
            return False
        return not any(x.a or x.b for x in self.reduce(v)[1])

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ambient == other.ambient and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient})"


def kernel(m: Matrix) -> Subspace:
    rows = [list(r) for r in m.data]
    pivots = _rref_in_place(rows, m.ncols)
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [GR_ZERO] * m.ncols
        v[f] = GR_ONE
        for r, p in enumerate(pivots):
            v[p] = -rows[r][f]
        basis.append(tuple(v))
    return Subspace(m.ncols, basis)


def solve_linear(a: Matrix, b) -> Vector | None:
    """One exact solution of a x = b (free variables set to 0), or None."""
    rows = [list(r) + [as_scalar(x)] for r, x in zip(a.data, b)]
    if len(b) != a.nrows:
        raise ValueError("right-hand side has wrong length")
    pivots = _rref_in_place(rows, a.ncols + 1)
    if a.ncols in pivots:
        return None
    x = [GR_ZERO] * a.ncols
    for r, p in enumerate(pivots):
        x[p] = rows[r][a.ncols]
    return tuple(x)


def det(m: Matrix) -> GaussianRational:
    if not m.is_square():
        raise ValueError("determinant of non-square matrix")
    rows = [list(r) for r in m.data]
    n = m.nrows
    acc = GR_ONE
    sign = 1
    for c in range(n):
        pr = None
        for i in range(c, n):
            e = rows[i][c]
            if e.a or e.b:
                pr = i
                break
        if pr is None:
            return GR_ZERO
        if pr != c:
            rows[c], rows[pr] = rows[pr], rows[c]
            sign = -sign
        piv = rows[c][c]
        acc = acc * piv
        inv = piv.inverse()
        for i in range(c + 1, n):
            f = rows[i][c]
            if f.a or f.b:
                f = f * inv
                rows[i] = [x - f * p if p.a or p.b else x for x, p in zip(rows[i], rows[c])]
    return acc if sign == 1 else -acc


# p = 2^61 - 31 is prime and p = 1 (mod 4), so -1 has a square root R mod p.
_P = 2305843009213693921
_R = 583529827753931384
# A residue is the image of at most one fraction a/b with |a|, b <= this.
_RECONSTRUCTION_BOUND = isqrt(_P // 2)


def _echelon_mod_p(m: Matrix, root: int):
    """(rows, pivots) for the image of m in F_p under i -> root, or None
    when p divides some denominator.

    With root^2 = -1, (a + b i)/d -> (a + b root) d^-1 is a ring map from the
    Gaussian rationals whose denominator p does not divide onto F_p, so every
    minor of the image is the image of the same minor of m: the image has
    rank at most rank m, and a full rank is a proof.  Forward elimination
    only: rows[:len(pivots)] is a row echelon form from each row's pivot
    column on, and the entries left of a pivot are stale.
    """
    p = _P
    try:
        rows = [
            [(x.a + x.b * root) * (1 if x.d == 1 else pow(x.d, -1, p)) % p if x.a or x.b else 0 for x in row]
            for row in m.data
        ]
    except ValueError:  # d has no inverse mod p
        return None
    nrows = len(rows)
    pivots = []
    for c in range(m.ncols):
        r = len(pivots)
        k = next((k for k in range(r, nrows) if rows[k][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        pivot = rows[r]
        inv = pow(pivot[c], -1, p)
        tail = pivot[c + 1:]
        for row in rows[r + 1:]:
            f = row[c]
            if f:
                f = f * inv % p
                row[c + 1:] = [(x - f * y) % p for x, y in zip(row[c + 1:], tail)]
        pivots.append(c)
        if r + 1 == nrows:
            break
    return rows, pivots


def is_nonsingular(m: Matrix) -> bool:
    """det m != 0, decided modulo p first.

    A full rank modulo p (see _echelon_mod_p) proves det m != 0 over Q(i).
    A lower rank, or a denominator that p divides, proves nothing, and det
    decides exactly.  The answer never depends on p.
    """
    if not m.is_square():
        raise ValueError("determinant of non-square matrix")
    found = _echelon_mod_p(m, _R)
    return (found is not None and len(found[1]) == m.nrows) or not det(m).is_zero()


def certified_kernel(m: Matrix) -> Subspace:
    """kernel(m), found modulo p and checked exactly.

    A full rank modulo p proves the kernel zero.  Otherwise the reduced
    echelon form under i -> R and under i -> -R gives each entry of the
    kernel basis vectors as two residues, from which _kernel_mod_p
    reconstructs it.  Every reconstructed v must satisfy m v = 0 over Q(i).
    Then the basis is kernel(m)'s: the vector v_f of a free column f has
    v_f[f] = 1 and its other support in pivot columns left of f, so f is a
    free column over Q(i) too; the rank modulo p is at most the exact rank,
    so the free columns are the same; and the reduced echelon kernel basis
    is unique given its free columns.  Any step that fails falls back to
    kernel(m).
    """
    found = _echelon_mod_p(m, _R)
    if found is not None and len(found[1]) == m.ncols:
        return Subspace(m.ncols, ())
    basis = None if found is None else _kernel_mod_p(m, *found)
    return kernel(m) if basis is None else Subspace(m.ncols, basis)


def _reduced_free_columns(rows, pivots, free) -> list:
    """Row r of the reduced echelon form at the free columns, for each
    pivot row r of an echelon form from _echelon_mod_p."""
    p = _P
    rank = len(pivots)
    reduced = [None] * rank
    for r in reversed(range(rank)):
        row, c = rows[r], pivots[r]
        acc = [row[f] if f > c else 0 for f in free]
        for s in range(r + 1, rank):
            g = row[pivots[s]]
            if g:
                acc = [x - g * y for x, y in zip(acc, reduced[s])]
        inv = pow(row[c], -1, p)
        reduced[r] = [x * inv % p for x in acc]
    return reduced


def _kernel_mod_p(m: Matrix, rows, pivots) -> list | None:
    """The reduced echelon kernel basis of m reconstructed from its images
    under i -> R and i -> -R, each vector checked by m v = 0; None when the
    two images have different pivots, a reconstruction fails or a check
    fails.

    An entry x + y i has residues u = x + y R and w = x - y R, so
    x = (u + w)/2 and y = (u - w)/(2 R) modulo p.
    """
    conjugate = _echelon_mod_p(m, _P - _R)
    if conjugate is None or conjugate[1] != pivots:
        return None
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    red_u = _reduced_free_columns(rows, pivots, free)
    red_w = _reduced_free_columns(*conjugate, free)
    p = _P
    half = pow(2, -1, p)
    half_r = pow(2 * _R, -1, p)
    basis = []
    for k, f in enumerate(free):
        v = [GR_ZERO] * m.ncols
        v[f] = GR_ONE
        for c, u_row, w_row in zip(pivots, red_u, red_w):
            u, w = -u_row[k], -w_row[k]
            if not (u or w):
                continue
            x = _rational_mod_p((u + w) * half % p)
            y = _rational_mod_p((u - w) * half_r % p)
            if x is None or y is None:
                return None
            v[c] = GaussianRational(x, y)
        if any(z.a or z.b for z in m.apply(v)):
            return None
        basis.append(tuple(v))
    return basis


def _rational_mod_p(x: int) -> Fraction | None:
    """a/b = x mod p with |a| and |b| at most _RECONSTRUCTION_BOUND and
    gcd(a, b) = 1, or None: Wang's half-extended Euclidean algorithm."""
    bound = _RECONSTRUCTION_BOUND
    r0, r1, t0, t1 = _P, x, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def inverse(m: Matrix) -> Matrix:
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.nrows
    rows = [list(r) + [GR_ONE if i == j else GR_ZERO for j in range(n)] for i, r in enumerate(m.data)]
    pivots = _rref_in_place(rows, 2 * n)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return Matrix._of_rows(tuple(tuple(r[n:]) for r in rows))


def charpoly(m: Matrix) -> Polynomial:
    """Characteristic polynomial det(tI - m), monic, via Faddeev-LeVerrier.

    Exact in characteristic zero: the only divisions are by 1..n.
    """
    if not m.is_square():
        raise ValueError("charpoly of non-square matrix")
    n = m.nrows
    coeffs_desc = [GR_ONE]
    work = Matrix.identity(n)
    for k in range(1, n + 1):
        work = m @ work
        c = -(work.trace() / k)
        coeffs_desc.append(c)
        if k < n:
            work = work + Matrix.diagonal([c] * n)
    return Polynomial(tuple(reversed(coeffs_desc)))


# ---------------------------------------------------------------------------
# Polynomial matrices and invariant factors


def _poly_matrix_char(m: Matrix) -> list:
    """tI - m as a mutable grid of Polynomial entries."""
    n = m.nrows
    grid = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Polynomial((-m.data[i][j], GR_ONE)))
            else:
                row.append(Polynomial((-m.data[i][j],)))
        grid.append(row)
    return grid


def _smith_diagonal(grid: list) -> list:
    """Diagonalize a polynomial matrix in place; returns the diagonal.

    Classic Smith reduction over the Euclidean domain Q(i)[t]: repeatedly move
    a minimal-degree entry to the pivot, kill its row and column with division
    steps, then enforce that the pivot divides the rest of the submatrix.
    """
    nr = len(grid)
    nc = len(grid[0]) if nr else 0
    diag = []
    pos = 0
    while pos < min(nr, nc):
        while True:
            # minimal-degree nonzero entry of the trailing submatrix
            best = None
            for i in range(pos, nr):
                for j in range(pos, nc):
                    e = grid[i][j]
                    if not e.is_zero() and (best is None or e.degree < grid[best[0]][best[1]].degree):
                        best = (i, j)
            if best is None:
                return diag + [Polynomial()] * (min(nr, nc) - pos)
            bi, bj = best
            if bi != pos:
                grid[pos], grid[bi] = grid[bi], grid[pos]
            if bj != pos:
                for row in grid:
                    row[pos], row[bj] = row[bj], row[pos]
            pivot = grid[pos][pos]
            dirty = False
            for i in range(pos + 1, nr):
                if not grid[i][pos].is_zero():
                    q = grid[i][pos] // pivot
                    grid[i] = [a - q * b for a, b in zip(grid[i], grid[pos])]
                    dirty = dirty or not grid[i][pos].is_zero()
            for j in range(pos + 1, nc):
                if not grid[pos][j].is_zero():
                    q = grid[pos][j] // pivot
                    for i in range(nr):
                        grid[i][j] = grid[i][j] - q * grid[i][pos]
                    dirty = dirty or not grid[pos][j].is_zero()
            if dirty:
                continue
            # row and column are clear; enforce divisibility downstream
            offender = None
            for i in range(pos + 1, nr):
                for j in range(pos + 1, nc):
                    if not (grid[i][j] % pivot).is_zero():
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            grid[pos] = [a + b for a, b in zip(grid[pos], grid[offender])]
        diag.append(grid[pos][pos].monic())
        pos += 1
    return diag


def invariant_factors(m: Matrix) -> tuple:
    """Non-unit invariant factors of tI - m, monic, in divisibility order."""
    diag = _smith_diagonal(_poly_matrix_char(m))
    factors = [p for p in diag if p.degree >= 1]
    for p, q in zip(factors, factors[1:]):
        internal_check((q % p).is_zero(), "invariant factor chain broken")
    return tuple(factors)


def negated_factors(factors) -> tuple:
    """Invariant factors of -m (and of -m^T) from those of m.

    tI + m = -((-t)I - m), so each factor p(t) becomes the monic p(-t), in
    the same divisibility order; m^T ~ m gives the same for -m^T.
    """
    return tuple(
        Polynomial(tuple(-c if k % 2 else c for k, c in enumerate(p.coeffs))).monic() for p in factors
    )


# ---------------------------------------------------------------------------
# Intertwiners and similarity


def intertwiner_space(pairs) -> Subspace:
    """All a with A a = a B for every pair (A, B), as a subspace of Q(i)^(n*n).

    One system is solved: the kernel of a -> (A a - a B over every pair), the
    stacked map A (x) I - I (x) B^T on the row-major flattening of a, with
    n^2 rows per pair and n^2 columns.  The kernel comes back in canonical
    form.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    n = pairs[0][0].nrows
    rows = []
    for a, b in pairs:
        if a.nrows != n or a.ncols != n or b.nrows != n or b.ncols != n:
            raise ValueError("pairs must be square matrices of equal size")
        for r in range(n):
            for c in range(n):
                # entry (r, c) of A a - a B: sum_k A[r][k] a[k][c] - a[r][k] B[k][c]
                row = [GR_ZERO] * (n * n)
                for k in range(n):
                    row[k * n + c] = a.data[r][k]
                for k in range(n):
                    row[r * n + k] = row[r * n + k] - b.data[k][c]
                rows.append(tuple(row))
    return kernel(Matrix._of_rows(tuple(rows)))


def combine(coeffs, vectors) -> Vector:
    """sum_k coeffs[k] * vectors[k] over the nonzero Q(i) coefficients and
    vector entries."""
    out = [GR_ZERO] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        if c.a or c.b:
            out = [x + c * y if y.a or y.b else x for x, y in zip(out, v)]
    return tuple(out)


def matrix_from_flat(v, n: int) -> Matrix:
    """The n x n matrix whose rows, read in order, are the GaussianRational
    entries of v."""
    return Matrix._of_rows(tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)))


_RANDOM_TRIES = 64


def _coefficient_tries(k: int, n: int):
    """The coefficient vectors invertible_element tries, in order: for
    k > 3, 64 seeded random points in [-n, n]^k, then the grid {0..n}^k."""
    if k > 3:
        rng = random.Random(0x1E7E57)
        for _ in range(_RANDOM_TRIES):
            yield tuple(rng.randint(-n, n) for _ in range(k))
    yield from product(range(n + 1), repeat=k)


def _first_nonsingular(matrices) -> Matrix:
    m = next((m for m in matrices if is_nonsingular(m)), None)
    internal_check(m is not None, "complete grid holds no invertible element")
    return m


def invertible_element(space: Subspace, n: int) -> Matrix:
    """An invertible n x n matrix inside a subspace of flattened matrices.

    Precondition: the subspace holds one; callers decide that first, so a
    miss is an internal failure.  det is then a nonzero polynomial of total
    degree <= n, so the grid {0..n}^dim is a complete zero test; for
    dim <= 3 it is walked at once.  Beyond that, 64 seeded random points in
    [-n, n]^dim come first (by Schwartz-Zippel all miss with probability
    below 2^-64), so the witness is fixed by the seed whenever one hits.
    """
    k = space.dim
    internal_check(k > 0, "no invertible element in the zero space")
    flats = (combine([GaussianRational(c) for c in coeffs], space.basis) for coeffs in _coefficient_tries(k, n))
    return _first_nonsingular(matrix_from_flat(f, n) for f in flats if any(x.a or x.b for x in f))


def _krylov(m: Matrix, v) -> Matrix:
    """The Krylov matrix [v, m v, ..., m^(n-1) v], by columns."""
    cols = [tuple(v)]
    for _ in range(m.nrows - 1):
        cols.append(m.apply(cols[-1]))
    return Matrix._of_rows(tuple(zip(*cols)))


def cyclic_companion(m: Matrix) -> tuple | None:
    """(K, K^-1, chi_m) for the first unit vector v whose Krylov matrix
    K = [v, m v, ..., m^(n-1) v] is nonsingular, or None when no unit vector
    is cyclic.  v is K's first column.

    K^-1 m K is the companion matrix of chi_m (Hoffman-Kunze, Linear Algebra,
    7.1): its last column c = K^-1 m^n v gives m^n v = sum_k c_k m^k v, so
    chi_m(t) = t^n - sum_k c_k t^k.  A matrix with a cyclic vector is
    nonderogatory, so (chi_m,) is then exactly invariant_factors(m).
    """
    n = m.nrows
    for j in range(n):
        k = _krylov(m, tuple(GR_ONE if i == j else GR_ZERO for i in range(n)))
        if is_nonsingular(k):
            k_inv = inverse(k)
            c = k_inv.apply(m.apply(k.column(n - 1)))
            return k, k_inv, Polynomial(tuple(-x for x in c) + (GR_ONE,))
    return None


def conjugator(x: Matrix, y: Matrix, companion, target_companion) -> Matrix:
    """Invertible a with a x a^-1 = y; precondition: x and y are similar.

    companion is cyclic_companion(x) and target_companion is
    cyclic_companion(y^T).  The witness is invertible_element's first hit in
    the intertwiner space I = {a : y a = a x}, held in its canonical
    reduced-echelon basis.  It is found in one of two ways.

    From the first row, when a unit vector v is cyclic for x and e_1 is
    cyclic for y^T.  An intertwiner sends x^k v to y^k (a v), so
    a = K_y(a v) K_x^-1; conversely every w gives the intertwiner
    K_y(w) K_x^-1, because chi_x(y) = chi_y(y) = 0.  So dim I = n.  The rows
    e_1^T y^k form O = K_{y^T}(e_1)^T, which is invertible, and
    e_1^T y^k a = e_1^T a x^k, so an a in I with first row 0 has O a = 0 and
    is 0: a -> (row 1 of a) is a bijection of I onto Q(i)^n.  Row 1 is the
    first n coordinates of the row-major flattening, so the reduced echelon
    basis of I has its pivots there, and, the reduced echelon form being
    unique, its j-th vector is the a in I with first row e_j.
    invertible_element's candidate for coefficients c != 0 is therefore the
    a in I with first row c: K_y(w) K_x^-1 with e_1^T K_y(w) = c^T K_x, that
    is O w = K_x^T c, or w = (K_x K_{y^T}(e_1)^-1)^T c.  That a is
    invertible iff K_y(w) is, so each try costs n mat-vecs and the hit one
    n x n product, and the same tries in the same order give the same a.

    Otherwise (no unit vector is cyclic for x, or e_1 is not for y^T),
    intertwiner_space solves the n^2 x n^2 system and invertible_element
    searches it.
    """
    n = x.nrows
    if companion is None or target_companion is None or target_companion[0][0, 0] != GR_ONE:  # y^T's v != e_1
        a = invertible_element(intertwiner_space([(y, x)]), n)  # y a = a x, i.e. a x a^-1 = y
    else:
        k_x, k_x_inv, _ = companion
        to_w = (k_x @ target_companion[1]).T
        k_y = _first_nonsingular(
            _krylov(y, to_w.apply([GaussianRational(t) for t in c])) for c in _coefficient_tries(n, n) if any(c)
        )
        a = k_y @ k_x_inv
    internal_check(y @ a == a @ x, "similarity witness does not intertwine")
    return a


def similarity_witness(x: Matrix, y: Matrix) -> Matrix | None:
    """Invertible a with a x a^-1 = y, or None when x and y are not similar.

    Similarity over Q(i) is equivalent to equality of invariant factors, and
    both are insensitive to field extension, so the comparison decides and
    comes first.  Only a similar pair goes on to conjugator.
    """
    if x.nrows != y.nrows or not x.is_square() or not y.is_square():
        raise ValueError("similarity needs square matrices of equal size")
    if invariant_factors(x) != invariant_factors(y):
        return None
    return conjugator(x, y, cyclic_companion(x), cyclic_companion(y.T))
