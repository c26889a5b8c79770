"""Coordinate model of sl_n over Q(i) and canonical preserver shapes.

Basis order is fixed everywhere: root vectors e_ij (i != j) in lexicographic
order of (i, j), then the simple-coroot Cartan elements h_k = E_kk - E_k+1,k+1.
Linear maps on sl_n are (n^2-1) x (n^2-1) matrices in these coordinates.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import StructureAlgebra
from .exact import GR_ZERO, as_scalar, internal_check, json_fields
from .linalg import Matrix, Subspace, inverse, matrix_from_flat


def _unit_matrix(n: int, i: int, j: int) -> Matrix:
    return Matrix(tuple(tuple(1 if (r, c) == (i, j) else 0 for c in range(n)) for r in range(n)))


class MatrixModel:
    """Linear maps on n x n matrices in an ordered basis.  Subclasses set n,
    dim and basis and define coords and its inverse, matrix."""

    @cached_property
    def _index(self) -> dict:
        """The index of each basis element in the basis."""
        return {b: k for k, b in enumerate(self.basis)}

    @cached_property
    def transpose_index(self) -> tuple:
        """transpose_index[k] is the index of basis[k].T in the basis."""
        return tuple(self._index[b.T] for b in self.basis)

    @cached_property
    def generator_indices(self) -> tuple:
        """Basis indices of e_k,k+1 and e_k+1,k for k < n - 1, in that order.
        On sl_n they are the Chevalley generators, which generate it under
        the bracket."""
        return tuple(
            self._index[_unit_matrix(self.n, *pair)] for k in range(self.n - 1) for pair in ((k, k + 1), (k + 1, k))
        )

    @cached_property
    def corner_index(self) -> int:
        """Basis index of the corner e_n,1 (0-based E_n-1,0): the lowest root
        vector on sl_n, and the unit matrix on M_1."""
        return self._index[_unit_matrix(self.n, self.n - 1, 0)]

    def map_matrix(self, f) -> Matrix:
        """Coordinate matrix of the linear map x -> f(x)."""
        cols = [self.coords(f(b)) for b in self.basis]
        return Matrix(zip(*cols))

    def apply_map(self, d: Matrix, x: Matrix) -> Matrix:
        return self.matrix(d.apply(self.coords(x)))

    def identity_map(self) -> Matrix:
        return Matrix.identity(self.dim)

    def scalar_map(self, lam) -> Matrix:
        return self.map_matrix(lambda x: x * lam)

    def transpose_map(self) -> Matrix:
        return self.map_matrix(lambda x: x.T)


class SlnModel(MatrixModel):
    """sl_n with a fixed ordered basis and exact coordinate maps."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("sl_n needs n >= 2")
        self.n = n
        self.dim = n * n - 1
        self.off_pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
        self.labels = [f"e{i+1}{j+1}" for i, j in self.off_pairs] + [
            f"h{k+1}" for k in range(n - 1)
        ]
        basis = [_unit_matrix(n, i, j) for i, j in self.off_pairs]
        for k in range(n - 1):
            basis.append(_unit_matrix(n, k, k) - _unit_matrix(n, k + 1, k + 1))
        self.basis = tuple(basis)
        self._off_index = {pair: a for a, pair in enumerate(self.off_pairs)}
        # Filled on first use, so that building a model stays cheap.
        self._h0 = None
        self._square_zero = None
        self._structure = None

    def e(self, i: int, j: int) -> Matrix:
        """Root vector E_ij (1-indexed arguments not used: i, j are 0-based)."""
        return self.basis[self._off_index[(i, j)]]

    def h(self, k: int) -> Matrix:
        return self.basis[len(self.off_pairs) + k]

    def coords(self, x: Matrix):
        if x.nrows != self.n or x.ncols != self.n:
            raise ValueError("matrix has wrong size for this model")
        if not x.trace().is_zero():
            raise ValueError("matrix is not traceless")
        out = [x[i, j] for i, j in self.off_pairs]
        partial = GR_ZERO
        for k in range(self.n - 1):
            partial = partial + x[k, k]
            out.append(partial)
        return tuple(out)

    def matrix(self, v) -> Matrix:
        """Inverse of coords: off-diagonal entries in place, then the diagonal
        entry k is h_k - h_(k-1), and the last one is -h_(n-1)."""
        if len(v) != self.dim:
            raise ValueError("coordinate vector has wrong length")
        n = self.n
        v = [as_scalar(x) for x in v]
        rows = [[GR_ZERO] * n for _ in range(n)]
        for (i, j), c in zip(self.off_pairs, v):
            rows[i][j] = c
        prev = GR_ZERO
        for k, c in enumerate(v[len(self.off_pairs):]):
            rows[k][k] = c - prev
            prev = c
        rows[n - 1][n - 1] = -prev
        return Matrix._of_rows(tuple(map(tuple, rows)))

    @staticmethod
    def bracket(x: Matrix, y: Matrix) -> Matrix:
        return x @ y - y @ x

    def structure_algebra(self) -> StructureAlgebra:
        """The structure constants of sl_n in this basis, built once per model."""
        if self._structure is None:
            table = [
                [self.coords(self.bracket(a, b)) for b in self.basis]
                for a in self.basis
            ]
            self._structure = StructureAlgebra(self.dim, self.labels, table)
        return self._structure

    # -- roots -------------------------------------------------------------

    def strongly_regular_element(self) -> Matrix:
        """diag(4, 4^2, ..., 4^n) minus its trace average; verified regular
        once per model."""
        if self._h0 is None:
            powers = [4 ** (k + 1) for k in range(self.n)]
            avg = Fraction(sum(powers), self.n)
            h0 = Matrix.diagonal([Fraction(p) - avg for p in powers])
            internal_check(self.is_strongly_regular(h0), "h0 is not strongly regular")
            self._h0 = h0
        return self._h0

    def is_strongly_regular(self, h: Matrix) -> bool:
        """Diagonal with nonzero, pairwise-distinct root values alpha_ij(h) =
        h_ii - h_jj.  Nonzero root values already make the centralizer the
        Cartan: ad h scales e_ij by alpha_ij(h) and kills the diagonal."""
        if not h.is_diagonal():
            return False
        values = [h[i, i] - h[j, j] for i, j in self.off_pairs]
        if any(v.is_zero() for v in values):
            return False
        return len({(v.a, v.b, v.d) for v in values}) == len(values)

    # -- square-zero elements ---------------------------------------------

    def square_zero_spanning_set(self):
        """Square-zero matrices spanning sl_n: the e_ij plus rank-one fills.

        The fills are (E_k + E_k+1)(E_k - E_k+1)^T, which recover the Cartan
        directions modulo off-diagonal terms.  The first dim - (n - 1)
        elements are the root vectors in basis order.  Built and verified
        once per model.
        """
        if self._square_zero is None:
            out = [self.e(i, j) for i, j in self.off_pairs]
            for k in range(self.n - 1):
                m = (
                    _unit_matrix(self.n, k, k)
                    - _unit_matrix(self.n, k, k + 1)
                    + _unit_matrix(self.n, k + 1, k)
                    - _unit_matrix(self.n, k + 1, k + 1)
                )
                internal_check((m @ m).is_zero(), "Cartan fill does not square to zero")
                out.append(m)
            span = Subspace(self.dim, [self.coords(m) for m in out])
            internal_check(span.dim == self.dim, "square-zero set does not span sl_n")
            self._square_zero = tuple(out)
        return self._square_zero


class MnModel(MatrixModel):
    """Full matrix algebra M_n with flattened row-major coordinates."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("M_n needs n >= 1")
        self.n = n
        self.dim = n * n
        self.basis = tuple(
            _unit_matrix(n, i, j) for i in range(n) for j in range(n)
        )
        self.labels = [f"e{i+1}{j+1}" for i in range(n) for j in range(n)]

    def coords(self, x: Matrix):
        if x.nrows != self.n or x.ncols != self.n:
            raise ValueError("matrix has wrong size for this model")
        return x.flatten()

    def matrix(self, v) -> Matrix:
        return matrix_from_flat([as_scalar(x) for x in v], self.n)


SIGMA_ID = "identity"
SIGMA_T = "transpose"

# Fit order is part of the observable contract: families are tried in this
# sequence and the first invertible fit wins.
SHAPE_FAMILIES = ((1, SIGMA_ID), (1, SIGMA_T), (-1, SIGMA_ID), (-1, SIGMA_T))
# Aut(sl_n) is x -> a x a^-1 together with x -> -a x^T a^-1.
AUTOMORPHISM_FAMILIES = ((1, SIGMA_ID), (-1, SIGMA_T))


@dataclass(frozen=True)
class CanonicalShape:
    """x -> epsilon * a * sigma(x) * a^-1 with sigma identity or transpose."""

    epsilon: int
    sigma: str
    a: Matrix

    def __post_init__(self):
        if type(self.epsilon) is not int or self.epsilon not in (1, -1):
            raise ValueError("epsilon must be the int 1 or -1")
        if self.sigma not in (SIGMA_ID, SIGMA_T):
            raise ValueError(f"unknown sigma {self.sigma!r}")

    @cached_property
    def _outer_factors(self) -> tuple:
        """The columns of a and the rows of epsilon a^-1, as tuples."""
        inv = inverse(self.a)
        return self.a.T.data, (inv if self.epsilon == 1 else -inv).data

    def apply(self, x: Matrix) -> Matrix:
        """epsilon a sigma(x) a^-1.  a E_ij a^-1 is the outer product of
        column i of a and row j of a^-1, so each nonzero entry of sigma(x)
        costs n^2 products."""
        cols, rows = self._outer_factors
        if x.nrows != len(cols) or x.ncols != len(cols):
            raise ValueError("matrix has wrong size for this shape")
        zero_row = (GR_ZERO,) * len(cols)
        out = None
        for i, x_row in enumerate((x.T if self.sigma == SIGMA_T else x).data):
            for j, c in enumerate(x_row):
                if c.a or c.b:
                    term = Matrix._of_rows(
                        tuple(tuple(u * y for y in rows[j]) if u.a or u.b else zero_row for u in cols[i])
                    )
                    term = term if c.is_one() else term * c
                    out = term if out is None else out + term
        return Matrix.zeros(len(cols), len(cols)) if out is None else out

    def is_automorphism_family(self) -> bool:
        return (self.epsilon, self.sigma) in AUTOMORPHISM_FAMILIES

    def to_json(self):
        return {"epsilon": self.epsilon, "sigma": self.sigma, "a": self.a.to_json()}

    @classmethod
    def from_json(cls, data) -> "CanonicalShape":
        epsilon, sigma, a = json_fields(data, "shape", ("epsilon", "sigma", "a"))
        return cls(epsilon, sigma, Matrix.from_json(a))


def shape_map_matrix(model: MatrixModel, shape: CanonicalShape) -> Matrix:
    return model.map_matrix(shape.apply)
