"""Structure-constant algebras: validation, ideals, quotients, series.

An algebra lives entirely in its table c[i][j] = coordinates of [e_i, e_j].
Elements are coordinate tuples over Q(i).  Nothing here assumes the bracket
is antisymmetric; Leibniz tables go through the same machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact import GR_ONE, GR_ZERO, GaussianRational, format_scalar, parse_scalar
from .linalg import Matrix, Subspace, det, kernel


def _as_vec(v, dim: int):
    out = tuple(x if isinstance(x, GaussianRational) else GaussianRational(x) for x in v)
    if len(out) != dim:
        raise ValueError("coordinate vector has wrong length")
    return out


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))

def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))

def vec_is_zero(u) -> bool:
    return all(not (a.a or a.b) for a in u)

def unit_vector(i: int, dim: int):
    return tuple(GR_ONE if j == i else GR_ZERO for j in range(dim))


class StructureAlgebra:
    """Finite-dimensional algebra given by its structure constants."""

    __slots__ = ("dim", "labels", "table", "_nonzero")

    def __init__(self, dim: int, labels, table):
        self.dim = dim
        self.labels = tuple(labels)
        if len(self.labels) != dim:
            raise ValueError("label count must match dimension")
        self.table = tuple(
            tuple(_as_vec(table[i][j], dim) for j in range(dim)) for i in range(dim)
        )
        # _nonzero[i][j]: the (k, c) with c = c_ijk != 0, the only terms any
        # product needs.
        self._nonzero = tuple(
            tuple(tuple((k, c) for k, c in enumerate(v) if c.a or c.b) for v in row)
            for row in self.table
        )

    def unit(self, i: int):
        return unit_vector(i, self.dim)

    def bracket(self, x, y):
        out = [GR_ZERO] * self.dim
        for i, xi in enumerate(x):
            if not (xi.a or xi.b):
                continue
            row = self._nonzero[i]
            for j, yj in enumerate(y):
                terms = row[j]
                if terms and (yj.a or yj.b):
                    f = xi * yj
                    for k, c in terms:
                        out[k] = out[k] + f * c
        return tuple(out)

    def automorphism_check(self, m: Matrix):
        """(ok, failing_pair): m is invertible and m [e_i, e_j] = [m e_i, m e_j]
        on every basis pair.  Pairs are scanned with i outer, j inner, and the
        first failing one is returned; a singular m gives (False, None)."""
        if det(m).is_zero():
            return False, None
        images = [m.column(k) for k in range(self.dim)]
        for i, row in enumerate(self._nonzero):
            for j, terms in enumerate(row):
                # m c_ij = sum_k c_ijk m e_k over the nonzero constants
                want = [GR_ZERO] * self.dim
                for k, c in terms:
                    for r, x in enumerate(images[k]):
                        if x.a or x.b:
                            want[r] = want[r] + c * x
                if tuple(want) != self.bracket(images[i], images[j]):
                    return False, (i, j)
        return True, None

    def validate_lie(self):
        """List of violated identities: ("alt", i, j) or ("jacobi", i, j, k)."""
        bad = []
        for i in range(self.dim):
            if not vec_is_zero(self.table[i][i]):
                bad.append(("alt", i, i))
            for j in range(i + 1, self.dim):
                if not vec_is_zero(vec_add(self.table[i][j], self.table[j][i])):
                    bad.append(("alt", i, j))
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    s = self.bracket(self.table[i][j], self.unit(k))
                    s = vec_add(s, self.bracket(self.table[j][k], self.unit(i)))
                    s = vec_add(s, self.bracket(self.table[k][i], self.unit(j)))
                    if not vec_is_zero(s):
                        bad.append(("jacobi", i, j, k))
        return bad

    def validate_leibniz(self):
        """Violations of [x,[y,z]] = [[x,y],z] - [[x,z],y] on basis triples."""
        bad = []
        for i in range(self.dim):
            ei = self.unit(i)
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = self.bracket(ei, self.table[j][k])
                    rhs = vec_sub(
                        self.bracket(self.table[i][j], self.unit(k)),
                        self.bracket(self.table[i][k], self.unit(j)),
                    )
                    if not vec_is_zero(vec_sub(lhs, rhs)):
                        bad.append(("leibniz", i, j, k))
        return bad

    def squares_ideal(self) -> Subspace:
        """Span of all [x, x]: generated by [e_i,e_i] and [e_i,e_j]+[e_j,e_i]."""
        gens = []
        for i in range(self.dim):
            gens.append(self.table[i][i])
            for j in range(i + 1, self.dim):
                gens.append(vec_add(self.table[i][j], self.table[j][i]))
        return Subspace(self.dim, gens)

    def right_annihilated_by(self, space: Subspace) -> bool:
        """True when [L, v] = 0 for every v in the given subspace."""
        for v in space.basis:
            for i in range(self.dim):
                if not vec_is_zero(self.bracket(self.unit(i), v)):
                    return False
        return True

    def liezation(self):
        """Quotient by the ideal of squares, plus the projection data.

        Returns (quotient, free_indices, project) where project maps ambient
        coordinates onto quotient coordinates.
        """
        ideal = self.squares_ideal()
        pivot_cols = []
        for row in ideal.basis:
            pivot_cols.append(next(j for j, x in enumerate(row) if x.a or x.b))
        free = [j for j in range(self.dim) if j not in set(pivot_cols)]

        def project(v):
            residual = ideal.reduce(v)[1]
            return tuple(residual[j] for j in free)

        table = [
            [
                project(self.bracket(self.unit(a), self.unit(b)))
                for b in free
            ]
            for a in free
        ]
        quotient = StructureAlgebra(len(free), [self.labels[j] for j in free], table)
        return quotient, free, project

    def lower_central_series(self):
        """[L,L], [[L,L],L], ... down to stabilization (0 for nilpotent L)."""
        current = Subspace(self.dim, [self.unit(i) for i in range(self.dim)])
        series = []
        while True:
            gens = []
            for v in current.basis:
                for j in range(self.dim):
                    gens.append(self.bracket(v, self.unit(j)))
            nxt = Subspace(self.dim, gens)
            series.append(nxt)
            if nxt.dim == 0 or nxt.dim == current.dim:
                return series
            current = nxt

    def center(self) -> Subspace:
        rows = []
        for j in range(self.dim):
            for k in range(self.dim):
                rows.append(tuple(self.table[i][j][k] for i in range(self.dim)))
                rows.append(tuple(self.table[j][i][k] for i in range(self.dim)))
        return kernel(Matrix(rows))

    def to_json(self):
        constants = []
        for i in range(self.dim):
            for j in range(self.dim):
                for k, c in enumerate(self.table[i][j]):
                    if c.a or c.b:
                        constants.append([i, j, k, format_scalar(c)])
        return {"dim": self.dim, "labels": list(self.labels), "constants": constants}

    @classmethod
    def from_json(cls, data) -> "StructureAlgebra":
        dim = data["dim"]
        labels = data.get("labels") or [f"e{i+1}" for i in range(dim)]
        table = [[[GR_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j, k, s in data["constants"]:
            table[i][j][k] = parse_scalar(s)
        return cls(dim, labels, table)


@dataclass(frozen=True)
class FiliformCheck:
    is_lie: bool
    series_dims: tuple
    filiform: bool
    adapted: bool


def filiform_check(alg: StructureAlgebra) -> FiliformCheck:
    """Filiform test: Lie + lower central dims n-k-1, plus adapted-basis check.

    Adapted means [e_1, e_i] = e_{i+1} for 2 <= i <= n-1 and, as a
    consequence of filiformity, [e_i, e_{n-1}] = 0 for i >= 3 (1-indexed).
    """
    n = alg.dim
    is_lie = not alg.validate_lie()
    series = alg.lower_central_series()
    dims = tuple(s.dim for s in series)
    expected = tuple(n - k - 1 for k in range(1, n))  # k = 1 .. n-1
    # series stops at stabilization; pad/compare against expected tail of zeros
    padded = dims + (dims[-1],) * max(0, len(expected) - len(dims))
    filiform = is_lie and padded[: len(expected)] == expected
    adapted = True
    for i in range(1, n - 1):
        if alg.table[0][i] != unit_vector(i + 1, n):
            adapted = False
    for i in range(2, n):
        if not vec_is_zero(alg.table[i][n - 2]):
            adapted = False
    return FiliformCheck(is_lie=is_lie, series_dims=dims, filiform=filiform, adapted=adapted)
