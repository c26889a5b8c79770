"""Structure-constant algebras: validation, ideals, quotients, series.

An algebra lives entirely in its table c[i][j] = coordinates of [e_i, e_j].
Elements are coordinate tuples over Q(i).  Nothing here assumes the bracket
is antisymmetric; Leibniz tables go through the same machinery.

Every bracket goes through one kernel that works on supports, the
(index, value) pairs of a vector's nonzero coordinates: it sums
c_ijk x_i y_j over the nonzero x_i, y_j and c_ijk only.  The table's own
nonzero constants are stored in that form, so identity checks pass them,
and unit supports ((k, 1),), straight to the kernel.
"""

from __future__ import annotations

from .exact import GR_ONE, GR_ZERO, as_scalar, format_scalar, json_fields, parse_scalar
from .linalg import Matrix, Subspace, is_nonsingular


def _as_vec(v, dim: int):
    out = tuple(as_scalar(x) for x in v)
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

def support(v):
    """The (index, value) pairs of v's nonzero coordinates."""
    return tuple((i, c) for i, c in enumerate(v) if c.a or c.b)


class StructureAlgebra:
    """Finite-dimensional algebra given by its structure constants."""

    __slots__ = ("dim", "labels", "table", "alternating", "_nonzero")

    def __init__(self, dim: int, labels, table):
        self.dim = dim
        self.labels = tuple(labels)
        if len(self.labels) != dim:
            raise ValueError("label count must match dimension")
        self.table = tuple(
            tuple(_as_vec(table[i][j], dim) for j in range(dim)) for i in range(dim)
        )
        t = self.table
        self.alternating = all(
            vec_is_zero(t[i][i]) and all(vec_is_zero(vec_add(t[i][j], t[j][i])) for j in range(i))
            for i in range(dim)
        )
        # _nonzero[i][j]: the support of [e_i, e_j], the only terms any
        # product needs.
        self._nonzero = tuple(tuple(support(v) for v in row) for row in self.table)

    def unit(self, i: int):
        return unit_vector(i, self.dim)

    def bracket(self, x, y):
        return self._bracket(support(x), support(y))

    def _bracket(self, xs, ys):
        """[x, y] from the supports xs of x and ys of y."""
        out = [GR_ZERO] * self.dim
        for i, xi in xs:
            row = self._nonzero[i]
            for j, yj in ys:
                terms = row[j]
                if terms:
                    f = xi * yj
                    for k, c in terms:
                        out[k] = out[k] + f * c
        return tuple(out)

    def _unit_supports(self):
        """The support ((k, 1),) of each unit vector e_k."""
        return [((k, GR_ONE),) for k in range(self.dim)]

    def automorphism_check(self, m: Matrix):
        """(ok, pair): m is invertible and no basis pair fails; a singular m
        gives (False, None), else pair is failing_pair(m)."""
        if not is_nonsingular(m):
            return False, None
        pair = self.failing_pair(m)
        return pair is None, pair

    def failing_pair(self, m: Matrix):
        """The first basis pair (i, j) with m [e_i, e_j] != [m e_i, m e_j],
        scanned with i outer and j inner, or None when m preserves them all.

        On an alternating table both sides are alternating in (i, j): (i, j)
        fails iff (j, i) does, and (i, i) never fails.  The first failing pair
        of the full scan therefore has i < j, and scanning j > i finds it.

        Each image m e_k is held as the support of column k, taken once, so
        both sides sum over nonzero entries only: m c_ij over the nonzero
        c_ijk and the nonzero entries of m e_k, the bracket by the kernel."""
        dim = self.dim
        images = [support(column) for column in zip(*m.data)]
        for i, row in enumerate(self._nonzero):
            xs = images[i]
            for j in range(i + 1 if self.alternating else 0, dim):
                want = [GR_ZERO] * dim
                for k, c in row[j]:
                    for r, x in images[k]:
                        want[r] = want[r] + c * x
                if tuple(want) != self._bracket(xs, images[j]):
                    return i, j
        return None

    def validate_lie(self):
        """List of violated identities: ("alt", i, j) or ("jacobi", i, j, k).

        Jacobi is checked on i < j < k only.  On an alternating table the
        Jacobi sum is alternating in (i, j, k), so these triples decide it; on
        any other table the list already holds an alternation violation."""
        bad = []
        for i in range(self.dim):
            if not vec_is_zero(self.table[i][i]):
                bad.append(("alt", i, i))
            for j in range(i + 1, self.dim):
                if not vec_is_zero(vec_add(self.table[i][j], self.table[j][i])):
                    bad.append(("alt", i, j))
        nz, units, br = self._nonzero, self._unit_supports(), self._bracket
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    s = br(nz[i][j], units[k])
                    s = vec_add(s, br(nz[j][k], units[i]))
                    s = vec_add(s, br(nz[k][i], units[j]))
                    if not vec_is_zero(s):
                        bad.append(("jacobi", i, j, k))
        return bad

    def validate_leibniz(self):
        """Violations of [x,[y,z]] = [[x,y],z] - [[x,z],y] on basis triples."""
        bad = []
        nz, units, br = self._nonzero, self._unit_supports(), self._bracket
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    lhs = br(units[i], nz[j][k])
                    rhs = vec_sub(br(nz[i][j], units[k]), br(nz[i][k], units[j]))
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

        table = [[project(self.table[a][b]) for b in free] for a in free]
        quotient = StructureAlgebra(len(free), [self.labels[j] for j in free], table)
        return quotient, free, project

    def lower_central_series(self):
        """[L,L], [[L,L],L], ... down to stabilization (0 for nilpotent L)."""
        current = Subspace(self.dim, [self.unit(i) for i in range(self.dim)])
        units = self._unit_supports()
        series = []
        while True:
            gens = []
            for v in current.basis:
                vs = support(v)
                gens.extend(self._bracket(vs, unit) for unit in units)
            nxt = Subspace(self.dim, gens)
            series.append(nxt)
            if nxt.dim == 0 or nxt.dim == current.dim:
                return series
            current = nxt

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
        dim, constants = json_fields(data, "algebra", ("dim", "constants"))
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise ValueError(f"dim {dim!r} is not a non-negative integer")
        if not isinstance(constants, list):
            raise ValueError('"constants" must be a JSON list')
        labels = data.get("labels") or [f"e{i+1}" for i in range(dim)]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ValueError('"labels" must be a JSON list of strings')
        table = [[[GR_ZERO] * dim for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for constant in constants:
            if not isinstance(constant, list) or len(constant) != 4:
                raise ValueError(f"constant {constant!r} is not a list [i, j, k, value]")
            i, j, k, s = constant
            for index in (i, j, k):
                if isinstance(index, bool) or not isinstance(index, int):
                    raise ValueError(f"constant index {index!r} is not an integer")
                if not 0 <= index < dim:
                    raise ValueError(f"constant index {index} is outside 0..{dim - 1}")
            if (i, j, k) in seen:
                raise ValueError(f"constant ({i}, {j}, {k}) is given twice")
            seen.add((i, j, k))
            table[i][j][k] = parse_scalar(s)
        return cls(dim, labels, table)
