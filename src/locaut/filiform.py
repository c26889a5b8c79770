"""Filiform nilpotent Lie algebras and their local-but-not automorphisms.

The model algebra on e_1..e_n has the single chain of brackets
[e_1, e_i] = e_{i+1} for 2 <= i <= n-1.  Two one-parameter families of maps
drive everything here:

    phi_alpha(x) = x + alpha x_2 e_{n-1} + x_3 e_n
    psi_beta(u)  = u + beta u_2 e_n

Both are the identity plus one or two entries, a {(row, column): value}
dict that each family keeps as its one source of truth (psi_beta's are
beta times one stored E); matrix(fl) builds the dense map only for a
bracket scan.  psi_beta is an automorphism for every beta, phi_alpha only
for alpha = 1; witnesses_are_automorphisms proves both with one scan.  The
map delta = phi_0 is therefore not an automorphism, yet at every single
point it agrees with phi_1 (when x_2 = 0) or with psi_{x_3/x_2}
(otherwise), which makes it a local automorphism; each sample applies both
maps entry-wise.
n = 3 is degenerate (e_{n-1} = e_2, so phi_alpha is diagonal rather than
unitriangular) but the same conclusions hold and are checked literally
rather than assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import StructureAlgebra, unit_vector, vec_is_zero
from .exact import GR_ONE, GR_ZERO, GaussianRational, as_scalar, internal_check
from .linalg import Matrix


class FiliformAlgebra:
    """An n-dimensional filiform Lie algebra in an adapted basis.

    Filiform: a Lie algebra whose lower central series has dimensions
    n-2, n-3, ..., 0.  Adapted: [e_1, e_i] = e_{i+1} for 2 <= i <= n-1 and,
    as a consequence of filiformity, [e_i, e_{n-1}] = 0 for i >= 3
    (1-indexed).  The constructor checks the dimension (n >= 3), then the
    three in that order, and raises ValueError at the first that fails."""

    def __init__(self, algebra: StructureAlgebra):
        n, table = algebra.dim, algebra.table
        if n < 3:
            raise ValueError("filiform algebras need dimension >= 3")
        if algebra.validate_lie():
            raise ValueError("not a Lie algebra")
        # the series stops at 0 or where it stabilises, so its first n-1
        # dims decide filiformity
        dims = tuple(s.dim for s in algebra.lower_central_series())
        expected = tuple(n - k - 1 for k in range(1, n))
        if dims[: len(expected)] != expected:
            raise ValueError(f"lower central series dims {dims} are not filiform")
        if any(table[0][i] != unit_vector(i + 1, n) for i in range(1, n - 1)) or not all(
            vec_is_zero(table[i][n - 2]) for i in range(2, n)
        ):
            raise ValueError("basis is not adapted to the filiform chain")
        self.algebra = algebra
        self.n = n


def model_filiform(n: int) -> FiliformAlgebra:
    """The filiform algebra whose only brackets are [e_1, e_i] = e_{i+1}."""
    if n < 3:
        raise ValueError("filiform algebras need dimension >= 3")
    table = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(1, n - 1):
        table[0][i] = unit_vector(i + 1, n)
        table[i][0] = tuple(-x for x in unit_vector(i + 1, n))
    labels = [f"e{i+1}" for i in range(n)]
    # FiliformAlgebra validates the Jacobi identity (validate_lie)
    return FiliformAlgebra(StructureAlgebra(n, labels, table))


@dataclass(frozen=True)
class PhiAlpha:
    """x + alpha x_2 e_{n-1} + x_3 e_n in coordinates."""

    alpha: GaussianRational

    def entries(self, fl: FiliformAlgebra) -> dict:
        return {(fl.n - 2, 1): self.alpha, (fl.n - 1, 2): GR_ONE}

    def matrix(self, fl: FiliformAlgebra) -> Matrix:
        return _identity_plus(fl.n, self.entries(fl))


@dataclass(frozen=True)
class PsiBeta:
    """u + beta u_2 e_n in coordinates: I + beta E, E = direction(fl)."""

    beta: GaussianRational

    @staticmethod
    def direction(fl: FiliformAlgebra) -> dict:
        return {(fl.n - 1, 1): GR_ONE}

    def entries(self, fl: FiliformAlgebra) -> dict:
        return {k: self.beta * v for k, v in self.direction(fl).items()}

    def matrix(self, fl: FiliformAlgebra) -> Matrix:
        return _identity_plus(fl.n, self.entries(fl))


def _identity_plus(n: int, entries) -> Matrix:
    """The n x n identity plus entries, a {(row, column): value} dict."""
    rows = [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
    for (r, c), value in entries.items():
        rows[r][c] = rows[r][c] + value
    return Matrix._of_rows(tuple(map(tuple, rows)))


def _apply_entries(entries, x) -> tuple:
    """(I + entries) x: each entry (r, c) adds value * x_c to coordinate r."""
    y = list(x)
    for (r, c), value in entries.items():
        y[r] = y[r] + value * x[c]
    return tuple(y)


def map_is_automorphism(fl: FiliformAlgebra, m: Matrix):
    """(ok, failing_pair): bijectivity plus bracket preservation on basis pairs."""
    return fl.algebra.automorphism_check(m)


def phi_is_automorphism(fl: FiliformAlgebra, alpha):
    return map_is_automorphism(fl, PhiAlpha(as_scalar(alpha)).matrix(fl))


def delta_map(fl: FiliformAlgebra) -> Matrix:
    """The local-but-not-automorphism candidate x -> x + x_3 e_n (= phi_0)."""
    return PhiAlpha(GR_ZERO).matrix(fl)


def _every_multiple_is_automorphism(algebra: StructureAlgebra, e) -> bool:
    """I + beta E is an automorphism for every beta in Q(i), read from the
    structure constants.  Its bracket defect is
    beta ([Ex, y] + [x, Ey] - E[x, y]) + beta^2 [Ex, Ey]: E's rows r are
    central ([e_r, e_s] = [e_s, e_r] = 0 for every s), so the brackets with
    Ex or Ey vanish, and no structure constant has a component in E's
    columns, so E[x, y] vanishes.  E strictly lower makes it invertible."""
    table, dim = algebra.table, algebra.dim
    return (
        all(vec_is_zero(table[r][s]) and vec_is_zero(table[s][r]) for r, _ in e for s in range(dim))
        and all(table[i][j][c].is_zero() for i in range(dim) for j in range(dim) for _, c in e)
        and all(r > c for r, c in e)
    )


def witnesses_are_automorphisms(fl: FiliformAlgebra) -> bool:
    """phi_1 and every psi_beta, beta in Q(i), are automorphisms: every
    psi_beta from the one stored E, with no scan, then phi_1 by its one
    bracket scan.  The checks on E = e_n e_2^T hold on any adapted filiform
    algebra: e_n spans the last nonzero term of the lower central series, so
    it is central, and [L, L] = span(e_3..e_n) has no e_2 component."""
    return _every_multiple_is_automorphism(fl.algebra, PsiBeta.direction(fl)) and phi_is_automorphism(fl, 1)[0]


def _pick_witness(fl: FiliformAlgebra, x):
    """(witness, agrees): the family member meant to match delta at x, and
    whether it does.  x_2 = 0: phi_1 adds x_2 e_{n-1} + x_3 e_n = x_3 e_n.
    Otherwise psi with beta = x_3 / x_2 adds beta x_2 e_n = x_3 e_n.  Both
    maps are applied to x from their entries."""
    x = tuple(as_scalar(c) for c in x)
    if len(x) != fl.n:
        raise ValueError("point has wrong dimension")
    witness = PhiAlpha(GR_ONE) if x[1].is_zero() else PsiBeta(x[2] * x[1].inverse())
    delta = PhiAlpha(GR_ZERO).entries(fl)
    return witness, _apply_entries(witness.entries(fl), x) == _apply_entries(delta, x)


def filiform_local_witness(fl: FiliformAlgebra, x):
    """An automorphism agreeing with delta at the point x.  Both facts are
    re-verified here, not trusted: the witness by one bracket scan, its value
    at x against delta's.  Either failing raises InternalCheckError."""
    witness, agrees = _pick_witness(fl, x)
    ok, _ = map_is_automorphism(fl, witness.matrix(fl))
    internal_check(ok, "witness family member failed the automorphism check")
    internal_check(agrees, "witness does not match delta at x")
    return witness


@dataclass(frozen=True)
class FiliformReport:
    n: int
    delta_is_automorphism: bool
    failing_pair: tuple | None
    samples: int
    phi_witnesses: int
    psi_witnesses: int
    all_verified: bool

    def to_json(self):
        return {
            "n": self.n,
            "delta_is_automorphism": self.delta_is_automorphism,
            "failing_basis_pair": list(self.failing_pair) if self.failing_pair else None,
            "samples": self.samples,
            "witness_counts": {"phi": self.phi_witnesses, "psi": self.psi_witnesses},
            "all_verified": self.all_verified,
        }


def sample_points(n: int, samples: int, seed: int):
    """Integer coordinate vectors in [-5, 5]; every fourth has x_2 forced to 0
    so both witness branches always get exercised."""
    rng = random.Random(seed)
    pts = []
    for t in range(samples):
        v = [rng.randint(-5, 5) for _ in range(n)]
        if t % 4 == 0:
            v[1] = 0
        pts.append(tuple(GaussianRational(c) for c in v))
    return pts


def counterexample_demo(fl: FiliformAlgebra, samples: int = 200, seed: int = 0) -> FiliformReport:
    """delta is not an automorphism, yet every sampled point has an exact
    automorphism witness: a local automorphism that is not an automorphism.
    all_verified: delta failed the automorphism check, and the witness
    families were proved automorphisms and matched delta at every sample, of
    which there must be at least one."""
    if samples < 1:
        raise ValueError("samples must be positive")
    ok, pair = map_is_automorphism(fl, delta_map(fl))
    proved = witnesses_are_automorphisms(fl)
    picks = [_pick_witness(fl, x) for x in sample_points(fl.n, samples, seed)]
    phi_count = sum(isinstance(w, PhiAlpha) for w, _ in picks)
    return FiliformReport(
        n=fl.n,
        delta_is_automorphism=ok,
        failing_pair=pair,
        samples=samples,
        phi_witnesses=phi_count,
        psi_witnesses=samples - phi_count,
        all_verified=not ok and proved and all(agrees for _, agrees in picks),
    )
