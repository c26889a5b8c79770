"""Filiform nilpotent Lie algebras and their local-but-not automorphisms.

The model algebra on e_1..e_n has the single chain of brackets
[e_1, e_i] = e_{i+1} for 2 <= i <= n-1.  Two one-parameter families of maps
drive everything here:

    phi_alpha(x) = x + alpha x_2 e_{n-1} + x_3 e_n
    psi_beta(u)  = u + beta u_2 e_n

psi_beta is an automorphism for every beta (proved from beta = 0, 1, 2 by
witnesses_are_automorphisms), phi_alpha only for alpha = 1.  The map
delta = phi_0 is therefore not an automorphism, yet at every single point it
agrees with phi_1 (when x_2 = 0) or with psi_{x_3/x_2} (otherwise), which
makes it a local automorphism.  n = 3 is degenerate (e_{n-1} = e_2, so
phi_alpha is diagonal rather than unitriangular) but the same conclusions
hold and are checked literally rather than assumed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .algebra import StructureAlgebra, filiform_check, unit_vector
from .exact import GR_ONE, GR_ZERO, GaussianRational, as_scalar, internal_check
from .linalg import Matrix


class FiliformAlgebra:
    """An n-dimensional filiform Lie algebra in an adapted basis."""

    def __init__(self, algebra: StructureAlgebra):
        check = filiform_check(algebra)
        if not check.is_lie:
            raise ValueError("not a Lie algebra")
        if not check.filiform:
            raise ValueError(f"lower central series dims {check.series_dims} are not filiform")
        if not check.adapted:
            raise ValueError("basis is not adapted to the filiform chain")
        self.algebra = algebra
        self.n = algebra.dim


def model_filiform(n: int) -> FiliformAlgebra:
    """The filiform algebra whose only brackets are [e_1, e_i] = e_{i+1}."""
    if n < 3:
        raise ValueError("filiform algebras need dimension >= 3")
    table = [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]
    for i in range(1, n - 1):
        table[0][i] = unit_vector(i + 1, n)
        table[i][0] = tuple(-x for x in unit_vector(i + 1, n))
    labels = [f"e{i+1}" for i in range(n)]
    # FiliformAlgebra validates the Jacobi identity (filiform_check)
    return FiliformAlgebra(StructureAlgebra(n, labels, table))


@dataclass(frozen=True)
class PhiAlpha:
    """x + alpha x_2 e_{n-1} + x_3 e_n in coordinates."""

    alpha: GaussianRational

    def matrix(self, fl: FiliformAlgebra) -> Matrix:
        return _identity_plus(fl.n, {(fl.n - 2, 1): self.alpha, (fl.n - 1, 2): GR_ONE})


@dataclass(frozen=True)
class PsiBeta:
    """u + beta u_2 e_n in coordinates."""

    beta: GaussianRational

    def matrix(self, fl: FiliformAlgebra) -> Matrix:
        return _identity_plus(fl.n, {(fl.n - 1, 1): self.beta})


def _identity_plus(n: int, entries) -> Matrix:
    """The n x n identity plus entries, a {(row, column): value} dict."""
    rows = [[GR_ONE if i == j else GR_ZERO for j in range(n)] for i in range(n)]
    for (r, c), value in entries.items():
        rows[r][c] = rows[r][c] + value
    return Matrix(rows)


def map_is_automorphism(fl: FiliformAlgebra, m: Matrix):
    """(ok, failing_pair): bijectivity plus bracket preservation on basis pairs."""
    return fl.algebra.automorphism_check(m)


def phi_is_automorphism(fl: FiliformAlgebra, alpha):
    return map_is_automorphism(fl, PhiAlpha(as_scalar(alpha)).matrix(fl))


def delta_map(fl: FiliformAlgebra) -> Matrix:
    """The local-but-not-automorphism candidate x -> x + x_3 e_n (= phi_0)."""
    return PhiAlpha(GR_ZERO).matrix(fl)


def witnesses_are_automorphisms(fl: FiliformAlgebra) -> bool:
    """phi_1 and every psi_beta, beta in Q(i), are automorphisms, from five
    bracket scans.  The entries of psi_beta are affine in beta (checked:
    psi_0 + psi_2 = 2 psi_1), so each bracket equation and the identity
    psi_beta psi_{-beta} = 1 have degree <= 2 in beta: holding at
    beta = 0, 1, 2, they hold for every beta."""
    psi = {b: PsiBeta(GaussianRational(b)).matrix(fl) for b in range(-2, 3)}
    affine = psi[0] + psi[2] == psi[1] + psi[1]
    return affine and phi_is_automorphism(fl, 1)[0] and all(
        fl.algebra.failing_pair(psi[b]) is None and psi[b] @ psi[-b] == Matrix.identity(fl.n)
        for b in range(3)
    )


def _pick_witness(fl: FiliformAlgebra, x):
    """(witness, agrees): the family member meant to match delta at x, and
    whether it does.  x_2 = 0: phi_1 adds x_2 e_{n-1} + x_3 e_n = x_3 e_n.
    Otherwise psi with beta = x_3 / x_2 adds beta x_2 e_n = x_3 e_n."""
    x = tuple(as_scalar(c) for c in x)
    if len(x) != fl.n:
        raise ValueError("point has wrong dimension")
    witness = PhiAlpha(GR_ONE) if x[1].is_zero() else PsiBeta(x[2] * x[1].inverse())
    return witness, tuple(witness.matrix(fl).apply(x)) == tuple(delta_map(fl).apply(x))


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
