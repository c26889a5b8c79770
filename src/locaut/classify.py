"""Deciding which linear maps on sl_n (or M_n) are local automorphisms.

A map is local iff it fits a family x -> epsilon * a * sigma(x) * a^-1, so
the exact fit against the families decides, and runs first.  Each fit
(fit_shape_family) reads its one candidate off the root images: the last
column from the rank-one image of the corner E_n,1, the others through the
n - 1 simple root vectors, then one check of the candidate against every
basis element.  A fitted map is bijective and keeps square-zero elements
square-zero, so the screens only pick the NotLocal certificate of a map
that fits no family:

1. injectivity,
2. preservation of square-zero elements on a spanning set (M_n: Delta(1) = 1),
3. the scaled-shape probe at y = diag(1, -1, 0, ..., 0): any local
   automorphism must give char(Delta(y)) = (t-1)(t+1)t^(n-2), and a scaled
   family produces (t-lambda)(t+lambda)t^(n-2), exposing the scalar,
4. else the fit dimensions.

Every negative answer carries a certificate that can be re-verified without
trusting this module's code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .exact import GR_ONE, GaussianRational, Polynomial, format_scalar, internal_check
from .linalg import (
    Matrix,
    Subspace,
    certified_kernel,
    charpoly,
    conjugator,
    cyclic_companion,
    invariant_factors,
    is_nonsingular,
    matrix_from_flat,
    negated_factors,
)
from .sln import (
    AUTOMORPHISM_FAMILIES,
    SHAPE_FAMILIES,
    SIGMA_ID,
    SIGMA_T,
    CanonicalShape,
    MnModel,
    SlnModel,
)

AUTOMORPHISM = "Automorphism"
ANTI_AUTOMORPHISM = "AntiAutomorphism"
NOT_LOCAL = "NotLocal"


@dataclass(frozen=True)
class NotInjective:
    kernel_vector: tuple

    kind = "not_injective"

    def to_json(self):
        return {"kind": self.kind, "kernel_vector": [format_scalar(x) for x in self.kernel_vector]}


@dataclass(frozen=True)
class SquareZeroBroken:
    witness: Matrix

    kind = "square_zero_broken"

    def to_json(self):
        return {"kind": self.kind, "witness": self.witness.to_json()}


@dataclass(frozen=True)
class LambdaNotUnit:
    lam: GaussianRational | None
    lam_squared: GaussianRational
    probe_charpoly: Polynomial
    required_charpoly: Polynomial

    kind = "lambda_not_unit"

    def to_json(self):
        return {
            "kind": self.kind,
            "lambda": None if self.lam is None else format_scalar(self.lam),
            "lambda_squared": format_scalar(self.lam_squared),
            "probe_charpoly": self.probe_charpoly.to_json(),
            "required_charpoly": self.required_charpoly.to_json(),
        }


@dataclass(frozen=True)
class NoShapeFits:
    fit_dimensions: tuple
    probe_charpoly: Polynomial | None
    required_charpoly: Polynomial | None

    kind = "no_shape_fits"

    def to_json(self):
        return {
            "kind": self.kind,
            "fit_dimensions": [
                {"epsilon": eps, "sigma": sigma, "dim": d}
                for (eps, sigma), d in self.fit_dimensions
            ],
            "probe_charpoly": None if self.probe_charpoly is None else self.probe_charpoly.to_json(),
            "required_charpoly": None
            if self.required_charpoly is None
            else self.required_charpoly.to_json(),
        }


@dataclass(frozen=True)
class IdentityNotFixed:
    image_of_identity: Matrix

    kind = "identity_not_fixed"

    def to_json(self):
        return {"kind": self.kind, "image_of_identity": self.image_of_identity.to_json()}


@dataclass(frozen=True)
class Verdict:
    verdict: str
    shape: CanonicalShape | None = None
    shapes: tuple = ()
    obstruction: object | None = None

    def to_json(self):
        return {
            "verdict": self.verdict,
            "shape": None if self.shape is None else self.shape.to_json(),
            "shapes": [s.to_json() for s in self.shapes] if len(self.shapes) > 1 else None,
            "obstruction": None if self.obstruction is None else self.obstruction.to_json(),
        }


def _family_verdict(shape: CanonicalShape) -> str:
    return AUTOMORPHISM if shape.is_automorphism_family() else ANTI_AUTOMORPHISM


def basis_images(model, d: Matrix) -> list:
    """Delta(b) for every basis element b, in basis order: the columns of d."""
    if d.nrows != model.dim or d.ncols != model.dim:
        raise ValueError("map matrix has wrong size for this model")
    return [model.matrix(d.column(k)) for k in range(model.dim)]


def fit_shape_family(model, d: Matrix, epsilon: int, sigma: str, images=None):
    """Solution space of the family equations Delta(sigma(e)) a = epsilon a e.

    Returns (space, witness): space holds the solutions a, flattened row by
    row, in canonical form, and witness is the basis vector of a line, or
    None for the zero space.  A witness makes Delta(x) = epsilon * a *
    sigma(x) * a^-1 hold for every x.  images are the basis images of d
    (computed when not given).

    a v = 0 gives a e v = 0 for every basis element e, so ker a is invariant
    under the irreducible action of sl_n (or M_n) on Q(i)^n: every nonzero
    solution is invertible, and the space is 0 or a line.  The root images
    give the line's one candidate, with no inverse:
    - a solution makes Delta(sigma(E_ij)) = epsilon a E_ij a^-1 the outer
      product of epsilon a_i (column i of a) and row j of a^-1.  At the
      corner E_n,1 this has rank one, or the space is 0, and its first
      nonzero column is c a_n with c != 0.
    - Column i+1 of the equation for e = E_i,i+1 reads
      X a_i+1 = epsilon a_i with X = Delta(sigma(e)), so
      a_i = epsilon X a_i+1 for i = n-1, ..., 1 turns c a_n into c a.
    Two cheap tests refuse most other candidates before any inverse: the
    last basis element h is diagonal and sigma(h) = h, so a solution has
    Delta(h) a_c = epsilon h_cc a_c for every column, and it is nonsingular.
    The candidate solves every basis equation, checked as Delta(e) =
    CanonicalShape(epsilon, sigma, a).apply(e), or the space is 0.
    """
    if images is None:
        images = basis_images(model, d)
    n = model.n
    zero = Subspace(n * n, ())
    order = model.transpose_index if sigma == SIGMA_T else range(model.dim)
    corner = images[order[model.corner_index]].T.data
    last = next((u for u in corner if any(y.a or y.b for y in u)), None)
    if last is None:
        return zero, None
    r = next(k for k, y in enumerate(last) if y.a or y.b)
    pivot = last[r]
    for u in corner:
        s = u[r] / pivot
        if u != tuple(s * y for y in last):
            return zero, None
    columns = [last]
    for i in range(n - 2, -1, -1):
        w = images[order[model.generator_indices[2 * i]]].apply(columns[-1])
        columns.append(w if epsilon == 1 else tuple(-y for y in w))
    columns.reverse()
    h = model.basis[-1].data
    for c, v in enumerate(columns):
        s = h[c][c] * epsilon
        if images[-1].apply(v) != tuple(s * y for y in v):
            return zero, None
    a = Matrix._of_rows(tuple(zip(*columns)))
    if not is_nonsingular(a):
        return zero, None
    space = Subspace(n * n, [a.flatten()])
    a = matrix_from_flat(space.basis[0], n)
    shape = CanonicalShape(epsilon, sigma, a)
    if any(shape.apply(e) != x for e, x in zip(model.basis, images)):
        return zero, None
    return space, a


def automorphism_shape(model: SlnModel, d: Matrix) -> CanonicalShape | None:
    """The shape of d when d is an automorphism of sl_n, else None.

    Aut(sl_n) is exactly x -> a x a^-1 and x -> -a x^T a^-1, so a fit of
    (1, identity) or (-1, transpose) proves membership and no fit disproves
    it."""
    verdict, _ = _fit_families(model, d, basis_images(model, d), AUTOMORPHISM_FAMILIES, first_only=True)
    return None if verdict is None else verdict.shape


def _fit_families(model, d: Matrix, images, families, first_only: bool):
    """Fit each family in order; returns (verdict, fit_dimensions).

    verdict is None when no family fits; otherwise its primary shape is the
    first fit, and with first_only=False every fitting family is listed.
    """
    fits = []
    dims = []
    for eps, sigma in families:
        space, a = fit_shape_family(model, d, eps, sigma, images)
        dims.append(((eps, sigma), space.dim))
        if a is not None:
            fits.append(CanonicalShape(eps, sigma, a))
            if first_only:
                break
    verdict = Verdict(_family_verdict(fits[0]), shape=fits[0], shapes=tuple(fits)) if fits else None
    return verdict, tuple(dims)


def _injectivity_verdict(model, d: Matrix) -> Verdict | None:
    """NotLocal with a kernel vector when d is singular, else None.

    certified_kernel proves an injective map's kernel zero by a full rank
    modulo p, with no elimination over Q(i), and gives a singular map the
    exact kernel, found modulo p and checked by d v = 0."""
    ker = certified_kernel(d)
    return Verdict(NOT_LOCAL, obstruction=NotInjective(ker.basis[0])) if ker.dim else None


def probe_element(model: SlnModel) -> Matrix:
    entries = [1, -1] + [0] * (model.n - 2)
    return Matrix.diagonal(entries)


def scaled_probe_charpoly(n: int, lam_sq) -> Polynomial:
    """t^(n-2) (t^2 - lam_sq), the probe's charpoly under a family scaled by
    lam; lam_sq = 1 gives (t - 1)(t + 1) t^(n-2), the one a local
    automorphism must give."""
    return Polynomial((0,) * (n - 2) + (-lam_sq, 0, 1))


def local_aut_probe(model: SlnModel, d: Matrix):
    """Characteristic polynomial probe at y = diag(1, -1, 0, ..., 0).

    Returns (probe, required, lam_squared, lam).  lam_squared is set when the
    probe has the scaled form t^(n-2) (t^2 - lam^2); lam is its canonical
    square root in Q(i) when one exists.
    """
    n = model.n
    p = charpoly(model.apply_map(d, probe_element(model)))
    # p is monic of degree n, so only its t^(n-2) coefficient can be -lam^2
    lam_sq = -p.coeffs[n - 2]
    if p != scaled_probe_charpoly(n, lam_sq):
        lam_sq = None
    lam = lam_sq.sqrt() if lam_sq is not None else None
    return p, scaled_probe_charpoly(n, 1), lam_sq, lam


def square_zero_counterexample(model: SlnModel, d: Matrix, images) -> Matrix | None:
    """First spanning-set element whose square-zero property the map breaks.

    images are the basis images of d."""
    roots = len(model.off_pairs)
    for k, x in enumerate(model.square_zero_spanning_set()):
        # the first elements of the spanning set are the root-vector basis
        y = images[k] if k < roots else model.apply_map(d, x)
        if not (y @ y).is_zero():
            return x
    return None


def classify_sln(model: SlnModel, d: Matrix) -> Verdict:
    """Full classification of a linear self-map of sl_n in model coordinates.

    At n = 2 the four families overlap pairwise (conjugation by the symplectic
    matrix turns sigma = identity into sigma = transpose with the opposite
    sign), so every fitting family is reported; the first in the fixed family
    order is the primary shape.  For n >= 3 the family is unique and the scan
    stops at the first fit.
    """
    images = basis_images(model, d)
    verdict, dims = _fit_families(model, d, images, SHAPE_FAMILIES, first_only=model.n >= 3)
    if verdict is not None:
        return verdict
    verdict = _injectivity_verdict(model, d)
    if verdict is not None:
        return verdict
    bad = square_zero_counterexample(model, d, images)
    if bad is not None:
        return Verdict(NOT_LOCAL, obstruction=SquareZeroBroken(bad))
    probe, required, lam_sq, lam = local_aut_probe(model, d)
    if lam_sq is not None and not (lam_sq - GR_ONE).is_zero():
        return Verdict(
            NOT_LOCAL,
            obstruction=LambdaNotUnit(
                lam=lam, lam_squared=lam_sq, probe_charpoly=probe, required_charpoly=required
            ),
        )
    return Verdict(
        NOT_LOCAL,
        obstruction=NoShapeFits(dims, probe, required),
    )


MN_FAMILIES = ((1, SIGMA_ID), (1, SIGMA_T))


def classify_mn(model: MnModel, d: Matrix) -> Verdict:
    """Classification on the full matrix algebra: x -> a x a^-1 or a x^T a^-1.

    Unital algebra maps must fix the identity, which rules out sign twists;
    Delta(1) != 1 is therefore already a complete obstruction.
    """
    verdict, dims = _fit_families(model, d, basis_images(model, d), MN_FAMILIES, first_only=True)
    if verdict is not None:
        return verdict
    verdict = _injectivity_verdict(model, d)
    if verdict is not None:
        return verdict
    one = Matrix.identity(model.n)
    d_one = model.apply_map(d, one)
    if d_one != one:
        return Verdict(NOT_LOCAL, obstruction=IdentityNotFixed(d_one))
    return Verdict(NOT_LOCAL, obstruction=NoShapeFits(dims, None, None))


def pointwise_witness(model: SlnModel, d: Matrix, x: Matrix) -> CanonicalShape | None:
    """An automorphism of sl_n agreeing with the map at the single point x.

    Tries conjugation first, then the standard anti-twist x -> -a x^T a^-1,
    which together exhaust the automorphisms of sl_n.  Invariant factors
    decide which one matches; those of -x^T follow from x's by
    negated_factors.  A side with a cyclic unit vector has the one factor
    chi, which cyclic_companion reads off its Krylov basis, searched on
    Delta(x)^T for the target (the same chi) so that conjugator can start
    from e_1; only a side without one takes a Smith form.  Only the matching
    candidate builds a conjugator, reusing the searches, failed or not.
    """
    target = model.apply_map(d, x)
    cx = cyclic_companion(x)
    ct = cyclic_companion(target.T)
    fx = invariant_factors(x) if cx is None else (cx[2],)
    ft = invariant_factors(target) if ct is None else (ct[2],)
    if fx == ft:
        return CanonicalShape(1, SIGMA_ID, conjugator(x, target, cx, ct))
    if negated_factors(fx) == ft:
        return CanonicalShape(-1, SIGMA_T, conjugator(-(x.T), target, cyclic_companion(-(x.T)), ct))
    return None


# -- handy map constructors (used by tests, scripts and the CLI) -----------


def random_unimodular(n: int, rng: random.Random) -> Matrix:
    """Product of 3 n^2 random integer shears: unimodular, so the inverse is
    exact and stays small."""
    rows = [[GaussianRational(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for _ in range(3 * n * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = GaussianRational(rng.choice([-2, -1, 1, 2]))
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
    m = Matrix(tuple(tuple(r) for r in rows))
    internal_check(is_nonsingular(m), "product of shears is singular")
    return m
