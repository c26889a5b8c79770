"""Re-verification of verdicts and certificates.

Most checks recompute claims from first principles: a nonzero determinant
comes from a full rank mod p by this module's own elimination
(full_rank_mod_p), with linalg.det only where that proves nothing; a
stored probe polynomial is checked, not recomputed, by Newton's power sums
(_is_charpoly); a shape x -> epsilon a sigma(x) a^-1 is checked by the
product identity epsilon a sigma(x) = y a, with no inverse, and a != 0
(by Schur's lemma) or, for a pointwise witness, det(a) != 0; brackets
come straight from structure constants, and a stored vector must equal
the recomputed one entry for entry, length included.  Some reuse decision
code: no_shape_fits re-runs fit_shape_family, the root-image fit (the
candidate read off the rank-one corner image and the simple root vectors,
checked by CanonicalShape.apply), on exactly the model's families, in the
classifier's order; the block lemma reads leibniz.is_irreducible, the
module's one highest-weight line (RightModule.highest_weight_line, solved
once per module), and the weight certificate reads weights with
leibniz.weight_components, off the module's one weight table, as the
decision does.

Positive Leibniz verdicts, extensions and the weight certificate's reducer
are checked by the block lemma (_recheck_block_automorphism) against the
S-shape that comes with the claim: no S-block is fitted, and theta is
invertible by Schur's lemma, with no inverse formed.  The weight
certificate's reduced map is checked by one product, reducer after reduced
= the map.  A bracket_failure certificate is checked at its one stored
pair; nothing runs the full bracket scan.

All checks raise RecheckError with a description on failure and return None
on success.
"""

from __future__ import annotations

from math import lcm

from .algebra import unit_vector, vec_is_zero
from .classify import (
    AUTOMORPHISM,
    ANTI_AUTOMORPHISM,
    MN_FAMILIES,
    NOT_LOCAL,
    Verdict,
    basis_images,
    fit_shape_family,
    probe_element,
    scaled_probe_charpoly,
)
from .exact import GR_ONE, GR_ZERO, GaussianRational, Polynomial
from .leibniz import (
    BlockMap,
    LOCAL_AUT,
    LeibnizVerdict,
    SemidirectLeibniz,
    is_irreducible,
    weight_components,
)
from .linalg import _P, _R, Matrix, _poly_matrix_char, det
from .sln import SHAPE_FAMILIES, SIGMA_T, CanonicalShape, MnModel, SlnModel


class RecheckError(Exception):
    pass


def _need(cond: bool, msg: str):
    if not cond:
        raise RecheckError(msg)


# ---------------------------------------------------------------------------
# First-principles scalar/polynomial linear algebra


def _laplace(rows):
    """Determinant of a square grid of Q(i) or polynomial entries by Laplace
    expansion along the first row, minors as row slices; exponential, for
    small sizes."""
    if len(rows) == 1:
        return rows[0][0]
    acc = rows[0][0] * 0  # the zero of the entries' ring
    for j, c in enumerate(rows[0]):
        if not c.is_zero():
            term = c * _laplace([row[:j] + row[j + 1 :] for row in rows[1:]])
            acc = acc - term if j % 2 else acc + term
    return acc


def full_rank_mod_p(m: Matrix) -> bool:
    """True when the image of the square m in F_p, p = 2^61 - 31, under
    i -> -R has full rank; False when it is singular or p divides a
    denominator.

    With R^2 = -1 (mod p), (a + b i)/d -> (a - b R) d^-1 is a ring map onto
    F_p from the Gaussian rationals whose denominator p does not divide, so
    det of the image is the image of det m, and True proves det m != 0.
    False proves nothing.  Each row is scaled by the lcm of its
    denominators, and each step replaces a row by g row - f pivot with
    g != 0: both multiply det by a unit, and no inverse is taken.  The
    elimination is this module's own, under the conjugate of linalg's root,
    so a fault in linalg's, which the decision uses, cannot pass here too.
    """
    p, r = _P, _P - _R
    rows = []
    for row in m.data:
        den = lcm(*(x.d for x in row))
        if den % p == 0:
            return False
        rows.append([(x.a + x.b * r) * (den // x.d) % p for x in row])
    n = len(rows)
    for c in range(n):
        k = next((k for k in range(c, n) if rows[k][c]), None)
        if k is None:
            return False
        rows[c], rows[k] = rows[k], rows[c]
        g, tail = rows[c][c], rows[c][c + 1:]
        for row in rows[c + 1:]:
            f = row[c]
            if f:
                row[c + 1:] = [(g * x - f * y) % p for x, y in zip(row[c + 1:], tail)]
    return True


def cofactor_det(m: Matrix) -> GaussianRational:
    """Determinant by Laplace expansion, independent of elimination code;
    an oracle for the tests and selfcheck."""
    if not m.is_square():
        raise ValueError("determinant of non-square matrix")
    return _laplace(m.data)


def charpoly_via_cofactor(m: Matrix) -> Polynomial:
    """det(tI - m) expanded entry-wise over the polynomial ring."""
    return _laplace(_poly_matrix_char(m))


def adjugate_inverse(m: Matrix) -> Matrix:
    """Inverse via the cofactor adjugate; independent of elimination code."""
    n = m.nrows
    d = cofactor_det(m)
    _need(not d.is_zero(), "matrix is singular")
    dinv = d.inverse()
    if n == 1:
        return Matrix(((dinv,),))
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            # cofactor (j, i): delete row j and column i
            cof = _laplace([r[:i] + r[i + 1 :] for k, r in enumerate(m.data) if k != j])
            row.append((-cof if (i + j) % 2 else cof) * dinv)
        rows.append(tuple(row))
    return Matrix(rows)


# ---------------------------------------------------------------------------
# sl_n verdicts


def _need_vector(v, length: int, what: str):
    """v is a tuple of length Q(i) scalars."""
    _need(
        isinstance(v, tuple) and all(isinstance(x, GaussianRational) for x in v),
        f"{what} is not a tuple of Q(i) scalars",
    )
    _need(len(v) == length, f"{what} has the wrong length")


def _recheck_kernel_vector(m: Matrix, vker):
    """vker is a nonzero vector of the right length that m sends to zero."""
    _need_vector(vker, m.ncols, "kernel vector")
    _need(any(x.a or x.b for x in vker), "kernel vector is zero")
    _need(all(x.is_zero() for x in m.apply(vker)), "kernel vector not annihilated")


def _recheck_conjugation(model: SlnModel, shape: CanonicalShape, pairs, msg: str):
    """epsilon a sigma(x) = y a, so epsilon a sigma(x) a^-1 = y once a is
    shown invertible, for each pair (x, y) of n x n matrices."""
    a = shape.a
    _need(isinstance(a, Matrix) and a.nrows == a.ncols == model.n, "conjugator has the wrong size")
    for x, y in pairs:
        img = a @ (x.T if shape.sigma == SIGMA_T else x)
        _need((img if shape.epsilon == 1 else -img) == y @ a, msg)


def recheck_shape(model: SlnModel, images, shape: CanonicalShape):
    """The shape reproduces the map's basis images (classify.basis_images).
    ker a is then invariant under sigma(sl_n) = sl_n (M_n on M_n), which
    acts irreducibly on Q(i)^n, so a != 0 is invertible by Schur's lemma."""
    _recheck_conjugation(model, shape, zip(model.basis, images), "shape does not reproduce the map")
    _need(not shape.a.is_zero(), "conjugator is zero")


def recheck_witness_at(model: SlnModel, d: Matrix, x: Matrix, shape: CanonicalShape):
    """A pointwise witness: the shape agrees with the map at x exactly.  One
    pair says nothing of ker a, so det(a) != 0, by a full rank mod p
    (full_rank_mod_p), or by exact elimination (linalg.det) when p divides a
    denominator or the image mod p is singular, which for a random a happens
    with probability about n/p.  On the seed-1 sln-witness conjugators,
    n = 3 / 4 / 5, the rank mod p takes 0.008 / 0.018 / 0.030 ms, where a
    Laplace expansion takes 0.008 / 0.12 / 0.53 ms, and the whole recheck
    0.069 / 0.13 / 0.24 ms; a power-sum det (0.071 / 0.22 / 0.64 ms) or a
    carried a^-1 would cost more."""
    _recheck_conjugation(model, shape, [(x, model.apply_map(d, x))], "witness does not match the map at x")
    _need(full_rank_mod_p(shape.a) or not det(shape.a).is_zero(), "conjugator is singular")


def _is_charpoly(m: Matrix, p) -> bool:
    """p is a monic degree-n Polynomial whose power sums by Newton's identities,
    s_k = -(k c_(n-k) + sum_(i<k) c_(n-i) s_(k-i)), are tr(m^k) for k = 1..n:
    in characteristic 0 that makes p = det(tI - m), checked with n - 1 products."""
    n = m.nrows
    if not (isinstance(p, Polynomial) and p.degree == n and p.leading() == GR_ONE):
        return False
    c, s, traces, power = p.coeffs, [], [m.trace()], m
    for k in range(1, n + 1):
        s.append(-(c[n - k] * k + sum((c[n - i] * s[k - i - 1] for i in range(1, k)), GR_ZERO)))
        if k < n:
            power = power @ m
            traces.append(power.trace())
    return s == traces


def _recheck_probe(model: SlnModel, d: Matrix, p):
    """p is the probe image's charpoly; M_n runs no probe, so p is None."""
    ok = p is None if isinstance(model, MnModel) else _is_charpoly(model.apply_map(d, probe_element(model)), p)
    _need(ok, "stored probe polynomial is wrong")


def recheck_sln_verdict(model: SlnModel, d: Matrix, v: Verdict):
    if v.verdict in (AUTOMORPHISM, ANTI_AUTOMORPHISM):
        _need(v.shape is not None, "positive verdict without a shape")
        _need(
            isinstance(v.shapes, tuple) and all(isinstance(s, CanonicalShape) for s in (v.shape, *v.shapes)),
            "positive verdict's shapes are not canonical shapes",
        )
        _need(v.obstruction is None, "positive verdict carries a certificate")
        want_auto = v.shape.is_automorphism_family()
        _need(
            (v.verdict == AUTOMORPHISM) == want_auto,
            "verdict label disagrees with the shape family",
        )
        images = basis_images(model, d)
        # v.shape heads v.shapes: each distinct shape is checked once
        for shape in dict.fromkeys((v.shape, *v.shapes)):
            recheck_shape(model, images, shape)
        return
    _need(v.verdict == NOT_LOCAL, f"unknown verdict {v.verdict}")
    _need(v.shape is None and v.shapes == (), "negative verdict carries a shape")
    ob = v.obstruction
    _need(ob is not None, "negative verdict without a certificate")
    kind = getattr(ob, "kind", None)
    if kind == "not_injective":
        _recheck_kernel_vector(d, ob.kernel_vector)
    elif kind == "square_zero_broken":
        x = ob.witness
        _need(isinstance(x, Matrix), "witness is not a matrix")
        _need(x.nrows == x.ncols == model.n, "witness has the wrong size")
        # square-zero means nilpotent, hence traceless: apply_map accepts x
        _need((x @ x).is_zero(), "witness is not square-zero")
        y = model.apply_map(d, x)
        _need(not (y @ y).is_zero(), "image square vanishes after all")
    elif kind == "lambda_not_unit":
        _recheck_probe(model, d, ob.probe_charpoly)
        _need(
            ob.required_charpoly == scaled_probe_charpoly(model.n, 1),
            "stored required polynomial is wrong",
        )
        _need(isinstance(ob.lam_squared, GaussianRational), "lambda squared is not a Q(i) scalar")
        _need(
            not (ob.lam_squared - GR_ONE).is_zero(),
            "lambda squared is 1: certificate vacuous",
        )
        _need(
            ob.probe_charpoly == scaled_probe_charpoly(model.n, ob.lam_squared),
            "probe polynomial does not have the scaled form",
        )
        _need(ob.lam == ob.lam_squared.sqrt(), "stored lambda is not the canonical square root")
    elif kind == "no_shape_fits":
        on_mn = isinstance(model, MnModel)
        families = MN_FAMILIES if on_mn else SHAPE_FAMILIES
        _need(
            isinstance(ob.fit_dimensions, tuple)
            and all(isinstance(e, tuple) and len(e) == 2 for e in ob.fit_dimensions),
            "fit dimensions are not (family, dimension) pairs",
        )
        _need(
            tuple(fam for fam, _ in ob.fit_dimensions) == families,
            "certificate does not list the model's families in order",
        )
        images = basis_images(model, d)
        for (eps, sigma), dim in ob.fit_dimensions:
            space, a = fit_shape_family(model, d, eps, sigma, images)
            _need(space.dim == dim, "stored fit dimension is wrong")
            _need(a is None, "a family fits after all")
        # M_n certificates carry no probe; sl_n ones carry both polynomials
        _recheck_probe(model, d, ob.probe_charpoly)
        required = None if on_mn else scaled_probe_charpoly(model.n, 1)
        _need(ob.required_charpoly == required, "stored required polynomial is wrong")
    elif kind == "identity_not_fixed":
        one = Matrix.identity(model.n)
        img = model.apply_map(d, one)
        _need(img == ob.image_of_identity, "stored image of identity is wrong")
        _need(img != one, "identity is fixed after all")
    else:
        raise RecheckError(f"unknown certificate kind {kind}")


# ---------------------------------------------------------------------------
# Leibniz verdicts


def _recheck_block_automorphism(lb: SemidirectLeibniz, bm: BlockMap, shape: CanonicalShape):
    """The block map [[phi, 0], [C, theta]] is an automorphism of L, by the
    block lemma of leibniz.block_automorphism_shape, with every step checked
    by products:
    - phi is the given shape, of the family (1, identity) or (-1,
      transpose), checked like any shape, by recheck_shape;
    - theta R_g = R_phi(g) theta and C rho(g) = R_phi(g) C on the Chevalley
      generators g, with rho the adjoint module's actions;
    - theta != 0 and I is irreducible: ker theta is a submodule by the
      first identity, so theta is invertible by Schur's lemma."""
    _need(lb.has_block_sizes(bm), "block sizes do not match the algebra")
    model, module = lb.model, lb.module
    phi, coupling, theta = bm.s_block, bm.coupling, bm.i_block
    _need(
        isinstance(shape, CanonicalShape) and shape.is_automorphism_family(),
        "S-shape is not of an automorphism family",
    )
    recheck_shape(model, basis_images(model, phi), shape)
    rho = None if coupling.is_zero() else lb.adjoint_module.actions
    for g in model.generator_indices:
        r_image = module.action(phi.column(g))
        _need(
            theta @ module.actions[g] == r_image @ theta,
            f"I-block is not an intertwiner onto the twisted module at {model.labels[g]}",
        )
        if rho is not None:
            _need(
                coupling @ rho[g] == r_image @ coupling,
                f"coupling is not a module map from the adjoint at {model.labels[g]}",
            )
    _need(not theta.is_zero(), "I-block is zero")
    _need(is_irreducible(module), "module is not irreducible")


def recheck_leibniz_verdict(lb: SemidirectLeibniz, bm: BlockMap, v: LeibnizVerdict):
    if v.verdict == LOCAL_AUT:
        _need(v.s_shape is not None, "positive verdict without an S-shape")
        _need(v.certificate is None, "positive verdict carries a certificate")
        _recheck_block_automorphism(lb, bm, v.s_shape)
        return
    _need(v.verdict == NOT_LOCAL, f"unknown verdict {v.verdict}")
    _need(v.s_shape is None, "negative verdict carries an S-shape")
    cert = v.certificate
    _need(cert is not None, "negative verdict without a certificate")
    kind = getattr(cert, "kind", None)
    if kind == "sln_block":
        _need(isinstance(cert.verdict, Verdict), "inherited sl_n verdict is not a Verdict")
        _need(cert.verdict.verdict == NOT_LOCAL, "inherited sl_n verdict is not NotLocal")
        recheck_sln_verdict(lb.model, bm.s_block, cert.verdict)
    elif kind == "not_injective":
        _recheck_kernel_vector(bm.full_matrix(), cert.kernel_vector)
    elif kind == "bracket_square":
        z = cert.z
        zero = (GR_ZERO,) * lb.dim
        _need_vector(z, lb.dim, "stored z")
        _need_vector(cert.image_square, lb.dim, "stored image square")
        _need(lb.algebra.bracket(z, z) == zero, "[z, z] is not zero")
        dz = bm.full_matrix().apply(z)
        sq = lb.algebra.bracket(dz, dz)
        _need(sq == cert.image_square, "stored image square is wrong")
        _need(sq != zero, "image square vanishes")
    elif kind == "weight_structure":
        _recheck_weight_obstruction(lb, bm, cert)
    elif kind == "bracket_failure":
        i, j = cert.i, cert.j
        _need(all(type(k) is int and 0 <= k < lb.dim for k in (i, j)), "no such basis pair")
        full = bm.full_matrix()
        lhs = full.apply(lb.algebra.table[i][j])
        rhs = lb.algebra.bracket(
            full.apply(unit_vector(i, lb.dim)), full.apply(unit_vector(j, lb.dim))
        )
        _need(lhs != rhs, "brackets agree at the stored pair")
    else:
        raise RecheckError(f"unknown certificate kind {kind}")


def _recheck_weight_obstruction(lb: SemidirectLeibniz, bm: BlockMap, cert):
    """Re-derive every ingredient of the weight certificate.

    The claim: any automorphism Phi agreeing with the map at z = h0 + y_beta
    has, after the same inner reduction, an S-block sending h0 to sign*h0;
    such a Phi keeps the I-part of the image inside I_0 + I_(sign*beta) with
    a nonzero I_(sign*beta) component.  The certificate exhibits an image
    violating that, so no such Phi exists.

    z is checked from its parts: h0, and a unit vector of weight beta that
    every positive-root action kills, which on an irreducible module is y_beta.
    """
    _need(
        isinstance(cert.reducer, BlockMap) and isinstance(cert.reduced, BlockMap),
        "stored reducer or reduced map is not a block map",
    )
    _recheck_block_automorphism(lb, cert.reducer, cert.reducer_shape)
    # the module is irreducible and the reducer invertible, so reducer after
    # reduced = the map pins reduced down as reducer^-1 after the map
    _need(lb.has_block_sizes(cert.reduced), "stored reduced map has the wrong block sizes")
    _need(cert.reducer.compose(cert.reduced) == bm, "stored reduced map is not reducer^-1 after the map")
    model, z = lb.model, cert.z
    _need_vector(z, lb.dim, "stored z")
    _need_vector(cert.i_part, lb.dim_i, "stored I-part of the image")
    h0c, y = lb.split(z)
    _need(h0c == model.coords(model.strongly_regular_element()), "S-part of z is not h0")
    _need([x for x in y if not x.is_zero()] == [GR_ONE], "I-part of z is not a unit vector")
    positive = [lb.module.actions[k] for k, (i, j) in enumerate(model.off_pairs) if i < j]
    _need(all(vec_is_zero(e.apply(y)) for e in positive), "a positive root does not kill the I-part of z")
    _need(list(weight_components(lb, y)) == [cert.beta], "stored beta is not the weight of z's I-part")
    _need(any(b != 0 for b in cert.beta), "beta is zero: certificate not applicable")
    _need(type(cert.sign) is int and cert.sign in (1, -1), "sign is not the int 1 or -1")
    img_h0 = cert.reduced.s_block.apply(h0c)
    want = h0c if cert.sign == 1 else tuple(-x for x in h0c)
    _need(img_h0 == want, "reduced S-block does not send h0 to sign*h0")
    _, i_part = lb.split(cert.reduced.full_matrix().apply(z))
    _need(i_part == cert.i_part, "stored I-part of the image is wrong")
    weights = weight_components(lb, i_part)
    target = cert.beta if cert.sign == 1 else tuple(-b for b in cert.beta)
    zero_w = tuple(0 * b for b in cert.beta)
    violated = target not in weights or not weights <= {zero_w, target}
    _need(violated, "image respects the forced weight structure after all")


# ---------------------------------------------------------------------------
# Extension structure (block form)


def recheck_extension_structure(lb: SemidirectLeibniz, bm: BlockMap, shape: CanonicalShape):
    """An extended automorphism has a vanishing coupling when dim S != dim
    I, and it is an automorphism by its blocks: the S-block is shape, the
    automorphism of sl_n that was extended, and the I-block intertwines
    onto the module twisted by it."""
    if lb.dim_s != lb.dim_i:
        _need(bm.coupling.is_zero(), "coupling must vanish when dim S != dim I")
    _recheck_block_automorphism(lb, bm, shape)
