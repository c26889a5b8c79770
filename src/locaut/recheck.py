"""Re-verification of verdicts and certificates.

Most checks recompute claims from first principles: determinants and
characteristic polynomials (n <= 4) come from one Laplace expansion, not
from elimination; a shape x -> epsilon a sigma(x) a^-1 is checked by the
product identity epsilon a sigma(x) = y a after det(a) != 0, with no inverse;
brackets come straight from structure constants, and a stored vector must
equal the recomputed one entry for entry, length included.  Some reuse
decision code: no_shape_fits re-runs fit_shape_family, the torus fit (column
kernels at h0, simple-root ratios, the one candidate checked by
CanonicalShape.apply), on exactly the model's families, in the classifier's
order, and the weight
certificate reads weights with leibniz.weight_components, over the same
weight basis that the decision uses.

Positive Leibniz verdicts, extensions and the weight certificate's reducer
are checked by the block lemma (_recheck_block_automorphism): a fit or an
elimination only finds a witness, which products then check, so a fault in
either can only reject a true claim.  The weight certificate's reduced map
is checked by one product, reducer after reduced = the map.  A
bracket_failure certificate is checked at its one stored pair; nothing runs
the full bracket scan.

All checks raise RecheckError with a description on failure and return None
on success.
"""

from __future__ import annotations

from .algebra import unit_vector, vec_is_zero
from .classify import (
    AUTOMORPHISM,
    ANTI_AUTOMORPHISM,
    MN_FAMILIES,
    NOT_LOCAL,
    Verdict,
    automorphism_shape,
    basis_images,
    fit_shape_family,
    probe_element,
    required_probe_charpoly,
)
from .exact import GR_ONE, GR_ZERO, GaussianRational, Polynomial
from .leibniz import (
    BlockMap,
    LOCAL_AUT,
    LeibnizVerdict,
    SemidirectLeibniz,
    weight_components,
)
from .linalg import Matrix, _poly_matrix_char, charpoly, inverse
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


def cofactor_det(m: Matrix) -> GaussianRational:
    """Determinant by Laplace expansion, independent of elimination code."""
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


def _recheck_kernel_vector(m: Matrix, vker):
    """vker is a nonzero vector of the right length that m sends to zero."""
    _need(len(vker) == m.ncols, "kernel vector has the wrong length")
    _need(any(x.a or x.b for x in vker), "kernel vector is zero")
    _need(all(x.is_zero() for x in m.apply(vker)), "kernel vector not annihilated")


def _recheck_conjugation(model: SlnModel, shape: CanonicalShape, pairs, msg: str):
    """epsilon a sigma(x) a^-1 = y for each pair (x, y) of n x n matrices.
    With det(a) != 0 by Laplace expansion this is the product identity
    epsilon a sigma(x) = y a, so no inverse is formed."""
    a = shape.a
    _need(a.nrows == a.ncols == model.n, "conjugator has the wrong size")
    _need(not cofactor_det(a).is_zero(), "conjugator is singular")
    for x, y in pairs:
        img = a @ (x.T if shape.sigma == SIGMA_T else x)
        _need((img if shape.epsilon == 1 else -img) == y @ a, msg)


def recheck_shape(model: SlnModel, images, shape: CanonicalShape):
    """The shape reproduces the map's basis images (classify.basis_images)."""
    _recheck_conjugation(model, shape, zip(model.basis, images), "shape does not reproduce the map")


def recheck_witness_at(model: SlnModel, d: Matrix, x: Matrix, shape: CanonicalShape):
    """A pointwise witness: the shape agrees with the map at x exactly."""
    pairs = [(x, model.apply_map(d, x))]
    _recheck_conjugation(model, shape, pairs, "witness does not match the map at x")


def _probe_charpoly(model: SlnModel, d: Matrix):
    """charpoly of the probe's image: cofactor expansion for n <= 4, and
    linalg.charpoly beyond, where the expansion is exponential."""
    img = model.apply_map(d, probe_element(model))
    return charpoly_via_cofactor(img) if model.n <= 4 else charpoly(img)


def recheck_sln_verdict(model: SlnModel, d: Matrix, v: Verdict):
    if v.verdict in (AUTOMORPHISM, ANTI_AUTOMORPHISM):
        _need(v.shape is not None, "positive verdict without a shape")
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
    ob = v.obstruction
    _need(ob is not None, "negative verdict without a certificate")
    kind = ob.kind
    if kind == "not_injective":
        _recheck_kernel_vector(d, ob.kernel_vector)
    elif kind == "square_zero_broken":
        x = ob.witness
        _need(x.nrows == x.ncols == model.n, "witness has the wrong size")
        # square-zero means nilpotent, hence traceless: apply_map accepts x
        _need((x @ x).is_zero(), "witness is not square-zero")
        y = model.apply_map(d, x)
        _need(not (y @ y).is_zero(), "image square vanishes after all")
    elif kind == "lambda_not_unit":
        p = _probe_charpoly(model, d)
        _need(p == ob.probe_charpoly, "stored probe polynomial is wrong")
        _need(
            ob.required_charpoly == required_probe_charpoly(model.n),
            "stored required polynomial is wrong",
        )
        _need(
            not (ob.lam_squared - GR_ONE).is_zero(),
            "lambda squared is 1: certificate vacuous",
        )
        shift = Polynomial((0,) * (model.n - 2) + (1,))
        scaled = Polynomial((-ob.lam_squared, GR_ZERO, GR_ONE)) * shift
        _need(p == scaled, "probe polynomial does not have the scaled form")
        _need(ob.lam == ob.lam_squared.sqrt(), "stored lambda is not the canonical square root")
    elif kind == "no_shape_fits":
        on_mn = isinstance(model, MnModel)
        families = MN_FAMILIES if on_mn else SHAPE_FAMILIES
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
        want = (None, None) if on_mn else (_probe_charpoly(model, d), required_probe_charpoly(model.n))
        _need(ob.probe_charpoly == want[0], "stored probe polynomial is wrong")
        _need(ob.required_charpoly == want[1], "stored required polynomial is wrong")
    elif kind == "identity_not_fixed":
        one = Matrix.identity(model.n)
        img = model.apply_map(d, one)
        _need(img == ob.image_of_identity, "stored image of identity is wrong")
        _need(img != one, "identity is fixed after all")
    else:
        raise RecheckError(f"unknown certificate kind {kind}")


# ---------------------------------------------------------------------------
# Leibniz verdicts


def _recheck_block_automorphism(lb: SemidirectLeibniz, bm: BlockMap):
    """The block map [[phi, 0], [C, theta]] is an automorphism of L, by the
    block lemma of leibniz.is_block_automorphism, with every step checked
    by products:
    - phi fits an automorphism family, found by classify.automorphism_shape
      and then checked like any shape, by recheck_shape;
    - theta is invertible: an inverse found by elimination satisfies
      theta theta' = 1;
    - theta R_g = R_phi(g) theta and C rho(g) = R_phi(g) C on the Chevalley
      generators g, with rho the adjoint module's actions."""
    _need(lb.has_block_sizes(bm), "block sizes do not match the algebra")
    model, module = lb.model, lb.module
    phi, coupling, theta = bm.s_block, bm.coupling, bm.i_block
    images = basis_images(model, phi)
    shape = automorphism_shape(model, phi, images)
    _need(shape is not None, "S-block fits no automorphism family")
    recheck_shape(model, images, shape)
    try:
        theta_inv = inverse(theta)
    except ZeroDivisionError:
        raise RecheckError("I-block is singular") from None
    _need(theta @ theta_inv == Matrix.identity(lb.dim_i), "I-block inverse does not check")
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


def recheck_leibniz_verdict(lb: SemidirectLeibniz, bm: BlockMap, v: LeibnizVerdict):
    if v.verdict == LOCAL_AUT:
        _recheck_block_automorphism(lb, bm)
        return
    _need(v.verdict == NOT_LOCAL, f"unknown verdict {v.verdict}")
    cert = v.certificate
    _need(cert is not None, "negative verdict without a certificate")
    kind = cert.kind
    if kind == "sln_block":
        recheck_sln_verdict(lb.model, bm.s_block, cert.verdict)
    elif kind == "not_injective":
        _recheck_kernel_vector(bm.full_matrix(), cert.kernel_vector)
    elif kind == "bracket_square":
        z = tuple(cert.z)
        zero = (GR_ZERO,) * lb.dim
        _need(len(z) == lb.dim, "stored z has the wrong length")
        _need(lb.bracket(z, z) == zero, "[z, z] is not zero")
        dz = bm.full_matrix().apply(z)
        sq = lb.bracket(dz, dz)
        _need(sq == tuple(cert.image_square), "stored image square is wrong")
        _need(sq != zero, "image square vanishes")
    elif kind == "weight_structure":
        _recheck_weight_obstruction(lb, bm, cert)
    elif kind == "bracket_failure":
        i, j = cert.i, cert.j
        _need(all(isinstance(k, int) and 0 <= k < lb.dim for k in (i, j)), "no such basis pair")
        full = bm.full_matrix()
        lhs = full.apply(lb.algebra.table[i][j])
        rhs = lb.bracket(
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
    _recheck_block_automorphism(lb, cert.reducer)
    # the reducer is invertible, so reducer after reduced = the map pins
    # reduced down as reducer^-1 after the map
    _need(lb.has_block_sizes(cert.reduced), "stored reduced map has the wrong block sizes")
    _need(cert.reducer.compose(cert.reduced) == bm, "stored reduced map is not reducer^-1 after the map")
    model = lb.model
    z = tuple(cert.z)
    _need(len(z) == lb.dim, "stored z has the wrong length")
    h0c, y = lb.split(z)
    _need(h0c == model.coords(lb.h0), "S-part of z is not h0")
    _need([x for x in y if not x.is_zero()] == [GR_ONE], "I-part of z is not a unit vector")
    positive = [lb.module.actions[model.off_pairs.index(p)] for p in model.positive_roots()]
    _need(all(vec_is_zero(e.apply(y)) for e in positive), "a positive root does not kill the I-part of z")
    _need(list(weight_components(lb, y)) == [cert.beta], "stored beta is not the weight of z's I-part")
    _need(any(b != 0 for b in cert.beta), "beta is zero: certificate not applicable")
    _need(type(cert.sign) is int and cert.sign in (1, -1), "sign is not the int 1 or -1")
    img_h0 = cert.reduced.s_block.apply(h0c)
    want = h0c if cert.sign == 1 else tuple(-x for x in h0c)
    _need(img_h0 == want, "reduced S-block does not send h0 to sign*h0")
    _, i_part = lb.split(cert.reduced.full_matrix().apply(z))
    _need(i_part == tuple(cert.i_part), "stored I-part of the image is wrong")
    weights = weight_components(lb, i_part)
    target = cert.beta if cert.sign == 1 else tuple(-b for b in cert.beta)
    zero_w = tuple(0 * b for b in cert.beta)
    violated = target not in weights or not weights <= {zero_w, target}
    _need(violated, "image respects the forced weight structure after all")


# ---------------------------------------------------------------------------
# Extension structure (block form)


def recheck_extension_structure(lb: SemidirectLeibniz, bm: BlockMap):
    """An extended automorphism has a vanishing coupling when dim S != dim
    I, and it is an automorphism by its blocks: the S-block fits an
    automorphism family, and the I-block intertwines onto the module
    twisted by it."""
    if lb.dim_s != lb.dim_i:
        _need(bm.coupling.is_zero(), "coupling must vanish when dim S != dim I")
    _recheck_block_automorphism(lb, bm)
