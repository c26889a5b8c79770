"""Acceptance gate: one test per numbered criterion, exact arithmetic only.

Every assertion is zero-tolerance; randomness is seeded so failures are
reproducible.  The terminal summary (see conftest.py) prints one PASS/FAIL
line per criterion.
"""

import random
import time
from fractions import Fraction

from locaut.classify import (
    ANTI_AUTOMORPHISM,
    AUTOMORPHISM,
    NOT_LOCAL,
    classify_sln,
    pointwise_witness,
    probe_element,
    random_unimodular,
    scaled_probe_charpoly,
)
from locaut.exact import GaussianRational, Polynomial, parse_scalar
from locaut.filiform import (
    delta_map,
    filiform_local_witness,
    map_is_automorphism,
    model_filiform,
    phi_is_automorphism,
    sample_points,
)
from locaut.leibniz import (
    BlockMap,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    inner_automorphism_matrix,
    is_automorphism,
)
from locaut.linalg import (
    Matrix,
    charpoly,
    det,
    inverse,
    invariant_factors,
    kernel,
    solve_linear,
)
from locaut.recheck import (
    adjugate_inverse,
    charpoly_via_cofactor,
    cofactor_det,
    recheck_extension_structure,
    recheck_leibniz_verdict,
    recheck_sln_verdict,
    recheck_witness_at,
)
from locaut.sln import SIGMA_ID, SIGMA_T, CanonicalShape, SlnModel

GR0 = GaussianRational(0)
GR1 = GaussianRational(1)
T = Polynomial((0, 1))

FAMILIES = ((1, "identity"), (1, "transpose"), (-1, "identity"), (-1, "transpose"))


def random_invertible(n, rng):
    """Unimodular times a random nonzero diagonal: invertible, varied scale."""
    scales = (1, -1, 2, 3, Fraction(1, 2), Fraction(-1, 3))
    d = Matrix(
        [
            [GaussianRational(rng.choice(scales)) if i == j else GR0 for j in range(n)]
            for i in range(n)
        ]
    )
    return d @ random_unimodular(n, rng)


def is_scalar_identity(m):
    c = m[0, 0]
    return not c.is_zero() and m == Matrix.identity(m.nrows) * c


def random_matrix(r, c, rng, lo=-4, hi=4):
    return Matrix([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


def test_criterion_1_shape_recovery():
    """100 seeded conjugators per family, n in {2, 3}: correct class, and the
    generating family shows up among the fits with a scalar-equivalent
    conjugator.  Under 60 s total."""
    start = time.monotonic()
    for n in (2, 3):
        model = SlnModel(n)
        for fam_index, (eps, sigma) in enumerate(FAMILIES):
            rng = random.Random(1000 * n + fam_index)
            for _ in range(100):
                a = random_invertible(n, rng)
                built = CanonicalShape(eps, sigma, a)
                d = model.map_matrix(built.apply)
                v = classify_sln(model, d)
                want = AUTOMORPHISM if built.is_automorphism_family() else ANTI_AUTOMORPHISM
                assert v.verdict == want
                fits = v.shapes if len(v.shapes) > 1 else (v.shape,)
                same_family = [
                    s for s in fits if (s.epsilon, s.sigma) == (eps, sigma)
                ]
                assert same_family, f"family {(eps, sigma)} lost at n={n}"
                assert is_scalar_identity(same_family[0].a @ inverse(a))
    assert time.monotonic() - start < 60


def test_criterion_2_scalings_rejected():
    """lambda * id is NotLocal for lambda outside {1, -1}, with the exact
    probe polynomial (t - lambda)(t + lambda) t^(n-2); +-1 are accepted."""
    for lam_text in ("2", "-3", "i", "1/2"):
        lam = parse_scalar(lam_text)
        for n in (2, 3, 4):
            model = SlnModel(n)
            d = model.scalar_map(lam)
            v = classify_sln(model, d)
            assert v.verdict == NOT_LOCAL
            ob = v.obstruction
            assert ob.kind == "lambda_not_unit"
            want = (T - lam) * (T + lam)
            for _ in range(n - 2):
                want = want * T
            assert ob.probe_charpoly == want
            assert ob.required_charpoly == scaled_probe_charpoly(n, 1)
            recheck_sln_verdict(model, d, v)
    for lam, want in ((1, AUTOMORPHISM), (-1, ANTI_AUTOMORPHISM)):
        for n in (2, 3, 4):
            model = SlnModel(n)
            v = classify_sln(model, model.scalar_map(lam))
            assert v.verdict == want


def test_criterion_3_pointwise_witnesses():
    """Transpose and negation on sl_n: at 100 seeded points each a genuine
    automorphism agrees with the map, exactly, for n in {2, 3, 4}."""
    for n in (2, 3, 4):
        model = SlnModel(n)
        for tag, dm in ((0, model.transpose_map()), (1, model.scalar_map(-1))):
            rng = random.Random(300 + 10 * n + tag)
            for _ in range(100):
                coords = [rng.randint(-5, 5) for _ in range(model.dim)]
                while all(c == 0 for c in coords):
                    coords = [rng.randint(-5, 5) for _ in range(model.dim)]
                x = model.matrix(coords)
                shape = pointwise_witness(model, dm, x)
                assert shape is not None
                expected = x.T if tag == 0 else -x
                assert shape.apply(x) == expected
                recheck_witness_at(model, dm, x, shape)


def test_criterion_4_charpoly_probe():
    """charpoly(diag(1, -1, 0, ...)) = (t - 1)(t + 1) t^(n-2) exactly,
    cofactor cross-check for n <= 4."""
    for n in range(2, 7):
        m = probe_element(SlnModel(n))
        want = (T - GR1) * (T + GR1)
        for _ in range(n - 2):
            want = want * T
        cp = charpoly(m)
        assert cp == want
        assert cp == scaled_probe_charpoly(n, 1)
        if n <= 4:
            assert charpoly_via_cofactor(m) == cp


def _extension_corpus():
    """Extended automorphisms over sl_2 with V(2), V(3), and the adjoint
    module, each with the shape of its S-block: random inner S-blocks with
    omega in {0, 1}, plus a genuinely anti-inner S-block (-transpose) on the
    adjoint module."""
    model = SlnModel(2)
    corpus = []
    for module_text in ("vm:2", "vm:3"):
        lb = build_semidirect(model, build_module(model, module_text))
        rng = random.Random(50)
        for count in range(20):
            g = random_invertible(2, rng)
            phi_s = inner_automorphism_matrix(model, g)
            bm = extend_automorphism(lb, phi_s, count % 2)
            assert bm is not None, f"{module_text}: inner map failed to extend"
            corpus.append((lb, bm, CanonicalShape(1, SIGMA_ID, g)))
    lb = build_semidirect(model, build_module(model, "adjoint"))
    neg_t = model.map_matrix(lambda x: -(x.T))
    for omega in (0, 1):
        bm = extend_automorphism(lb, neg_t, omega)
        assert bm is not None, "-transpose failed to extend over the adjoint module"
        corpus.append((lb, bm, CanonicalShape(-1, SIGMA_T, Matrix.identity(2))))
    return corpus


def test_criterion_5_leibniz_both_directions():
    """(a) 40 extended automorphisms over V(2) and V(3) all judged local.
    (b) transpose and negation S-blocks refuted with an independently
    re-verified square certificate whose point is e_root + weight vector."""
    model = SlnModel(2)
    for module_text in ("vm:2", "vm:3"):
        lb = build_semidirect(model, build_module(model, module_text))
        rng = random.Random(50)
        for count in range(20):
            phi_s = inner_automorphism_matrix(model, random_invertible(2, rng))
            bm = extend_automorphism(lb, phi_s, count % 2)
            v = decide_local_aut(lb, bm)
            assert v.verdict == "LocalAutomorphism" and v.certificate is None
            recheck_leibniz_verdict(lb, bm, v)

        k = lb.dim_i
        flip = Matrix([[1 if i + j == k - 1 else 0 for j in range(k)] for i in range(k)])
        anti_cases = (
            (model.transpose_map(), Matrix.identity(k)),
            (model.scalar_map(-1), flip),
        )
        for s_block, i_block in anti_cases:
            bm = BlockMap(s_block, Matrix.zeros(k, lb.dim_s), i_block)
            v = decide_local_aut(lb, bm)
            assert v.verdict == "NotLocal"
            cert = v.certificate
            assert cert.kind == "bracket_square"
            s_part, i_part = lb.split(cert.z)
            assert sum(1 for c in s_part if not c.is_zero()) == 1
            assert sum(1 for c in i_part if not c.is_zero()) == 1
            zero = (GR0,) * lb.dim
            assert tuple(lb.algebra.bracket(cert.z, cert.z)) == zero
            image = bm.full_matrix().apply(cert.z)
            square = lb.algebra.bracket(image, image)
            assert tuple(square) == tuple(cert.image_square)
            assert any(not c.is_zero() for c in square)
            recheck_leibniz_verdict(lb, bm, v)


def test_criterion_6_extension_block_structure():
    """Every extended automorphism: I-block intertwines onto the twisted
    module, coupling vanishes when dim S != dim I, all brackets preserved."""
    for lb, bm, shape in _extension_corpus():
        recheck_extension_structure(lb, bm, shape)
        if lb.dim_s != lb.dim_i:
            assert bm.coupling.is_zero()
        ok, pair = is_automorphism(lb, bm)
        assert ok, f"bracket broken at {pair}"
        for a in range(lb.dim_s):
            col = bm.s_block.column(a)
            twisted = Matrix.zeros(lb.dim_i, lb.dim_i)
            for c, r in zip(col, lb.module.actions):
                twisted = twisted + r * c
            assert bm.i_block @ lb.module.actions[a] == twisted @ bm.i_block


def test_criterion_7_squares_ideal_liezation():
    """Each semidirect algebra: squares ideal is exactly the module part,
    bracketing with it on the right kills everything, and the liezation is a
    Lie algebra of dimension n^2 - 1."""
    builds = ((2, "vm:2"), (2, "vm:3"), (2, "adjoint"), (3, "natural"), (3, "adjoint"))
    for n, module_text in builds:
        model = SlnModel(n)
        lb = build_semidirect(model, build_module(model, module_text))
        ideal = lb.algebra.squares_ideal()
        assert ideal.dim == lb.dim_i
        unit = lambda p, d: tuple(GR1 if q == p else GR0 for q in range(d))
        for p in range(lb.dim_i):
            assert ideal.contains(lb.embed_i(unit(p, lb.dim_i)))
        zero = (GR0,) * lb.dim
        for i in range(lb.dim):
            for p in range(lb.dim_i):
                assert tuple(lb.algebra.bracket(unit(i, lb.dim), lb.embed_i(unit(p, lb.dim_i)))) == zero
        quotient, free, _project = lb.algebra.liezation()
        assert quotient.dim == n * n - 1
        assert len(free) == n * n - 1
        assert quotient.validate_lie() == []


def test_criterion_8_filiform():
    """Model filiform n = 3..8: phi_alpha is an automorphism iff alpha = 1;
    delta = phi_0 is not one (failing pair re-verified) yet has an exact
    witness at 200 seeded points per n including the x_2 = 0 branch.
    Under 30 s total."""
    start = time.monotonic()
    alphas = (0, 1, 2, -1, Fraction(1, 2))
    for n in range(3, 9):
        fl = model_filiform(n)
        for alpha in alphas:
            ok, _ = phi_is_automorphism(fl, alpha)
            assert ok == (alpha == 1)
        delta = delta_map(fl)
        ok, pair = map_is_automorphism(fl, delta)
        assert not ok and pair is not None
        i, j = pair
        unit = lambda p: tuple(GR1 if q == p else GR0 for q in range(n))
        lhs = delta.apply(fl.algebra.bracket(unit(i), unit(j)))
        rhs = fl.algebra.bracket(delta.apply(unit(i)), delta.apply(unit(j)))
        assert tuple(lhs) != tuple(rhs)
        points = sample_points(n, 200, seed=77 + n)
        assert sum(1 for x in points if x[1] == 0) >= 50
        for x in points:
            witness = filiform_local_witness(fl, x)
            wm = witness.matrix(fl)
            assert map_is_automorphism(fl, wm)[0]
            assert tuple(wm.apply(x)) == tuple(delta.apply(x))
    assert time.monotonic() - start < 30


def test_criterion_9_exact_kernel_oracles():
    """inverse/det/charpoly/invariant factors vs brute-force oracles, hand
    Smith-form cases, and 500 seeded solve/kernel round-trips, all exact."""
    rng = random.Random(9999)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = random_matrix(n, n, rng)
        assert det(m) == cofactor_det(m)
        assert charpoly(m) == charpoly_via_cofactor(m)
        if not det(m).is_zero():
            assert inverse(m) == adjugate_inverse(m)
            assert m @ inverse(m) == Matrix.identity(n)
        factors = invariant_factors(m)
        product = Polynomial((1,))
        for f in factors:
            product = product * f
        assert product == charpoly(m)

    t_minus = lambda c: T - GaussianRational(c)
    assert invariant_factors(Matrix.zeros(2, 2)) == (T, T)
    assert invariant_factors(Matrix([[0, 1], [0, 0]])) == (T * T,)
    assert invariant_factors(Matrix([[1, 0], [0, -1]])) == (t_minus(1) * t_minus(-1),)
    assert invariant_factors(Matrix.identity(2)) == (t_minus(1), t_minus(1))

    rng = random.Random(424242)
    for _ in range(500):
        n = rng.randint(1, 4)
        a = random_matrix(n, n, rng)
        x0 = tuple(GaussianRational(rng.randint(-4, 4)) for _ in range(n))
        b = a.apply(x0)
        x = solve_linear(a, b)
        assert x is not None
        assert tuple(a.apply(x)) == tuple(b)
        for k in kernel(a).basis:
            assert all(c.is_zero() for c in a.apply(k))
