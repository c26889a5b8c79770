"""Weights read from the weight basis, against the eigenvalue scan.

Every module build_module makes is written in a weight basis, so
weight_decomposition reads the weights off the Cartan diagonals and
weight_components reads coordinates.  The references below are the general
routines they replace: an integer eigenvalue scan that splits joint
eigenspaces in any basis, and a linear solve over the weight-space bases.
"""

import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut import leibniz, linalg
from locaut.algebra import unit_vector
from locaut.classify import random_unimodular
from locaut.exact import GaussianRational, internal_check
from locaut.leibniz import (
    BlockMap,
    RightModule,
    WeightSpace,
    build_module,
    build_semidirect,
    extend_automorphism,
    inner_automorphism_matrix,
    module_isomorphism,
    module_natural,
    weight_components,
    weight_decomposition,
)
from locaut.linalg import Matrix, Subspace, combine, inverse, kernel, matrix_from_flat, solve_linear
from locaut.sln import SlnModel
from test_leibniz import twisted_actions
from test_linalg import kronecker_intertwiner_space

MODULES = (
    [(2, f"vm:{m}") for m in range(9)]
    + [(n, "natural") for n in range(2, 6)]
    + [(n, "adjoint") for n in range(2, 5)]
)


@cache
def semidirect(n, name):
    model = SlnModel(n)
    return build_semidirect(model, build_module(model, name))


# -- references: the eigenvalue scan and the component solve ----------------


def reference_split(vectors, op, ambient):
    """Eigenspaces of op on span(vectors), scanned over integer eigenvalues."""
    space = Subspace(ambient, vectors)
    k = space.dim
    if k == 0:
        return []
    cols = []
    for b in space.basis:
        coords, residual = space.reduce(op.apply(b))
        if any(not x.is_zero() for x in residual):
            raise ValueError("operator does not preserve the subspace")
        cols.append(coords)
    restricted = Matrix(zip(*cols))
    bound = int(max(sum(abs(x.re) + abs(x.im) for x in row) for row in restricted.data)) + 1
    parts = []
    total = 0
    for lam in range(-bound, bound + 1):
        ker = kernel(restricted - Matrix.identity(k) * GaussianRational(lam))
        if ker.dim:
            parts.append((Fraction(lam), [combine(w, space.basis) for w in ker.basis]))
            total += ker.dim
    if total != k:
        raise ValueError("weights are not integral: eigenvalue scan incomplete")
    return parts


def reference_weight_decomposition(module):
    model = module.model
    n_off = len(model.off_pairs)
    cartans = [module.actions[n_off + k] for k in range(model.n - 1)]
    parts = [((), [unit_vector(i, module.dim) for i in range(module.dim)])]
    for hop in cartans:
        parts = [
            (values + (lam,), sub)
            for values, vecs in parts
            for lam, sub in reference_split(vecs, hop, module.dim)
        ]
    parts.sort(key=lambda p: p[0], reverse=True)
    return [WeightSpace(values=v, basis=Subspace(module.dim, vecs).basis) for v, vecs in parts]


def reference_weight_components(weights, v):
    cols = []
    meta = []
    for ws in weights:
        for b in ws.basis:
            cols.append(b)
            meta.append(ws.values)
    sol = solve_linear(Matrix(zip(*cols)), v)
    internal_check(sol is not None, "weight spaces do not span the module")
    comps: dict = {}
    for c, values in zip(sol, meta):
        if c.a or c.b:
            comps.setdefault(values, []).append(c)
    return comps


# -- (a) same weights and components as the scan -----------------------------


@pytest.mark.parametrize("n, name", MODULES, ids=[f"{name}-n{n}" for n, name in MODULES])
def test_weights_match_eigenvalue_scan(n, name):
    lb = semidirect(n, name)
    assert weight_decomposition(lb.module) == reference_weight_decomposition(lb.module)


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_components_match_solve(data):
    n, name = data.draw(st.sampled_from(MODULES))
    lb = semidirect(n, name)
    entry = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3))
    v = tuple(data.draw(st.lists(entry, min_size=lb.dim_i, max_size=lb.dim_i)))
    want = reference_weight_components(reference_weight_decomposition(lb.module), v)
    assert weight_components(lb, v) == set(want)


# -- (b) a module outside the weight basis -----------------------------------


def test_non_weight_basis_module_raises():
    """The natural module of sl_3 conjugated by a non-monomial g is a valid
    module with the natural module's weights, but its Cartan actions are not
    diagonal."""
    nat = module_natural(SlnModel(3))
    g = Matrix(((1, 1, 0), (0, 1, 1), (0, 0, 1)))
    conj = RightModule(nat.model, "natural^g", [inverse(g) @ a @ g for a in nat.actions])
    assert [w.values for w in reference_weight_decomposition(conj)] == [
        w.values for w in weight_decomposition(nat)
    ]
    with pytest.raises(ValueError, match="not diagonal"):
        weight_decomposition(conj)


# -- (c) no dim_i^2 system in the extension ----------------------------------


@pytest.mark.parametrize("n, name", [(2, "vm:6"), (3, "natural"), (3, "adjoint")])
def test_extension_solves_no_kronecker_system(monkeypatch, forbid, n, name):
    """The extension pushes the highest-weight line along the module's word
    basis: it calls no intertwiner_space, and no kernel it solves, through
    leibniz or inside linalg, is wider than the dim_i columns of the
    highest-weight system."""
    lb = semidirect(n, name)
    widths = []

    def spy(m):
        widths.append(m.ncols)
        return kernel(m)

    forbid("intertwiner_space")
    monkeypatch.setattr(linalg, "kernel", spy)
    monkeypatch.setattr(leibniz, "kernel", spy)
    inner = inner_automorphism_matrix(lb.model, random_unimodular(n, random.Random(5)))
    minus_t = lb.model.map_matrix(lambda x: -(x.T))
    for phi in (inner, minus_t):
        for omega in (0, 1):
            extend_automorphism(lb, phi, omega)
    assert widths
    assert max(widths) <= lb.dim_i


# -- (d) the same isomorphism as the Kronecker-first order -------------------


@given(st.sampled_from([m for m in MODULES if m != (4, "adjoint")]), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_isomorphism_matches_kronecker_first_order(module, seed):
    n, name = module
    m1 = semidirect(n, name).module
    phi = inner_automorphism_matrix(m1.model, random_unimodular(n, random.Random(seed)))
    twisted = twisted_actions(m1, phi)
    space = kronecker_intertwiner_space(list(zip(twisted, m1.actions)))
    assert space.dim == 1
    assert module_isomorphism(m1, twisted) == matrix_from_flat(space.basis[0], m1.dim)


def reference_isomorphism(module, actions):
    """The canonical basis matrix of the Kronecker intertwiner line, or None
    when the intertwiner space is 0."""
    space = kronecker_intertwiner_space(list(zip(actions, module.actions)))
    if space.dim == 0:
        return None
    assert space.dim == 1
    return matrix_from_flat(space.basis[0], module.dim)


OMEGAS = [1, 2, -1, GaussianRational(0, 1), GaussianRational(Fraction(-3, 2), 1)]


@given(
    st.sampled_from([m for m in MODULES if m != (4, "adjoint")]),
    st.integers(0, 10_000),
    st.booleans(),
    st.sampled_from(OMEGAS),
)
@settings(max_examples=40, deadline=None)
def test_extension_blocks_are_the_kronecker_lines(module, seed, minus_transpose, omega):
    """Over inner and -transpose twists, the I-block and, where dim S =
    dim I, the coupling omega scales are the Kronecker solve's lines, or
    None with an empty intertwiner space."""
    n, name = module
    lb = semidirect(n, name)
    phi = inner_automorphism_matrix(lb.model, random_unimodular(n, random.Random(seed)))
    if minus_transpose:
        phi = phi @ lb.model.map_matrix(lambda x: -(x.T))
    twisted = twisted_actions(lb.module, phi)
    phi_i = reference_isomorphism(lb.module, twisted)
    assert module_isomorphism(lb.module, twisted) == phi_i
    bm = extend_automorphism(lb, phi, omega)
    assert (bm is None) == (phi_i is None)
    if lb.dim_s != lb.dim_i or bm is None:
        return
    theta = reference_isomorphism(lb.adjoint_module, twisted)
    assert theta is not None
    assert module_isomorphism(lb.adjoint_module, twisted) == theta
    assert bm == BlockMap(phi, theta * omega, phi_i)


@pytest.mark.parametrize("n", [3, 4])
def test_minus_transpose_twist_of_the_natural_module_has_no_isomorphism(n):
    """-x^T twists the natural module into its dual, which differs from it
    for n >= 3: both the Kronecker solve and the word basis find nothing."""
    lb = semidirect(n, "natural")
    twisted = twisted_actions(lb.module, lb.model.map_matrix(lambda x: -(x.T)))
    assert reference_isomorphism(lb.module, twisted) is None
    assert module_isomorphism(lb.module, twisted) is None


@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_a_tampered_generator_gives_no_isomorphism(data):
    """Twisted actions with one Chevalley generator's matrix moved by a
    matrix unit obey no module law with the rest, and no T passes."""
    n, name = data.draw(st.sampled_from([m for m in MODULES if m != (4, "adjoint")]))
    m1 = semidirect(n, name).module
    phi = inner_automorphism_matrix(m1.model, random_unimodular(n, random.Random(data.draw(st.integers(0, 10_000)))))
    twisted = twisted_actions(m1, phi)
    assert module_isomorphism(m1, twisted) is not None
    g = data.draw(st.sampled_from(m1.model.generator_indices))
    p, q = data.draw(st.integers(0, m1.dim - 1)), data.draw(st.integers(0, m1.dim - 1))
    c = data.draw(st.sampled_from([1, -1, GaussianRational(0, 1)]))
    bump = Matrix(tuple(tuple(c if (r, s) == (p, q) else 0 for s in range(m1.dim)) for r in range(m1.dim)))
    twisted[g] = twisted[g] + bump
    assert module_isomorphism(m1, twisted) is None


@pytest.mark.parametrize("n, name", [(2, "vm:6"), (3, "natural"), (3, "adjoint")])
def test_word_basis_is_built_once_per_module(counting, n, name):
    """The module's own highest-weight line is solved once, for its word
    basis; each call then solves only the line of the actions it is given."""
    model = SlnModel(n)
    module = build_module(model, name)
    solves = counting(leibniz, "_highest_weight_space")
    rng = random.Random(n)
    for _ in range(3):
        phi = inner_automorphism_matrix(model, random_unimodular(n, rng))
        assert module_isomorphism(module, twisted_actions(module, phi)) is not None
    assert len(solves) == 4
    assert sum(args[1] is module.actions for args in solves) == 1


# -- (e) h0 + y_beta is no bracket-square point ------------------------------


@pytest.mark.parametrize("n, name", MODULES, ids=[f"{name}-n{n}" for n, name in MODULES])
def test_h0_plus_y_beta_squares_to_a_positive_multiple_of_y_beta(n, name):
    """[z, z] = y_beta . h0 = beta(h0) y_beta at z = h0 + y_beta, and
    beta(h0) > 0 on every nontrivial module, so z is not square-zero; on the
    trivial module V(0) the action, and so every image square, vanishes."""
    lb = semidirect(n, name)
    h0c = lb.model.coords(lb.model.strongly_regular_element())
    (beta,) = weight_components(lb, lb.y_beta)
    beta_h0 = sum(c.re * b for c, b in zip(h0c[len(lb.model.off_pairs):], beta))
    z = tuple(a + b for a, b in zip(lb.embed_s(h0c), lb.embed_i(lb.y_beta)))
    assert lb.algebra.bracket(z, z) == lb.embed_i(tuple(x * GaussianRational(beta_h0) for x in lb.y_beta))
    if name == "vm:0":
        assert all(a.is_zero() for a in lb.module.actions)
    else:
        assert beta_h0 > 0
