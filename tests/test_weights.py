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

from locaut import linalg
from locaut.algebra import unit_vector
from locaut.classify import random_unimodular
from locaut.exact import GaussianRational, internal_check
from locaut.leibniz import (
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
from test_linalg import reference_intertwiner_space

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
    assert lb.weights == reference_weight_decomposition(lb.module)


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
def test_extension_solves_no_kronecker_system(monkeypatch, n, name):
    """intertwiner_space solves through linalg.kernel; with the diagonal
    Cartan pair first, no system has the dim_i^2 columns of the Kronecker
    form."""
    lb = semidirect(n, name)
    widths = []

    def spy(m):
        widths.append(m.ncols)
        return kernel(m)

    monkeypatch.setattr(linalg, "kernel", spy)
    inner = inner_automorphism_matrix(lb.model, random_unimodular(n, random.Random(5)))
    minus_t = lb.model.map_matrix(lambda x: -(x.T))
    for phi in (inner, minus_t):
        extend_automorphism(lb, phi, 1)
    assert widths
    assert lb.dim_i ** 2 not in widths


# -- (d) the same isomorphism as the Kronecker-first order -------------------


@given(st.sampled_from([m for m in MODULES if m != (4, "adjoint")]), st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_isomorphism_matches_kronecker_first_order(module, seed):
    n, name = module
    m1 = semidirect(n, name).module
    phi = inner_automorphism_matrix(m1.model, random_unimodular(n, random.Random(seed)))
    twisted = twisted_actions(m1, phi)
    space = reference_intertwiner_space(list(zip(twisted, m1.actions)))
    assert space.dim == 1
    assert module_isomorphism(m1, twisted) == matrix_from_flat(space.basis[0], m1.dim)


# -- (e) h0 + y_beta is no bracket-square point ------------------------------


@pytest.mark.parametrize("n, name", MODULES, ids=[f"{name}-n{n}" for n, name in MODULES])
def test_h0_plus_y_beta_squares_to_a_positive_multiple_of_y_beta(n, name):
    """[z, z] = y_beta . h0 = beta(h0) y_beta at z = h0 + y_beta, and
    beta(h0) > 0 on every nontrivial module, so z is not square-zero; on the
    trivial module V(0) the action, and so every image square, vanishes."""
    lb = semidirect(n, name)
    h0c = lb.model.coords(lb.h0)
    beta_h0 = sum(c.re * b for c, b in zip(h0c[len(lb.model.off_pairs):], lb.beta()))
    z = tuple(a + b for a, b in zip(lb.embed_s(h0c), lb.embed_i(lb.y_beta)))
    assert lb.bracket(z, z) == lb.embed_i(tuple(x * GaussianRational(beta_h0) for x in lb.y_beta))
    if name == "vm:0":
        assert all(a.is_zero() for a in lb.module.actions)
    else:
        assert beta_h0 > 0
