"""Semidirect Leibniz algebras sl_n + I and their local automorphisms."""

import random
from fractions import Fraction

import pytest

from locaut.classify import fit_shape_family, random_unimodular
from locaut.exact import GR_ZERO, GaussianRational
from locaut.leibniz import (
    LOCAL_AUT,
    BlockMap,
    RightModule,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    highest_weight_vector,
    inner_automorphism_matrix,
    is_automorphism,
    is_irreducible,
    is_simple,
    module_adjoint,
    module_isomorphism,
    module_natural,
    module_vm,
    weight_components,
    weight_decomposition,
)
from locaut.linalg import Matrix, Subspace, det, inverse
from locaut.recheck import recheck_leibniz_verdict
from locaut.sln import SIGMA_T, SlnModel, shape_map_matrix
from test_decision_order import leibniz_maps

NOT_LOCAL = "NotLocal"


def gr(x):
    return GaussianRational(x)


def vec(*xs):
    return tuple(gr(x) for x in xs)


def semidirect(n, module_text):
    model = SlnModel(n)
    return build_semidirect(model, build_module(model, module_text))


MODULES = (
    [(2, f"vm:{m}") for m in range(7)] + [(n, "natural") for n in (2, 3, 4)] + [(2, "adjoint"), (3, "adjoint")]
)


def action(module, g):
    """The action matrix of the model basis element g."""
    return module.actions[module.model.basis.index(g)]


def weight_flip(dim):
    return Matrix(tuple(tuple(1 if p + q == dim - 1 else 0 for q in range(dim)) for p in range(dim)))


# -- modules ----------------------------------------------------------------


def test_module_vm_satisfies_law():
    assert module_vm(SlnModel(2), 2).law_violations() == []
    assert module_vm(SlnModel(2), 5).law_violations() == []


def test_module_constructor_rejects_bad_actions():
    model = SlnModel(2)
    good = module_vm(model, 1)
    broken = list(good.actions)
    broken[0] = broken[0] + Matrix.identity(2)
    with pytest.raises(ValueError):
        RightModule(model, "broken", broken)
    with pytest.raises(ValueError):
        RightModule(model, "short", broken[:2])


def test_vm_action_values():
    vm = module_vm(SlnModel(2), 2)
    m2 = vm.model
    y = vec(1, 0, 0)
    # the top vector scales by -m under h1 in the right action
    assert action(vm, m2.h(0)).apply(y) == vec(-2, 0, 0)
    # and e12 annihilates it
    assert action(vm, m2.e(0, 1)).apply(y) == vec(0, 0, 0)


def test_natural_action_is_negated_matrix_action():
    nat = module_natural(SlnModel(3))
    m3 = nat.model
    assert action(nat, m3.e(0, 1)).apply(vec(0, 1, 0)) == vec(-1, 0, 0)


def test_adjoint_action_is_bracket():
    model = SlnModel(2)
    adj = module_adjoint(model)
    for g in (model.e(0, 1), model.h(0)):
        for i in range(model.dim):
            v = adj.model.coords(model.basis[i])
            expected = model.coords(SlnModel.bracket(model.basis[i], g))
            assert action(adj, g).apply(v) == expected


def test_build_module_parsing():
    m2, m3 = SlnModel(2), SlnModel(3)
    assert build_module(m2, "vm:3").dim == 4
    assert build_module(m3, "natural").dim == 3
    assert build_module(m3, "adjoint").dim == 8
    with pytest.raises(ValueError):
        build_module(m3, "vm:2")
    with pytest.raises(ValueError, match="sl_2 only"):
        build_module(m3, "vm:x")
    with pytest.raises(ValueError):
        build_module(m2, "spin")


@pytest.mark.parametrize("name", ["vm:x", "vm:", "vm:1.5", "vm:1_0", "vm: 3", "vm:+2", "vm:\u0663", "vm:-1"])
def test_build_module_names_the_vm_form(name):
    with pytest.raises(ValueError, match="vm:<m>") as info:
        build_module(SlnModel(2), name)
    assert "int()" not in str(info.value)


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (3, "natural"), (3, "adjoint")])
def test_build_module_reuses_the_given_model(n, name):
    model = SlnModel(n)
    module = build_module(model, name)
    assert module.model is model
    lb = build_semidirect(model, module)
    assert lb.module.model is lb.model


def test_semidirect_takes_the_module_model():
    # a second model over the same n is accepted, but the algebra keeps one
    lb = build_semidirect(SlnModel(2), module_vm(SlnModel(2), 2))
    assert lb.model is lb.module.model
    with pytest.raises(ValueError, match="different sl_n"):
        build_semidirect(SlnModel(3), module_vm(SlnModel(2), 2))


@pytest.mark.parametrize("n, name", MODULES)
def test_semidirect_table_satisfies_leibniz_identity(n, name):
    # build_semidirect does not validate: the identity follows from the sl_n
    # table and the right-module law
    assert semidirect(n, name).algebra.validate_leibniz() == []


# -- weights ----------------------------------------------------------------


def test_vm2_weight_decomposition():
    ws = weight_decomposition(module_vm(SlnModel(2), 2))
    assert [w.values for w in ws] == [(Fraction(2),), (Fraction(0),), (Fraction(-2),)]
    assert all(len(w.basis) == 1 for w in ws)


def test_natural3_weight_decomposition():
    ws = weight_decomposition(module_natural(SlnModel(3)))
    values = [w.values for w in ws]
    assert values == sorted(values, reverse=True)
    assert len(ws) == 3 and all(len(w.basis) == 1 for w in ws)


def test_adjoint3_zero_weight_plane():
    ws = weight_decomposition(module_adjoint(SlnModel(3)))
    assert len(ws) == 7
    zero = next(w for w in ws if all(v == 0 for v in w.values))
    assert len(zero.basis) == 2


def test_highest_weight_vectors():
    assert highest_weight_vector(module_vm(SlnModel(2), 2)) == vec(1, 0, 0)
    assert highest_weight_vector(module_natural(SlnModel(3))) == vec(1, 0, 0)


def test_irreducibility():
    assert is_irreducible(module_vm(SlnModel(2), 0))
    assert is_irreducible(module_vm(SlnModel(2), 4))
    assert is_irreducible(module_natural(SlnModel(3)))
    assert is_irreducible(module_adjoint(SlnModel(3)))
    vm1 = module_vm(SlnModel(2), 1)
    doubled = [
        Matrix(
            tuple(tuple(a.data[p] + (GR_ZERO, GR_ZERO) for p in range(2))
                  + tuple((GR_ZERO, GR_ZERO) + a.data[p] for p in range(2)))
        )
        for a in vm1.actions
    ]
    assert not is_irreducible(RightModule(vm1.model, "V(1)+V(1)", doubled))


# -- the semidirect sum -----------------------------------------------------


def test_semidirect_dimensions_and_labels():
    lb = semidirect(2, "vm:2")
    assert (lb.dim_s, lb.dim_i, lb.dim) == (3, 3, 6)
    assert lb.algebra.labels == ("e12", "e21", "h1", "v1", "v2", "v3")


def test_bracket_orientation():
    lb = semidirect(2, "vm:2")
    g = lb.model.e(1, 0)
    v = vec(1, 0, 0)
    # the module part multiplies from the left slot only
    got = lb.algebra.bracket(lb.embed_i(v), lb.embed_s(lb.model.coords(g)))
    assert got == lb.embed_i(action(lb.module, g).apply(v))
    assert all(
        x.is_zero()
        for x in lb.algebra.bracket(lb.embed_s(lb.model.coords(g)), lb.embed_i(v))
    )


def test_everything_right_annihilates_module():
    lb = semidirect(2, "vm:3")
    for i in range(lb.dim):
        for p in range(lb.dim_i):
            got = lb.algebra.bracket(lb.algebra.unit(i), lb.algebra.unit(lb.dim_s + p))
            assert all(x.is_zero() for x in got)


def test_squares_ideal_is_module_part():
    lb = semidirect(2, "vm:2")
    ideal = lb.algebra.squares_ideal()
    assert ideal.dim == lb.dim_i
    for p in range(lb.dim_i):
        assert ideal.contains(lb.algebra.unit(lb.dim_s + p))


def test_liezation_recovers_sln():
    lb = semidirect(2, "vm:2")
    quotient, free, _ = lb.algebra.liezation()
    assert quotient.dim == lb.dim_s
    assert quotient.validate_lie() == []


@pytest.mark.parametrize("module_text,n", [("vm:2", 2), ("vm:3", 2), ("natural", 3), ("adjoint", 3)])
def test_simplicity(module_text, n):
    assert is_simple(semidirect(n, module_text))


def test_trivial_module_not_simple():
    assert not is_simple(semidirect(2, "vm:0"))


@pytest.mark.parametrize("n, module_text", MODULES + [(4, "adjoint"), (5, "natural")])
def test_squares_lie_in_the_module_part(n, module_text):
    """is_simple compares only dimensions: every square has a zero S-part."""
    lb = semidirect(n, module_text)
    for v in lb.algebra.squares_ideal().basis:
        assert all(x.is_zero() for x in lb.split(v)[0])


def test_h0_y_beta():
    lb = semidirect(2, "vm:2")
    assert lb.model.is_strongly_regular(lb.model.strongly_regular_element())
    assert lb.y_beta == vec(1, 0, 0)
    assert weight_components(lb, lb.y_beta) == {(Fraction(-2),)}
    lb3 = semidirect(3, "natural")
    assert weight_components(lb3, lb3.y_beta) == {(Fraction(-1), Fraction(0))}


# -- block maps -------------------------------------------------------------


def sample_block_map(lb):
    bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, Matrix(((1, 1), (0, 1)))), 1)
    assert bm is not None
    return bm


def test_block_map_shape_check():
    with pytest.raises(ValueError):
        BlockMap(Matrix.identity(3), Matrix.zeros(2, 3), Matrix.identity(4))


def test_full_matrix_layout():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.identity(3))
    assert bm.full_matrix() == Matrix.identity(6)
    assert bm.apply(lb.algebra.unit(4)) == lb.algebra.unit(4)


@pytest.mark.parametrize("ns, ni", [(3, 3), (8, 3), (3, 7)])
def test_block_apply_matches_the_full_matrix(ns, ni):
    rng = random.Random(ns * ni)

    def rand(r, c):
        return Matrix(tuple(tuple(GaussianRational(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(c))
                            for _ in range(r)))

    bm = BlockMap(rand(ns, ns), rand(ni, ns), rand(ni, ni))
    for _ in range(3):
        v = rand(1, ns + ni).data[0]
        assert bm.apply(v) == bm.full_matrix().apply(v)
    for length in (ns + ni - 1, ns + ni + 1):
        with pytest.raises(ValueError):
            bm.apply(rand(1, length).data[0])


def test_compose_matches_matrix_product():
    lb = semidirect(2, "vm:2")
    b1 = sample_block_map(lb)
    b2 = extend_automorphism(lb, lb.model.map_matrix(lambda x: -(x.T)), 0)
    assert b2 is not None
    assert b1.compose(b2).full_matrix() == b1.full_matrix() @ b2.full_matrix()


def test_block_map_json_roundtrip():
    lb = semidirect(2, "vm:2")
    bm = sample_block_map(lb)
    back = BlockMap.from_json(bm.to_json())
    assert back == bm


def test_is_automorphism_failure_pair():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.diagonal([1, 1, 2]))
    ok, pair = is_automorphism(lb, bm)
    assert not ok and pair is not None
    i, j = pair
    full = bm.full_matrix()
    lhs = full.apply(lb.algebra.table[i][j])
    rhs = lb.algebra.bracket(full.apply(lb.algebra.unit(i)), full.apply(lb.algebra.unit(j)))
    assert lhs != rhs


# -- twists, isomorphisms, extension ----------------------------------------


def twisted_actions(module, phi):
    """The actions v .' g = v . phi(g), one per model basis element."""
    return [module.action(phi.column(a)) for a in range(module.model.dim)]


def test_extending_the_identity_gives_a_scalar_i_block():
    lb = semidirect(2, "vm:2")
    assert twisted_actions(lb.module, Matrix.identity(3)) == list(lb.module.actions)
    bm = extend_automorphism(lb, Matrix.identity(3), 0)
    assert bm.i_block == Matrix.identity(3) * bm.i_block[0, 0]


def test_twist_by_inner_stays_isomorphic():
    vm = module_vm(SlnModel(2), 3)
    phi = inner_automorphism_matrix(vm.model, Matrix(((2, 1), (1, 1))))
    t = module_isomorphism(vm, twisted_actions(vm, phi))
    assert t is not None
    assert not det(t).is_zero()


def test_module_isomorphism_of_identical_modules():
    vm = module_vm(SlnModel(2), 2)
    t = module_isomorphism(vm, vm.actions)
    assert t is not None
    c = t[0, 0]
    assert t == Matrix.identity(3) * c


def test_module_isomorphism_dimension_mismatch():
    assert module_isomorphism(module_vm(SlnModel(2), 1), module_vm(SlnModel(2), 2).actions) is None


def test_module_isomorphism_needs_one_action_per_basis_element():
    vm = module_vm(SlnModel(2), 2)
    with pytest.raises(ValueError, match="one action matrix per basis element"):
        module_isomorphism(vm, vm.actions[:2])


def test_natural_twisted_by_neg_transpose_not_isomorphic():
    # -x^T turns the natural module into its dual, a different module for n = 3
    m3 = SlnModel(3)
    nat = module_natural(SlnModel(3))
    phi = m3.map_matrix(lambda x: -(x.T))
    assert module_isomorphism(nat, twisted_actions(nat, phi)) is None
    lb3 = build_semidirect(m3, nat)
    assert extend_automorphism(lb3, phi, 0) is None


def test_extend_rejects_non_automorphism_s_map():
    lb = semidirect(2, "vm:2")
    with pytest.raises(ValueError, match="not an automorphism"):
        extend_automorphism(lb, lb.model.transpose_map(), 0)
    with pytest.raises(ValueError, match="singular"):
        extend_automorphism(lb, Matrix.zeros(3, 3), 0)


@pytest.mark.parametrize("phi_s", [Matrix.identity(4), Matrix.identity(2), Matrix.zeros(3, 4)])
def test_extend_rejects_an_s_map_of_the_wrong_size(phi_s):
    lb = semidirect(2, "vm:2")
    with pytest.raises(ValueError, match="wrong size"):
        extend_automorphism(lb, phi_s, 0)


def test_neg_transpose_extends_on_adjoint():
    m3 = SlnModel(3)
    lb = build_semidirect(m3, module_adjoint(m3))
    phi = m3.map_matrix(lambda x: -(x.T))
    bm = extend_automorphism(lb, phi, 0)
    assert bm is not None
    assert is_automorphism(lb, bm)[0]


def test_extension_coupling_forced_zero_when_dims_differ():
    lb = semidirect(2, "vm:3")
    bm = extend_automorphism(lb, Matrix.identity(3), omega=1)
    assert bm is not None
    assert bm.coupling.is_zero()


def test_extension_coupling_active_on_matching_dims():
    lb = semidirect(2, "vm:2")
    bm0 = extend_automorphism(lb, Matrix.identity(3), omega=0)
    bm1 = extend_automorphism(lb, Matrix.identity(3), omega=1)
    assert bm0.coupling.is_zero()
    assert not bm1.coupling.is_zero()
    for bm in (bm0, bm1):
        assert is_automorphism(lb, bm)[0]


# -- structure checks -------------------------------------------------------


DIAGONAL_ENTRIES = (gr(2), gr(Fraction(-1, 3)), GaussianRational(1, 1), gr(5))


@pytest.mark.parametrize("n, name", MODULES)
def test_diagonal_inner_extension_keeps_weight_spaces_and_scales_y_beta(n, name):
    # conjugation by a diagonal a fixes every Cartan element, so the twist
    # leaves the Cartan actions as they are, and the I-block, which
    # intertwines them, keeps every weight space of I
    lb = semidirect(n, name)
    a = Matrix.diagonal(DIAGONAL_ENTRIES[:n])
    bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, a), 0)
    for ws in weight_decomposition(lb.module):
        space = Subspace(lb.dim_i, ws.basis)
        assert all(space.contains(bm.i_block.apply(v)) for v in ws.basis)
    y = lb.y_beta
    img = bm.i_block.apply(y)
    idx = next(k for k, x in enumerate(y) if not x.is_zero())
    lam = img[idx] * y[idx].inverse()
    assert not lam.is_zero()
    assert img == tuple(lam * x for x in y)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_neg_transpose_fit_of_a_diagonal_anti_map_is_diagonal(n):
    model = SlnModel(n)
    rng = random.Random(n)
    entries = [GaussianRational(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-2, 2)) for _ in range(n)]
    a = Matrix.diagonal(entries)
    a_inv = inverse(a)
    phi = model.map_matrix(lambda x: -(a @ x.T @ a_inv))
    # the fit space is a line, so the witness is a up to scale
    _, fit = fit_shape_family(model, phi, -1, SIGMA_T)
    assert fit is not None and fit.is_diagonal()
    assert fit * a[0, 0] == a * fit[0, 0]


# -- the decision procedure -------------------------------------------------


def test_decide_identity_local():
    lb = semidirect(2, "vm:2")
    v = decide_local_aut(lb, BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.identity(3)))
    assert v.verdict == LOCAL_AUT and v.certificate is None


def test_decide_extension_local():
    lb = semidirect(2, "vm:2")
    v = decide_local_aut(lb, sample_block_map(lb))
    assert v.verdict == LOCAL_AUT


def test_decide_singular():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.diagonal([1, 1, 0]))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    assert v.certificate.kind == "not_injective"
    kv = v.certificate.kernel_vector
    assert all(x.is_zero() for x in bm.full_matrix().apply(kv))


def test_decide_inherits_sln_obstruction():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(lb.model.scalar_map(2), Matrix.zeros(3, 3), Matrix.identity(3))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    assert v.certificate.kind == "sln_block"
    assert v.certificate.verdict.obstruction.kind == "lambda_not_unit"


def test_decide_transpose_bracket_square():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(lb.model.transpose_map(), Matrix.zeros(3, 3), Matrix.identity(3))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    cert = v.certificate
    assert cert.kind == "bracket_square"
    # z = e12 + y_beta, with [z, z] = 0 but a nonzero image square
    assert cert.z == lb.embed_s(lb.model.coords(lb.model.e(0, 1)))[:3] + tuple(lb.y_beta)
    assert all(x.is_zero() for x in lb.algebra.bracket(cert.z, cert.z))
    dz = bm.apply(cert.z)
    assert tuple(lb.algebra.bracket(dz, dz)) == cert.image_square
    assert any(not x.is_zero() for x in cert.image_square)


def test_decide_minus_identity_weight_certificate():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(lb.model.scalar_map(-1), Matrix.zeros(3, 3), Matrix.identity(3))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    cert = v.certificate
    assert cert.kind == "weight_structure"
    assert cert.sign == 1
    assert cert.beta == (Fraction(-2),)


def test_decide_minus_identity_natural_sign_flip():
    lb = semidirect(3, "natural")
    bm = BlockMap(lb.model.scalar_map(-1), Matrix.zeros(3, 8), Matrix.identity(3))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    assert v.certificate.kind == "weight_structure"
    assert v.certificate.sign == -1


def test_decide_minus_identity_with_flip_bracket_square():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(lb.model.scalar_map(-1), Matrix.zeros(3, 3), weight_flip(3))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    assert v.certificate.kind == "bracket_square"


def test_decide_bracket_failure_on_scaled_module():
    lb = semidirect(2, "vm:2")
    bm = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.diagonal([1, 1, 2]))
    v = decide_local_aut(lb, bm)
    assert v.verdict == NOT_LOCAL
    assert v.certificate.kind == "bracket_failure"


@pytest.mark.parametrize("dim_s, dim_i", [(3, 4), (8, 3)])
def test_decide_rejects_block_sizes_of_another_algebra(dim_s, dim_i):
    lb = semidirect(2, "vm:2")
    bm = BlockMap(Matrix.identity(dim_s), Matrix.zeros(dim_i, dim_s), Matrix.identity(dim_i))
    with pytest.raises(ValueError, match="block sizes do not match the algebra"):
        decide_local_aut(lb, bm)


def test_verdict_json_kinds():
    lb = semidirect(2, "vm:2")
    cases = {
        None: BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.identity(3)),
        "bracket_square": BlockMap(lb.model.transpose_map(), Matrix.zeros(3, 3), Matrix.identity(3)),
        "weight_structure": BlockMap(lb.model.scalar_map(-1), Matrix.zeros(3, 3), Matrix.identity(3)),
    }
    for kind, bm in cases.items():
        data = decide_local_aut(lb, bm).to_json()
        if kind is None:
            assert data == {"verdict": "LocalAutomorphism", "certificate": None}
        else:
            assert data["verdict"] == "NotLocal"
            assert data["certificate"]["kind"] == kind


@pytest.mark.parametrize("n, name", [(2, "vm:2"), (2, "vm:3"), (3, "natural"), (3, "adjoint")])
@pytest.mark.parametrize("omega", [0, 1])
def test_verdict_is_invariant_under_conjugation_by_an_automorphism(n, name, omega):
    """A map is local iff E Phi E^-1 is, for E the extension of Ad(g): the
    same verdict, both rechecked with the shapes they carry, and a positive
    verdict's S-shape is the conjugated S-block."""
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, name))
    rng = random.Random(9100 + 10 * n + omega)
    e = extend_automorphism(lb, inner_automorphism_matrix(model, random_unimodular(n, rng)), omega)
    s_inv, i_inv = inverse(e.s_block), inverse(e.i_block)
    e_inv = BlockMap(s_inv, -(i_inv @ e.coupling @ s_inv), i_inv)
    positives = 0
    for bm in leibniz_maps(lb, rng):
        conj = e.compose(bm).compose(e_inv)
        v, w = decide_local_aut(lb, bm), decide_local_aut(lb, conj)
        assert v.verdict == w.verdict
        recheck_leibniz_verdict(lb, bm, v)
        recheck_leibniz_verdict(lb, conj, w)
        if w.verdict == LOCAL_AUT:
            assert shape_map_matrix(model, w.s_shape) == conj.s_block
            positives += 1
    assert positives == 2  # the two extensions
