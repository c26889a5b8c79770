"""Structure-constant algebras: identities, ideals, quotients, the bracket
and the bracket-preservation check."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locaut.algebra import (
    StructureAlgebra,
    unit_vector,
    vec_is_zero,
)
from locaut.classify import random_unimodular
from locaut.exact import GR_ONE, GR_ZERO, GaussianRational
from locaut.filiform import PhiAlpha, PsiBeta, model_filiform
from locaut.leibniz import (
    RightModule,
    build_module,
    build_semidirect,
    extend_automorphism,
    inner_automorphism_matrix,
    module_vm,
)
from locaut.linalg import Matrix, Subspace, det, inverse
from locaut.sln import SlnModel


def zero_table(n):
    return [[[GR_ZERO] * n for _ in range(n)] for _ in range(n)]


def heisenberg():
    # [e1, e2] = e3, antisymmetric, all else zero
    t = zero_table(3)
    t[0][1] = unit_vector(2, 3)
    t[1][0] = [-x for x in unit_vector(2, 3)]
    return StructureAlgebra(3, ["e1", "e2", "e3"], t)


def square_line():
    # [e1, e1] = e2: Leibniz but not Lie
    t = zero_table(2)
    t[0][0] = unit_vector(1, 2)
    return StructureAlgebra(2, ["e1", "e2"], t)


def test_sl2_is_lie():
    alg = SlnModel(2).structure_algebra()
    assert alg.validate_lie() == []
    assert alg.validate_leibniz() == []


def test_corrupted_sl2_fails_validation():
    alg = SlnModel(2).structure_algebra()
    table = [[list(alg.table[i][j]) for j in range(alg.dim)] for i in range(alg.dim)]
    table[0][1] = list(unit_vector(0, alg.dim))
    bad = StructureAlgebra(alg.dim, alg.labels, table)
    assert bad.validate_lie() != []


def test_bracket_bilinearity():
    alg = heisenberg()
    x = (GaussianRational(2), GaussianRational(3), GR_ZERO)
    y = (GaussianRational(1), GaussianRational(-1), GaussianRational(5))
    lhs = alg.bracket(x, y)
    # 2*(-1)*[e1,e2] + 3*1*[e2,e1] = -2e3 - 3e3
    assert lhs == (GR_ZERO, GR_ZERO, GaussianRational(-5))


def test_heisenberg_center_and_series():
    alg = heisenberg()
    assert alg.validate_lie() == []
    z = alg.unit(2)
    for i in range(alg.dim):
        assert vec_is_zero(alg.bracket(alg.unit(i), z)) and vec_is_zero(alg.bracket(z, alg.unit(i)))
    dims = [s.dim for s in alg.lower_central_series()]
    assert dims == [1, 0]


def test_square_line_is_leibniz_not_lie():
    alg = square_line()
    assert alg.validate_leibniz() == []
    assert alg.validate_lie() != []


def test_squares_ideal():
    alg = square_line()
    sq = alg.squares_ideal()
    assert sq.dim == 1
    assert sq.contains(alg.unit(1))
    # Lie algebras have no nonzero squares
    assert heisenberg().squares_ideal().dim == 0


def test_liezation_of_square_line():
    alg = square_line()
    quotient, free, project = alg.liezation()
    assert quotient.dim == 1
    assert free == [0]
    assert quotient.validate_lie() == []
    assert vec_is_zero(project(alg.unit(1)))
    assert project(alg.unit(0)) == (alg.unit(0)[0],)


def test_liezation_of_lie_algebra_is_identity():
    alg = heisenberg()
    quotient, free, _ = alg.liezation()
    assert quotient.dim == 3
    assert free == [0, 1, 2]
    assert quotient.table == alg.table


def test_json_roundtrip():
    for alg in (heisenberg(), square_line(), SlnModel(2).structure_algebra()):
        data = alg.to_json()
        back = StructureAlgebra.from_json(data)
        assert back.dim == alg.dim
        assert back.labels == alg.labels
        assert back.table == alg.table


def test_json_default_labels():
    data = square_line().to_json()
    del data["labels"]
    back = StructureAlgebra.from_json(data)
    assert back.labels == ("e1", "e2")


@pytest.mark.parametrize(
    "constant, message",
    [
        ([0, "1", 1, "1"], "not an integer"),
        ([0, 1.0, 1, "1"], "not an integer"),
        ([0, True, 1, "1"], "not an integer"),
        ([0, -1, 1, "1"], "outside 0..1"),
        ([0, 1, 2, "1"], "outside 0..1"),
    ],
)
def test_from_json_rejects_bad_indices(constant, message):
    data = {"dim": 2, "constants": [constant]}
    with pytest.raises(ValueError, match=message):
        StructureAlgebra.from_json(data)


@pytest.mark.parametrize(
    "data, message",
    [
        ({"dim": True, "constants": []}, "dim True is not a non-negative integer"),
        ({"dim": "2", "constants": []}, "dim '2' is not a non-negative integer"),
        ([2, []], "algebra must be a JSON object"),
        ({"dim": 2}, "algebra is missing 'constants'"),
        ({"dim": 2, "constants": {"0": [0, 1, 1, "1"]}}, '"constants" must be a JSON list'),
        ({"dim": 2, "labels": "ab", "constants": []}, '"labels" must be a JSON list of strings'),
        ({"dim": 2, "constants": [[0, 1, "1"]]}, r"is not a list \[i, j, k, value\]"),
    ],
)
def test_from_json_rejects_malformed_input(data, message):
    with pytest.raises(ValueError, match=message):
        StructureAlgebra.from_json(data)


def test_from_json_rejects_a_repeated_constant():
    data = {"dim": 2, "constants": [[0, 0, 1, "1"], [0, 0, 1, "2"]]}
    with pytest.raises(ValueError, match=r"\(0, 0, 1\) is given twice"):
        StructureAlgebra.from_json(data)


# -- bracket and automorphism_check against reference loops -----------------


def matrix_bracket_reference(model, phi):
    """(ok, failing_pair) from matrix commutators, pairs scanned i outer and
    j inner: the check extend_automorphism used to carry inline."""
    if det(phi).is_zero():
        return False, None
    images = [model.matrix(phi.column(a)) for a in range(model.dim)]
    for i, x in enumerate(model.basis):
        for j, y in enumerate(model.basis):
            want = phi.apply(model.coords(model.bracket(x, y)))
            got = model.coords(model.bracket(images[i], images[j]))
            if tuple(want) != tuple(got):
                return False, (i, j)
    return True, None


def sln_maps(model, rng):
    """(name, map, is an automorphism or None for singular)."""
    singular = model.map_matrix(lambda x: x - x.T)
    return [
        ("inner", inner_automorphism_matrix(model, random_unimodular(model.n, rng)), True),
        ("minus_transpose", model.map_matrix(lambda x: -x.T), True),
        ("transpose", model.transpose_map(), False),
        ("scalar_2", model.scalar_map(2), False),
        ("invertible_non_aut", random_unimodular(model.dim, rng), False),
        ("singular", singular, None),
    ]


@pytest.mark.parametrize("n", [2, 3])
def test_automorphism_check_matches_matrix_brackets(n):
    model = SlnModel(n)
    alg = model.structure_algebra()
    for name, phi, is_aut in sln_maps(model, random.Random(n)):
        got = alg.automorphism_check(phi)
        assert got == matrix_bracket_reference(model, phi), name
        if is_aut is None:
            assert got == (False, None), name
        else:
            assert got[0] is is_aut, name
            assert (got[1] is None) is is_aut, name


def test_sln_structure_algebra_is_built_once_per_model():
    model = SlnModel(3)
    assert model.structure_algebra() is model.structure_algebra()


def dense_bracket_reference(alg, x, y):
    """sum over all i, j of x_i y_j [e_i, e_j], read off the dense table; a
    zero product x_i y_j adds nothing, so its row of the table is skipped."""
    out = [GR_ZERO] * alg.dim
    for i in range(alg.dim):
        for j in range(alg.dim):
            f = x[i] * y[j]
            if f.is_zero():
                continue
            for k in range(alg.dim):
                out[k] = out[k] + f * alg.table[i][j][k]
    return tuple(out)


_small = st.fractions(min_value=-5, max_value=5, max_denominator=4)
# zeros are drawn often, so the sparse loops skip coordinates
_qi = st.one_of(st.just(GR_ZERO), st.builds(GaussianRational, _small, _small))

_BRACKET_ALGEBRAS = {
    "sl3": lambda: SlnModel(3).structure_algebra(),
    "filiform6": lambda: model_filiform(6).algebra,
    "vm2_semidirect": lambda: build_semidirect(m := SlnModel(2), module_vm(m, 2)).algebra,
}


@pytest.fixture(scope="module", params=sorted(_BRACKET_ALGEBRAS))
def bracket_algebra(request):
    return _BRACKET_ALGEBRAS[request.param]()


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_bracket_matches_dense_reference(bracket_algebra, data):
    alg = bracket_algebra
    vec = st.lists(_qi, min_size=alg.dim, max_size=alg.dim).map(tuple)
    x, y = data.draw(vec), data.draw(vec)
    assert alg.bracket(x, y) == dense_bracket_reference(alg, x, y)


def dense_lower_central_series(alg):
    """lower_central_series from dense brackets of basis vectors."""
    current = Subspace(alg.dim, [alg.unit(i) for i in range(alg.dim)])
    series = []
    while True:
        gens = [dense_bracket_reference(alg, v, alg.unit(j)) for v in current.basis for j in range(alg.dim)]
        nxt = Subspace(alg.dim, gens)
        series.append(nxt)
        if nxt.dim == 0 or nxt.dim == current.dim:
            return series
        current = nxt


_SERIES_ALGEBRAS = {
    "heisenberg": heisenberg,
    "vm2_semidirect": _BRACKET_ALGEBRAS["vm2_semidirect"],
}


@pytest.mark.parametrize("name", sorted(_SERIES_ALGEBRAS))
def test_series_and_liezation_match_dense_brackets(name):
    alg = _SERIES_ALGEBRAS[name]()
    assert [s.basis for s in alg.lower_central_series()] == [
        s.basis for s in dense_lower_central_series(alg)
    ]
    quotient, free, project = alg.liezation()
    assert quotient.table == tuple(
        tuple(project(dense_bracket_reference(alg, alg.unit(a), alg.unit(b))) for b in free)
        for a in free
    )


# -- one ordering per alternating identity, against the full scans ----------


def full_scan_automorphism_check(alg, m):
    """automorphism_check as it scanned every ordered pair (i outer, j inner)."""
    if det(m).is_zero():
        return False, None
    images = [m.column(k) for k in range(alg.dim)]
    for i in range(alg.dim):
        for j in range(alg.dim):
            want = [GR_ZERO] * alg.dim
            for k, c in enumerate(alg.table[i][j]):
                for r, x in enumerate(images[k]):
                    want[r] = want[r] + c * x
            if tuple(want) != dense_bracket_reference(alg, images[i], images[j]):
                return False, (i, j)
    return True, None


def full_scan_validate_lie(alg):
    """validate_lie as it checked Jacobi on every ordered triple."""
    bad = []
    for i in range(alg.dim):
        if not vec_is_zero(alg.table[i][i]):
            bad.append(("alt", i, i))
        for j in range(i + 1, alg.dim):
            if not vec_is_zero(tuple(a + b for a, b in zip(alg.table[i][j], alg.table[j][i]))):
                bad.append(("alt", i, j))
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                s = dense_bracket_reference(alg, alg.table[i][j], alg.unit(k))
                s = tuple(a + b for a, b in zip(s, dense_bracket_reference(alg, alg.table[j][k], alg.unit(i))))
                s = tuple(a + b for a, b in zip(s, dense_bracket_reference(alg, alg.table[k][i], alg.unit(j))))
                if not vec_is_zero(s):
                    bad.append(("jacobi", i, j, k))
    return bad


def full_scan_law_violations(model, actions):
    """RightModule.law_violations as it scanned every ordered pair."""
    sc = model.structure_algebra().table
    bad = []
    for i in range(model.dim):
        for j in range(model.dim):
            lhs = Matrix.zeros(actions[0].nrows, actions[0].ncols)
            for c, r in zip(sc[i][j], actions):
                lhs = lhs + r * c
            if lhs != actions[j] @ actions[i] - actions[i] @ actions[j]:
                bad.append((i, j))
    return bad


# sparse constants: most draws are zero
_sparse = st.one_of(
    st.just(GR_ZERO), st.just(GR_ZERO), st.just(GR_ZERO),
    st.builds(GaussianRational, st.integers(-2, 2), st.integers(-1, 1)),
)


@st.composite
def alternating_tables(draw):
    """(dim, table) with c_ii = 0 and c_ji = -c_ij; rarely a Lie table."""
    n = draw(st.integers(2, 6))
    t = zero_table(n)
    for i in range(n):
        for j in range(i + 1, n):
            v = tuple(draw(_sparse) for _ in range(n))
            t[i][j] = v
            t[j][i] = tuple(-x for x in v)
    return n, t


@st.composite
def square_maps(draw, n):
    """A random sparse map, or the identity with one entry changed."""
    if draw(st.booleans()):
        return Matrix(tuple(tuple(draw(_sparse) for _ in range(n)) for _ in range(n)))
    rows = [[GaussianRational(int(i == j)) for j in range(n)] for i in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    rows[i][j] = rows[i][j] + draw(_sparse)
    return Matrix(rows)


def assert_validate_lie_matches_full_scan(alg):
    """Same alternation entries, the Jacobi entries on sorted triples, and
    an empty list exactly when the full scan's is empty."""
    got, want = alg.validate_lie(), full_scan_validate_lie(alg)
    assert got == [b for b in want if b[0] == "alt" or b[1] < b[2] < b[3]]
    assert (got == []) == (want == [])


def perturbed(n, t, data):
    """The table with one constant changed, sometimes keeping alternation."""
    t = [[list(v) for v in row] for row in t]
    i, j, k = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    c = data.draw(st.builds(GaussianRational, st.integers(1, 3)))
    t[i][j][k] = t[i][j][k] + c
    if i != j and data.draw(st.booleans()):
        t[j][i][k] = t[j][i][k] - c
    return t


@given(alternating_tables(), st.data())
@settings(max_examples=60, deadline=None)
def test_alternating_scan_matches_full_scan_on_random_tables(table, data):
    n, t = table
    alg = StructureAlgebra(n, [f"e{i}" for i in range(n)], t)
    assert alg.alternating
    for _ in range(3):
        m = data.draw(square_maps(n))
        assert alg.automorphism_check(m) == full_scan_automorphism_check(alg, m)
    assert alg.automorphism_check(Matrix.identity(n)) == (True, None)
    assert_validate_lie_matches_full_scan(alg)
    assert_validate_lie_matches_full_scan(StructureAlgebra(n, alg.labels, perturbed(n, t, data)))


_LIE_ALGEBRAS = {
    "sl2": lambda: SlnModel(2).structure_algebra(),
    "sl3": lambda: SlnModel(3).structure_algebra(),
    "heisenberg": heisenberg,
    "filiform5": lambda: model_filiform(5).algebra,
}


@pytest.mark.parametrize("name", sorted(_LIE_ALGEBRAS))
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_validate_lie_matches_full_scan_on_perturbed_lie_tables(name, data):
    alg = _LIE_ALGEBRAS[name]()
    assert alg.alternating and alg.validate_lie() == [] == full_scan_validate_lie(alg)
    assert_validate_lie_matches_full_scan(
        StructureAlgebra(alg.dim, alg.labels, perturbed(alg.dim, alg.table, data))
    )


@pytest.mark.parametrize("n", [3, 6, 10])
def test_filiform_maps_match_full_scan(n):
    fl = model_filiform(n)
    # phi_0 is delta, phi_1 the map the demo's proof scans, psi_beta a witness
    maps = [PhiAlpha(GaussianRational(a)) for a in (0, 1, 2)]
    maps += [PsiBeta(GaussianRational(b)) for b in (0, 1, 2)]
    for family_map in maps:
        m = family_map.matrix(fl)
        assert fl.algebra.automorphism_check(m) == full_scan_automorphism_check(fl.algebra, m)


_SEMIDIRECT = {
    "vm2": (2, "vm:2"),
    "vm3": (2, "vm:3"),
    "natural3": (3, "natural"),
}


@pytest.fixture(scope="module", params=sorted(_SEMIDIRECT))
def semidirect_with_automorphism(request):
    """(algebra, an extended inner automorphism as a full matrix)."""
    n, text = _SEMIDIRECT[request.param]
    model = SlnModel(n)
    lb = build_semidirect(model, build_module(model, text))
    g = random_unimodular(n, random.Random(n))
    return lb.algebra, extend_automorphism(lb, inner_automorphism_matrix(model, g), 0).full_matrix()


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_leibniz_tables_keep_the_full_scan(semidirect_with_automorphism, data):
    alg, aut = semidirect_with_automorphism
    assert not alg.alternating
    maps = [aut, data.draw(square_maps(alg.dim))]
    rows = [list(r) for r in aut.data]
    rows[data.draw(st.integers(0, alg.dim - 1))][data.draw(st.integers(0, alg.dim - 1))] += GR_ONE
    maps.append(Matrix(rows))
    for m in maps:
        assert alg.automorphism_check(m) == full_scan_automorphism_check(alg, m)


_MODULES = (("vm:2", 2), ("vm:3", 2), ("natural", 3), ("adjoint", 2))


@pytest.mark.parametrize("text, n", _MODULES)
@given(data=st.data())
@settings(max_examples=10, deadline=None)
def test_module_law_matches_full_scan(text, n, data):
    model = SlnModel(n)
    module = build_module(model, text)
    assert module.law_violations() == [] == full_scan_law_violations(model, module.actions)
    # a change of basis keeps the law; one changed entry usually breaks it
    g = random_unimodular(module.dim, random.Random(data.draw(st.integers(0, 2**16))))
    gi = inverse(g)
    conjugated = [gi @ r @ g for r in module.actions]
    rows = [list(r) for r in module.actions[data.draw(st.integers(0, model.dim - 1))].data]
    rows[data.draw(st.integers(0, module.dim - 1))][data.draw(st.integers(0, module.dim - 1))] += GR_ONE
    k = data.draw(st.integers(0, model.dim - 1))
    bent = list(module.actions)
    bent[k] = Matrix(rows)
    for actions in (conjugated, bent):
        want = full_scan_law_violations(model, actions)
        try:
            got = RightModule(model, "candidate", actions).law_violations()
        except ValueError:
            got = None
        assert (got == []) == (want == [])
