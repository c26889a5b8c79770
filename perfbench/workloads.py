"""Seeded inputs, ground truth and checks for the four benchmark workloads.

Each workload has a set-up step (the models and algebras a caller builds
once) and an input generator.  The generator returns a pool of *rounds*; a
round holds every input class of the workload in a fixed interleaved order,
each class as often as its weight in MIX says.  Every input carries what is
expected of it from how it was built, and the three callables that the
runner times or checks:

* ``decide()`` makes the one user-facing call (the verdict),
* ``expect(verdict)`` raises ``Mismatch`` if the verdict or its certificate
  kind differs from the expectation,
* ``recheck(verdict)`` re-verifies the certificate, or is None when no
  recheck function applies to the answer.

The locaut functions are looked up on their modules at call time (for
example ``classify.classify_sln``), so the traced run, which rebinds them,
sees every call made from here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from locaut import classify, filiform, leibniz, recheck, sln
from locaut.exact import GaussianRational
from locaut.linalg import Matrix, inverse


class Mismatch(Exception):
    """A verdict or certificate differs from the ground truth of its input."""


@dataclass
class Case:
    cls: str
    decide: Callable
    expect: Callable
    recheck: Callable | None


# Weights per round.  They set where p50 and p90 of the verdict latency fall:
# each should sit inside one size class, not on the edge between two, so that
# it repeats from seed to seed (see README.md).
MIX = {
    "sln-classify": {2: 6, 3: 2, 4: 2, 5: 1},
    "sln-witness": {"covered3": 4, "covered4": 4, "covered5": 3, "near3": 2, "near4": 1},
    "leibniz-decide": {"vm:2": 3, "vm:6": 4, "natural3": 4, "adjoint3": 1, "natural4": 1},
    "filiform-demo": {5: 1, 10: 2, 20: 1},
}

# Distinct rounds generated per run; later rounds reuse them in order.  A run
# of 20 s takes about 2 rounds of sln-classify, 11 of sln-witness, 5 of
# leibniz-decide (whose inputs cost as much to build as to decide) and 65 of
# filiform-demo.
POOL_ROUNDS = {"sln-classify": 3, "sln-witness": 12, "leibniz-decide": 2, "filiform-demo": 100}

TINY_MIX = {
    "sln-classify": {2: 1, 3: 1},
    "sln-witness": {"covered3": 1, "near3": 1},
    "leibniz-decide": {"vm:2": 1},
    "filiform-demo": {5: 1, 10: 1},
}

LEIBNIZ_ALGEBRAS = {
    "vm:2": (2, "vm:2"),
    "vm:6": (2, "vm:6"),
    "natural3": (3, "natural"),
    "adjoint3": (3, "adjoint"),
    "natural4": (4, "natural"),
}

FILIFORM_SAMPLES = 8


def _need(cond: bool, msg: str):
    if not cond:
        raise Mismatch(msg)


def _interleave(groups):
    """Round-robin over lists of cases, so that each class is spread over the
    round instead of running back to back."""
    out = []
    groups = [list(g) for g in groups if g]
    while groups:
        for g in groups:
            out.append(g.pop(0))
        groups = [g for g in groups if g]
    return out


def _conj(model, g: Matrix, ginv: Matrix, eps: int = 1, transpose: bool = False) -> Matrix:
    def f(x):
        y = g @ (x.T if transpose else x) @ ginv
        return y if eps == 1 else -y

    return model.map_matrix(f)


# ---------------------------------------------------------------------------
# sln-classify


def _family_name(eps: int, sigma: str) -> str:
    return f"family_{'p' if eps == 1 else 'm'}1_{sigma}"


# At n = 2 each family coincides with one other up to conjugation.
_N2_PARTNER = {
    (1, sln.SIGMA_ID): (-1, sln.SIGMA_T),
    (-1, sln.SIGMA_T): (1, sln.SIGMA_ID),
    (1, sln.SIGMA_T): (-1, sln.SIGMA_ID),
    (-1, sln.SIGMA_ID): (1, sln.SIGMA_T),
}


def _expect_family(n: int, eps: int, sigma: str):
    fams = {(eps, sigma)}
    if n == 2:
        fams.add(_N2_PARTNER[(eps, sigma)])
    primary = next(f for f in sln.SHAPE_FAMILIES if f in fams)
    label = classify.AUTOMORPHISM if (eps, sigma) in ((1, sln.SIGMA_ID), (-1, sln.SIGMA_T)) else classify.ANTI_AUTOMORPHISM

    def expect(v):
        _need(v.verdict == label, f"verdict {v.verdict}, expected {label}")
        _need(v.shape is not None and (v.shape.epsilon, v.shape.sigma) == primary,
              f"primary family differs from {primary}")
        got = {(s.epsilon, s.sigma) for s in v.shapes}
        _need(got == fams, f"reported families {sorted(got)}, expected {sorted(fams)}")

    return expect


def _expect_obstruction(kind: str):
    def expect(v):
        _need(v.verdict == classify.NOT_LOCAL, f"verdict {v.verdict}, expected NotLocal")
        got = None if v.obstruction is None else v.obstruction.kind
        _need(got == kind, f"certificate {got}, expected {kind}")

    return expect


def screen_evading_map() -> Matrix:
    """n = 2: fixes e12, e21 and sends h to (3/5)h + (4/5)(e12 + e21).

    It keeps square-zero elements square-zero and the probe polynomial
    intact, yet no family reproduces it; composing with a conjugation keeps
    all three properties.
    """
    return Matrix([[1, 0, Fraction(4, 5)], [0, 1, Fraction(4, 5)], [0, 0, Fraction(3, 5)]])


def _square_zero_breaker(model, rng) -> Matrix:
    """Identity except e_ij -> e_ij + h_k: injective, and (e_ij + h_k)^2 has
    the nonzero diagonal of h_k^2."""
    a = rng.randrange(len(model.off_pairs))
    k = rng.randrange(model.n - 1)
    rows = [[1 if i == j else 0 for j in range(model.dim)] for i in range(model.dim)]
    rows[len(model.off_pairs) + k][a] = 1
    return Matrix(rows)


def _sln_classify_round(ctx, rng, weights):
    groups = []
    for n, weight in weights.items():
        model = ctx["models"][n]
        for _ in range(weight):
            cases = []

            def add(cls, d, expect, model=model):
                cases.append(Case(
                    cls=f"n{model.n}:{cls}",
                    decide=lambda: classify.classify_sln(model, d),
                    expect=expect,
                    recheck=lambda v: recheck.recheck_sln_verdict(model, d, v),
                ))

            for eps, sigma in sln.SHAPE_FAMILIES:
                g = classify.random_unimodular(n, rng)
                d = _conj(model, g, inverse(g), eps, sigma == sln.SIGMA_T)
                add(_family_name(eps, sigma), d, _expect_family(n, eps, sigma))
            for lam in (GaussianRational(2), GaussianRational(0, 1)):
                g = classify.random_unimodular(n, rng)
                add(f"scale_{lam}", _conj(model, g, inverse(g)) * lam, _expect_obstruction("lambda_not_unit"))
            g = classify.random_unimodular(n, rng)
            drop = rng.randrange(model.dim)
            proj = Matrix.diagonal([0 if i == drop else 1 for i in range(model.dim)])
            add("not_injective", _conj(model, g, inverse(g)) @ proj, _expect_obstruction("not_injective"))
            g = classify.random_unimodular(n, rng)
            add("square_zero_breaker", _conj(model, g, inverse(g)) @ _square_zero_breaker(model, rng),
                _expect_obstruction("square_zero_broken"))
            if n == 2:
                g = classify.random_unimodular(n, rng)
                add("screen_evader", _conj(model, g, inverse(g)) @ screen_evading_map(),
                    _expect_obstruction("no_shape_fits"))
            rng.shuffle(cases)
            groups.append(cases)
    return _interleave(groups)


def _setup_sln(ns):
    return {"models": {n: sln.SlnModel(n) for n in ns}}


# ---------------------------------------------------------------------------
# sln-witness


def _random_point(n: int, rng, avoid_negation_similarity: bool) -> Matrix:
    """Random traceless integer matrix.  With the flag set, tr(x^3) != 0 is
    enforced, which rules out x ~ -x (odd power traces would vanish)."""
    while True:
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        rows[n - 1][n - 1] -= sum(rows[i][i] for i in range(n))
        if not avoid_negation_similarity:
            return Matrix(rows)
        sq = [[sum(rows[i][k] * rows[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        tr3 = sum(sq[i][k] * rows[k][i] for i in range(n) for k in range(n))
        if tr3 != 0:
            return Matrix(rows)


def _near_miss_base(model) -> Matrix:
    """Identity except e12 -> e12 + e23 (+ e34 at n = 4): at e12 the Jordan
    type changes, so no automorphism matches the map there."""
    img = model.e(0, 1) + model.e(1, 2)
    if model.n == 4:
        img = img + model.e(2, 3)
    cols = [model.coords(img) if b == model.e(0, 1) else model.coords(b) for b in model.basis]
    return Matrix(zip(*cols))


def _expect_witness(family):
    def expect(w):
        _need(w is not None, "no witness at a covered point")
        if family is not None:
            _need((w.epsilon, w.sigma) == family, f"witness family {(w.epsilon, w.sigma)}, expected {family}")

    return expect


def _expect_no_witness(w):
    _need(w is None, "witness returned at a point where the Jordan type changes")


def _sln_witness_round(ctx, rng, weights):
    groups = []
    for cls, weight in weights.items():
        n = int(cls[-1])
        model = ctx["models"][n]
        cases = []
        for _ in range(weight):
            if cls.startswith("covered"):
                g = classify.random_unimodular(n, rng)
                maps = (
                    ("transpose", model.transpose_map(), (1, sln.SIGMA_ID), False),
                    ("negation", model.scalar_map(-1), (-1, sln.SIGMA_T), True),
                    ("twisted_conjugation", _conj(model, g, inverse(g), transpose=True), (1, sln.SIGMA_ID), False),
                )
                for name, d, family, avoid in maps:
                    x = _random_point(n, rng, avoid)
                    cases.append(Case(
                        cls=f"n{n}:{name}",
                        decide=lambda model=model, d=d, x=x: classify.pointwise_witness(model, d, x),
                        expect=_expect_witness(family),
                        recheck=lambda w, model=model, d=d, x=x: recheck.recheck_witness_at(model, d, x, w),
                    ))
            else:
                g = classify.random_unimodular(n, rng)
                ginv = inverse(g)
                d = _conj(model, g, ginv) @ _near_miss_base(model) @ _conj(model, ginv, g)
                x = g @ model.e(0, 1) @ ginv * rng.choice((1, 2, 3, -1, -2))
                cases.append(Case(
                    cls=f"n{n}:near_miss",
                    decide=lambda model=model, d=d, x=x: classify.pointwise_witness(model, d, x),
                    expect=_expect_no_witness,
                    recheck=None,
                ))
        rng.shuffle(cases)
        groups.append(cases)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# leibniz-decide


def _setup_leibniz(names):
    models = {}
    algebras = {}
    for name in names:
        n, module = LEIBNIZ_ALGEBRAS[name]
        model = models.setdefault(n, sln.SlnModel(n))
        algebras[name] = leibniz.build_semidirect(model, leibniz.build_module(model, module))
    return {"algebras": algebras}


def _expect_leibniz(verdict: str, kind: str | None, inner: str | None = None):
    def expect(v):
        _need(v.verdict == verdict, f"verdict {v.verdict}, expected {verdict}")
        got = None if v.certificate is None else v.certificate.kind
        _need(got == kind, f"certificate {got}, expected {kind}")
        if inner is not None:
            got_inner = v.certificate.verdict.obstruction.kind
            _need(got_inner == inner, f"inherited certificate {got_inner}, expected {inner}")

    return expect


def _leibniz_round(ctx, rng, weights):
    groups = []
    for name, weight in weights.items():
        lb = ctx["algebras"][name]
        model = lb.model
        ds, di = lb.dim_s, lb.dim_i
        cases = []

        def add(cls, bm, expect, lb=lb, name=name):
            cases.append(Case(
                cls=f"{name}:{cls}",
                decide=lambda: leibniz.decide_local_aut(lb, bm),
                expect=expect,
                recheck=lambda v: recheck.recheck_leibniz_verdict(lb, bm, v),
            ))

        for _ in range(weight):
            ext = {}
            for omega in (0, 1):
                g = classify.random_unimodular(model.n, rng)
                ext[omega] = leibniz.extend_automorphism(lb, leibniz.inner_automorphism_matrix(model, g), omega)
                add(f"inner_omega{omega}", ext[omega], _expect_leibniz(leibniz.LOCAL_AUT, None))
            base = ext[rng.randrange(2)]
            lam = rng.choice((1, 2, 3, -1, -2))
            add("transpose_s", leibniz.BlockMap(model.transpose_map(), Matrix.zeros(di, ds), Matrix.identity(di) * lam),
                _expect_leibniz(classify.NOT_LOCAL, "bracket_square"))
            add("minus_s", leibniz.BlockMap(model.scalar_map(-1), Matrix.zeros(di, ds), Matrix.identity(di)),
                _expect_leibniz(classify.NOT_LOCAL, "weight_structure"))
            # The allowed couplings form the line through an invertible
            # isomorphism (or vanish), so adding one matrix unit leaves them.
            p, q, c = rng.randrange(di), rng.randrange(ds), rng.choice((1, 2, -1))
            bump = Matrix(tuple(tuple(c if (r, s) == (p, q) else 0 for s in range(ds)) for r in range(di)))
            add("perturbed_coupling", leibniz.BlockMap(base.s_block, base.coupling + bump, base.i_block),
                _expect_leibniz(classify.NOT_LOCAL, "bracket_failure"))
            drop = rng.randrange(di)
            proj = Matrix.diagonal([0 if i == drop else 1 for i in range(di)])
            add("singular_i", leibniz.BlockMap(base.s_block, base.coupling, base.i_block @ proj),
                _expect_leibniz(classify.NOT_LOCAL, "not_injective"))
            add("scaled_s", leibniz.BlockMap(base.s_block * 2, base.coupling, base.i_block),
                _expect_leibniz(classify.NOT_LOCAL, "sln_block", inner="lambda_not_unit"))
        rng.shuffle(cases)
        groups.append(cases)
    return _interleave(groups)


# ---------------------------------------------------------------------------
# filiform-demo


def _setup_filiform(ns):
    return {"algebras": {n: filiform.model_filiform(n) for n in ns}}


def _recheck_filiform_report(fl, report):
    """The report's certificate, checked from the structure constants: delta
    (x -> x + x_3 e_n, built here) breaks the bracket at the stored pair.
    locaut.recheck has no filiform function, so this stands in for it."""
    n = fl.n
    _need(report.failing_pair is not None, "no failing pair reported")
    i, j = report.failing_pair
    table = fl.algebra.table

    def delta(v):
        out = list(v)
        out[n - 1] = out[n - 1] + v[2]
        return out

    def bracket(u, v):
        out = [GaussianRational(0)] * n
        for a in range(n):
            for b in range(n):
                if u[a] and v[b]:
                    f = u[a] * v[b]
                    out = [x + f * c for x, c in zip(out, table[a][b])]
        return out

    unit = [[GaussianRational(1 if k == m else 0) for k in range(n)] for m in range(n)]
    lhs = delta(table[i][j])
    rhs = bracket(delta(unit[i]), delta(unit[j]))
    _need(lhs != rhs, f"delta preserves the bracket at the reported pair {(i, j)}")


def _filiform_round(ctx, rng, weights):
    cases = []
    for n, weight in weights.items():
        fl = ctx["algebras"][n]
        for _ in range(weight):
            seed = rng.randrange(2**31)
            pts = filiform.sample_points(n, FILIFORM_SAMPLES, seed)
            phi_expected = sum(1 for x in pts if x[1].is_zero())

            def expect(r, n=n, phi_expected=phi_expected):
                # all_verified is hard-wired to True, so it is not read.
                _need(r.n == n and r.samples == FILIFORM_SAMPLES, "report describes another run")
                _need(r.delta_is_automorphism is False, "delta reported as an automorphism")
                _need(r.failing_pair is not None, "no failing pair reported")
                _need(r.phi_witnesses + r.psi_witnesses == FILIFORM_SAMPLES, "witness counts do not add up")
                _need(r.phi_witnesses == phi_expected, f"{r.phi_witnesses} phi witnesses, expected {phi_expected}")

            cases.append(Case(
                cls=f"n{n}:demo",
                decide=lambda fl=fl, seed=seed: filiform.counterexample_demo(fl, FILIFORM_SAMPLES, seed),
                expect=expect,
                recheck=lambda r, fl=fl: _recheck_filiform_report(fl, r),
            ))
    return cases


# ---------------------------------------------------------------------------


def _sln_ns(weights):
    return sorted({int(str(k)[-1]) for k in weights})


WORKLOADS = {
    "sln-classify": (lambda w: _setup_sln(sorted(w)), _sln_classify_round),
    "sln-witness": (lambda w: _setup_sln(_sln_ns(w)), _sln_witness_round),
    "leibniz-decide": (lambda w: _setup_leibniz(list(w)), _leibniz_round),
    "filiform-demo": (lambda w: _setup_filiform(sorted(w)), _filiform_round),
}


def weights_for(workload: str, tiny: bool):
    return (TINY_MIX if tiny else MIX)[workload]


def setup(workload: str, tiny: bool = False):
    """Build the workload's models and algebras (what setup_s times)."""
    return WORKLOADS[workload][0](weights_for(workload, tiny))


def generate(workload: str, ctx, seed: int, tiny: bool = False):
    """The pool of rounds for one seed: a list of lists of Case."""
    rng = random.Random(f"{workload}:{seed}")
    make_round = WORKLOADS[workload][1]
    weights = weights_for(workload, tiny)
    rounds = 1 if tiny else POOL_ROUNDS[workload]
    return [make_round(ctx, rng, weights) for _ in range(rounds)]
