"""Command line front end.

Exit codes: 0 for any definite verdict (NotLocal is a verdict, not an
error), 1 when selfcheck finds a failing invariant, 2 for unusable input,
3 when an internal consistency check fails (a bug, not a verdict).
Given identical inputs and seed, output bytes are identical run to run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from .classify import (
    AUTOMORPHISM,
    ANTI_AUTOMORPHISM,
    NOT_LOCAL,
    classify_mn,
    classify_sln,
    pointwise_witness,
    random_unimodular,
)
from .exact import GaussianRational, InternalCheckError, parse_scalar
from .filiform import counterexample_demo, model_filiform, phi_is_automorphism, witnesses_are_automorphisms
from .leibniz import (
    BlockMap,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    inner_automorphism_matrix,
    is_automorphism,
    is_simple,
)
from .linalg import Matrix
from .recheck import (
    RecheckError,
    cofactor_det,
    charpoly_via_cofactor,
    full_rank_mod_p,
    recheck_extension_structure,
    recheck_leibniz_verdict,
    recheck_sln_verdict,
    recheck_witness_at,
)
from .sln import SIGMA_ID, CanonicalShape, MnModel, SlnModel

DEFAULT_SEED = 20240817


class InputError(Exception):
    pass


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_matrix(path: str, rows: int, cols: int) -> Matrix:
    data = _load_json(path)
    try:
        m = Matrix.from_json(data)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    if m.nrows != rows or m.ncols != cols:
        raise InputError(f"{path}: expected a {rows}x{cols} matrix, got {m.nrows}x{m.ncols}")
    return m


def _emit(args, payload: dict, text_lines):
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for line in text_lines:
            sys.stdout.write(line + "\n")


def _render_verdict(v) -> list:
    lines = [f"verdict: {v.verdict}"]
    if v.shape is not None:
        lines.append(
            f"shape: epsilon={v.shape.epsilon} sigma={v.shape.sigma} "
            f"a={json.dumps(v.shape.a.to_json())}"
        )
    if v.obstruction is not None:
        lines.append(f"certificate: {json.dumps(v.obstruction.to_json())}")
    return lines


# ---------------------------------------------------------------------------
# Subcommands


def cmd_classify(args) -> int:
    """classify-sln and classify-mn: args.model is the model class and
    args.classify its classifier."""
    model = args.model(args.n)
    d = _load_matrix(args.map, model.dim, model.dim)
    v = args.classify(model, d)
    _emit(args, v.to_json(), _render_verdict(v))
    return 0


def cmd_witness(args) -> int:
    model = SlnModel(args.n)
    d = _load_matrix(args.map, model.dim, model.dim)
    x = _load_matrix(args.at, model.n, model.n)
    if not x.trace().is_zero():
        raise InputError("--at matrix must be traceless")
    shape = pointwise_witness(model, d, x)
    if shape is None:
        payload = {"found": False}
        _emit(args, payload, ["no automorphism agrees with the map at this point"])
        return 0
    payload = {"found": True, "shape": shape.to_json()}
    lines = [
        f"epsilon: {shape.epsilon}",
        f"sigma: {shape.sigma}",
        f"conjugator: {json.dumps(shape.a.to_json())}",
    ]
    _emit(args, payload, lines)
    return 0


def _leibniz_setup(args):
    model = SlnModel(args.n)
    try:
        module = build_module(model, args.module)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return build_semidirect(model, module)


def cmd_leibniz_build(args) -> int:
    lb = _leibniz_setup(args)
    payload = {
        "dim": lb.dim,
        "dim_s": lb.dim_s,
        "dim_i": lb.dim_i,
        "simple": is_simple(lb),
        "algebra": lb.algebra.to_json(),
    }
    lines = [
        f"dim: {lb.dim} (S: {lb.dim_s}, I: {lb.dim_i})",
        f"simple: {payload['simple']}",
    ]
    if args.map is not None:
        phi_s = _load_matrix(args.map, lb.dim_s, lb.dim_s)
        omega = parse_scalar(args.omega)
        bm = extend_automorphism(lb, phi_s, omega)
        if bm is None:
            payload["extension"] = None
            lines.append("extension: none (twisted module not isomorphic)")
        else:
            payload["extension"] = bm.to_json()
            lines.append(f"extension: {json.dumps(bm.to_json())}")
    _emit(args, payload, lines)
    return 0


def cmd_leibniz_decide(args) -> int:
    lb = _leibniz_setup(args)
    data = _load_json(args.map)
    try:
        bm = BlockMap.from_json(data)
    except ValueError as exc:
        raise InputError(f"{args.map}: {exc}") from None
    v = decide_local_aut(lb, bm)  # checks the block sizes
    lines = [f"verdict: {v.verdict}"]
    if v.certificate is not None:
        lines.append(f"certificate: {json.dumps(v.certificate.to_json())}")
    _emit(args, v.to_json(), lines)
    return 0


def cmd_filiform_demo(args) -> int:
    if args.samples < 1:
        raise InputError("--samples must be positive")
    fl = model_filiform(args.n)
    rep = counterexample_demo(fl, samples=args.samples, seed=args.seed)
    lines = [
        f"n: {rep.n}",
        f"delta (= phi_0) is an automorphism: {rep.delta_is_automorphism}",
        f"failing basis pair: {rep.failing_pair}",
        f"pointwise witnesses: {rep.samples} checked, "
        f"{rep.phi_witnesses} via phi_1, {rep.psi_witnesses} via psi",
        f"all verified: {rep.all_verified}",
    ]
    _emit(args, rep.to_json(), lines)
    return 0 if rep.all_verified else 1


# ---------------------------------------------------------------------------
# selfcheck


def _check_scalar_maps(seed):
    for n in (2, 3):
        model = SlnModel(n)
        cases = [
            (model.identity_map(), AUTOMORPHISM),
            (model.transpose_map(), ANTI_AUTOMORPHISM),
            (model.scalar_map(-1), ANTI_AUTOMORPHISM),
            (model.scalar_map(2), NOT_LOCAL),
        ]
        for d, want in cases:
            v = classify_sln(model, d)
            if v.verdict != want:
                raise RecheckError(f"n={n}: got {v.verdict}, wanted {want}")
            recheck_sln_verdict(model, d, v)


def _check_conjugation_roundtrips(seed):
    rng = random.Random(seed)
    from .sln import SHAPE_FAMILIES, shape_map_matrix

    for n in (2, 3):
        model = SlnModel(n)
        for eps, sigma in SHAPE_FAMILIES:
            for _ in range(3):
                a = random_unimodular(n, rng)
                d = shape_map_matrix(model, CanonicalShape(eps, sigma, a))
                v = classify_sln(model, d)
                match = [s for s in (v.shapes or (v.shape,)) if (s.epsilon, s.sigma) == (eps, sigma)]
                if not match:
                    raise RecheckError(f"n={n} family ({eps},{sigma}) not recovered")
                recheck_sln_verdict(model, d, v)


def _check_probe_polynomial(seed):
    from .classify import probe_element, scaled_probe_charpoly
    from .linalg import charpoly

    for n in range(2, 6):
        model = SlnModel(n)
        y = probe_element(model)
        p = charpoly(y)
        if p != scaled_probe_charpoly(n, 1):
            raise RecheckError(f"n={n}: probe charpoly mismatch")
        if n <= 4 and charpoly_via_cofactor(y) != p:
            raise RecheckError(f"n={n}: cofactor cross-check failed")


def _check_pointwise_witnesses(seed):
    rng = random.Random(seed)
    for n in (2, 3):
        model = SlnModel(n)
        for d in (model.transpose_map(), model.scalar_map(-1)):
            for _ in range(10):
                x = model.matrix(
                    tuple(GaussianRational(rng.randint(-4, 4)) for _ in range(model.dim))
                )
                shape = pointwise_witness(model, d, x)
                if shape is None:
                    raise RecheckError(f"n={n}: no witness at a sampled point")
                recheck_witness_at(model, d, x, shape)


def _leibniz_fixtures():
    out = []
    for n, mod in ((2, "vm:2"), (2, "vm:3"), (3, "natural")):
        model = SlnModel(n)
        out.append(build_semidirect(model, build_module(model, mod)))
    return out


def _check_semidirect_structure(seed):
    for lb in _leibniz_fixtures():
        if lb.algebra.validate_leibniz():
            raise RecheckError("Leibniz identity fails")
        for i in range(lb.dim):
            for p in range(lb.dim_i):
                if any(c.a or c.b for c in lb.algebra.table[i][lb.dim_s + p]):
                    raise RecheckError("bracket with the ideal on the right is nonzero")
        if not is_simple(lb):
            raise RecheckError("constructed algebra is not simple")
        quotient, _, _ = lb.algebra.liezation()
        if quotient.dim != lb.model.dim or quotient.validate_lie():
            raise RecheckError("quotient by the squares ideal is not the Lie model")


def _check_extensions(seed):
    rng = random.Random(seed)
    for lb in _leibniz_fixtures():
        for omega in (0, 1):
            a = random_unimodular(lb.model.n, rng)
            bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, a), omega)
            if bm is None:
                raise RecheckError("inner automorphism failed to extend")
            recheck_extension_structure(lb, bm, CanonicalShape(1, SIGMA_ID, a))


def _check_leibniz_decisions(seed):
    rng = random.Random(seed)
    for lb in _leibniz_fixtures():
        a = random_unimodular(lb.model.n, rng)
        bm = extend_automorphism(lb, inner_automorphism_matrix(lb.model, a), 1)
        v = decide_local_aut(lb, bm)
        ok, _ = is_automorphism(lb, bm)
        if (v.verdict == "LocalAutomorphism") != ok:
            raise RecheckError("decision disagrees with the bracket check")
        recheck_leibniz_verdict(lb, bm, v)
        bad = BlockMap(
            lb.model.transpose_map(),
            Matrix.zeros(lb.dim_i, lb.dim_s),
            Matrix.identity(lb.dim_i),
        )
        v = decide_local_aut(lb, bad)
        if v.verdict != NOT_LOCAL:
            raise RecheckError("transpose block judged local")
        recheck_leibniz_verdict(lb, bad, v)
        flip = Matrix(
            tuple(
                tuple(1 if i + j == lb.dim_i - 1 else 0 for j in range(lb.dim_i))
                for i in range(lb.dim_i)
            )
        )
        neg = BlockMap(lb.model.scalar_map(-1), Matrix.zeros(lb.dim_i, lb.dim_s), flip)
        v = decide_local_aut(lb, neg)
        if v.verdict != NOT_LOCAL:
            raise RecheckError("negation block judged local")
        recheck_leibniz_verdict(lb, neg, v)


def _check_filiform(seed):
    for n in range(3, 9):
        fl = model_filiform(n)
        for alpha in (0, 1, 2):
            ok, _ = phi_is_automorphism(fl, alpha)
            if ok != (alpha == 1):
                raise RecheckError(f"n={n} alpha={alpha}: wrong verdict")
        if not witnesses_are_automorphisms(fl):
            raise RecheckError(f"n={n}: phi_1 and psi_beta not proved automorphisms")
    for n in (4, 6):
        rep = counterexample_demo(model_filiform(n), samples=40, seed=seed)
        if not rep.all_verified:
            raise RecheckError(f"n={n}: demo failed")


def _check_exact_kernel(seed):
    from .linalg import (
        certified_kernel, charpoly, cyclic_companion, det, inverse, invariant_factors, kernel, solve_linear,
    )
    from .exact import Polynomial

    rng = random.Random(seed)
    for _ in range(10):
        m = Matrix(
            tuple(tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(3))
        )
        if det(m) != cofactor_det(m):
            raise RecheckError("determinant disagrees with cofactor expansion")
        chi = charpoly(m)
        if chi != charpoly_via_cofactor(m):
            raise RecheckError("charpoly disagrees with cofactor expansion")
        companion = cyclic_companion(m)
        if companion is not None and companion[2] != chi:
            raise RecheckError("companion polynomial disagrees with charpoly")
        if not cofactor_det(m).is_zero():
            if inverse(m) @ m != Matrix.identity(3):
                raise RecheckError("inverse is wrong")
        dependent = Matrix(m.data[:2] + (tuple(x + y for x, y in zip(*m.data[:2])),))
        if any(certified_kernel(x) != kernel(x) for x in (m, dependent)):
            raise RecheckError("kernel found modulo p disagrees with the exact kernel")
        # |det| <= 750 < p, so the rank mod p is the exact rank here
        if any(full_rank_mod_p(x) == det(x).is_zero() for x in (m, dependent)):
            raise RecheckError("rank modulo p disagrees with the determinant")
    t = Polynomial((0, 1))
    cases = [
        (Matrix.zeros(2, 2), [t, t]),
        (Matrix(((0, 1), (0, 0))), [t * t]),
        (Matrix.diagonal((1, -1)), [(t - 1) * (t + 1)]),
    ]
    for m, want in cases:
        if list(invariant_factors(m)) != want:
            raise RecheckError(f"invariant factors of {m.to_json()} are wrong")
    for _ in range(20):
        a = Matrix(tuple(tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(4)))
        xs = tuple(GaussianRational(rng.randint(-4, 4)) for _ in range(3))
        b = a.apply(xs)
        sol = solve_linear(a, b)
        if sol is None or a.apply(sol) != b:
            raise RecheckError("solve round-trip failed")


def _check_negative_control(seed):
    from .algebra import StructureAlgebra

    model = SlnModel(2)
    alg = model.structure_algebra()
    table = [[list(v) for v in row] for row in alg.table]
    table[0][1][0] = table[0][1][0] + GaussianRational(1)
    corrupted = StructureAlgebra(alg.dim, alg.labels, table)
    violations = corrupted.validate_lie()
    if not violations:
        raise RecheckError("corrupted constants passed validation")


SELFCHECK_TABLE = [
    ("scalar maps classify with verified certificates", _check_scalar_maps),
    ("conjugation round-trips recover their family", _check_conjugation_roundtrips),
    ("probe polynomial matches the cofactor expansion", _check_probe_polynomial),
    ("transpose and negation admit pointwise conjugators", _check_pointwise_witnesses),
    ("semidirect sums: Leibniz identity, squares ideal, Lie quotient", _check_semidirect_structure),
    ("extensions keep the forced block shape", _check_extensions),
    ("Leibniz decisions agree with the bracket check", _check_leibniz_decisions),
    ("filiform family: automorphism exactly at alpha = 1", _check_filiform),
    ("exact kernel agrees with first-principles oracles", _check_exact_kernel),
    ("negative control: corrupted constants are caught", _check_negative_control),
]


def cmd_selfcheck(args) -> int:
    results = []
    failures = 0
    for name, fn in SELFCHECK_TABLE:
        try:
            fn(args.seed)
            results.append({"name": name, "status": "PASS", "detail": None})
        except Exception as exc:
            failures += 1
            results.append({"name": name, "status": "FAIL", "detail": str(exc)})
    payload = {"seed": args.seed, "checks": results, "failures": failures}
    lines = [f"seed: {args.seed}"]
    for r in results:
        mark = r["status"]
        detail = f"  ({r['detail']})" if r["detail"] else ""
        lines.append(f"{mark}  {r['name']}{detail}")
    lines.append(f"failures: {failures}")
    _emit(args, payload, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="locaut",
        description="Exact verdicts on local automorphisms of sl_n, simple "
        "Leibniz algebras and filiform Lie algebras.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_n=True):
        if need_n:
            sp.add_argument("--n", type=int, required=True, help="matrix size n")
        sp.add_argument("--json", action="store_true", help="emit JSON")

    sp = sub.add_parser("classify-sln", help="classify a linear self-map of sl_n")
    common(sp)
    sp.add_argument("--map", required=True, help="coordinate matrix JSON file")
    sp.set_defaults(fn=cmd_classify, model=SlnModel, classify=classify_sln)

    sp = sub.add_parser("classify-mn", help="classify a linear self-map of M_n")
    common(sp)
    sp.add_argument("--map", required=True, help="coordinate matrix JSON file")
    sp.set_defaults(fn=cmd_classify, model=MnModel, classify=classify_mn)

    sp = sub.add_parser("witness", help="pointwise automorphism witness on sl_n")
    common(sp)
    sp.add_argument("--map", required=True, help="coordinate matrix JSON file")
    sp.add_argument("--at", required=True, help="n x n traceless element JSON file")
    sp.set_defaults(fn=cmd_witness)

    sp = sub.add_parser("leibniz-build", help="build sl_n with an irreducible right module")
    common(sp)
    sp.add_argument("--module", required=True, help="vm:<m> | natural | adjoint")
    sp.add_argument("--map", help="S-automorphism coordinate matrix to extend")
    sp.add_argument("--omega", default="0", help="coupling scalar for the extension")
    sp.set_defaults(fn=cmd_leibniz_build)

    sp = sub.add_parser("leibniz-decide", help="decide a block map on sl_n + I")
    common(sp)
    sp.add_argument("--module", required=True, help="vm:<m> | natural | adjoint")
    sp.add_argument("--map", required=True, help='BlockMap JSON file {"s","si","i"}')
    sp.set_defaults(fn=cmd_leibniz_decide)

    sp = sub.add_parser("filiform-demo", help="local-but-not-automorphism demonstration")
    common(sp)
    sp.add_argument("--samples", type=int, default=200, help="points to verify")
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    sp.set_defaults(fn=cmd_filiform_demo)

    sp = sub.add_parser("selfcheck", help="run the full invariant suite")
    common(sp, need_n=False)
    sp.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sampling seed")
    sp.set_defaults(fn=cmd_selfcheck)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
