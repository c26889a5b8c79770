#!/usr/bin/env python3
"""Walk through the semidirect Leibniz construction and both verdicts.

For each module: build sl_n + I, report its weight structure and simplicity,
extend a random inner automorphism of the sl_n part, and show that anti S
blocks are refuted with a concrete square certificate.
"""

import argparse
import random

from locaut.classify import random_unimodular
from locaut.exact import format_scalar, parse_scalar
from locaut.leibniz import (
    BlockMap,
    build_module,
    build_semidirect,
    decide_local_aut,
    extend_automorphism,
    inner_automorphism_matrix,
    weight_decomposition,
)
from locaut.linalg import Matrix
from locaut.recheck import recheck_leibniz_verdict
from locaut.sln import SlnModel


MODULES = ("vm:2", "vm:3", "adjoint")


def labelled(lb, v) -> str:
    labels = lb.algebra.labels
    parts = []
    for c, name in zip(v, labels):
        if c.is_zero():
            continue
        coef = format_scalar(c)
        parts.append(name if coef == "1" else f"{coef}*{name}")
    return " + ".join(parts) if parts else "0"


def tour_module(args, module_text: str) -> None:
    """One module's tour; args holds the parsed n, omega and seed."""
    model = SlnModel(args.n)
    module = build_module(model, module_text)
    lb = build_semidirect(model, module)
    print(f"sl_{args.n} + I for module {module_text}")
    print(f"  dim {lb.dim} = {lb.dim_s} + {lb.dim_i}")
    spaces = weight_decomposition(module)
    desc = ", ".join(f"{tuple(map(str, ws.values))}:{len(ws.basis)}" for ws in spaces)
    print(f"  weights {desc}")
    print(f"  highest weight vector {labelled(lb, lb.embed_i(lb.y_beta))}")

    rng = random.Random(args.seed)
    g = random_unimodular(args.n, rng)
    phi_s = inner_automorphism_matrix(model, g)
    bm = extend_automorphism(lb, phi_s, parse_scalar(args.omega))
    v = decide_local_aut(lb, bm)
    recheck_leibniz_verdict(lb, bm, v)
    coupling = "zero" if bm.coupling.is_zero() else "nonzero"
    print(f"  random inner extension: {v.verdict} (coupling {coupling})")

    anti = BlockMap(
        model.transpose_map(),
        Matrix.zeros(lb.dim_i, lb.dim_s),
        Matrix.identity(lb.dim_i),
    )
    v = decide_local_aut(lb, anti)
    recheck_leibniz_verdict(lb, anti, v)
    print(f"  transpose S-block: {v.verdict}")
    cert = v.certificate
    if cert is not None and cert.kind == "bracket_square":
        z = labelled(lb, cert.z)
        sq = labelled(lb, cert.image_square)
        print(f"    z = {z} has [z, z] = 0 but the image square is {sq}")
    print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2)
    parser.add_argument("--module", action="append", dest="modules")
    parser.add_argument("--omega", default="1")
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args(argv)
    for module_text in args.modules or MODULES:
        tour_module(args, module_text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
