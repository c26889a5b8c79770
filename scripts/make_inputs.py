#!/usr/bin/env python3
"""Generate ready-to-use JSON input files for the locaut CLI.

Writes maps and points on sl_n, maps on M_n and block maps into a
directory, so the README examples can be run verbatim.
"""

import argparse
import json
import random
from fractions import Fraction as F
from pathlib import Path

from locaut.classify import random_unimodular
from locaut.exact import GaussianRational as G
from locaut.leibniz import BlockMap, build_module, build_semidirect, extend_automorphism
from locaut.linalg import Matrix
from locaut.sln import SIGMA_ID, CanonicalShape, MnModel, SlnModel, shape_map_matrix


N_VALUES = (2, 3, 4)


def dump(out_dir: Path, name: str, payload) -> None:
    path = out_dir / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("inputs"))
    parser.add_argument("--seed", type=int, default=20240817)
    args = parser.parse_args(argv)
    out = args.out_dir
    out.mkdir(parents=True, exist_ok=True)

    rng = random.Random(args.seed)
    for n in N_VALUES:
        model = SlnModel(n)
        dump(out, f"transpose{n}.json", model.transpose_map().to_json())
        dump(out, f"negtranspose{n}.json", model.map_matrix(lambda x: -x.T).to_json())
        dump(out, f"negation{n}.json", model.scalar_map(-1).to_json())
        dump(out, f"double{n}.json", model.scalar_map(2).to_json())
        conj = shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, random_unimodular(n, rng)))
        dump(out, f"conjugation{n}.json", conj.to_json())
        dump(out, f"point_e12_{n}.json", model.e(0, 1).to_json())
        dump(out, f"point_h_{n}.json", model.strongly_regular_element().to_json())

    # A fixed regular point of sl_3, not drawn from rng so that the files
    # above stay the same: e1 is a cyclic vector of x and of -x^T, and
    # tr(x^3) != 0 rules out x ~ -x.
    point = Matrix(((1, 1, 0), (0, 2, 1), (1, 0, -3)))
    dump(out, "point_regular_3.json", point.to_json())
    # Its upper-triangular part, also not drawn from rng: e3 is a cyclic
    # vector of x, but e1 is an eigenvector of x, so not a cyclic one.
    point = Matrix(((1, 1, 0), (0, 2, 1), (0, 0, -3)))
    dump(out, "point_upper_3.json", point.to_json())

    # A fixed singular map of sl_4, also not drawn from rng: conjugation by a
    # Gaussian-integer g with det 1 - i after a map that sends coordinates 6
    # and 11 to combinations of earlier ones, so the kernel is 2-dimensional
    # and its vectors have non-real Gaussian-rational entries.
    model = SlnModel(4)
    g = Matrix(((1, G(0, 1), 0, 0), (0, 1, G(1, 1), 0), (1, 0, 2, G(0, -1)), (0, G(1, -1), 0, 1)))
    fold = [[1 if i == j and j not in (6, 11) else 0 for j in range(model.dim)] for i in range(model.dim)]
    fold[0][6], fold[2][6], fold[5][6] = G(F(1, 2), F(1, 3)), F(-2, 3), G(0, 1)
    fold[1][11], fold[4][11], fold[9][11] = F(3, 4), G(F(1, 5), F(-2, 7)), -1
    conj = shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, g))
    dump(out, "singular4.json", (conj @ Matrix(fold)).to_json())

    # A fixed injective map of sl_3 that fits no family, not drawn from rng:
    # the identity except e12 -> e12 + e21, whose square is e11 + e22 != 0.
    model = SlnModel(3)
    dump(out, "square_break3.json", model.map_matrix(lambda x: x + model.e(1, 0) * x[0, 1]).to_json())

    model = SlnModel(2)
    ident = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.identity(3))
    dump(out, "blockmap_identity_vm2.json", ident.to_json())
    anti = BlockMap(model.transpose_map(), Matrix.zeros(3, 3), Matrix.identity(3))
    dump(out, "blockmap_transpose_vm2.json", anti.to_json())
    # theta's third row is the sum of the first two, so the map is singular.
    theta = Matrix(((1, 2, G(0, F(1, 2))), (0, 1, F(1, 3)), (1, 3, G(F(1, 3), F(1, 2)))))
    singular = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), theta)
    dump(out, "blockmap_singular_vm2.json", singular.to_json())
    # An invertible map whose S-block is the scaling by 2, never local on
    # sl_2, and one whose S-block is the identity but whose theta
    # diag(1, 2, 3) is no module isomorphism, so a bracket breaks.
    double = BlockMap(model.scalar_map(2), Matrix.zeros(3, 3), Matrix.identity(3))
    dump(out, "blockmap_double_vm2.json", double.to_json())
    stretch = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.diagonal([1, 2, 3]))
    dump(out, "blockmap_stretch_vm2.json", stretch.to_json())

    # A fixed anti-family map of sl_3 + natural, not drawn from rng: the
    # omega = 0 extension of Ad(g) after (-1, 0, 1).  Its S-block fits
    # (-1, identity) with conjugator g != 1, so its weight_structure
    # certificate carries a reducer that is not the identity.
    model = SlnModel(3)
    lb = build_semidirect(model, build_module(model, "natural"))
    g = Matrix(((1, 1, 0), (0, 1, 2), (1, 0, 1)))
    inner = extend_automorphism(lb, shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, g)), 0)
    minus = BlockMap(model.scalar_map(-1), Matrix.zeros(3, 8), Matrix.identity(3))
    dump(out, "blockmap_anti_natural3.json", inner.compose(minus).to_json())

    # The same construction on sl_3 + adjoint: the reducer's I-block is an
    # 8 x 8 module isomorphism, pinned here by the certificate.
    lb = build_semidirect(model, build_module(model, "adjoint"))
    inner = extend_automorphism(lb, shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, g)), 0)
    minus = BlockMap(model.scalar_map(-1), Matrix.zeros(8, 8), Matrix.identity(8))
    dump(out, "blockmap_anti_adjoint3.json", inner.compose(minus).to_json())

    # Maps on M_n: an anti-automorphism, an automorphism, a scaling that moves
    # the identity, a singular map, and an injective unital map fitting no shape,
    # on the M_n sizes the golden CLI cases use.
    for n in (2, 3):
        model = MnModel(n)
        dump(out, f"mn_transpose{n}.json", model.transpose_map().to_json())
        conj = shape_map_matrix(model, CanonicalShape(1, SIGMA_ID, random_unimodular(n, rng)))
        dump(out, f"mn_conjugation{n}.json", conj.to_json())
        dump(out, f"mn_double{n}.json", model.scalar_map(2).to_json())
        # e12 is the second coordinate: kill it, or stretch it.
        dump(out, f"mn_singular{n}.json", Matrix.diagonal([1, 0] + [1] * (model.dim - 2)).to_json())
        dump(out, f"mn_stretch{n}.json", Matrix.diagonal([1, 2] + [1] * (model.dim - 2)).to_json())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
