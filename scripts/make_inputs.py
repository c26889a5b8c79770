#!/usr/bin/env python3
"""Generate ready-to-use JSON input files for the locaut CLI.

Writes maps and points on sl_n, maps on M_n and two block maps into a
directory, so the README examples can be run verbatim.
"""

import argparse
import json
import random
from pathlib import Path

from locaut.classify import random_unimodular
from locaut.leibniz import BlockMap
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

    model = SlnModel(2)
    ident = BlockMap(Matrix.identity(3), Matrix.zeros(3, 3), Matrix.identity(3))
    dump(out, "blockmap_identity_vm2.json", ident.to_json())
    anti = BlockMap(model.transpose_map(), Matrix.zeros(3, 3), Matrix.identity(3))
    dump(out, "blockmap_transpose_vm2.json", anti.to_json())

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
