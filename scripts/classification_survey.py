#!/usr/bin/env python3
"""Classify a catalog of linear maps on sl_n and print one line per map.

The catalog mixes the standard families (conjugations, twisted conjugations,
their negatives), scalings, and deliberately broken maps, including a
rational map that preserves square-zero elements and the probe polynomial
yet fits no conjugation family.
"""

import argparse
import random
from fractions import Fraction

from locaut.classify import classify_sln, random_unimodular
from locaut.exact import GaussianRational
from locaut.linalg import Matrix, inverse
from locaut.recheck import recheck_sln_verdict
from locaut.sln import SlnModel


N_VALUES = (2, 3)


def screen_evading_map() -> Matrix:
    """n=2 map fixing e12, e21 and sending h to (3/5)h + (4/5)(e12 + e21).

    Any 2x2 square-zero image stays square-zero and the probe charpoly is
    untouched, but no epsilon, sigma, a reproduces the map.
    """
    return Matrix(
        [
            [1, 0, Fraction(4, 5)],
            [0, 1, Fraction(4, 5)],
            [0, 0, Fraction(3, 5)],
        ]
    )


def catalog(model: SlnModel, conjugations: int, seed: int):
    rng = random.Random(seed)
    yield "identity", model.identity_map()
    yield "transpose", model.transpose_map()
    yield "negation", model.scalar_map(-1)
    yield "neg-transpose", model.map_matrix(lambda x: -(x.T))
    yield "doubling", model.scalar_map(2)
    yield "i-scaling", model.scalar_map(GaussianRational(0, 1))
    for k in range(conjugations):
        g = random_unimodular(model.n, rng)
        ginv = inverse(g)
        yield f"conjugation #{k + 1}", model.map_matrix(lambda x: g @ x @ ginv)
        yield f"twisted conjugation #{k + 1}", model.map_matrix(lambda x: g @ x.T @ ginv)
    if model.n == 2:
        yield "screen evader", screen_evading_map()


def describe(v) -> str:
    if v.obstruction is not None:
        return f"obstruction: {v.obstruction.kind}"
    fits = v.shapes if len(v.shapes) > 1 else (v.shape,)
    return ", ".join(f"(epsilon {s.epsilon}, {s.sigma})" for s in fits)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, action="append", dest="n_values")
    parser.add_argument("--conjugations", type=int, default=3)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    for n in args.n_values or N_VALUES:
        model = SlnModel(n)
        print(f"sl_{n}")
        for name, d in catalog(model, args.conjugations, args.seed):
            v = classify_sln(model, d)
            recheck_sln_verdict(model, d, v)
            print(f"  {name:28s} {v.verdict:18s} {describe(v)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
