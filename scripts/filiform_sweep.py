#!/usr/bin/env python3
"""Sweep the filiform automorphism question over dimensions and parameters.

For each n: which phi_alpha are automorphisms, where delta = phi_0 breaks,
and how many sampled points were covered by which witness family.
"""

import argparse
import sys
from dataclasses import dataclass
from fractions import Fraction

from locaut.filiform import (
    delta_map,
    map_is_automorphism,
    model_filiform,
    phi_is_automorphism,
    counterexample_demo,
)


@dataclass
class SweepConfig:
    n_values: tuple = (3, 4, 5, 6, 7, 8)
    alphas: tuple = (0, 1, 2, -1, Fraction(1, 2))
    samples: int = 100
    seed: int = 20240817


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, action="append", dest="n_values")
    parser.add_argument("--samples", type=int, default=SweepConfig.samples)
    parser.add_argument("--seed", type=int, default=SweepConfig.seed)
    args = parser.parse_args(argv)
    cfg = SweepConfig(
        n_values=tuple(args.n_values) if args.n_values else SweepConfig.n_values,
        samples=args.samples,
        seed=args.seed,
    )
    for n in cfg.n_values:
        fl = model_filiform(n)
        verdicts = []
        for alpha in cfg.alphas:
            ok, _ = phi_is_automorphism(fl, alpha)
            verdicts.append(f"alpha={alpha}: {'yes' if ok else 'no'}")
        print(f"n={n}  phi_alpha automorphism?  " + "  ".join(verdicts))
        _, pair = map_is_automorphism(fl, delta_map(fl))
        rep = counterexample_demo(fl, samples=cfg.samples, seed=cfg.seed)
        if not rep.all_verified:
            print(f"n={n}: a sampled point has no verified witness", file=sys.stderr)
            return 1
        print(
            f"      delta breaks bracket at basis pair {pair}; "
            f"{rep.samples} points covered "
            f"({rep.phi_witnesses} via phi_1, {rep.psi_witnesses} via psi)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
