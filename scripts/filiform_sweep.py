#!/usr/bin/env python3
"""Sweep the filiform automorphism question over dimensions and parameters.

For each n: which phi_alpha are automorphisms, where delta = phi_0 breaks,
and how many sampled points were covered by which witness family.
"""

import argparse
import sys
from fractions import Fraction

from locaut.filiform import model_filiform, phi_is_automorphism, counterexample_demo

N_VALUES = (3, 4, 5, 6, 7, 8)
ALPHAS = (0, 1, 2, -1, Fraction(1, 2))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, action="append", dest="n_values")
    parser.add_argument("--samples", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20240817)
    args = parser.parse_args(argv)
    for n in args.n_values or N_VALUES:
        fl = model_filiform(n)
        verdicts = []
        for alpha in ALPHAS:
            ok, _ = phi_is_automorphism(fl, alpha)
            verdicts.append(f"alpha={alpha}: {'yes' if ok else 'no'}")
        print(f"n={n}  phi_alpha automorphism?  " + "  ".join(verdicts))
        rep = counterexample_demo(fl, samples=args.samples, seed=args.seed)
        if not rep.all_verified:
            print(f"n={n}: a sampled point has no verified witness", file=sys.stderr)
            return 1
        print(
            f"      delta breaks bracket at basis pair {rep.failing_pair}; "
            f"{rep.samples} points covered "
            f"({rep.phi_witnesses} via phi_1, {rep.psi_witnesses} via psi)"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
