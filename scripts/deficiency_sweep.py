#!/usr/bin/env python3
"""Deficiency of the discretized amplification problem as the shift bound grows.

The LP value rises monotonically with the bound a and approaches the
closed-form constant from below; the remaining gap at moderate a is the
bounded-shift effect, roughly 0.18 / a for r = 2.  The last four columns
are solver statistics: kernel variables in the final banded LP, pricing
rounds, and HiGHS iterations summed over the rounds, split into crossover
iterations and the rest (scipy reports the simplex count there when HiGHS
ran a simplex clean-up after crossover, else the interior-point count).
The lattice and the shift lists are symmetric about 0, so with an even
cell count (the default 201 edges) the LP is the reflection-reduced one:
each kernel variable stands for an entry and its mirror image, about half
the count of the unreduced LP on the same band.
"""

import argparse

from clonekit import GridSpec, discretize_gaussian_pair, lp_deficiency, tv_isotropic
from clonekit.deficiency import symmetric_shifts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--r", type=float, default=2.0)
    parser.add_argument("--sigma", type=float, default=1.0)
    parser.add_argument("--a-grid", default="0.5,1,2,4")
    parser.add_argument("--h-step", type=float, default=0.5)
    parser.add_argument("--grid-lo", type=float, default=-10.0)
    parser.add_argument("--grid-hi", type=float, default=10.0)
    parser.add_argument("--grid-count", type=int, default=201)
    args = parser.parse_args()

    closed = tv_isotropic(args.r, 1)
    grid = GridSpec(args.grid_lo, args.grid_hi, args.grid_count)
    print(f"# r={args.r} sigma={args.sigma} closed_form={closed:.6f}")
    print(f"{'a':>6} {'shifts':>7} {'lp_value':>9} {'gap':>8} {'status':>10} "
          f"{'kernel_vars':>11} {'rounds':>6} {'spx|ipm':>7} {'xover':>6}")
    for a in (float(tok) for tok in args.a_grid.split(",")):
        hs = symmetric_shifts(a, args.h_step)
        src, tgt = discretize_gaussian_pair(hs, args.sigma, args.r, grid)
        res = lp_deficiency(src, tgt)
        print(f"{a:6.2f} {len(hs):7d} {res.value:9.6f} "
              f"{closed - res.value:8.4f} {res.lp_status:>10} "
              f"{res.kernel_vars:11d} {res.pricing_rounds:6d} "
              f"{res.simplex_or_ipm_iters:7d} {res.crossover_iters:6d}")


if __name__ == "__main__":
    main()
