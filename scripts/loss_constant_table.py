#!/usr/bin/env python3
"""Print the cloning loss constant by three routes for a grid of (r, m).

Routes: chi-square closed form, density quadrature (m <= 2) or Monte Carlo
(m = 3), and the identity-kernel witness on a discretized experiment pair
(m = 1).  The rows should agree to the printed tolerance; this is the
headline table of the verification suite.
"""

import argparse
import math

import numpy as np

from clonekit import (
    GaussianShift,
    GridSpec,
    discretize_gaussian_pair,
    identity_objective,
    stream,
    tv_isotropic,
    tv_monte_carlo,
    tv_quadrature,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--budget", type=int, default=1_000_000)
    args = parser.parse_args()

    print(f"{'r':>6} {'m':>3} {'closed':>10} {'numeric':>10} {'lp-witness':>11}")
    for r, m in ((1.5, 1), (2.0, 1), (4.0, 1), (8.0, 1), (2.0, 2), (2.0, 3)):
        closed = tv_isotropic(r, m)
        p = GaussianShift(np.zeros(m), np.eye(m))
        q = GaussianShift(np.zeros(m), r * np.eye(m))
        if m <= 2:
            numeric = tv_quadrature(p, q)
        else:
            numeric, _ = tv_monte_carlo(
                p, q, args.budget, stream(args.seed, "table", str(r), m)
            )
        witness = ""
        if m == 1:
            span = 6 * math.sqrt(r) + 2 * r
            src, tgt = discretize_gaussian_pair(
                [-1.0, 0.0, 1.0], 1.0, r, GridSpec(-span, span, 201),
                "variance-excess",
            )
            witness = f"{identity_objective(src, tgt):11.6f}"
        print(f"{r:6.2f} {m:3d} {closed:10.6f} {numeric:10.6f} {witness:>11}")


if __name__ == "__main__":
    main()
