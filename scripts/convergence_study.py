#!/usr/bin/env python3
"""Cloner loss against the Gaussian reference over a growing sample size.

Runs the count-law loss of the two-stage pipeline for a discrete family and
prints one row per n: the exact loss (`clone_loss_exact`), the Monte Carlo
loss with its bootstrap interval (`clone_loss_discrete`), and two Gaussian
constants.  The header's reference is the gate's, tv_isotropic(r / (1 -
delta), 1).  The ``limit`` column is the limit of the loss at this n's split
and smoothing, tv_isotropic(rn / n2 * (1 + epsilon J(theta)), 1): the gain
rn / n2 times the variance that the smoothing adds to the score.  The exact
loss tends to ``limit`` as n grows, about as 1/n; the Monte Carlo loss sits
above it by its plug-in bias, which grows with n.
"""

import argparse

from clonekit import (
    ClonerConfig,
    clone_loss_discrete,
    clone_loss_exact,
    get_family,
    tv_isotropic,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--family", default="bernoulli", choices=("bernoulli", "poisson"))
    parser.add_argument("--theta", type=float, default=0.3)
    parser.add_argument("--r", type=float, default=2.0)
    parser.add_argument("--delta", type=float, default=0.05)
    parser.add_argument("--epsilon", type=float, default=0.01)
    parser.add_argument("--n-grid", default="100,200,400,800,1600")
    parser.add_argument("--reps", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=20260808)
    args = parser.parse_args()

    family = get_family(args.family)
    ref = tv_isotropic(args.r / (1 - args.delta), 1)
    smoothing = 1.0 + args.epsilon * family.fisher(args.theta)
    print(f"# family={args.family} theta={args.theta} r={args.r} "
          f"delta={args.delta} epsilon={args.epsilon} reference={ref:.6f}")
    print(f"{'n':>6} {'exact':>9} {'limit':>9} {'mc':>9} {'ci_low':>9} "
          f"{'ci_high':>9} {'|dev|':>9} {'clip%':>6}")
    for n in (int(tok) for tok in args.n_grid.split(",")):
        cfg = ClonerConfig(n=n, r=args.r, delta=args.delta,
                           epsilon=args.epsilon, seed=args.seed)
        exact = clone_loss_exact(family, args.theta, cfg)
        limit = tv_isotropic(cfg.rn / cfg.n2 * smoothing, 1)
        mc = clone_loss_discrete(family, args.theta, cfg, args.reps)
        print(f"{n:6d} {exact.loss:9.6f} {limit:9.6f} {mc.loss:9.4f} "
              f"{mc.ci_low:9.4f} {mc.ci_high:9.4f} {abs(exact.loss - ref):9.4f} "
              f"{100 * exact.clip_rate:6.2f}")


if __name__ == "__main__":
    main()
