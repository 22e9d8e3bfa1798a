#!/usr/bin/env python3
"""Cloner loss against the Gaussian reference over a growing sample size.

Runs the count-law loss of the two-stage pipeline for a discrete family and
prints one row per n, next to tv_isotropic(r / (1 - delta), 1).  The loss
should settle near the reference (plus the small smoothing excess) as n
grows.
"""

import argparse

from clonekit import ClonerConfig, clone_loss_discrete, get_family, tv_isotropic


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
    print(f"# family={args.family} theta={args.theta} r={args.r} "
          f"delta={args.delta} epsilon={args.epsilon} reference={ref:.6f}")
    print(f"{'n':>6} {'loss':>9} {'ci_low':>9} {'ci_high':>9} {'|dev|':>9} {'clip%':>6}")
    for n in (int(tok) for tok in args.n_grid.split(",")):
        cfg = ClonerConfig(n=n, r=args.r, delta=args.delta,
                           epsilon=args.epsilon, seed=args.seed)
        rep = clone_loss_discrete(family, args.theta, cfg, args.reps)
        print(f"{n:6d} {rep.loss:9.4f} {rep.ci_low:9.4f} {rep.ci_high:9.4f} "
              f"{abs(rep.loss - ref):9.4f} {100 * rep.clip_rate:6.2f}")


if __name__ == "__main__":
    main()
