"""Exact L1 distances over lattice-supported laws.

All distances are reported in the L1 convention, twice the total-variation
distance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class EmpiricalLaw:
    """A pmf on sorted integer support points."""

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        support = np.asarray(self.support, dtype=np.int64)
        mass = np.asarray(self.mass, dtype=float)
        if support.shape != mass.shape or support.ndim != 1:
            raise ValueError("support and mass must be parallel 1-d arrays")
        if support.size == 0:
            raise ValueError("empty support")
        if np.any(np.diff(support) <= 0):
            raise ValueError("support must be strictly increasing")
        if not np.all(np.isfinite(mass)):
            raise ValueError("non-finite mass")
        if np.any(mass < -1e-15):
            raise ValueError("negative mass")
        total = float(mass.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"mass sums to {total}, not 1")
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "mass", np.maximum(mass, 0.0))


def pmf_l1(p: EmpiricalLaw, q: EmpiricalLaw) -> float:
    """Sum of |p(k) - q(k)| over the union support; in [0, 2]."""
    keys = np.union1d(p.support, q.support)
    pw = np.zeros(keys.size)
    qw = np.zeros(keys.size)
    pw[np.searchsorted(keys, p.support)] = p.mass
    qw[np.searchsorted(keys, q.support)] = q.mass
    return float(np.abs(pw - qw).sum())


def mixture_pmf(atom_pmfs: Iterable[tuple[EmpiricalLaw, float]]) -> EmpiricalLaw:
    """Weighted superposition of pmfs; weights must sum to 1."""
    pairs = list(atom_pmfs)
    if not pairs:
        raise ValueError("empty mixture")
    weights = np.array([w for _, w in pairs], dtype=float)
    if abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {weights.sum()}, not 1")
    keys = np.concatenate([law.support for law, _ in pairs])
    vals = np.concatenate([law.mass * w for (law, _), w in zip(pairs, weights)])
    support, inverse = np.unique(keys, return_inverse=True)
    mass = np.zeros(support.size)
    np.add.at(mass, inverse, vals)
    mass /= mass.sum()
    return EmpiricalLaw(support, mass)
