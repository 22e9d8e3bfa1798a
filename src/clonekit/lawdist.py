"""The exact law of a lattice statistic, as `Family.stat_pmf` returns it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EmpiricalLaw:
    """A pmf on sorted integer support points."""

    support: np.ndarray
    mass: np.ndarray

    def __post_init__(self) -> None:
        if not np.all(np.isfinite(self.mass)):
            raise ValueError("non-finite mass")
