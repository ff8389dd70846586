"""Random visible/masked partition of the unit sequence."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MaskPlan:
    """Sorted index sets; masked has exactly floor(n * ratio) entries."""

    visible: np.ndarray
    masked: np.ndarray


def make_mask_plan(n: int, ratio: float, rng: np.random.Generator) -> MaskPlan:
    """Uniform random subset of floor(n*ratio) masked units.

    The floor rule keeps more context visible when n*ratio is fractional
    (110 * 0.75 -> 82 masked, 28 visible).  A plan with nothing masked or
    nothing visible is degenerate and rejected.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError(f"make_mask_plan: ratio must be in (0, 1), got {ratio}")
    n_masked = math.floor(n * ratio)
    if n_masked == 0 or n_masked == n:
        raise ValueError(f"make_mask_plan: ratio {ratio} leaves {n_masked} of {n} units masked")
    masked = np.sort(rng.choice(n, size=n_masked, replace=False))
    keep = np.ones(n, dtype=bool)
    keep[masked] = False
    visible = np.flatnonzero(keep)
    return MaskPlan(visible=visible, masked=masked)
