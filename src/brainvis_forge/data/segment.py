"""Lossless partition of a trial into contiguous temporal units.

Each function takes one trial or a batch of them: leading axes pass through.
"""

from __future__ import annotations

import numpy as np


def segment_units(x: np.ndarray, n: int) -> np.ndarray:
    """Split (..., c, l) into n units, (..., n, c, l/n); unit i holds columns [i*l/n, (i+1)*l/n).

    n must divide l exactly; padding would break the bitwise round trip.  The
    result is a view of x.
    """
    *lead, c, l = x.shape
    if n < 1 or l % n != 0:
        raise ValueError(f"segment_units: n={n} must divide signal length l={l}")
    return x.reshape(*lead, c, n, l // n).swapaxes(-3, -2)


def flatten_units(units: np.ndarray) -> np.ndarray:
    """Row-major flatten of each (c, w) unit: (..., n, c, w) -> (..., n, c*w), zero trials included."""
    return units.reshape(*units.shape[:-2], units.shape[-2] * units.shape[-1])
