"""Reference implementations that only the tests use.

Each is a pure oracle against which library code is checked: exact noise
inversion for the reverse chain, the inverse of `segment_units`, and the
one-hot codeword map the LMM loss targets are built from.
"""

from __future__ import annotations

import numpy as np

from brainvis_forge.diffusion import NoiseSchedule
from brainvis_forge.lmm import Codebook


class OracleDenoiser:
    """Knows the clean latent; returns the exact noise consistent with x_t.

    eps = (x_t - sqrt(alpha_bar_t) * x0) / sqrt(1 - alpha_bar_t).  Ignores the
    condition, which makes it a pure algebra probe for the reverse chain.
    """

    def __init__(self, x0: np.ndarray, schedule: NoiseSchedule):
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.schedule = schedule

    def predict(self, x_t: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        ab = self.schedule.alpha_bars[t]
        return (np.asarray(x_t, dtype=np.float64) - np.sqrt(ab) * self.x0) / np.sqrt(1.0 - ab)


def reassemble_units(units: np.ndarray) -> np.ndarray:
    """Inverse of segment_units: (..., n, c, w) back to (..., c, n*w)."""
    *lead, n, c, w = units.shape
    return units.swapaxes(-3, -2).reshape(*lead, c, n * w)


def tokenize(codebook: Codebook, flat_units: np.ndarray) -> np.ndarray:
    """One-hot codewords for raw masked units: (m, unit_dim) -> (m, n_t)."""
    return codebook.one_hot(codebook.assign(flat_units))
