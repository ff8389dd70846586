"""Frozen random-projection tokenizer.

Each raw unit is z-scored and pushed through a fixed Gaussian linear map to
n_t logits; the argmax is its codeword.  The map is never trained, which
sidesteps codebook-collapse machinery while still giving stable discrete
targets (the random-projection quantizer idea from self-supervised speech).
"""

from __future__ import annotations

import numpy as np

from ..data.records import zscore_channels


def check_codebook_dims(unit_dim: int, n_entries: int, what: str) -> None:
    """Raise ValueError naming `what` unless units have values and there are at least two codewords."""
    if unit_dim < 1 or n_entries < 2:
        raise ValueError(f"{what} bad dims unit_dim={unit_dim}, n_entries={n_entries}")


class Codebook:
    """Immutable tokenizer: flattened unit (c * l/n values) -> index in [0, n_t)."""

    def __init__(self, unit_dim: int, n_entries: int, rng: np.random.Generator):
        check_codebook_dims(unit_dim, n_entries, "Codebook:")
        self.unit_dim = unit_dim
        self.n_entries = n_entries
        weight = rng.standard_normal((unit_dim, n_entries)) / np.sqrt(unit_dim)
        weight.setflags(write=False)
        self.weight = weight

    def assign(self, flat_units: np.ndarray) -> np.ndarray:
        """Codeword indices for (m, unit_dim) rows; ties resolve to the lowest index."""
        flat_units = np.asarray(flat_units, dtype=np.float64)
        if flat_units.ndim != 2 or flat_units.shape[1] != self.unit_dim:
            raise ValueError(f"Codebook.assign: expected (m, {self.unit_dim}), got {flat_units.shape}")
        return np.argmax(zscore_channels(flat_units) @ self.weight, axis=1)
