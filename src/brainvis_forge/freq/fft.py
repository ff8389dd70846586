"""Complex DFT and one-sided magnitude spectra, on numpy's FFT (pocketfft).

Both transforms run in float64: numpy >= 2 transforms float32 input in
single precision, and the spectra fed to the frequency branch are defined
by the double-precision transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def fft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Complex DFT along `axis` for any length >= 1."""
    x = np.asarray(x)
    if x.shape[axis] < 1:
        raise ValueError("fft: empty transform axis")
    return np.fft.fft(x.astype(np.complex128, copy=False), axis=axis)


@dataclass
class FreqSequence:
    """One-sided magnitude spectra arranged bins before channels: (..., n_bins, channels)."""

    magnitude: np.ndarray
    bin_resolution: float

    @property
    def n_bins(self) -> int:
        return self.magnitude.shape[-2]


def fft_magnitude(x: np.ndarray, sample_rate: float = 1000.0) -> FreqSequence:
    """Per-channel one-sided magnitude spectra of (..., c, l) trials.

    Bins 0..l//2 (l//2 + 1 of them, 221 for l=440), transposed so the bin
    axis comes before the channel axis: downstream recurrences walk the
    spectrum bin by bin with one value per channel at each step.
    """
    x = np.asarray(x)
    if x.ndim < 2:
        raise ValueError(f"fft_magnitude: expected (..., channels, samples), got {x.shape}")
    l = x.shape[-1]
    if l < 2:
        raise ValueError("fft_magnitude: need at least 2 samples")
    magnitude = np.swapaxes(np.abs(np.fft.rfft(x.astype(np.float64, copy=False), axis=-1)), -1, -2)
    return FreqSequence(magnitude=magnitude, bin_resolution=sample_rate / l)
