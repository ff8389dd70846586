"""Planned, self-sorting mixed-radix fast Fourier transform and magnitude spectra.

`_plan(n)` factors a length once, smallest prime first, into stages n = p*m,
each with its p-point DFT matrix and (p, m) twiddles; a prime length is one
stage with m = 1, the direct DFT.  The transform axis leads, on a complex
(n, B) array.  A stage views the data as (m, p*B), which puts the p decimated
sub-sequences side by side, so the later stages transform them as one wider
batch (Cooley & Tukey, 1965); it then applies the twiddles, writing the
residue axis first, and the p-point DFT as one matmul over that axis.  Bin
k1 + m*k2 lands at row k2*m + k1, in natural order, so no stage gathers or
re-sorts (Temperton, J. Comput. Phys. 52, 1983).  For even l, `fft_magnitude`
packs even and odd samples into one complex transform of length l/2 and
separates bins 0..l/2 afterwards.  Rows go through `_BLOCK` transforms at a
time, converted to complex128 per block, so a block's working set stays in cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

_BLOCK = 64  # transforms per block


def _smallest_prime_factor(n: int) -> int:
    return next((f for f in range(2, math.isqrt(n) + 1) if n % f == 0), n)


@cache
def _plan(n: int) -> tuple[tuple[int, int, np.ndarray, np.ndarray], ...]:
    """Stages (p, m, p x p DFT matrix, (p, m, 1) twiddles), outermost first."""
    stages = []
    while n > 1:
        p = _smallest_prime_factor(n)
        m = n // p
        r = np.arange(p)
        dft = np.exp(-2j * np.pi * (np.outer(r, r) % p) / p)
        tw = np.exp(-2j * np.pi * (np.outer(r, np.arange(m)) % n) / n)[:, :, None]
        stages.append((p, m, dft, tw))
        n = m
    return tuple(stages)


def _transform(x: np.ndarray) -> np.ndarray:
    """DFT along axis 0 of a C-contiguous complex128 (n, B) array."""
    n, b = x.shape
    for p, m, dft, tw in reversed(_plan(n)):
        y = x.reshape(m, p, -1)  # y[k1, r]: bin k1 of residue r's length-m transform
        if m > 1:
            y = np.multiply(y.transpose(1, 0, 2), tw, out=np.empty((p, m, y.shape[2]), np.complex128))
        x = dft @ y.reshape(p, -1)
    return x.reshape(n, b)


def fft(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Complex DFT along `axis` for any length >= 1."""
    x = np.asarray(x)
    n = x.shape[axis]
    if n < 1:
        raise ValueError("fft: empty transform axis")
    moved = np.moveaxis(x, axis, -1)
    rows = moved.reshape(-1, n)
    out = np.empty(rows.shape, np.complex128)
    for lo in range(0, len(rows), _BLOCK):
        out[lo : lo + _BLOCK] = _transform(np.ascontiguousarray(rows[lo : lo + _BLOCK].T, np.complex128)).T
    return np.moveaxis(out.reshape(moved.shape), -1, axis)


def _half_spectrum(rows: np.ndarray) -> np.ndarray:
    """Bins 0..l//2 of real (B, l) rows, bins first: (l//2 + 1, B) complex."""
    l = rows.shape[1]
    if l % 2:
        return _transform(np.ascontiguousarray(rows.T, np.complex128))[: l // 2 + 1]
    h = l // 2
    z = np.empty((h, len(rows)), np.complex128)
    z.real, z.imag = rows[:, 0::2].T, rows[:, 1::2].T
    z = _transform(z)
    a = np.concatenate([z, z[:1]])  # Z[k mod h] for k = 0..h
    c = np.conjugate(a[::-1])  # conj Z[h - k]
    # X[k] = E[k] + W_l^k O[k], with E = (a + c) / 2 and O = (a - c) / 2j
    w = (0.5j * np.exp(-2j * np.pi * np.arange(h + 1) / l))[:, None]
    a *= 0.5 - w
    c *= 0.5 + w
    return np.add(a, c, out=a)


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
    rows = x.reshape(-1, l)
    out = np.empty((len(rows), l // 2 + 1))
    for lo in range(0, len(rows), _BLOCK):
        out[lo : lo + _BLOCK] = np.abs(_half_spectrum(rows[lo : lo + _BLOCK])).T
    magnitude = np.swapaxes(out.reshape(*x.shape[:-1], -1), -1, -2)
    return FreqSequence(magnitude=magnitude, bin_resolution=sample_rate / l)
