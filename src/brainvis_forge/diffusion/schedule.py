"""Variance schedule for the denoising chain.

Betas are defined on the usual 1000-step reference scale (1e-4 to 0.02) and
multiplied by 1000/T, so shorter chains still noise essentially to
completion: the terminal signal fraction stays below 0.05 at T=100 where the
unscaled range would leave it near 0.37.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

REFERENCE_STEPS = 1000
BETA_START = 1e-4
BETA_END = 0.02
MAX_SCALED_BETA = 0.8  # keeps very short chains inside (0, 1)


@dataclass
class NoiseSchedule:
    """Arrays indexed by t in 0..T; index 0 is the identity (alpha_bar_0 = 1)."""

    T: int
    betas: np.ndarray  # betas[0] unused, betas[t] for t in 1..T
    alphas: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self) -> None:  # `forward_diffuse`'s coefficients, gathered by t
        self.sqrt_alpha_bars = np.sqrt(self.alpha_bars)
        self.sqrt_one_minus_alpha_bars = np.sqrt(1.0 - self.alpha_bars)

    @classmethod
    def linear(cls, T: int = 100) -> "NoiseSchedule":
        if T < 2:
            raise ValueError(f"NoiseSchedule: need T >= 2, got {T}")
        scale = min(REFERENCE_STEPS / T, MAX_SCALED_BETA / BETA_END)
        betas = np.concatenate([[0.0], np.linspace(BETA_START * scale, BETA_END * scale, T)])
        if np.any(betas[1:] <= 0.0) or np.any(betas[1:] >= 1.0):
            raise ValueError("NoiseSchedule: betas must lie in (0, 1); reduce the range or raise T")
        alphas = 1.0 - betas
        alpha_bars = np.cumprod(alphas)
        sched = cls(T=T, betas=betas, alphas=alphas, alpha_bars=alpha_bars)
        sched.validate()
        return sched

    def validate(self) -> None:
        if self.alpha_bars[0] != 1.0:
            raise ValueError("NoiseSchedule: alpha_bar_0 must be exactly 1")
        if np.any(np.diff(self.alpha_bars) >= 0.0):
            raise ValueError("NoiseSchedule: alpha_bar must be strictly decreasing")


def forward_diffuse(schedule: NoiseSchedule, x0: np.ndarray, t: int | np.ndarray, eps: np.ndarray) -> np.ndarray:
    """x_t = sqrt(alpha_bar_t) * x0 + sqrt(1 - alpha_bar_t) * eps, t in [0, T].

    `t` is one step for all of `x0` or a (B,) array, one step per item of a
    (B, ...) batch.
    """
    t = np.asarray(t)
    if np.any(t < 0) or np.any(t > schedule.T):
        raise ValueError(f"forward_diffuse: t={t} outside [0, {schedule.T}]")
    x0 = np.asarray(x0, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    if eps.shape != x0.shape:
        raise ValueError(f"forward_diffuse: noise shape {eps.shape} differs from {x0.shape}")
    shape = t.shape + (1,) * (x0.ndim - t.ndim)
    return schedule.sqrt_alpha_bars[t].reshape(shape) * x0 + schedule.sqrt_one_minus_alpha_bars[t].reshape(shape) * eps
