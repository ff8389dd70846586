"""Training objective and ancestral reverse step for the denoising chain."""

from __future__ import annotations

import numpy as np

from ..autodiff import ParamStore, Tensor
from ..autodiff.ops import denoiser_mse
from .denoiser import DenoiserNet, timestep_embedding
from .schedule import NoiseSchedule, forward_diffuse


def reverse_step(
    schedule: NoiseSchedule,
    denoiser,
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """One posterior step x_t -> x_{t-1} with sigma_t^2 = beta_t; no noise at t=1.
    Built in one fresh buffer: neither `x_t` nor the denoiser's output is written."""
    if t <= 0 or t > schedule.T:
        raise ValueError(f"reverse_step: t={t} outside [1, {schedule.T}]")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps = denoiser.predict(x_t, t, cond)
    beta = schedule.betas[t]
    mean = np.multiply(eps, beta / schedule.sqrt_one_minus_alpha_bars[t])
    np.subtract(x_t, mean, out=mean)
    mean /= np.sqrt(schedule.alphas[t])
    if t > 1:
        noise = rng.standard_normal(x_t.shape)
        noise *= np.sqrt(beta)
        mean += noise
    return mean


def x0_estimate(schedule: NoiseSchedule, x_t: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """Single-shot inversion of the forward noising given the true noise."""
    x_t = np.asarray(x_t, dtype=np.float64)
    return (x_t - schedule.sqrt_one_minus_alpha_bars[t] * eps) / schedule.sqrt_alpha_bars[t]


def train_denoiser(
    net: DenoiserNet,
    schedule: NoiseSchedule,
    images: np.ndarray,
    labels: np.ndarray,
    eeg_conditions: np.ndarray | None,
    *,
    steps: int = 2000,
    batch_size: int = 16,
    lr: float = 1e-3,
    seed: int = 0,
) -> list[dict]:
    """Noise-prediction training of `net` in place with both condition
    pathways; returns one log row per step.

    Each step draws a batch, a timestep per item, fresh Gaussian noise, and
    flips one fair coin for the whole batch: condition on the class table
    (grads flow into it) or on the fixed per-record semantic embedding.  With
    no `eeg_conditions`, every step uses the class pathway and no coin is drawn.
    A step tapes one `ops.denoiser_mse` entry, after a class step's `take`, both in
    the step's `scope`.
    """
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(images)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDDF]))
    store = ParamStore(denoiser=net)
    history: list[dict] = []
    dtype = net.in_proj.weight.data.dtype
    weights = net.weights()
    time_table = timestep_embedding(np.arange(schedule.T + 1))

    for step in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        eps = rng.standard_normal((len(idx),) + net.latent_shape)
        x_t = forward_diffuse(schedule, images[idx], t, eps)

        use_class = eeg_conditions is None or rng.uniform() < 0.5  # `<=` differs only on a draw of exactly 0.5: p = 2**-53

        def forward():
            cond = net.class_condition(labels[idx]) if use_class else Tensor(np.asarray(eeg_conditions[idx], dtype=dtype))
            return denoiser_mse(Tensor(x_t.astype(dtype)), Tensor(time_table[t]), cond, eps, *weights)

        loss = store.step(forward, lr)
        history.append({"step": step, "loss": loss, "condition": "class" if use_class else "eeg"})
    return history


__all__ = [
    "NoiseSchedule",
    "forward_diffuse",
    "reverse_step",
    "train_denoiser",
    "x0_estimate",
]
