"""Training objective and ancestral reverse step for the denoising chain."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor
from ..autodiff.ops import mse_loss
from .denoiser import DenoiserNet
from .schedule import NoiseSchedule, forward_diffuse


def reverse_step(
    schedule: NoiseSchedule,
    denoiser,
    x_t: np.ndarray,
    t: int,
    cond: np.ndarray | None,
    rng: np.random.Generator,
) -> np.ndarray:
    """One posterior step x_t -> x_{t-1} with sigma_t^2 = beta_t; no noise at t=1."""
    if t <= 0 or t > schedule.T:
        raise ValueError(f"reverse_step: t={t} outside [1, {schedule.T}]")
    x_t = np.asarray(x_t, dtype=np.float64)
    eps = denoiser.predict(x_t, t, cond)
    beta = schedule.betas[t]
    alpha = schedule.alphas[t]
    ab = schedule.alpha_bars[t]
    mean = (x_t - (beta / np.sqrt(1.0 - ab)) * eps) / np.sqrt(alpha)
    if t == 1:
        return mean
    return mean + np.sqrt(beta) * rng.standard_normal(x_t.shape)


def x0_estimate(schedule: NoiseSchedule, x_t: np.ndarray, t: int, eps: np.ndarray) -> np.ndarray:
    """Single-shot inversion of the forward noising given the true noise."""
    ab = schedule.alpha_bars[t]
    return (np.asarray(x_t, dtype=np.float64) - np.sqrt(1.0 - ab) * eps) / np.sqrt(ab)


@dataclass
class DenoiserTrainResult:
    net: DenoiserNet
    history: list[dict] = field(default_factory=list)


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
    class_condition_prob: float = 0.5,
) -> DenoiserTrainResult:
    """Noise-prediction training with both condition pathways.

    Each step draws a batch, a timestep per item, fresh Gaussian noise, and
    flips one coin for the whole batch: condition on the class table (grads
    flow into it) or on the fixed per-record semantic embedding.  With no
    `eeg_conditions`, every step uses the class pathway.
    """
    images = np.asarray(images, dtype=np.float32)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(images)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xDDF]))
    store = ParamStore(denoiser=net)
    history: list[dict] = []
    dtype = net.in_proj.weight.data.dtype

    for step in range(steps):
        idx = rng.integers(0, n, size=min(batch_size, n))
        t = rng.integers(1, schedule.T + 1, size=len(idx))
        eps = rng.standard_normal((len(idx),) + net.latent_shape)
        ab = schedule.alpha_bars[t][:, None, None, None]
        x_t = np.sqrt(ab) * images[idx] + np.sqrt(1.0 - ab) * eps

        use_class = eeg_conditions is None or rng.uniform() < class_condition_prob
        if use_class:
            cond = net.class_condition(labels[idx])
        else:
            cond = Tensor(np.asarray(eeg_conditions[idx], dtype=dtype))

        pred = net(Tensor(x_t.astype(dtype)), t, cond)
        loss = store.step(mse_loss(pred, Tensor(eps.astype(dtype))), lr)
        history.append({"step": step, "loss": loss, "condition": "class" if use_class else "eeg"})
    return DenoiserTrainResult(net=net, history=history)


__all__ = [
    "DenoiserTrainResult",
    "NoiseSchedule",
    "forward_diffuse",
    "reverse_step",
    "train_denoiser",
    "x0_estimate",
]
