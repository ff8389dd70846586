"""Cascaded conditional sampling: one reverse chain with one condition switch.

The chain runs T reverse steps from pure noise.  Steps T .. T_s+1 condition on
the aligned semantic embedding and steps T_s .. 1 on the predicted class's
embedding; the latent carries across the switch unmodified, with no
re-noising.  The cascade switches at T_s = floor(rho * T) (`switch_step`);
the "no-refine" ablation switches at 0 and "no-semantic" at T.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..autodiff import no_grad
from .ddpm import reverse_step
from .denoiser import DenoiserNet
from .schedule import NoiseSchedule


def switch_step(rho: float, T: int) -> int:
    """T_s = floor(rho * T): rho is the fraction of the chain left to the class condition."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"switch_step: rho must be in (0, 1), got {rho}")
    t_s = int(np.floor(rho * T))
    if not 0 < t_s < T:
        raise ValueError(f"switch_step: switch step {t_s} degenerate for T={T}")
    return t_s


class RowNoise:
    """Gaussian noise for a batch of latents, one generator per batch row.

    `standard_normal((B, *shape))` allocates one C-contiguous (B, *shape)
    float64 buffer and has each row's generator fill its own row in place, so
    a row sees the same numbers in the same order as it would sampled alone,
    and no row's stream depends on which other rows share the batch.
    """

    def __init__(self, rngs: list[np.random.Generator]):
        self.rngs = rngs

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        if shape[0] != len(self.rngs):
            raise ValueError(f"RowNoise: batch of {shape[0]} rows for {len(self.rngs)} streams")
        out = np.empty(shape)
        for rng, row in zip(self.rngs, out):
            rng.standard_normal(out=row)
        return out


def reverse_chain(
    schedule: NoiseSchedule,
    denoiser,
    x: np.ndarray,
    cond: np.ndarray | None,
    rng: np.random.Generator | RowNoise,
    t_from: int,
    t_to: int = 0,
) -> np.ndarray:
    """Reverse steps t_from .. t_to+1 under one condition; returns x_{t_to}.

    With t_from == t_to it makes no denoiser call and returns `x` as float64.
    Shape-agnostic: `x` may carry a leading batch axis, with `cond` holding
    one row per batch row and `rng` one noise stream per row (see RowNoise).
    """
    x = np.asarray(x, dtype=np.float64)
    for t in range(t_from, t_to, -1):
        x = reverse_step(schedule, denoiser, x, t, cond, rng)
    return x


@dataclass
class GenerationProvenance:
    """Audit trail for one sample: which conditions drove which stage."""

    record_index: int
    sample_index: int
    predicted_label: int
    c_eeg_crc32: str
    stage1_steps: int
    stage2_steps: int
    mode: str = "cascade"

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def _crc(vec: np.ndarray) -> str:
    return f"{zlib.crc32(np.ascontiguousarray(vec, dtype='<f8').tobytes()) & 0xFFFFFFFF:08x}"


def generate_samples(
    schedule: NoiseSchedule,
    denoiser: DenoiserNet,
    *,
    record_indices: np.ndarray,
    c_eeg: np.ndarray,
    predicted_labels: np.ndarray,
    rho: float,
    n_samples: int,
    master_seed: int,
    mode: str = "cascade",
) -> list[tuple[np.ndarray, GenerationProvenance]]:
    """Draw `n_samples` latents for each of R records under the requested mode.

    `record_indices` and `predicted_labels` are (R,) and `c_eeg` is (R, e);
    the class condition is the denoiser's embedding of each predicted label.
    All R * n_samples latents advance together as one batch, so the chain
    makes T denoiser calls in all.  Returns (latent, provenance) pairs in
    record-major, sample-minor order.

    Modes set where the chain hands over from the semantic to the class
    condition (module docstring): "cascade" at T_s, "no-refine" at 0,
    "no-semantic" at T.  Each sample owns a seed stream derived from
    (master_seed, record_index, sample_index), so trajectories are
    reproducible, independent, and the same whichever records share the batch.
    """
    t_s = switch_step(rho, schedule.T)
    steps = {"cascade": (schedule.T - t_s, t_s), "no-refine": (schedule.T, 0), "no-semantic": (0, schedule.T)}
    if mode not in steps:
        raise ValueError(f"generate_samples: unknown mode {mode!r}")
    stage1_steps, stage2_steps = steps[mode]
    record_indices = np.asarray(record_indices, dtype=np.int64)
    c_eeg = np.asarray(c_eeg, dtype=np.float64)
    n_records = len(record_indices)
    if not len(predicted_labels) == len(c_eeg) == n_records:
        raise ValueError("generate_samples: record_indices, c_eeg and predicted_labels differ in length")
    with no_grad():
        class_cond = denoiser.class_condition(predicted_labels).data

    noise = RowNoise([
        np.random.default_rng(np.random.SeedSequence([master_seed, int(r), s]))
        for r in record_indices
        for s in range(n_samples)
    ])
    x = noise.standard_normal((n_records * n_samples,) + denoiser.latent_shape)
    x = reverse_chain(schedule, denoiser, x, np.repeat(c_eeg, n_samples, axis=0), noise, schedule.T, stage2_steps)
    x = reverse_chain(schedule, denoiser, x, np.repeat(class_cond, n_samples, axis=0), noise, stage2_steps)

    out = []
    for row, (record_index, label, c_vec) in enumerate(zip(record_indices, predicted_labels, c_eeg)):
        crc = _crc(c_vec)
        for s in range(n_samples):
            prov = GenerationProvenance(record_index=int(record_index), sample_index=s, predicted_label=int(label),
                                        c_eeg_crc32=crc, stage1_steps=stage1_steps, stage2_steps=stage2_steps,
                                        mode=mode)
            out.append((x[row * n_samples + s], prov))
    return out
