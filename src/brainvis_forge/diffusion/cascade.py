"""Two-stage conditional sampling.

Stage 1 denoises from pure noise under the aligned semantic embedding and
stops early at T_s = floor(rho * T); stage 2 resumes from that latent,
unmodified, under the (predicted) class condition and runs to zero.  The
handoff is a pure continuation: no re-noising between stages.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .ddpm import reverse_step
from .denoiser import DenoiserNet
from .schedule import NoiseSchedule


@dataclass
class CascadeConfig:
    """rho is the fraction of the chain left to the refinement stage."""

    rho: float = 0.3

    def __post_init__(self):
        if not 0.0 < self.rho < 1.0:
            raise ValueError(f"CascadeConfig: rho must be in (0, 1), got {self.rho}")

    def switch_step(self, T: int) -> int:
        t_s = int(np.floor(self.rho * T))
        if not 0 < t_s < T:
            raise ValueError(f"CascadeConfig: switch step {t_s} degenerate for T={T}")
        return t_s


class RowNoise:
    """Gaussian noise for a batch of latents, one generator per batch row.

    `standard_normal((B, *shape))` stacks each row's own draw of `shape`, so a
    row sees the same numbers in the same order as it would sampled alone, and
    no row's stream depends on which other rows share the batch.
    """

    def __init__(self, rngs: list[np.random.Generator]):
        self.rngs = rngs

    def standard_normal(self, shape: tuple[int, ...]) -> np.ndarray:
        if shape[0] != len(self.rngs):
            raise ValueError(f"RowNoise: batch of {shape[0]} rows for {len(self.rngs)} streams")
        return np.stack([rng.standard_normal(shape[1:]) for rng in self.rngs])


def _reverse_chain(
    schedule: NoiseSchedule,
    denoiser,
    x: np.ndarray,
    cond: np.ndarray | None,
    rng: np.random.Generator | RowNoise,
    t_from: int,
    t_to: int = 0,
) -> np.ndarray:
    """Reverse steps t_from .. t_to+1 under one condition; returns x_{t_to}.

    Shape-agnostic: `x` may carry a leading batch axis, with `cond` holding
    one row per batch row and `rng` one noise stream per row (see RowNoise).
    """
    x = np.asarray(x, dtype=np.float64)
    for t in range(t_from, t_to, -1):
        x = reverse_step(schedule, denoiser, x, t, cond, rng)
    return x


def sample_stage1(
    schedule: NoiseSchedule,
    denoiser,
    c_eeg: np.ndarray,
    rng: np.random.Generator | RowNoise,
    cascade: CascadeConfig,
    latent_shape: tuple[int, ...],
) -> np.ndarray:
    """Reverse steps T .. T_s+1 from fresh noise under the semantic condition; returns x_{T_s}."""
    x = rng.standard_normal(latent_shape)
    return _reverse_chain(schedule, denoiser, x, c_eeg, rng, schedule.T, cascade.switch_step(schedule.T))


def refine_stage2(
    schedule: NoiseSchedule,
    denoiser,
    x_ts: np.ndarray,
    class_cond: np.ndarray,
    rng: np.random.Generator | RowNoise,
    cascade: CascadeConfig,
) -> np.ndarray:
    """Reverse steps T_s .. 1 under the class condition, continuing x_{T_s} as-is."""
    return _reverse_chain(schedule, denoiser, x_ts, class_cond, rng, cascade.switch_step(schedule.T))


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
    class_cond: np.ndarray,
    cascade: CascadeConfig,
    n_samples: int = 4,
    master_seed: int = 0,
    mode: str = "cascade",
) -> list[tuple[np.ndarray, GenerationProvenance]]:
    """Draw `n_samples` latents for each of R records under the requested mode.

    `record_indices` and `predicted_labels` are (R,); `c_eeg` and `class_cond`
    are (R, e).  All R * n_samples latents advance together as one batch, so
    the chain makes T denoiser calls in all.  Returns (latent, provenance)
    pairs in record-major, sample-minor order.

    Modes: "cascade" (semantic stage then class refinement), "no-refine"
    (semantic condition for the whole chain), "no-semantic" (class condition
    for the whole chain).  Each sample owns a seed stream derived from
    (master_seed, record_index, sample_index), so trajectories are
    reproducible, independent, and the same whichever records share the batch.
    """
    t_s = cascade.switch_step(schedule.T)
    steps = {"cascade": (schedule.T - t_s, t_s), "no-refine": (schedule.T, 0), "no-semantic": (0, schedule.T)}
    if mode not in steps:
        raise ValueError(f"generate_samples: unknown mode {mode!r}")
    record_indices = np.asarray(record_indices, dtype=np.int64)
    c_eeg = np.asarray(c_eeg, dtype=np.float64)
    class_cond = np.asarray(class_cond, dtype=np.float64)
    n_records = len(record_indices)
    if not len(predicted_labels) == len(c_eeg) == len(class_cond) == n_records:
        raise ValueError("generate_samples: record_indices, c_eeg, predicted_labels and class_cond differ in length")

    noise = RowNoise([
        np.random.default_rng(np.random.SeedSequence([master_seed, int(r), s]))
        for r in record_indices
        for s in range(n_samples)
    ])
    shape = (n_records * n_samples,) + denoiser.latent_shape
    c_rows = np.repeat(c_eeg, n_samples, axis=0)
    class_rows = np.repeat(class_cond, n_samples, axis=0)
    if mode == "cascade":
        x = sample_stage1(schedule, denoiser, c_rows, noise, cascade, shape)
        x = refine_stage2(schedule, denoiser, x, class_rows, noise, cascade)
    else:
        cond = c_rows if mode == "no-refine" else class_rows
        x = _reverse_chain(schedule, denoiser, noise.standard_normal(shape), cond, noise, schedule.T)

    out = []
    stage1_steps, stage2_steps = steps[mode]
    for row, (record_index, label, c_vec) in enumerate(zip(record_indices, predicted_labels, c_eeg)):
        for s in range(n_samples):
            prov = GenerationProvenance(
                record_index=int(record_index),
                sample_index=s,
                predicted_label=int(label),
                c_eeg_crc32=_crc(c_vec),
                stage1_steps=stage1_steps,
                stage2_steps=stage2_steps,
                mode=mode,
            )
            out.append((x[row * n_samples + s], prov))
    return out
