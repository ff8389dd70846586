"""Deterministic synthetic target images, one per stimulus id.

Per class: a blocky base pattern upsampled from a coarse grid (easy for a
small classifier to separate).  Per image: a smaller jitter pattern on top,
so images within a class differ but stay recognizable.  Values in [-1, 1],
shape (3, H, W) float32.
"""

from __future__ import annotations

import numpy as np


def _blocky(rng: np.random.Generator, channels: int, size: int, grid: int = 4) -> np.ndarray:
    coarse = rng.uniform(-1.0, 1.0, size=(channels, grid, grid))
    reps = int(np.ceil(size / grid))
    return coarse.repeat(reps, 1).repeat(reps, 2)[:, :size, :size]


def make_image_set(
    n_classes: int,
    images_per_class: int,
    size: int = 16,
    channels: int = 3,
    seed: int = 0,
) -> dict[int, tuple[np.ndarray, int]]:
    """Map image_id -> (image, class_label), ids matching the synthetic EEG layout."""
    out: dict[int, tuple[np.ndarray, int]] = {}
    for k in range(n_classes):
        base_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, k]))
        base = 0.8 * _blocky(base_rng, channels, size)
        for j in range(images_per_class):
            image_id = k * images_per_class + j
            jitter_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, k, image_id]))
            img = base + 0.15 * _blocky(jitter_rng, channels, size, grid=8)
            out[image_id] = (np.clip(img, -1.0, 1.0).astype(np.float32), k)
    return out
