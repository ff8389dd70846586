"""Deterministic synthetic target images, one per stimulus id.

Per class: a blocky base pattern upsampled from a coarse grid (easy for a
small classifier to separate).  Per image: a smaller jitter pattern on top,
so images within a class differ but stay recognizable.  Values in [-1, 1].
The set is one (I, C, H, W) float32 array whose row i is image id i, with an
(I,) class array beside it; ids follow the synthetic EEG layout, so image id
k * images_per_class + j is class k's j-th image.  gen-data stores the set
in its archive, data/checkpoint.bvc (binio, stage tag "data"), under the
key images; the class array, which the semantic fixtures share, is stored
once, as image_labels.
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
    *,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """(images (I, channels, size, size) float32, class labels (I,)), row i image id i."""
    images = np.empty((n_classes * images_per_class, channels, size, size), dtype=np.float32)
    for k in range(n_classes):
        base_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, k]))
        base = 0.8 * _blocky(base_rng, channels, size)
        for j in range(images_per_class):
            image_id = k * images_per_class + j
            jitter_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, k, image_id]))
            images[image_id] = np.clip(base + 0.15 * _blocky(jitter_rng, channels, size, grid=8), -1.0, 1.0)
    return images, np.repeat(np.arange(n_classes), images_per_class)
