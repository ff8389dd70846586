"""Image-exclusive dataset splitting.

All records sharing an image id land in the same split, so no stimulus leaks
between train, validation, and test.
"""

from __future__ import annotations

import numpy as np

from .records import DatasetSplit, EegDataset

SPLIT_RATIOS = (8, 1, 1)  # train : val : test, in images
MIN_IMAGES = 10  # split_by_image refuses a set with fewer distinct images


def _largest_remainder_counts(n: int, ratios: tuple[int, ...]) -> list[int]:
    total = sum(ratios)
    quotas = [n * r / total for r in ratios]
    counts = [int(q) for q in quotas]
    short = n - sum(counts)
    by_frac = sorted(range(len(ratios)), key=lambda i: (-(quotas[i] - counts[i]), i))
    for i in range(short):
        counts[by_frac[i]] += 1
    return counts


def split_by_image(dataset: EegDataset, seed: int = 0) -> DatasetSplit:
    """Shuffle distinct image ids by `seed`, slice by SPLIT_RATIOS, map back to records."""
    order = np.unique(dataset.image_ids)
    if len(order) < MIN_IMAGES:
        raise ValueError(f"split_by_image: need at least {MIN_IMAGES} distinct images, got {len(order)}")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5B117]))
    rng.shuffle(order)
    n_train, n_val, _ = _largest_remainder_counts(len(order), SPLIT_RATIOS)
    train, val, test = (
        np.flatnonzero(np.isin(dataset.image_ids, ids)).tolist() for ids in np.split(order, [n_train, n_train + n_val])
    )
    return DatasetSplit(train=train, val=val, test=test)
