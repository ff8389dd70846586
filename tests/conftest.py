from dataclasses import replace

import numpy as np
import pytest

from brainvis_forge.data import SyntheticGenSpec, generate_synthetic, split_by_image, zscore_channels


@pytest.fixture(scope="session")
def small_dataset():
    """4 classes x 16 single-image records, 8 channels x 80 samples."""
    spec = SyntheticGenSpec(
        n_classes=4, records_per_class=16, c=8, l=80,
        noise_std=0.1, sample_rate=100.0, seed=1,
    )
    raw = generate_synthetic(spec)
    records = replace(raw, x=zscore_channels(raw.x))
    split = split_by_image(records, seed=1)
    return records, split


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
