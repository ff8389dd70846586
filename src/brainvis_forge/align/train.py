"""Alignment training: fused embeddings -> semantic target space.

The upstream encoders stay frozen: the net trains on precomputed fused rows,
which isolates the interpolation objective.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ParamStore, Tensor, train_epoch
from ..autodiff.ops import si_loss
from .fixtures import SemanticFixtures
from .model import AlignmentNet


def train_align(
    net: AlignmentNet,
    embeddings: np.ndarray,
    class_labels: np.ndarray,
    image_ids: np.ndarray,
    fixtures: SemanticFixtures,
    *,
    epochs: int = 200,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    label_weight: float = 1.0,
) -> list[dict]:
    """Train `net` in place to minimize the mean interpolation loss over the
    training rows (`embeddings`, the frozen fused rows); returns one log row
    per epoch."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    e = net.input_proj.weight.shape[1]
    if fixtures.e != e:
        raise ValueError(f"train_align: fixtures have dim {fixtures.e}, expected {e}")
    caps, labels = fixtures.targets(class_labels, image_ids)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA116]))
    store = ParamStore(align=net)

    def batch_loss(idx: np.ndarray):
        return si_loss(net(Tensor(embeddings[idx])), Tensor(caps[idx]), Tensor(labels[idx]), label_weight=label_weight)

    return [
        {"epoch": epoch, "si_loss": train_epoch(store, rng, len(embeddings), batch_size, lr, batch_loss)}
        for epoch in range(epochs)
    ]
