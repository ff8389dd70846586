"""Alignment training: fused embeddings -> semantic target space.

The upstream encoders stay frozen: the net trains on precomputed fused rows,
which isolates the interpolation objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, train_epoch
from .fixtures import SemanticFixtures
from .loss import si_loss
from .model import AlignmentNet


@dataclass
class AlignTrainResult:
    net: AlignmentNet
    history: list[dict] = field(default_factory=list)


def train_align(
    embeddings: np.ndarray,
    class_labels: np.ndarray,
    image_ids: np.ndarray,
    fixtures: SemanticFixtures,
    *,
    e: int,
    epochs: int = 200,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    label_weight: float = 1.0,
    net: AlignmentNet | None = None,
) -> AlignTrainResult:
    """Minimize the mean interpolation loss over the training rows (`embeddings`,
    the frozen fused rows)."""
    embeddings = np.asarray(embeddings, dtype=np.float32)
    n, in_dim = embeddings.shape
    if fixtures.e != e:
        raise ValueError(f"train_align: fixtures have dim {fixtures.e}, expected {e}")
    caps, labels = fixtures.targets(class_labels, image_ids)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xA116]))
    if net is None:
        net = AlignmentNet(in_dim, e, rng)
    store = ParamStore(align=net)

    def batch_loss(idx: np.ndarray):
        return si_loss(net(Tensor(embeddings[idx])), Tensor(caps[idx]), Tensor(labels[idx]), label_weight=label_weight)

    history = [
        {"epoch": epoch, "si_loss": train_epoch(store, rng, n, batch_size, lr, batch_loss)} for epoch in range(epochs)
    ]
    return AlignTrainResult(net=net, history=history)
