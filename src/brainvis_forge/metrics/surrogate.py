"""Surrogate image classifier for generation scoring.

A pretrained large-vocabulary classifier is out of reach offline, so a small
MLP trained on the clean target images plays its role: class probabilities
feed the hit-rate and diversity scores, penultimate activations feed the
Frechet distance.  Scores are meaningful relative to this surrogate, which is
all the property-based acceptance suite asserts.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ParamStore, Tensor, gelu, no_grad, softmax
from ..autodiff.nn import Linear, Module
from ..autodiff.ops import mlp_cross_entropy
from .classification import top_k_accuracy


class SurrogateClassifier(Module):
    def __init__(self, input_size: int, hidden: int, n_classes: int, rng: np.random.Generator):
        self.fc1 = Linear(input_size, hidden, rng)
        self.fc2 = Linear(hidden, n_classes, rng)

    def features(self, flat_images: Tensor) -> Tensor:
        return gelu(self.fc1(flat_images))

    def __call__(self, flat_images: Tensor) -> Tensor:
        return self.fc2(self.features(flat_images))


def train_surrogate(model: SurrogateClassifier, images: np.ndarray, labels: np.ndarray, *, epochs: int,
                    lr: float) -> float:
    """Overfit `model` in place on the clean image set, one full-batch step of
    `ops.mlp_cross_entropy` (the fused `cross_entropy(model(flat), one_hot)`)
    per epoch; returns its train accuracy.  It is a measuring stick, not a
    model under test."""
    flat = Tensor(np.asarray(images, dtype=np.float32).reshape(len(images), -1))
    labels = np.asarray(labels, dtype=np.int64)
    store = ParamStore(surrogate=model)
    for _ in range(epochs):  # the parameters in order: fc1.weight, fc1.bias, fc2.weight, fc2.bias
        store.step(lambda: mlp_cross_entropy(flat, *model.parameters(), labels), lr)
    with no_grad():
        logits = model(flat).data
    return top_k_accuracy(logits, labels, 1)


def surrogate_outputs(model: SurrogateClassifier, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, penultimate features) for a stack of (C, H, W) images."""
    flat = np.asarray(images, dtype=np.float32).reshape(len(images), -1)
    with no_grad():
        feats = model.features(Tensor(flat)).data
        probs = softmax(model.fc2(Tensor(feats))).data
    return probs.astype(np.float64), feats.astype(np.float64)
