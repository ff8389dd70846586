"""Supervised training of the frequency branch, and the classifier epoch loop.

The magnitude spectrum of each trial is walked bin by bin by a small gated
recurrence (one step per frequency bin, one input per channel); class labels
supervise a linear head on the final hidden state.  The branch is kept small
on purpose: heavier frequency encoders overfit long before they help.
`classifier_epochs` is the minibatch cross-entropy loop that both this
classifier and the fused one (`fusion.train.finetune_tfe`) train with.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..autodiff import ParamStore, Tensor, predict, train_epoch
from ..autodiff.nn import Linear, LstmEncoder, Module
from ..autodiff.ops import cross_entropy, one_hot_labels
from ..data.records import DatasetSplit, EegDataset
from ..metrics.classification import top_k_accuracy
from .fft import fft_magnitude

_CHUNK = 16  # records per fft_magnitude call


class FreqClassifier(Module):
    def __init__(self, n_channels: int, hidden: int, n_classes: int, rng: np.random.Generator):
        self.encoder = LstmEncoder(n_channels, hidden, rng)
        self.head = Linear(hidden, n_classes, rng)

    def __call__(self, spectra: Tensor) -> Tensor:
        return self.head(self.encoder(spectra))


def spectra_matrix(dataset: EegDataset, sample_rate: float = 1000.0, scale: float = 1.0) -> np.ndarray:
    """One-sided magnitude spectra of every record: (R, n_bins, c) float32.

    Raw magnitudes grow with signal length; `scale` (a train-split statistic)
    keeps the recurrence inputs in a sane numeric range and must match the
    value the encoder was trained with.  It divides the float32 magnitudes
    in place, as `train_spectra` does.  Records go through
    `fft_magnitude` `_CHUNK` at a time, so no float64 copy of the whole set
    is ever held.
    """
    r, c, l = dataset.x.shape
    out = np.empty((r, l // 2 + 1, c), np.float32)
    for lo in range(0, r, _CHUNK):
        out[lo : lo + _CHUNK] = fft_magnitude(dataset.x[lo : lo + _CHUNK], sample_rate).magnitude
    out /= scale or 1.0
    return out


def train_spectra(dataset: EegDataset, split: DatasetSplit) -> tuple[np.ndarray, float]:
    """(`spectra_matrix` of every record divided by `scale`, `scale`): the
    largest magnitude of the train split, a train-split statistic only."""
    spectra = spectra_matrix(dataset)
    scale = float(spectra[split.train].max()) or 1.0
    spectra /= scale
    return spectra, scale


def classifier_epochs(store: ParamStore, logits: Callable[..., Tensor], inputs: tuple, labels: np.ndarray, n_classes: int,
                      split: DatasetSplit, rng: np.random.Generator, *, epochs: int, batch_size: int,
                      lr: float) -> list[dict]:
    """Train the parameters in `store` on the cross-entropy of `logits` over
    minibatches of the train split, `logits` taking the rows of every trial's
    `inputs` (a None input stays None); returns one {epoch, loss, train_acc,
    val_acc} row per epoch, val_acc NaN for an empty validation split."""
    onehot = one_hot_labels(labels, n_classes)
    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)

    def rows(idx: np.ndarray) -> list:
        return [None if a is None else a[idx] for a in inputs]

    def batch_loss(idx: np.ndarray):
        return cross_entropy(logits(*rows(idx)), onehot[idx])

    def split_accuracy(idx: np.ndarray) -> float:
        return top_k_accuracy(predict(logits, *inputs, rows=idx), labels[idx], 1)

    return [{"epoch": epoch, "loss": train_epoch(store, rng, train_idx, batch_size, lr, batch_loss),
             "train_acc": split_accuracy(train_idx),
             "val_acc": split_accuracy(val_idx) if len(val_idx) else float("nan")} for epoch in range(epochs)]


def freq_classify_train(model: FreqClassifier, spectra: np.ndarray, labels: np.ndarray, split: DatasetSplit, *,
                        epochs: int, batch_size: int, lr: float, rng: np.random.Generator) -> list[dict]:
    """Train `model` in place on every trial's `spectra` (from `train_spectra`)
    and `labels`, using the rows `split` names and shuffling with `rng`;
    returns one log row per epoch."""
    return classifier_epochs(ParamStore(freq=model), lambda s: model(Tensor(s)), (spectra,), labels,
                             model.head.weight.shape[1], split, rng, epochs=epochs, batch_size=batch_size, lr=lr)
