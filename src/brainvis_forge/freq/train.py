"""Supervised training of the frequency branch.

The magnitude spectrum of each trial is walked bin by bin by a small gated
recurrence (one step per frequency bin, one input per channel); class labels
supervise a linear head on the final hidden state.  The branch is kept small
on purpose: heavier frequency encoders overfit long before they help.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, predict, train_epoch
from ..autodiff.nn import Linear, LstmEncoder, Module
from ..autodiff.ops import cross_entropy
from ..data.records import DatasetSplit, EegDataset
from .fft import fft_magnitude

_CHUNK = 16  # records per fft_magnitude call


class FreqClassifier(Module):
    def __init__(self, n_channels: int, hidden: int, n_classes: int, rng: np.random.Generator, dtype=np.float32):
        self.encoder = LstmEncoder(n_channels, hidden, rng, dtype=dtype)
        self.head = Linear(hidden, n_classes, rng, dtype=dtype)

    def __call__(self, spectra: Tensor) -> Tensor:
        return self.head(self.encoder(spectra))


def spectra_matrix(dataset: EegDataset, sample_rate: float = 1000.0, scale: float = 1.0) -> np.ndarray:
    """One-sided magnitude spectra of every record: (R, n_bins, c) float32.

    Raw magnitudes grow with signal length; `scale` (a train-split statistic)
    keeps the recurrence inputs in a sane numeric range and must match the
    value the encoder was trained with.  Records go through `fft_magnitude`
    `_CHUNK` at a time, so no float64 copy of the whole set is ever held.
    """
    r, c, l = dataset.x.shape
    out = np.empty((r, l // 2 + 1, c), np.float32)
    for lo in range(0, r, _CHUNK):
        out[lo : lo + _CHUNK] = fft_magnitude(dataset.x[lo : lo + _CHUNK], sample_rate).magnitude / (scale or 1.0)
    return out


def one_hot_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((len(labels), n_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Share of rows whose arg-max logit is the label."""
    return int(np.sum(np.argmax(logits, axis=1) == labels)) / max(len(labels), 1)


@dataclass
class FreqTrainResult:
    model: FreqClassifier
    spectrum_scale: float
    history: list[dict] = field(default_factory=list)


def freq_classify_train(
    dataset: EegDataset,
    split: DatasetSplit,
    *,
    n_classes: int,
    hidden: int = 128,
    epochs: int = 50,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
) -> FreqTrainResult:
    spectra = spectra_matrix(dataset)
    scale = float(spectra[split.train].max()) or 1.0  # train-split statistic only
    spectra /= scale
    labels = dataset.labels
    onehot = one_hot_labels(labels, n_classes)

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF9E9]))
    model = FreqClassifier(spectra.shape[2], hidden, n_classes, rng)
    store = ParamStore(freq=model)

    def batch_loss(idx: np.ndarray):
        return cross_entropy(model(Tensor(spectra[idx])), onehot[idx])

    def split_accuracy(rows: np.ndarray) -> float:
        return accuracy(predict(lambda s: model(Tensor(s)), spectra[rows]), labels[rows])

    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)
    history = [
        {
            "epoch": epoch,
            "loss": train_epoch(store, rng, train_idx, batch_size, lr, batch_loss),
            "train_acc": split_accuracy(train_idx),
            "val_acc": split_accuracy(val_idx) if len(val_idx) else float("nan"),
        }
        for epoch in range(epochs)
    ]
    return FreqTrainResult(model=model, spectrum_scale=scale, history=history)
