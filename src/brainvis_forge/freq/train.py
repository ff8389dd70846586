"""Supervised training of the frequency branch.

The magnitude spectrum of each trial is walked bin by bin by a small gated
recurrence (one step per frequency bin, one input per channel); class labels
supervise a linear head on the final hidden state.  The branch is kept small
on purpose: heavier frequency encoders overfit long before they help.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, adam_step, backward, no_grad
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


def accuracy(model: FreqClassifier, spectra: np.ndarray, labels: np.ndarray, batch: int = 256) -> float:
    hits = 0
    with no_grad():
        for lo in range(0, len(spectra), batch):
            logits = model(Tensor(spectra[lo : lo + batch])).data
            hits += int(np.sum(np.argmax(logits, axis=1) == labels[lo : lo + batch]))
    return hits / max(len(spectra), 1)


@dataclass
class FreqTrainResult:
    model: FreqClassifier
    store: ParamStore
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
    sample_rate: float = 1000.0,
    seed: int = 0,
) -> FreqTrainResult:
    spectra = spectra_matrix(dataset, sample_rate)
    scale = float(spectra[split.train].max()) or 1.0  # train-split statistic only
    spectra /= scale
    labels = dataset.labels

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF9E9]))
    model = FreqClassifier(spectra.shape[2], hidden, n_classes, rng)
    store = ParamStore()
    store.register_module("freq", model)

    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)
    history: list[dict] = []

    for epoch in range(epochs):
        order = rng.permutation(train_idx)
        epoch_loss = 0.0
        n_batches = 0
        for lo in range(0, len(order), batch_size):
            idx = order[lo : lo + batch_size]
            store.zero_grad()
            logits = model(Tensor(spectra[idx]))
            loss = cross_entropy(logits, one_hot_labels(labels[idx], n_classes))
            backward(loss)
            adam_step(store, store.collect_grads(), lr)
            epoch_loss += loss.item()
            n_batches += 1
        entry = {
            "epoch": epoch,
            "loss": epoch_loss / max(n_batches, 1),
            "train_acc": accuracy(model, spectra[train_idx], labels[train_idx]),
            "val_acc": accuracy(model, spectra[val_idx], labels[val_idx]) if len(val_idx) else float("nan"),
        }
        history.append(entry)
    return FreqTrainResult(model=model, store=store, spectrum_scale=scale, history=history)
