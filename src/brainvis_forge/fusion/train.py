"""Staged fine-tuning of the fused classifier.

`finetune_tfe` trains a `TfeModel` it is given, whose branches already hold
their pretrained weights (or fresh ones, for a cold start).  Stage 1 trains
the time branch and head for `stage1_epochs` with the frequency encoder
frozen; stage 2 unfreezes everything for a shorter joint run, and refuses to
run without stage 1.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, adam_step, backward, no_grad
from ..autodiff.ops import cross_entropy
from ..data.records import DatasetSplit, EegDataset
from ..freq.train import one_hot_labels, spectra_matrix
from ..lmm.train import prepare_units
from .model import TfeModel

# Joint fine-tuning runs gentler: full lr lets the time branch trample
# the already-generalizing frequency weights.
STAGE2_LR_SCALE = 0.3


@dataclass
class TfeTrainResult:
    model: TfeModel
    store: ParamStore
    history: list[dict] = field(default_factory=list)
    stage1_done: bool = False
    stage2_done: bool = False


def _batch_accuracy(model: TfeModel, units, spectra, freq_hidden, labels, batch: int = 256) -> float:
    hits = 0
    with no_grad():
        for lo in range(0, len(units), batch):
            sl = slice(lo, lo + batch)
            logits = model.logits(
                units[sl],
                None if spectra is None else spectra[sl],
                None if freq_hidden is None else freq_hidden[sl],
            ).data
            hits += int(np.sum(np.argmax(logits, axis=1) == labels[sl]))
    return hits / max(len(units), 1)


def finetune_tfe(
    model: TfeModel,
    dataset: EegDataset,
    split: DatasetSplit,
    *,
    n_units: int,
    sample_rate: float = 1000.0,
    stage1_epochs: int = 80,
    stage2_epochs: int = 30,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
    run_stage2: bool = True,
) -> TfeTrainResult:
    """Train `model` in place; its branch switches, class count and spectrum
    scale come from the model itself."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7FE1]))
    units = prepare_units(dataset, n_units)
    spectra = spectra_matrix(dataset, sample_rate, model.spectrum_scale) if model.use_freq else None
    labels = dataset.labels
    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)

    result = TfeTrainResult(model=model, store=ParamStore())
    onehot = one_hot_labels(labels, model.n_classes)

    def run_stage(stage: int, epochs: int, store: ParamStore, freq_hidden: np.ndarray | None):
        stage_lr = lr if stage == 1 else lr * STAGE2_LR_SCALE
        for epoch in range(epochs):
            order = rng.permutation(train_idx)
            total, n_batches = 0.0, 0
            for lo in range(0, len(order), batch_size):
                idx = order[lo : lo + batch_size]
                store.zero_grad()
                logits = model.logits(
                    units[idx],
                    None if spectra is None else spectra[idx],
                    None if freq_hidden is None else freq_hidden[idx],
                )
                loss = cross_entropy(logits, onehot[idx])
                backward(loss)
                adam_step(store, store.collect_grads(), stage_lr)
                total += loss.item()
                n_batches += 1
            result.history.append({
                "stage": stage,
                "epoch": epoch,
                "loss": total / max(n_batches, 1),
                "train_acc": _batch_accuracy(model, units[train_idx],
                                             None if spectra is None else spectra[train_idx],
                                             None if freq_hidden is None else freq_hidden[train_idx],
                                             labels[train_idx]),
                "val_acc": _batch_accuracy(model, units[val_idx],
                                           None if spectra is None else spectra[val_idx],
                                           None if freq_hidden is None else freq_hidden[val_idx],
                                           labels[val_idx]) if len(val_idx) else float("nan"),
            })

    def store_of(*names: str) -> ParamStore:
        store = ParamStore()
        for name in names:
            store.register_module(name, getattr(model, name))
        return store

    time_branch = ("projector", "encoder") if model.use_time else ()
    # Stage 1: time branch + head; frequency hidden states frozen constants.
    if stage1_epochs > 0:
        store1 = store_of(*time_branch, "head")
        freq_hidden = None
        if spectra is not None:
            with no_grad():
                freq_hidden = np.concatenate(
                    [model.freq_vector(Tensor(spectra[lo : lo + 256])).data for lo in range(0, len(spectra), 256)],
                    axis=0,
                )
        run_stage(1, stage1_epochs, store1, freq_hidden)
        result.store = store1
        result.stage1_done = True

    # Stage 2: joint fine-tune of both branches and the head.
    if run_stage2 and stage2_epochs > 0:
        if not result.stage1_done:
            raise RuntimeError("finetune_tfe: stage 2 requires stage 1")
        store2 = store_of(*time_branch, *(("freq_encoder",) if model.use_freq else ()), "head")
        run_stage(2, stage2_epochs, store2, None)
        result.store = store2
        result.stage2_done = True

    return result


def classify_batch(
    model: TfeModel,
    dataset: EegDataset,
    n_units: int,
    sample_rate: float = 1000.0,
    batch: int = 256,
) -> np.ndarray:
    units = prepare_units(dataset, n_units)
    spectra = spectra_matrix(dataset, sample_rate, model.spectrum_scale) if model.use_freq else None
    rows = []
    with no_grad():
        for lo in range(0, len(dataset), batch):
            rows.append(model.logits(units[lo : lo + batch], None if spectra is None else spectra[lo : lo + batch]).data)
    return np.concatenate(rows, axis=0)
