"""Staged fine-tuning of the fused classifier.

`finetune_tfe` trains a `TfeModel` it is given, whose branches already hold
their pretrained weights (or fresh ones, for a cold start).  Stage 1 trains
the time branch and head for `stage1_epochs` with the frequency encoder
frozen; stage 2 unfreezes everything for a shorter joint run, and refuses to
run without stage 1.  `tfe_inputs` builds the model's inputs for training and
inference alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, predict, train_epoch
from ..autodiff.ops import cross_entropy
from ..data.records import DatasetSplit, EegDataset
from ..freq.train import accuracy, one_hot_labels, spectra_matrix
from ..lmm.train import prepare_units
from .model import TfeModel

# Joint fine-tuning runs gentler: full lr lets the time branch trample
# the already-generalizing frequency weights.
STAGE2_LR_SCALE = 0.3


@dataclass
class TfeTrainResult:
    model: TfeModel
    history: list[dict] = field(default_factory=list)
    stage1_done: bool = False
    stage2_done: bool = False


def tfe_inputs(model: TfeModel, dataset: EegDataset, n_units: int) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(flattened units, spectra at the model's scale) for every trial; an
    input is None when the model has no branch to read it."""
    units = prepare_units(dataset, n_units) if model.use_time else None
    spectra = spectra_matrix(dataset, scale=model.spectrum_scale) if model.use_freq else None
    return units, spectra


def _rows(arrays, idx) -> list:
    return [None if a is None else a[idx] for a in arrays]


def finetune_tfe(
    model: TfeModel,
    dataset: EegDataset,
    split: DatasetSplit,
    *,
    n_units: int,
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
    units, spectra = tfe_inputs(model, dataset, n_units)
    labels = dataset.labels
    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)

    result = TfeTrainResult(model=model)
    onehot = one_hot_labels(labels, model.n_classes)

    def run_stage(stage: int, epochs: int, trained: tuple[str, ...], freq_hidden: np.ndarray | None):
        store = ParamStore(**{name: getattr(model, name) for name in trained})
        stage_lr = lr if stage == 1 else lr * STAGE2_LR_SCALE
        inputs = (units, spectra, freq_hidden)

        def batch_loss(idx: np.ndarray):
            return cross_entropy(model.logits(*_rows(inputs, idx)), onehot[idx])

        def split_accuracy(rows: np.ndarray) -> float:
            return accuracy(predict(model.logits, *_rows(inputs, rows)), labels[rows])

        for epoch in range(epochs):
            result.history.append({
                "stage": stage,
                "epoch": epoch,
                "loss": train_epoch(store, rng, train_idx, batch_size, stage_lr, batch_loss),
                "train_acc": split_accuracy(train_idx),
                "val_acc": split_accuracy(val_idx) if len(val_idx) else float("nan"),
            })

    time_branch = ("projector", "encoder") if model.use_time else ()
    freq_branch = ("freq_encoder",) if model.use_freq else ()
    # Stage 1: time branch + head; frequency hidden states frozen constants.
    if stage1_epochs > 0:
        freq_hidden = None if spectra is None else predict(lambda s: model.freq_vector(Tensor(s)), spectra)
        run_stage(1, stage1_epochs, (*time_branch, "head"), freq_hidden)
        result.stage1_done = True

    # Stage 2: joint fine-tune of both branches and the head.
    if run_stage2 and stage2_epochs > 0:
        if not result.stage1_done:
            raise RuntimeError("finetune_tfe: stage 2 requires stage 1")
        run_stage(2, stage2_epochs, (*time_branch, *freq_branch, "head"), None)
        result.stage2_done = True

    return result


def classify_batch(model: TfeModel, dataset: EegDataset, n_units: int, batch: int = 256) -> np.ndarray:
    return predict(model.logits, *tfe_inputs(model, dataset, n_units), batch=batch)
