"""Staged fine-tuning of the fused classifier.

`finetune_tfe` trains a `TfeModel` it is given, whose branches already hold
their pretrained weights (or fresh ones, for a cold start), on the inputs
`tfe_inputs` built for every trial.  Stage 1 trains the time branch and head
for `stage1_epochs` with the frequency encoder frozen; stage 2 unfreezes
everything for a shorter joint run, and refuses to run without stage 1.  The
tfe stage runs inference over the same inputs, saving the fused rows
(`predict(model.fused, ...)`) and their `classify_batch` logits as checkpoint
extras that align, generate and evaluate read.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import ParamStore, Tensor, predict, train_epoch
from ..autodiff.ops import cross_entropy, one_hot_labels
from ..data.records import DatasetSplit, EegDataset
from ..freq.train import spectra_matrix
from ..lmm.train import prepare_units
from ..metrics.classification import top_k_accuracy
from .model import TfeModel

# Joint fine-tuning runs gentler: full lr lets the time branch trample
# the already-generalizing frequency weights.
STAGE2_LR_SCALE = 0.3


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
    units: np.ndarray | None,
    spectra: np.ndarray | None,
    labels: np.ndarray,
    split: DatasetSplit,
    *,
    stage1_epochs: int = 80,
    stage2_epochs: int = 30,
    batch_size: int = 32,
    lr: float = 1e-3,
    seed: int = 0,
) -> list[dict]:
    """Train `model` in place on every trial's `units`, `spectra` (from
    `tfe_inputs`) and `labels`, using the rows `split` names; returns one log
    row per epoch, tagged with its stage.  The branch switches, class count and
    spectrum scale come from the model itself."""
    if stage2_epochs > 0 and stage1_epochs <= 0:
        raise RuntimeError("finetune_tfe: stage 2 requires stage 1")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7FE1]))
    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)
    onehot = one_hot_labels(labels, model.n_classes)
    history: list[dict] = []

    def run_stage(stage: int, epochs: int, trained: tuple[str, ...], freq_hidden: np.ndarray | None):
        store = ParamStore(**{name: getattr(model, name) for name in trained})
        stage_lr = lr if stage == 1 else lr * STAGE2_LR_SCALE
        inputs = (units, spectra, freq_hidden)

        def batch_loss(idx: np.ndarray):
            return cross_entropy(model.logits(*_rows(inputs, idx)), onehot[idx])

        def split_accuracy(rows: np.ndarray) -> float:
            return top_k_accuracy(predict(model.logits, *_rows(inputs, rows)), labels[rows], 1)

        for epoch in range(epochs):
            history.append({
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
    # Stage 2: joint fine-tune of both branches and the head.
    if stage2_epochs > 0:
        run_stage(2, stage2_epochs, (*time_branch, *freq_branch, "head"), None)
    return history


def classify_batch(model: TfeModel, fused: np.ndarray) -> np.ndarray:
    """Class logits for fused rows."""
    return predict(model.head, fused)
