"""Staged fine-tuning of the fused classifier.

Stage 1 trains the time branch and head for `stage1_epochs` with the
frequency encoder frozen; stage 2 unfreezes everything for a shorter joint
run.  Stage 2 refuses to run without stage 1 unless explicitly overridden,
and cold-starting without pretrained weights requires an explicit flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, adam_step, backward, no_grad
from ..autodiff.nn import Linear, LstmEncoder
from ..autodiff.ops import cross_entropy
from ..data.records import DatasetSplit, EegRecord
from ..freq.train import FreqClassifier, one_hot_labels, spectra_matrix
from ..lmm.model import UnitProjector, VisibleEncoder
from ..lmm.train import LmmModels, prepare_units
from .model import TfeModel


class MissingPretrainedError(RuntimeError):
    """A stage needs pretrained weights that were not supplied."""


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
    records: list[EegRecord],
    split: DatasetSplit,
    *,
    n_units: int,
    d: int,
    n_heads: int,
    ffn_dim: int,
    sa_blocks: int,
    lstm_hidden: int,
    n_classes: int,
    pretrained_lmm: LmmModels | None = None,
    pretrained_freq: FreqClassifier | None = None,
    spectrum_scale: float = 1.0,
    sample_rate: float = 1000.0,
    stage1_epochs: int = 80,
    stage2_epochs: int = 30,
    batch_size: int = 32,
    lr: float = 1e-3,
    stage2_lr_scale: float = 0.3,
    seed: int = 0,
    use_time: bool = True,
    use_freq: bool = True,
    run_stage2: bool = True,
    allow_cold_start: bool = False,
    force_stage2_without_stage1: bool = False,
) -> TfeTrainResult:
    if use_time and pretrained_lmm is None and not allow_cold_start:
        raise MissingPretrainedError(
            "finetune_tfe: no pretrained time encoder; pass allow_cold_start=True to train from scratch"
        )
    if use_freq and pretrained_freq is None and not allow_cold_start:
        raise MissingPretrainedError(
            "finetune_tfe: no pretrained frequency encoder; pass allow_cold_start=True to train from scratch"
        )

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7FE]))
    if pretrained_lmm is not None:
        projector, encoder = pretrained_lmm.projector, pretrained_lmm.encoder
    else:
        c, l = records[0].x.shape  # prepare_units below checks that n_units divides l
        projector = UnitProjector(c * (l // n_units), d, n_units, rng)
        encoder = VisibleEncoder(d, n_heads, ffn_dim, sa_blocks, rng)
    if pretrained_freq is not None:
        freq_encoder: LstmEncoder | None = pretrained_freq.encoder
    elif use_freq:
        freq_encoder = LstmEncoder(records[0].x.shape[0], lstm_hidden, rng)
    else:
        freq_encoder = None
    head = Linear(d + lstm_hidden, n_classes, rng)
    model = TfeModel(
        projector, encoder, freq_encoder, head,
        d=d, h=lstm_hidden, n_classes=n_classes, spectrum_scale=spectrum_scale,
        use_time=use_time, use_freq=use_freq,
    )

    units = prepare_units(records, n_units)
    spectra = spectra_matrix(records, sample_rate, spectrum_scale) if use_freq else None
    labels = np.array([r.class_label for r in records], dtype=np.int64)
    train_idx = np.array(split.train, dtype=np.int64)
    val_idx = np.array(split.val, dtype=np.int64)

    result = TfeTrainResult(model=model, store=ParamStore())
    onehot = one_hot_labels(labels, n_classes)

    def run_stage(stage: int, epochs: int, store: ParamStore, freq_hidden: np.ndarray | None):
        # Joint fine-tuning runs gentler: full lr lets the time branch trample
        # the already-generalizing frequency weights.
        stage_lr = lr if stage == 1 else lr * stage2_lr_scale
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

    # Stage 1: time branch + head; frequency hidden states frozen constants.
    if stage1_epochs > 0:
        store1 = ParamStore()
        if use_time:
            store1.register_module("projector", model.projector)
            store1.register_module("encoder", model.encoder)
        store1.register_module("head", model.head)
        freq_hidden = None
        if use_freq and spectra is not None:
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
        if not result.stage1_done and not force_stage2_without_stage1:
            raise RuntimeError(
                "finetune_tfe: stage 2 requires stage 1 (set force_stage2_without_stage1 to override)"
            )
        store2 = ParamStore()
        if use_time:
            store2.register_module("projector", model.projector)
            store2.register_module("encoder", model.encoder)
        if use_freq and model.freq_encoder is not None:
            store2.register_module("freq_encoder", model.freq_encoder)
        store2.register_module("head", model.head)
        run_stage(2, stage2_epochs, store2, None)
        result.store = store2
        result.stage2_done = True

    return result


def classify(model: TfeModel, record: EegRecord, n_units: int, sample_rate: float = 1000.0) -> np.ndarray:
    """Logits for one record; softmax belongs to the metrics layer."""
    units = prepare_units([record], n_units)
    spectra = spectra_matrix([record], sample_rate, model.spectrum_scale) if model.use_freq else None
    with no_grad():
        return model.logits(units, spectra).data[0].copy()


def classify_batch(
    model: TfeModel,
    records: list[EegRecord],
    n_units: int,
    sample_rate: float = 1000.0,
    batch: int = 256,
) -> np.ndarray:
    units = prepare_units(records, n_units)
    spectra = spectra_matrix(records, sample_rate, model.spectrum_scale) if model.use_freq else None
    rows = []
    with no_grad():
        for lo in range(0, len(records), batch):
            rows.append(model.logits(units[lo : lo + batch], None if spectra is None else spectra[lo : lo + batch]).data)
    return np.concatenate(rows, axis=0)
