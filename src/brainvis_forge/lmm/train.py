"""Self-supervised pretraining loop for the time branch."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..autodiff import ParamStore, Tensor, take
from ..autodiff.nn import Module
from ..data.records import EegDataset
from ..data.segment import flatten_units, segment_units
from .loss import lmm_loss
from .masking import make_mask_plan
from .model import MaskedPredictor, Teacher, UnitProjector, VisibleEncoder
from .tokenizer import Codebook


@dataclass
class LmmModels(Module):
    """Parameters are the student's alone: `Teacher` and `Codebook` are not modules."""

    projector: UnitProjector
    encoder: VisibleEncoder
    predictor: MaskedPredictor
    teacher: Teacher
    codebook: Codebook
    n_units: int

    def student_store(self) -> ParamStore:
        return ParamStore(projector=self.projector, encoder=self.encoder, predictor=self.predictor)


def build_lmm_models(
    *,
    unit_dim: int,
    n_units: int,
    d: int,
    n_heads: int,
    ffn_dim: int,
    sa_blocks: int,
    ca_blocks: int,
    n_codewords: int,
    teacher_momentum: float,
    seed: int,
    dtype=np.float32,
) -> LmmModels:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x117]))
    projector = UnitProjector(unit_dim, d, n_units, rng, dtype=dtype)
    encoder = VisibleEncoder(d, n_heads, ffn_dim, sa_blocks, rng, dtype=dtype)
    predictor = MaskedPredictor(d, n_heads, ffn_dim, ca_blocks, n_codewords, rng, dtype=dtype)
    teacher = Teacher(encoder, momentum=teacher_momentum)
    codebook = Codebook(unit_dim, n_codewords, rng)
    return LmmModels(projector, encoder, predictor, teacher, codebook, n_units)


def prepare_units(dataset: EegDataset, n_units: int) -> np.ndarray:
    """Segment and flatten every record: (R, n_units, c * l / n_units) float32."""
    return np.ascontiguousarray(flatten_units(segment_units(dataset.x, n_units)))


def lmm_step(
    models: LmmModels,
    batch_units: np.ndarray,
    plan,
) -> tuple:
    """One forward pass; returns (reg, cls, total) loss tensors."""
    z_full = models.projector(Tensor(batch_units))
    z_visible = take(z_full, plan.visible, axis=1)
    f_v = models.encoder(z_visible)

    # Teacher sees the whole projected sequence as a constant; masked rows
    # become the regression targets.
    f_full = models.teacher.encode(z_full.data)
    f_m = f_full[:, plan.masked, :]

    f_mp, p_m = models.predictor(f_v, plan.masked, models.projector.pos)

    b, m, unit_dim = batch_units.shape[0], len(plan.masked), batch_units.shape[2]
    raw_masked = batch_units[:, plan.masked, :].reshape(b * m, unit_dim)
    codewords = models.codebook.assign(raw_masked)
    l_m = models.codebook.one_hot(codewords).reshape(b, m, models.codebook.n_entries)

    return lmm_loss(f_m, f_mp, l_m, p_m)


@dataclass
class LmmTrainResult:
    models: LmmModels
    history: list[dict] = field(default_factory=list)


def train_lmm(
    dataset: EegDataset,
    *,
    n_units: int,
    d: int,
    n_heads: int,
    ffn_dim: int,
    sa_blocks: int,
    ca_blocks: int,
    n_codewords: int,
    mask_ratio: float,
    teacher_momentum: float = 0.99,
    lr: float = 1e-3,
    steps: int = 200,
    batch_size: int = 64,
    seed: int = 0,
) -> LmmTrainResult:
    units = prepare_units(dataset, n_units)
    unit_dim = units.shape[2]
    models = build_lmm_models(
        unit_dim=unit_dim,
        n_units=n_units,
        d=d,
        n_heads=n_heads,
        ffn_dim=ffn_dim,
        sa_blocks=sa_blocks,
        ca_blocks=ca_blocks,
        n_codewords=n_codewords,
        teacher_momentum=teacher_momentum,
        seed=seed,
    )
    store = models.student_store()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E41]))
    history: list[dict] = []

    for step in range(steps):
        batch_idx = rng.choice(len(units), size=min(batch_size, len(units)), replace=False)
        plan = make_mask_plan(n_units, mask_ratio, rng)
        reg, cls, total = lmm_step(models, units[batch_idx], plan)
        l_lmm = store.step(total, lr, trainable=store.names())
        models.teacher.update(models.encoder)
        history.append({"step": step, "l_reg": reg.item(), "l_cls": cls.item(), "l_lmm": l_lmm})
    return LmmTrainResult(models=models, history=history)
