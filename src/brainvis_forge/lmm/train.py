"""Self-supervised pretraining loop for the time branch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..autodiff import ParamStore, Tensor, take
from ..autodiff.nn import Module
from ..autodiff.ops import one_hot_labels
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
) -> LmmModels:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x117]))
    projector = UnitProjector(unit_dim, d, n_units, rng)
    encoder = VisibleEncoder(d, n_heads, ffn_dim, sa_blocks, rng)
    predictor = MaskedPredictor(d, n_heads, ffn_dim, ca_blocks, n_codewords, rng)
    teacher = Teacher(encoder, momentum=teacher_momentum)
    codebook = Codebook(unit_dim, n_codewords, rng)
    return LmmModels(projector, encoder, predictor, teacher, codebook, n_units)


class UnitRows:
    """Read-only (R, n_units, c * l / n_units) unit rows over trials `x` (R, c, l); holds `x`, not a copy."""

    def __init__(self, x: np.ndarray, n_units: int):
        segment_units(x, n_units)  # a view: raises now if n_units does not divide l
        self.x, self.n_units, self.dtype = x, n_units, x.dtype
        self.shape = (len(x), n_units, x.shape[1] * x.shape[2] // n_units)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, idx) -> np.ndarray:
        """C-contiguous units of the rows an int, int array or slice selects."""
        return np.ascontiguousarray(flatten_units(segment_units(self.x[idx], self.n_units)))


def prepare_units(dataset: EegDataset, n_units: int) -> UnitRows:
    """Every record's flattened units as a view over `dataset.x`, (R, n_units,
    c * l / n_units) float32 with no copy made: `units[idx]` segments just the
    rows it selects, bit-equal to the same rows of the whole segmented array."""
    return UnitRows(dataset.x, n_units)


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
    l_m = one_hot_labels(codewords, models.codebook.n_entries).reshape(b, m, models.codebook.n_entries)

    return lmm_loss(f_m, f_mp, l_m, p_m)


def train_lmm(
    units: UnitRows,
    models: LmmModels,
    *,
    mask_ratio: float,
    lr: float = 1e-3,
    steps: int = 200,
    batch_size: int = 64,
    seed: int = 0,
) -> list[dict]:
    """Train the student of `models` in place on `units` (from `prepare_units`), gathering
    each step's batch as `units[batch_idx]`, a new (b, n_units, unit_dim) float32 array,
    and move its EMA teacher after every step; returns one log row per step."""
    store = models.student_store()
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7E41]))
    history: list[dict] = []

    for step in range(steps):
        batch_idx = rng.choice(len(units), size=min(batch_size, len(units)), replace=False)
        plan = make_mask_plan(models.n_units, mask_ratio, rng)
        reg, cls, total = lmm_step(models, units[batch_idx], plan)
        l_lmm = store.step(total, lr, trainable=store.names())
        models.teacher.update(models.encoder)
        history.append({"step": step, "l_reg": reg.item(), "l_cls": cls.item(), "l_lmm": l_lmm})
    return history
