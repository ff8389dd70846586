"""Latent masked modeling of the time branch."""

from .loss import lmm_loss
from .masking import MaskPlan, make_mask_plan
from .model import MaskedPredictor, Teacher, UnitProjector, VisibleEncoder
from .tokenizer import Codebook
from .train import LmmModels, build_lmm_models, lmm_step, prepare_units, train_lmm

__all__ = [
    "Codebook",
    "LmmModels",
    "MaskPlan",
    "MaskedPredictor",
    "Teacher",
    "UnitProjector",
    "VisibleEncoder",
    "build_lmm_models",
    "lmm_loss",
    "lmm_step",
    "make_mask_plan",
    "prepare_units",
    "train_lmm",
]
