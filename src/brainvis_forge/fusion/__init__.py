"""Time-frequency fusion and the supervised classifier."""

from .model import TfeModel
from .train import classify_batch, finetune_tfe

__all__ = [
    "TfeModel",
    "classify_batch",
    "finetune_tfe",
]
