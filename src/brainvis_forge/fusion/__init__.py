"""Time-frequency fusion and the supervised classifier."""

from .model import TfeModel, fuse, pool_time
from .train import TfeTrainResult, classify_batch, finetune_tfe

__all__ = [
    "TfeModel",
    "TfeTrainResult",
    "classify_batch",
    "finetune_tfe",
    "fuse",
    "pool_time",
]
