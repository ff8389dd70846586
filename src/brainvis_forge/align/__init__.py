"""Cross-modal alignment of fused embeddings to semantic fixture targets."""

from .fixtures import (
    MissingTargetError,
    SemanticFixtures,
    ZeroNormTargetError,
    generate_fixtures,
    load_fixtures,
)
from ..autodiff.ops import si_loss
from .model import AlignmentNet, ResidualBlock, align
from .train import train_align

__all__ = [
    "AlignmentNet",
    "MissingTargetError",
    "ResidualBlock",
    "SemanticFixtures",
    "ZeroNormTargetError",
    "align",
    "generate_fixtures",
    "load_fixtures",
    "si_loss",
    "train_align",
]
