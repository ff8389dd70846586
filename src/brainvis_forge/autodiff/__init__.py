"""Reverse-mode autodiff engine: tensors, tape, layers, Adam, gradient checks."""

from . import gradcheck, nn, ops
from .optim import ParamStore, adam_step, predict, train_epoch
from .tensor import (
    ComputationTape,
    NonFiniteError,
    ShapeError,
    Tensor,
    active_tape,
    as_tensor,
    backward,
    broadcast_to,
    concat,
    gelu,
    no_grad,
    softmax,
    take,
    tmean,
    tsum,
)

__all__ = [
    "ComputationTape",
    "NonFiniteError",
    "ParamStore",
    "ShapeError",
    "Tensor",
    "active_tape",
    "adam_step",
    "as_tensor",
    "backward",
    "broadcast_to",
    "concat",
    "gelu",
    "gradcheck",
    "nn",
    "no_grad",
    "ops",
    "predict",
    "softmax",
    "take",
    "tmean",
    "train_epoch",
    "tsum",
]
