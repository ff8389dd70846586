"""Alignment network: fused embedding -> semantic space via residual blocks."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, no_grad
from ..autodiff.nn import FeedForward, Linear, Module


class ResidualBlock(FeedForward):
    """A feed-forward (linear -> gelu -> linear) with a skip; a zero second linear is identity."""

    def __call__(self, x: Tensor) -> Tensor:
        return x + super().__call__(x)


class AlignmentNet(Module):
    def __init__(self, in_dim: int, e: int, rng: np.random.Generator, n_blocks: int = 2):
        self.input_proj = Linear(in_dim, e, rng)
        self.blocks = [ResidualBlock(e, e, rng) for _ in range(n_blocks)]

    def __call__(self, x: Tensor) -> Tensor:
        h = self.input_proj(x)
        for block in self.blocks:
            h = block(h)
        return h


def align(net: AlignmentNet, tfe_embedding: np.ndarray) -> np.ndarray:
    """Deterministic forward map of (R, in_dim) fused rows to (R, e) semantic rows."""
    arr = np.asarray(tfe_embedding, dtype=net.input_proj.weight.data.dtype)
    with no_grad():
        return net(Tensor(arr)).data
