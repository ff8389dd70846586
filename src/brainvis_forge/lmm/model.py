"""Time-branch networks: unit projection, visible encoder, EMA teacher, predictor."""

from __future__ import annotations

import copy

import numpy as np

from ..autodiff import Tensor, broadcast_to, no_grad, softmax, take
from ..autodiff.nn import (
    CrossAttentionBlock,
    LayerNorm,
    Linear,
    Module,
    SelfAttentionBlock,
    normal_init,
)
from ..autodiff.tensor import ShapeError


class UnitProjector(Module):
    """Linear lift of each flattened raw unit to d dims plus a learned positional row."""

    def __init__(self, unit_dim: int, d: int, n_units: int, rng: np.random.Generator, dtype=np.float32):
        self.proj = Linear(unit_dim, d, rng, dtype=dtype)
        self.pos = Tensor(normal_init(rng, (n_units, d), dtype=dtype), requires_grad=True)

    def __call__(self, flat_units: Tensor) -> Tensor:
        if flat_units.shape[-2] != self.pos.shape[0]:
            raise ShapeError(
                f"UnitProjector: got {flat_units.shape[-2]} units, positional table has {self.pos.shape[0]}"
            )
        return self.proj(flat_units) + self.pos


class VisibleEncoder(Module):
    """Stack of pre-norm self-attention blocks with a closing layer norm."""

    def __init__(self, d: int, n_heads: int, ffn_dim: int, n_blocks: int, rng: np.random.Generator, dtype=np.float32):
        self.blocks = [SelfAttentionBlock(d, n_heads, ffn_dim, rng, dtype=dtype) for _ in range(n_blocks)]
        self.final_ln = LayerNorm(d, dtype=dtype)

    def __call__(self, z: Tensor) -> Tensor:
        for block in self.blocks:
            z = block(z)
        return self.final_ln(z)


class MaskedPredictor(Module):
    """Cross-attention decoder: one shared mask token, positioned per masked slot.

    Queries (mask token + positional row of the masked index) attend to the
    visible features; a linear head over the predicted features gives the
    codeword distribution.
    """

    def __init__(
        self,
        d: int,
        n_heads: int,
        ffn_dim: int,
        n_blocks: int,
        n_codewords: int,
        rng: np.random.Generator,
        dtype=np.float32,
    ):
        self.mask_token = Tensor(normal_init(rng, (d,), dtype=dtype), requires_grad=True)
        self.blocks = [CrossAttentionBlock(d, n_heads, ffn_dim, rng, dtype=dtype) for _ in range(n_blocks)]
        self.final_ln = LayerNorm(d, dtype=dtype)
        self.head = Linear(d, n_codewords, rng, dtype=dtype)

    def __call__(self, f_v: Tensor, masked_indices: np.ndarray, pos_table: Tensor) -> tuple[Tensor, Tensor]:
        queries = take(pos_table, masked_indices, axis=0) + self.mask_token  # (m, d)
        if f_v.ndim == 3:
            queries = broadcast_to(queries, (f_v.shape[0],) + queries.shape)
        q = queries
        for block in self.blocks:
            q = block(q, f_v)
        f_mp = self.final_ln(q)
        p_m = softmax(self.head(f_mp), axis=-1)
        return f_mp, p_m


class Teacher:
    """Non-trainable EMA mirror of the visible encoder.

    Never registered with an optimizer and always run with the tape paused,
    so no gradient can reach it.
    """

    def __init__(self, student: VisibleEncoder, momentum: float = 0.99):
        if not 0.0 <= momentum <= 1.0:
            raise ValueError(f"Teacher: momentum must be in [0, 1], got {momentum}")
        self.momentum = momentum
        self.module = copy.deepcopy(student)
        for t in self.module.parameters():
            t.requires_grad = False
            t.grad = None

    def update(self, student: VisibleEncoder, momentum: float | None = None) -> None:
        teacher_update(self, student, self.momentum if momentum is None else momentum)

    def encode(self, z_full: np.ndarray) -> np.ndarray:
        with no_grad():
            out = self.module(Tensor(np.asarray(z_full)))
        return out.data


def teacher_update(teacher: Teacher, student: VisibleEncoder, momentum: float) -> Teacher:
    """teacher <- momentum * teacher + (1 - momentum) * student, elementwise."""
    t_params = dict(teacher.module.named_parameters())
    s_params = dict(student.named_parameters())
    if set(t_params) != set(s_params):
        raise ShapeError("teacher_update: parameter trees differ")
    for name, t in t_params.items():
        s = s_params[name]
        if t.shape != s.shape:
            raise ShapeError(f"teacher_update: {name} shapes differ, {t.shape} vs {s.shape}")
        t.data = momentum * t.data + (1.0 - momentum) * s.data
    return teacher
