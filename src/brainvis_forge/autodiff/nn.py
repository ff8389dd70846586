"""Parameter containers and the small layer zoo used across the pipeline."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor, fold, take


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out)).astype(np.float32)


def normal_init(rng: np.random.Generator, shape, std: float = 0.02) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(np.float32)


class Module:
    """Base class: anything assigning Tensor/Module attributes gets named parameters.

    Attribute order is insertion order, so parameter naming is deterministic.
    """

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        for name, value in vars(self).items():
            if isinstance(value, Tensor):
                yield f"{prefix}{name}", value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{prefix}{name}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{prefix}{name}.{i}.")

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def state(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters(prefix)}

    def load_state(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy the parameters stored under `prefix` into the existing arrays;
        other keys are ignored.  The copy is in place, so a parameter that
        lives in a `ParamStore` arena stays there."""
        own = dict(self.named_parameters(prefix))
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"load_state: missing parameters {sorted(missing)}")
        for name, tensor in own.items():
            arr = np.asarray(state[name], dtype=tensor.data.dtype)
            if arr.shape != tensor.shape:
                raise ShapeError(f"load_state: {name} expects {tensor.shape}, got {arr.shape}")
            tensor.data[...] = arr


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator):
        self.weight = Tensor(xavier_uniform(rng, d_in, d_out), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gain = Tensor(np.ones(dim, dtype=np.float32), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gain, self.bias)


class Attention(Module):
    """Projection weights for one multi-head attention; self- or cross- via call."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator):
        if dim % n_heads != 0:
            raise ShapeError(f"Attention: dim {dim} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.w_q = Tensor(xavier_uniform(rng, dim, dim), requires_grad=True)
        self.b_q = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.w_k = Tensor(xavier_uniform(rng, dim, dim), requires_grad=True)
        self.b_k = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.w_v = Tensor(xavier_uniform(rng, dim, dim), requires_grad=True)
        self.b_v = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)
        self.w_o = Tensor(xavier_uniform(rng, dim, dim), requires_grad=True)
        self.b_o = Tensor(np.zeros(dim, dtype=np.float32), requires_grad=True)

    def __call__(self, query: Tensor, context: Tensor) -> Tensor:
        return ops.multi_head_attention(
            query, context,
            self.w_q, self.b_q, self.w_k, self.b_k,
            self.w_v, self.b_v, self.w_o, self.b_o,
            self.n_heads,
        )


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator):
        self.fc1 = Linear(dim, hidden, rng)
        self.fc2 = Linear(hidden, dim, rng)

    def __call__(self, x: Tensor) -> Tensor:
        return ops.feed_forward(x, self.fc1.weight, self.fc1.bias, self.fc2.weight, self.fc2.bias)


class AttentionBlock(Module):
    """Pre-norm transformer block: x + attn(LN(x), kv), then x + ffn(LN(x)), where kv is `context`, or LN(x)
    itself without one.  Given `rows` (indices along axis -2), only those rows are queries and outputs; every
    row is still a key and value.  A call tapes `forward` as one `fold` entry, `self_attention_block` or
    `cross_attention_block`; `forward` itself tapes one entry per op."""

    def __init__(self, dim: int, n_heads: int, ffn_dim: int, rng: np.random.Generator):
        self.ln1 = LayerNorm(dim)
        self.attn = Attention(dim, n_heads, rng)
        self.ln2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_dim, rng)

    def __call__(self, x: Tensor, context: Tensor | None = None, rows: np.ndarray | None = None) -> Tensor:
        op = "self_attention_block" if context is None else "cross_attention_block"
        return fold(op, self.forward, x, context, rows)

    def forward(self, x: Tensor, context: Tensor | None = None, rows: np.ndarray | None = None) -> Tensor:
        h = q = self.ln1(x)
        if rows is not None:
            x, q = take(x, rows, axis=-2), take(h, rows, axis=-2)
        x = x + self.attn(q, h if context is None else context)
        return x + self.ffn(self.ln2(x))


class LstmEncoder(Module):
    """Single-layer gated recurrence over axis -2; returns the final hidden state.

    Input (..., T, d_in) goes through `ops.lstm_sequence`, which runs the
    whole recurrence as one tape entry and returns (..., d_hidden).
    Forget-gate bias starts at 1 to keep early memory open.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator):
        self.d_in = d_in
        self.d_hidden = d_hidden
        self.w_x = Tensor(xavier_uniform(rng, d_in, 4 * d_hidden), requires_grad=True)
        self.w_h = Tensor(xavier_uniform(rng, d_hidden, 4 * d_hidden), requires_grad=True)
        bias = np.zeros(4 * d_hidden, dtype=np.float32)
        bias[d_hidden : 2 * d_hidden] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def __call__(self, seq: Tensor) -> Tensor:
        if seq.shape[-1] != self.d_in:
            raise ShapeError(f"LstmEncoder: input dim {seq.shape[-1]} does not match weights ({self.d_in})")
        return ops.lstm_sequence(seq, self.w_x, self.w_h, self.bias)
