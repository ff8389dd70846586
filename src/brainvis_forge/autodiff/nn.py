"""Parameter containers and the small layer zoo used across the pipeline."""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor, gelu
from .tensor import narrow as t_narrow
from .tensor import reshape as t_reshape


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, shape=None, dtype=np.float32) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape or (fan_in, fan_out)).astype(dtype)


def normal_init(rng: np.random.Generator, shape, std: float = 0.02, dtype=np.float32) -> np.ndarray:
    return (rng.standard_normal(shape) * std).astype(dtype)


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
                    elif isinstance(item, Tensor):
                        yield f"{prefix}{name}.{i}", item

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def state(self, prefix: str = "") -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.named_parameters(prefix)}

    def load_state(self, state: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy in the parameters stored under `prefix`; other keys are ignored."""
        own = dict(self.named_parameters(prefix))
        missing = set(own) - set(state)
        if missing:
            raise KeyError(f"load_state: missing parameters {sorted(missing)}")
        for name, tensor in own.items():
            arr = np.asarray(state[name], dtype=tensor.data.dtype)
            if arr.shape != tensor.shape:
                raise ShapeError(f"load_state: {name} expects {tensor.shape}, got {arr.shape}")
            tensor.data = arr.copy()


class Linear(Module):
    def __init__(self, d_in: int, d_out: int, rng: np.random.Generator, bias: bool = True, dtype=np.float32):
        self.weight = Tensor(xavier_uniform(rng, d_in, d_out, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(d_out, dtype=dtype), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return ops.linear(x, self.weight, self.bias)


class LayerNorm(Module):
    def __init__(self, dim: int, dtype=np.float32, eps: float = 1e-5):
        self.gain = Tensor(np.ones(dim, dtype=dtype), requires_grad=True)
        self.bias = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self._eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return ops.layer_norm(x, self.gain, self.bias, eps=self._eps)


class Attention(Module):
    """Projection weights for one multi-head attention; self- or cross- via call."""

    def __init__(self, dim: int, n_heads: int, rng: np.random.Generator, dtype=np.float32):
        if dim % n_heads != 0:
            raise ShapeError(f"Attention: dim {dim} not divisible by {n_heads} heads")
        self.n_heads = n_heads
        self.w_q = Tensor(xavier_uniform(rng, dim, dim, dtype=dtype), requires_grad=True)
        self.b_q = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.w_k = Tensor(xavier_uniform(rng, dim, dim, dtype=dtype), requires_grad=True)
        self.b_k = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.w_v = Tensor(xavier_uniform(rng, dim, dim, dtype=dtype), requires_grad=True)
        self.b_v = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)
        self.w_o = Tensor(xavier_uniform(rng, dim, dim, dtype=dtype), requires_grad=True)
        self.b_o = Tensor(np.zeros(dim, dtype=dtype), requires_grad=True)

    def __call__(self, query: Tensor, context: Tensor) -> Tensor:
        return ops.multi_head_attention(
            query, context,
            self.w_q, self.b_q, self.w_k, self.b_k,
            self.w_v, self.b_v, self.w_o, self.b_o,
            self.n_heads,
        )


class FeedForward(Module):
    def __init__(self, dim: int, hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.fc1 = Linear(dim, hidden, rng, dtype=dtype)
        self.fc2 = Linear(hidden, dim, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        return self.fc2(gelu(self.fc1(x)))


class SelfAttentionBlock(Module):
    """Pre-norm transformer block: x + attn(LN(x)), then x + ffn(LN(x))."""

    def __init__(self, dim: int, n_heads: int, ffn_dim: int, rng: np.random.Generator, dtype=np.float32):
        self.ln1 = LayerNorm(dim, dtype=dtype)
        self.attn = Attention(dim, n_heads, rng, dtype=dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.ffn = FeedForward(dim, ffn_dim, rng, dtype=dtype)

    def __call__(self, x: Tensor) -> Tensor:
        h = self.ln1(x)
        x = x + self.attn(h, h)
        x = x + self.ffn(self.ln2(x))
        return x


class CrossAttentionBlock(Module):
    """Pre-norm block where the query stream attends to a fixed context."""

    def __init__(self, dim: int, n_heads: int, ffn_dim: int, rng: np.random.Generator, dtype=np.float32):
        self.ln1 = LayerNorm(dim, dtype=dtype)
        self.attn = Attention(dim, n_heads, rng, dtype=dtype)
        self.ln2 = LayerNorm(dim, dtype=dtype)
        self.ffn = FeedForward(dim, ffn_dim, rng, dtype=dtype)

    def __call__(self, query: Tensor, context: Tensor) -> Tensor:
        query = query + self.attn(self.ln1(query), context)
        query = query + self.ffn(self.ln2(query))
        return query


class LstmEncoder(Module):
    """Single-layer gated recurrence; returns the final hidden state.

    Input (..., T, d_in) is consumed one step at a time along axis -2.
    Forget-gate bias starts at 1 to keep early memory open.
    """

    def __init__(self, d_in: int, d_hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.d_in = d_in
        self.d_hidden = d_hidden
        self.w_x = Tensor(xavier_uniform(rng, d_in, 4 * d_hidden, dtype=dtype), requires_grad=True)
        self.w_h = Tensor(xavier_uniform(rng, d_hidden, 4 * d_hidden, dtype=dtype), requires_grad=True)
        bias = np.zeros(4 * d_hidden, dtype=dtype)
        bias[d_hidden : 2 * d_hidden] = 1.0
        self.bias = Tensor(bias, requires_grad=True)

    def __call__(self, seq: Tensor) -> Tensor:
        *lead, n_steps, d_in = seq.shape
        if d_in != self.d_in:
            raise ShapeError(f"LstmEncoder: input dim {d_in} does not match weights ({self.d_in})")
        dtype = self.w_x.data.dtype
        h = Tensor(np.zeros(tuple(lead) + (self.d_hidden,), dtype=dtype))
        c = Tensor(np.zeros(tuple(lead) + (self.d_hidden,), dtype=dtype))
        for t in range(n_steps):
            x_t = t_reshape(t_narrow(seq, -2, t, 1), tuple(lead) + (d_in,))
            h, c = ops.lstm_cell(x_t, h, c, self.w_x, self.w_h, self.bias)
        return h
