"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Every differentiable operation appends one entry to the active
:class:`ComputationTape` as it executes.  :func:`backward` replays the tape
in reverse execution order, which is a valid topological order, so each node
is visited exactly once and leaf gradients accumulate additively.

Forward values are never mutated in place; every op allocates a fresh output
array.  Any op whose output contains NaN or Inf raises immediately.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A forward operation produced NaN or Inf."""


def _require_finite(op: str, data: np.ndarray) -> None:
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{op}: output contains NaN or Inf")


class TapeEntry:
    """One recorded op: inputs, output, and the local vector-Jacobian product."""

    __slots__ = ("op", "inputs", "output", "backward_fn")

    def __init__(
        self,
        op: str,
        inputs: tuple["Tensor", ...],
        output: "Tensor",
        backward_fn: Callable[[np.ndarray], tuple],
    ):
        self.op = op
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class ComputationTape:
    """Execution-ordered op record for a single run context (single-threaded)."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.enabled = True

    def record(self, entry: TapeEntry) -> None:
        self.entries.append(entry)

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)

    @contextlib.contextmanager
    def paused(self):
        previous = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = previous


_TAPE = ComputationTape()


def active_tape() -> ComputationTape:
    return _TAPE


def no_grad():
    """Context manager: run forward passes without recording to the tape."""
    return _TAPE.paused()


class Tensor:
    """Dense row-major float tensor with optional gradient tracking.

    32-bit is the training default; gradient checks run in 64-bit because
    central finite differences are unstable in single precision.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.asarray(data, dtype=dtype)
        if arr.dtype not in FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        _require_finite("tensor", arr)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def reshape(self, *shape) -> "Tensor":
        return reshape(self, shape[0] if len(shape) == 1 and isinstance(shape[0], (tuple, list)) else shape)

    def swapaxes(self, a: int, b: int) -> "Tensor":
        return swapaxes(self, a, b)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tmean(self, axis=axis, keepdims=keepdims)

    def take(self, indices, axis: int = 0) -> "Tensor":
        return take(self, indices, axis=axis)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _make(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op result, recording it when tracking is on and any input needs grad."""
    _require_finite(op, out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    track = _TAPE.enabled and any(t.requires_grad for t in inputs)
    out.requires_grad = track
    if track:
        _TAPE.record(TapeEntry(op, inputs, out, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum gradient g down to `shape` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def _broadcast_data(op: str, a: Tensor, b: Tensor, fn) -> np.ndarray:
    try:
        return fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} are not broadcastable") from exc


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out = _broadcast_data("add", a, b, np.add)
    return _make(
        "add", (a, b), out,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)),
    )


def sub(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out = _broadcast_data("sub", a, b, np.subtract)
    return _make(
        "sub", (a, b), out,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def mul(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out = _broadcast_data("mul", a, b, np.multiply)
    return _make(
        "mul", (a, b), out,
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = _broadcast_data("div", a, b, np.divide)
    return _make(
        "div", (a, b), out,
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    a = as_tensor(a)
    return _make("neg", (a,), -a.data, lambda g: (-g,))


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant scalar exponent."""
    a = as_tensor(a)
    if not isinstance(p, (int, float)):
        raise TypeError("power: exponent must be a python scalar")
    out = a.data ** p
    return _make("power", (a,), out, lambda g: (g * p * a.data ** (p - 1),))


# ---------------------------------------------------------------------------
# matmul and shape ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must have ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bw(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _make("matmul", (a, b), out, bw)


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make("reshape", (a,), out, lambda g: (g.reshape(a.shape),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2).copy()
    return _make("swapaxes", (a,), out, lambda g: (np.swapaxes(g, ax1, ax2),))


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError as exc:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from exc
    return _make("broadcast_to", (a,), out, lambda g: (_unbroadcast(g, a.shape),))


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather rows along `axis`; duplicate indices accumulate in backward."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    ax = axis % a.ndim
    out = np.take(a.data, idx, axis=ax)

    def bw(g):
        ga = np.zeros_like(a.data)
        np.add.at(ga, (slice(None),) * ax + (idx,), g)
        return (ga,)

    return _make("take", (a,), out, bw)


def narrow(a: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice [start, start+length) along `axis`."""
    a = as_tensor(a)
    ax = axis % a.ndim
    if start < 0 or start + length > a.shape[ax]:
        raise ShapeError(f"narrow: slice [{start}, {start + length}) out of range for axis {ax} of {a.shape}")
    slicer = (slice(None),) * ax + (slice(start, start + length),)
    out = a.data[slicer].copy()

    def bw(g):
        ga = np.zeros_like(a.data)
        ga[slicer] = g
        return (ga,)

    return _make("narrow", (a,), out, bw)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    ts = tuple(as_tensor(t) for t in tensors)
    if not ts:
        raise ValueError("concat: need at least one tensor")
    try:
        out = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat: incompatible shapes {[t.shape for t in ts]}") from exc
    ax = axis % out.ndim
    sizes = [t.shape[ax] for t in ts]
    offsets = np.cumsum(sizes)[:-1]

    def bw(g):
        return tuple(np.ascontiguousarray(p) for p in np.split(g, offsets, axis=ax))

    return _make("concat", ts, out, bw)


# ---------------------------------------------------------------------------
# reductions


def _expand_reduced(g: np.ndarray, src_shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    if axis is None:
        return np.broadcast_to(g, src_shape).copy()
    if not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, src_shape).copy()


def tsum(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)
    return _make(
        "sum", (a,), np.asarray(out),
        lambda g: (_expand_reduced(g, a.shape, axis, keepdims),),
    )


def tmean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = (axis,) if isinstance(axis, int) else tuple(axis)
        count = 1
        for ax in axes:
            count *= a.shape[ax % a.ndim]
    return _make(
        "mean", (a,), np.asarray(out),
        lambda g: (_expand_reduced(g, a.shape, axis, keepdims) / count,),
    )


# ---------------------------------------------------------------------------
# elementwise transcendentals and activations


def exp(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.exp(a.data)
    return _make("exp", (a,), out, lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _make("log", (a,), out, lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make("sqrt", (a,), out, lambda g: (g * 0.5 / out,))


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _make("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.maximum(a.data, 0.0)
    return _make("relu", (a,), out, lambda g: (g * (a.data > 0),))


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation."""
    a = as_tensor(a)
    x = a.data
    u = _GELU_K * (x + _GELU_C * x * x * x)
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)

    def bw(g):
        du = _GELU_K * (1.0 + 3.0 * _GELU_C * x * x)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du),)

    return _make("gelu", (a,), out, bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift is constant so it does not affect grads."""
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _make("softmax", (a,), s, bw)


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return _make("log_softmax", (a,), ls, bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse the active tape from a scalar loss.

    Accumulates into `.grad` of every reachable leaf with requires_grad and
    returns the leaf gradient map.  The tape is cleared afterwards, so one
    forward pass supports exactly one backward pass.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    tape = _TAPE
    if not tape.entries:
        raise RuntimeError("backward: tape is empty (no recorded operations)")

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    holders: dict[int, Tensor] = {id(loss): loss}
    produced = {id(e.output) for e in tape.entries}

    for entry in reversed(tape.entries):
        g_out = grads.pop(id(entry.output), None)
        if g_out is None:
            continue
        holders.pop(id(entry.output), None)
        for inp, g in zip(entry.inputs, entry.backward_fn(g_out)):
            if g is None or not inp.requires_grad:
                continue
            key = id(inp)
            if key in grads:
                grads[key] = grads[key] + g
            else:
                grads[key] = g
                holders[key] = inp

    leaf_grads: dict[Tensor, np.ndarray] = {}
    for key, g in grads.items():
        t = holders[key]
        if key in produced:
            continue  # interior node that no later entry consumed
        t.grad = g if t.grad is None else t.grad + g
        leaf_grads[t] = g
    tape.clear()
    return leaf_grads
