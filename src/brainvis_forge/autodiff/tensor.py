"""Tape-based reverse-mode automatic differentiation over dense numpy arrays.

Every differentiable operation appends one entry to the active
:class:`ComputationTape` as it executes.  A :func:`scope` deletes the entries its
body recorded if the body raises; `fold`, `ParamStore.step` and the gradient check
run in one, and an op outside any scope owns its entry until the next `backward`.
:func:`fold` (a transformer block's call) slices the entries its function recorded
off the tape and compiles them into one entry.  :func:`backward` compiles the whole
tape the same way and runs the same reverse pass from the loss: reverse execution
order is a valid topological order, so each node is visited exactly once and leaf
gradients accumulate additively; each entry's closure is freed once its VJP has run.

Forward values are never mutated in place; every op returns an array it
allocated, which it may build in place (`gelu` block by block, `softmax` in its
shifted copy, `ops.linear` in its product, `ops.layer_norm` in its scratch), so
no input's bytes change.  (Parameters are updated in place by `adam_step`,
after the backward that reads them.)  A backward may consume its own op's
saved buffers (`ops.lstm_sequence`'s gates), as each VJP runs once.  Any op
whose output contains NaN or Inf raises immediately.
A batched x @ 2-D W folds x's leading axes into rows: one GEMM in the forward
and one per gradient (`_matmul_data`, which `ops.linear` runs); batched @ batched runs item by item.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Sequence

import numpy as np

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_GELU_K = math.sqrt(2.0 / math.pi)
_GELU_C = 0.044715
_GELU_BLOCK = 1 << 14  # elements per block of the gelu backward: bounds its temporaries
# elements per block of the gelu forward, which runs in blocks past two of them: its eight passes
# then stay in cache, while an array of two blocks or less sits in cache anyway and blocks cost calls
_GELU_FORWARD_BLOCK = 1 << 16


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(FloatingPointError):
    """A forward operation produced NaN or Inf."""


def _require_finite(op: str, data: np.ndarray) -> None:
    if not np.isfinite(data).all():
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

    def clear(self) -> None:
        self.entries.clear()

    def __len__(self) -> int:
        return len(self.entries)


_TAPE = ComputationTape()


def active_tape() -> ComputationTape:
    return _TAPE


@contextlib.contextmanager
def no_grad():
    """Context manager: run forward passes without recording to the tape."""
    previous = _TAPE.enabled
    _TAPE.enabled = False
    try:
        yield
    finally:
        _TAPE.enabled = previous


@contextlib.contextmanager
def scope():
    """Context manager over a taped forward: yields the tape's length on entry, and deletes
    every entry recorded past it if the body raises, so a failed forward leaves the tape as
    it found it."""
    entries = _TAPE.entries
    mark = len(entries)
    try:
        yield mark
    except BaseException:
        del entries[mark:]
        raise


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

    def __mul__(self, other):
        return mul(self, other)


def as_tensor(x, like: Tensor | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x
    dtype = like.data.dtype if like is not None else np.float32
    return Tensor(np.asarray(x, dtype=dtype))


def _tracks(inputs: tuple[Tensor, ...]) -> bool:
    """Whether an op over `inputs` is recorded: tracking is on and any input needs grad."""
    return _TAPE.enabled and any(t.requires_grad for t in inputs)


def _make(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward_fn) -> Tensor:
    """Wrap an op result, appending its entry to the tape when `_tracks(inputs)`."""
    _require_finite(op, out_data)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    track = _tracks(inputs)
    out.requires_grad = track
    if track:
        _TAPE.entries.append(TapeEntry(op, inputs, out, backward_fn))
    return out


def _compile(entries: list[TapeEntry], out: Tensor) -> tuple[tuple[Tensor, ...], Callable] | None:
    """`entries`, which it empties, as one reverse pass from the gradient of `out`; None if no
    entry produced `out`.

    Each entry keeps only its VJP and its inputs: an earlier entry's position, or the outside
    tensor.  Returns the outside tensors, once per use in replay order, and the pass, which
    returns their gradients in that order (None where none flows).  The pass accumulates each
    inside gradient as `prev + g` in replay order and pops each VJP once it has run.
    """
    keys: dict[Tensor, int] = {}  # Tensors hash by identity (no __eq__), so they key the map themselves
    records = []
    for entry in entries:
        keys[entry.output] = len(records)
        records.append((tuple([keys.get(t, t) for t in entry.inputs]), entry.backward_fn))
    entries.clear()
    grads_at = keys.get(out)
    if grads_at is None:
        return None
    outside = tuple([t for refs, _ in reversed(records) for t in refs if type(t) is not int])

    def reverse(g):
        grads, outside_grads = {grads_at: g}, []
        while records:
            refs, vjp = records.pop()
            g_out = grads.pop(len(records), None)
            for ref, g_in in zip(refs, (None,) * len(refs) if g_out is None else vjp(g_out)):
                if type(ref) is not int:
                    outside_grads.append(g_in)
                elif g_in is not None:
                    prev = grads.get(ref)
                    grads[ref] = g_in if prev is None else prev + g_in
        return outside_grads

    return outside, reverse


def fold(op: str, fn: Callable[..., Tensor], *args) -> Tensor:
    """fn(*args) as one tape entry `op`, so that only what its backward reads outlives the call.

    fn runs in a `scope`, and the entries it records are sliced off the tape and `_compile`d: the
    entry's inputs list each outside tensor once per internal use, and every gradient is bit-equal
    to the flat tape's.  If fn raises, or no entry it recorded produced its output, the slice is
    dropped.
    """
    with scope() as mark:
        out = fn(*args)
    block = _TAPE.entries[mark:]
    del _TAPE.entries[mark:]
    compiled = _compile(block, out)
    if compiled is not None:
        inputs, reverse = compiled
        _TAPE.entries.append(TapeEntry(op, inputs, out, reverse))
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
    a_shape, b_shape = a.shape, b.shape
    return _make("add", (a, b), out, lambda g: (_unbroadcast(g, a_shape), _unbroadcast(g, b_shape)))


def mul(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out = _broadcast_data("mul", a, b, np.multiply)
    return _make(
        "mul", (a, b), out,
        lambda g: (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                   _unbroadcast(g * a.data, b.shape) if b.requires_grad else None),
    )


# ---------------------------------------------------------------------------
# matmul helpers and shape ops


def _rows(x: np.ndarray) -> np.ndarray:
    """(..., k) as (R, k); R is explicit, since reshape(-1, 0) raises on an empty x."""
    return x.reshape(math.prod(x.shape[:-1]), x.shape[-1])


def _matmul_data(op: str, a: Tensor, b: Tensor) -> np.ndarray:
    """a @ b; batched a @ 2-D b is one GEMM, bit-equal to the per-item products
    where BLAS runs both with one kernel (tiny and medium LMM shapes), else in rounding."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"{op}: operands must have ndim >= 2, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"{op}: inner dimensions differ, {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim == 2:
        return (_rows(a.data) @ b.data).reshape(a.shape[:-1] + b.shape[-1:])
    return np.matmul(a.data, b.data)


def _matmul_grads(g: np.ndarray, a: Tensor, b: Tensor) -> tuple:
    """Gradients of a @ b for the operands that require one (None otherwise); folded
    as in the forward, each is one GEMM and differs from per item in rounding only."""
    if a.ndim > 2 and b.ndim == 2:
        g_rows = _rows(g)
        ga = (g_rows @ b.data.T).reshape(a.shape) if a.requires_grad else None
        return ga, (_rows(a.data).T @ g_rows if b.requires_grad else None)
    ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None
    gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None
    return ga, gb


def broadcast_to(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    try:
        out = np.broadcast_to(a.data, shape).copy()
    except ValueError as exc:
        raise ShapeError(f"broadcast_to: cannot broadcast {a.shape} to {shape}") from exc
    a_shape = a.shape
    return _make("broadcast_to", (a,), out, lambda g: (_unbroadcast(g, a_shape),))


def take(a: Tensor, indices, axis: int = 0) -> Tensor:
    """Gather rows along `axis`; duplicate indices accumulate in backward."""
    a = as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64)
    ax = axis % a.ndim
    out = np.take(a.data, idx, axis=ax)
    a_shape, a_dtype = a.shape, a.dtype

    def bw(g):
        ga = np.zeros(a_shape, a_dtype)
        np.add.at(ga, (slice(None),) * ax + (idx,), g)
        return (ga,)

    return _make("take", (a,), out, bw)


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
    if axis is not None and not keepdims:
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
# activations


def _sigmoid(x: np.ndarray, s=0.5, out: np.ndarray | None = None) -> np.ndarray:
    """s * tanh(s * x) + (1 - s), written into `out` when it is given.

    At s = 0.5 this is the logistic sigmoid as 0.5 * (1 + tanh(0.5 * x)): no
    exp, so no overflow and no sign masks at any finite x.  At s = 1 it is
    tanh itself, so an array `s` broadcasting over the last axis activates a
    row of mixed sigmoid and tanh gates with one tanh call.
    """
    out = np.multiply(x, s, out=out)
    np.tanh(out, out=out)
    out *= s
    out += 1 - s
    return out


def _gelu_forward(x: np.ndarray, out=None, t=None) -> tuple[np.ndarray, np.ndarray]:
    """GELU of `x`, the formula's operations in its order with `out=` into its
    own arrays, and the t = tanh(K * (x + C * x^3)) its backward reads; past two
    `_GELU_FORWARD_BLOCK`s of elements, block by block into a preallocated out and t."""
    if out is None and x.size > 2 * _GELU_FORWARD_BLOCK:
        out, t = np.empty(x.shape, x.dtype), np.empty(x.shape, x.dtype)
        x_f, out_f, t_f = x.reshape(-1), out.reshape(-1), t.reshape(-1)
        for lo in range(0, x.size, _GELU_FORWARD_BLOCK):
            hi = lo + _GELU_FORWARD_BLOCK
            _gelu_forward(x_f[lo:hi], out_f[lo:hi], t_f[lo:hi])
        return out, t
    t = np.multiply(x, _GELU_C, out=t)
    t *= x
    t *= x
    t += x
    t *= _GELU_K
    np.tanh(t, out=t)
    out = np.add(t, 1.0, out=out)
    out *= np.multiply(x, 0.5)
    return out, t


def _gelu_backward(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g times GELU's derivative at `x`, over `_GELU_BLOCK`-element blocks of the
    flattened arrays into one result, so its temporaries are block-sized."""
    gx = np.empty(x.shape, np.result_type(g, x))
    gx_f, g_f, x_f, t_f = gx.reshape(-1), g.reshape(-1), x.reshape(-1), t.reshape(-1)
    for lo in range(0, gx.size, _GELU_BLOCK):
        hi = lo + _GELU_BLOCK
        x_b, t_b = x_f[lo:hi], t_f[lo:hi]
        du = _GELU_K * (1.0 + 3.0 * _GELU_C * x_b * x_b)
        np.multiply(g_f[lo:hi], 0.5 * (1.0 + t_b) + 0.5 * x_b * (1.0 - t_b * t_b) * du, out=gx_f[lo:hi])
    return gx


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: 0.5 * x * (1 + tanh(K * (x + C * x^3))); its forward
    and backward helpers are shared with `ops.feed_forward`, `ops.denoiser_mse` and `ops.mlp_cross_entropy`."""
    a = as_tensor(a)
    out, t = _gelu_forward(a.data)
    return _make("gelu", (a,), out, lambda g: (_gelu_backward(g, a.data, t),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; the max shift is constant so it does not affect grads."""
    a = as_tensor(a)
    s = a.data - a.data.max(axis=axis, keepdims=True)
    np.exp(s, out=s)
    s /= s.sum(axis=axis, keepdims=True)

    def bw(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return ((g - dot) * s,)

    return _make("softmax", (a,), s, bw)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Reverse the active tape from a scalar loss.

    Compiles and clears the whole tape as `fold` compiles a block, runs the reverse pass from
    ones, and accumulates into `.grad` of every leaf with requires_grad that the loss reaches:
    each leaf's per-use gradients are summed in replay order.  One forward pass supports exactly
    one backward pass; a loss that no recorded op produced raises.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    entries = _TAPE.entries
    if not entries:
        raise RuntimeError("backward: tape is empty (no recorded operations)")
    compiled = _compile(entries, loss)
    if compiled is None:
        raise RuntimeError("backward: no recorded operation produced the loss")
    leaves, reverse = compiled
    grads: dict[Tensor, np.ndarray] = {}
    for t, g in zip(leaves, reverse(np.ones_like(loss.data))):
        if g is not None and t.requires_grad:
            prev = grads.get(t)
            grads[t] = g if prev is None else prev + g
    for t, g in grads.items():
        t.grad = g if t.grad is None else t.grad + g
