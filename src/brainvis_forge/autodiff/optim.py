"""Named parameter store with Adam state, the Adam update, and the loop every
trainer shares: `ParamStore.step` (a forward in a `scope`, then clear grads,
backpropagate, Adam), `train_epoch` (one shuffled-minibatch pass) and
`predict` (tape-off batches).  An op a trainer runs outside any scope owns
its tape entry until the next `backward`.

A store keeps its parameters and both Adam moments in one flat arena each:
every registered tensor's `.data` is a reshaped view into the parameter
buffer, and `adam_step` updates the arena in place with a fixed sequence of
ufuncs, one segment of at most `_ADAM_BLOCK` floats at a time, so its scratch
is per call and segment-sized, not arena-sized.  The arena is (re)built on
the first step after a `register`.  Rule: no code rebinds a registered
parameter's `.data`; write into it (`t.data[...] = x`) instead.  A rebound
tensor would be a detached copy the store no longer trains, so `adam_step`
raises on one.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .nn import Module
from .tensor import ShapeError, Tensor, backward, no_grad, scope

PREDICT_ROWS = 256  # rows per forward in `predict`: bounds its activations
_ADAM_BLOCK = 1 << 17  # floats per `adam_step` segment: bounds its scratch


class ParamStore:
    """Named trainable tensors of one dtype, plus their Adam moments.

    Tensors are shared with the owning modules, so an update here is visible
    to every forward pass that uses them.  `ParamStore(**modules)` registers
    each module's parameters under its keyword as prefix.
    """

    def __init__(self, **modules: Module):
        self._params: dict[str, Tensor] = {}
        # (name, tensor, lo, hi) per parameter in registration order, over
        # the flat buffers: parameters and first and second moments.
        self._layout: list[tuple[str, Tensor, int, int]] = []
        self._p = self._m = self._v = np.zeros(0)
        self.step_count = 0
        for prefix, module in modules.items():
            self.register_module(prefix, module)

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"ParamStore: duplicate parameter name {name!r}")
        dtype = next(iter(self._params.values())).dtype if self._params else tensor.dtype
        if tensor.dtype != dtype:
            raise TypeError(f"ParamStore: {name} is {tensor.dtype}, but the store holds {dtype} parameters")
        self._params[name] = tensor
        return tensor

    def register_module(self, prefix: str, module: Module) -> None:
        for name, tensor in module.named_parameters():
            self.register(f"{prefix}.{name}" if prefix else name, tensor)

    def names(self) -> list[str]:
        return list(self._params)

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def collect_grads(self) -> dict[str, np.ndarray]:
        """Gradients currently attached to the stored tensors."""
        return {name: t.grad for name, t in self._params.items() if t.grad is not None}

    def step(self, forward: Callable[[], Tensor], lr: float, trainable: list[str] | None = None) -> float:
        """Run `forward` and backpropagate the loss it returns into cleared grads, in one `scope`
        (a raise there leaves the tape as it was), then take one Adam step; returns the loss value."""
        with scope():
            loss = forward()
            self.zero_grad()
            backward(loss)
        adam_step(self, self.collect_grads(), lr, trainable=trainable)
        return loss.item()

    def _arena(self) -> list[tuple[str, Tensor, int, int]]:
        """The layout, after checking that no tensor left the arena; a tensor
        registered since the last step triggers a rebuild."""
        for name, t, _, _ in self._layout:
            if t.data.base is not self._p:
                raise RuntimeError(
                    f"ParamStore: {name}.data was rebound outside the parameter arena; "
                    f"write into it (t.data[...] = x) so the store keeps training it"
                )
        if len(self._layout) < len(self._params):
            self._build()
        return self._layout

    def _build(self) -> None:
        """Copy every parameter into fresh buffers and rebind its `.data` to a
        view; earlier parameters keep their offsets and moments."""
        dtype = next(iter(self._params.values())).dtype
        n = sum(t.size for t in self._params.values())
        p, m, v = np.empty(n, dtype=dtype), np.zeros(n, dtype=dtype), np.zeros(n, dtype=dtype)
        m[: self._m.size] = self._m
        v[: self._v.size] = self._v
        self._layout = []
        lo = 0
        for name, t in self._params.items():
            hi = lo + t.size
            p[lo:hi] = t.data.reshape(-1)
            t.data = p[lo:hi].reshape(t.shape)
            self._layout.append((name, t, lo, hi))
            lo = hi
        self._p, self._m, self._v = p, m, v


def adam_step(
    store: ParamStore,
    grads: dict[str, np.ndarray],
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    trainable: list[str] | None = None,
) -> ParamStore:
    """One bias-corrected Adam update over `grads`; increments the step counter.

    `trainable`, when given, is the set of parameters that must receive a
    gradient this step; a missing one is an error rather than a silent skip.
    A parameter without a gradient keeps its value and moments.  The update
    runs once per segment: a contiguous run of parameters that have a
    gradient, ending at a parameter boundary and holding at most `_ADAM_BLOCK`
    floats (a larger parameter is a segment of its own).  Each segment's
    gradients are gathered into a scratch pair allocated per call, and the
    update follows the operation order of the per-tensor formula
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so results are bit-equal to it.
    From step 165 in float32 (356 in float64) bc1 is exactly 1: m / bc1 is m, its divide skipped.
    Every check runs before the first write.
    """
    unknown = set(grads) - set(store._params)
    if unknown:
        raise KeyError(f"adam_step: gradients for unknown parameters {sorted(unknown)}")
    if trainable is not None:
        missing = set(trainable) - set(grads)
        if missing:
            raise KeyError(f"adam_step: trainable parameters missing gradients: {sorted(missing)}")

    segments: list[list] = []  # [lo, hi, flat gradients in arena order] per segment
    for name, p, lo, hi in store._arena():
        g = grads.get(name)
        if g is None:
            continue
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: gradient for {name} has shape {g.shape}, expected {p.shape}")
        if segments and segments[-1][1] == lo and hi - segments[-1][0] <= _ADAM_BLOCK:
            segments[-1][1] = hi
            segments[-1][2].append(g.reshape(-1))
        else:
            segments.append([lo, hi, [g.reshape(-1)]])

    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    n = max((hi - lo for lo, hi, _ in segments), default=0)
    bc1_is_one = store._p.dtype.type(bc1) == 1.0
    g_buf, s_buf = np.empty((2, n), store._p.dtype)
    for lo, hi, parts in segments:
        g, s = g_buf[: hi - lo], s_buf[: hi - lo]
        np.concatenate(parts, out=g)
        p, m, v = (buf[lo:hi] for buf in (store._p, store._m, store._v))
        np.multiply(g, 1.0 - beta1, out=s)  # m = beta1 * m + (1 - beta1) * g
        m *= beta1
        m += s
        np.square(g, out=s)  # v = beta2 * v + (1 - beta2) * g^2
        s *= 1.0 - beta2
        v *= beta2
        v += s
        np.divide(v, bc2, out=s)  # s = sqrt(v / bc2) + eps
        np.sqrt(s, out=s)
        s += eps
        np.divide(m, s if bc1_is_one else bc1, out=g)  # g = lr * (m / bc1) / s
        if not bc1_is_one:
            g /= s
        g *= lr
        p -= g
    return store


def train_epoch(store: ParamStore, rng: np.random.Generator, rows, batch_size: int, lr: float, batch_loss: Callable) -> float:
    """One pass over `rows` (indices, or a count) in `rng.permutation(rows)`
    order, one `store.step` per `batch_size` slice; returns the mean batch loss."""
    order = rng.permutation(rows)
    starts = range(0, len(order), batch_size)
    total = 0.0  # a plain left-to-right sum: Python >= 3.12's sum() compensates, changing logged bits
    for lo in starts:
        total += store.step(functools.partial(batch_loss, order[lo : lo + batch_size]), lr)
    return total / max(len(starts), 1)


def predict(fn: Callable[..., Tensor], *arrays) -> np.ndarray:
    """`fn` over matching `PREDICT_ROWS`-row slices of `arrays` with the tape
    off, output rows concatenated; a `None` array is passed through as `None`."""
    n = len(next(a for a in arrays if a is not None))
    with no_grad():
        rows = [fn(*(None if a is None else a[lo : lo + PREDICT_ROWS] for a in arrays)).data
                for lo in range(0, n, PREDICT_ROWS)]
    return np.concatenate(rows, axis=0)
