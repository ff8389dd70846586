"""Named parameter store with Adam state, the Adam update, and the loop every
trainer shares: `ParamStore.step` (clear grads, backpropagate, Adam),
`train_epoch` (one shuffled-minibatch pass) and `predict` (tape-off batches)."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .nn import Module
from .tensor import ShapeError, Tensor, backward, no_grad


class ParamStore:
    """Named trainable tensors plus per-parameter first/second moments.

    Tensors are shared with the owning modules, so an update here is visible
    to every forward pass that uses them.  `ParamStore(**modules)` registers
    each module's parameters under its keyword as prefix.
    """

    def __init__(self, **modules: Module):
        self._params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self.step_count = 0
        for prefix, module in modules.items():
            self.register_module(prefix, module)

    def register(self, name: str, tensor: Tensor) -> Tensor:
        if name in self._params:
            raise ValueError(f"ParamStore: duplicate parameter name {name!r}")
        self._params[name] = tensor
        self._m[name] = np.zeros_like(tensor.data)
        self._v[name] = np.zeros_like(tensor.data)
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

    def step(self, loss: Tensor, lr: float, trainable: list[str] | None = None) -> float:
        """Clear the grads, backpropagate `loss`, take one Adam step; returns the loss value."""
        self.zero_grad()
        backward(loss)
        adam_step(self, self.collect_grads(), lr, trainable=trainable)
        return loss.item()


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
    """
    unknown = set(grads) - set(store._params)
    if unknown:
        raise KeyError(f"adam_step: gradients for unknown parameters {sorted(unknown)}")
    if trainable is not None:
        missing = set(trainable) - set(grads)
        if missing:
            raise KeyError(f"adam_step: trainable parameters missing gradients: {sorted(missing)}")

    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, g in grads.items():
        p = store._params[name]
        if g.shape != p.shape:
            raise ShapeError(f"adam_step: gradient for {name} has shape {g.shape}, expected {p.shape}")
        g = g.astype(p.data.dtype, copy=False)
        m = store._m[name] = beta1 * store._m[name] + (1.0 - beta1) * g
        v = store._v[name] = beta2 * store._v[name] + (1.0 - beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + eps)
        p.data = p.data - lr * update
    return store


def train_epoch(store: ParamStore, rng: np.random.Generator, rows, batch_size: int, lr: float, batch_loss: Callable) -> float:
    """One pass over `rows` (indices, or a count) in `rng.permutation(rows)`
    order, one `store.step` per `batch_size` slice; returns the mean batch loss."""
    order = rng.permutation(rows)
    starts = range(0, len(order), batch_size)
    total = 0.0  # a plain left-to-right sum: Python >= 3.12's sum() compensates, changing logged bits
    for lo in starts:
        total += store.step(batch_loss(order[lo : lo + batch_size]), lr)
    return total / max(len(starts), 1)


def predict(fn: Callable[..., Tensor], *arrays, batch: int = 256) -> np.ndarray:
    """`fn` over matching `batch`-row slices of `arrays` with the tape off,
    output rows concatenated; a `None` array is passed through as `None`."""
    n = len(next(a for a in arrays if a is not None))
    with no_grad():
        rows = [fn(*(None if a is None else a[lo : lo + batch] for a in arrays)).data for lo in range(0, n, batch)]
    return np.concatenate(rows, axis=0)
