"""The noise predictor for the reverse chain.

It is a token-mixing MLP over the flattened latent with
sinusoidal timestep features and an additive projection of the condition
vector.  Two condition pathways share it: the aligned semantic embedding and
a learned per-class embedding table.  The layers hold the parameters; the
training loss is the fused tape op `ops.denoiser_mse`, and `predict` runs its
forward untaped.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, take
from ..autodiff.nn import Linear, Module, normal_init
from ..autodiff.ops import _denoiser_forward
from ..autodiff.tensor import _require_finite

TIME_EMBED_DIM = 32
_HALF = TIME_EMBED_DIM // 2
# float64 frequencies max_period^(-k / half), k < half, with max_period 10,000
_TIME_FREQS = np.exp(-np.log(10_000.0) * np.arange(_HALF) / _HALF)


def timestep_embedding(t: np.ndarray) -> np.ndarray:
    """Sinusoidal features of integer timesteps: (B,) -> (B, TIME_EMBED_DIM)."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    args = t[:, None] * _TIME_FREQS[None, :]
    return np.concatenate([np.sin(args), np.cos(args)], axis=1).astype(np.float32)


class DenoiserNet(Module):
    """eps_theta(x_t, t, cond): flattened latent -> same-shape noise estimate.

    The output layer starts at zero, so the untrained net predicts zero noise
    and the initial training loss sits at E[eps^2] = 1.
    """

    def __init__(
        self,
        latent_shape: tuple[int, int, int],
        cond_dim: int,
        n_classes: int,
        hidden: int,
        rng: np.random.Generator,
    ):
        self.latent_shape = tuple(latent_shape)
        self.latent_size = int(np.prod(latent_shape))
        self.cond_dim = cond_dim
        self.n_classes = n_classes
        self.in_proj = Linear(self.latent_size, hidden, rng)
        self.time_proj = Linear(TIME_EMBED_DIM, hidden, rng)
        self.cond_proj = Linear(cond_dim, hidden, rng)
        self.mid = Linear(hidden, hidden, rng)
        self.out_proj = Linear(hidden, self.latent_size, rng)
        self.out_proj.weight.data = np.zeros_like(self.out_proj.weight.data)
        # Timestep-gated input skip: the true noise carries an x_t term whose
        # coefficient depends only on t, so giving the net that pathway
        # directly keeps late-chain predictions (and reverse sampling) stable.
        # Zero start preserves eps_hat = 0 at init.
        self.skip_gate = Linear(TIME_EMBED_DIM, self.latent_size, rng)
        self.skip_gate.weight.data = np.zeros_like(self.skip_gate.weight.data)
        self.class_table = Tensor(normal_init(rng, (n_classes, cond_dim), std=0.5), requires_grad=True)

    def class_condition(self, labels: np.ndarray) -> Tensor:
        labels = np.asarray(labels, dtype=np.int64)
        if np.any(labels < 0) or np.any(labels >= self.n_classes):
            raise ValueError(f"DenoiserNet: class labels outside [0, {self.n_classes})")
        return take(self.class_table, labels, axis=0)

    def weights(self) -> list[Tensor]:  # the fused ops' twelve weights, in their order
        layers = (self.in_proj, self.time_proj, self.cond_proj, self.mid, self.out_proj, self.skip_gate)
        return [p for layer in layers for p in (layer.weight, layer.bias)]

    def predict(self, x_t: np.ndarray, t: int, cond: np.ndarray) -> np.ndarray:
        """The noise estimate, untaped: one latent or a (B, *latent) batch, with
        `cond` shaped (e,) or (B, e).  Only the estimate is checked finite."""
        dtype = self.in_proj.weight.data.dtype
        x = np.asarray(x_t, dtype=dtype)
        rank = len(self.latent_shape)
        if x.shape[-rank:] != self.latent_shape or x.ndim > rank + 1:
            raise ValueError(f"DenoiserNet: latent shape {x.shape} is neither {self.latent_shape} nor (B, *{self.latent_shape})")
        # only the estimate: the backward closure, and the activations it holds, go before the float64 copy
        out = _denoiser_forward("DenoiserNet.predict", (
            Tensor(x.reshape((-1,) + self.latent_shape)),
            Tensor(timestep_embedding(np.array([t]))),
            Tensor(np.asarray(cond, dtype=dtype).reshape(-1, self.cond_dim)),
            *self.weights(),
        ))[1]
        _require_finite("DenoiserNet.predict", out)
        return out.reshape(x.shape).astype(np.float64)

