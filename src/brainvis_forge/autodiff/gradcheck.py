"""Finite-difference verification of analytic gradients.

Central differences (f(x+h) - f(x-h)) / 2h with h = 1e-5, always in 64-bit;
single precision makes the subtraction too noisy to trust.
"""

from __future__ import annotations

import functools
from typing import Callable, Sequence

import numpy as np

from . import nn, ops
from .tensor import (
    Tensor,
    backward,
    broadcast_to,
    concat,
    mul,
    scope,
    softmax,
    take,
    tmean,
    tsum,
)

DEFAULT_H = 1e-5
DEFAULT_TOL = 1e-4

LossFn = Callable[[Sequence[Tensor]], Tensor]


def analytic_grads(fn: LossFn, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
    inputs = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True) for a in arrays]
    with scope():
        backward(fn(inputs))
    return [np.zeros_like(t.data) if t.grad is None else t.grad for t in inputs]


def finite_difference_grads(fn: LossFn, arrays: Sequence[np.ndarray], h: float = DEFAULT_H) -> list[np.ndarray]:
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]

    def value_at(mutated: list[np.ndarray]) -> float:
        inputs = [Tensor(a) for a in mutated]
        return fn(inputs).item()

    grads = []
    for i, base in enumerate(arrays):
        g = np.zeros_like(base)
        flat = base.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            f_plus = value_at(arrays)
            flat[j] = orig - h
            f_minus = value_at(arrays)
            flat[j] = orig
            gflat[j] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    # Scale floor 1e-4: a gradient that is exactly zero (e.g. a bias whose
    # shift cancels inside softmax) must be compared absolutely, against
    # central-difference noise of order 1e-9, not divided by it.
    scale = max(float(np.max(np.abs(a), initial=0.0)), float(np.max(np.abs(b), initial=0.0)), 1e-4)
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def check_gradients(fn: LossFn, arrays: Sequence[np.ndarray], h: float = DEFAULT_H) -> float:
    """Max relative error between tape gradients and central differences."""
    ana = analytic_grads(fn, arrays)
    num = finite_difference_grads(fn, arrays, h=h)
    return max(relative_error(a, n) for a, n in zip(ana, num))


def _weighted_sum(t: Tensor, w: Tensor) -> Tensor:
    """Reduce to a scalar through fixed random weights so every output element matters."""
    return tsum(mul(t, w))


def op_catalog(rng: np.random.Generator) -> dict[str, tuple[LossFn, list[np.ndarray]]]:
    """One probe per differentiable operation; fresh random inputs per call."""
    r = rng.standard_normal

    n_heads = 2
    d = 8
    attn_weights = [r((d, d)) * 0.5 for _ in range(4)]
    attn_biases = [r(d) * 0.1 for _ in range(4)]
    attn_inputs_self = [r((3, 5, d))] + [w for pair in zip(attn_weights, attn_biases) for w in pair]
    attn_inputs_cross = [r((2, 4, d)), r((2, 6, d))] + [
        w for pair in zip([r((d, d)) * 0.5 for _ in range(4)], [r(d) * 0.1 for _ in range(4)]) for w in pair
    ]
    w_sum = Tensor(r((3, 5, d)))
    w_sum_cross = Tensor(r((2, 4, d)))

    def self_attn_loss(ts):
        x = ts[0]
        out = ops.multi_head_attention(x, x, *ts[1:], n_heads=n_heads)
        return tsum(mul(out, w_sum))

    def cross_attn_loss(ts):
        out = ops.multi_head_attention(ts[0], ts[1], *ts[2:], n_heads=n_heads)
        return tsum(mul(out, w_sum_cross))

    lstm_inputs = [r((2, 3, 4, 3)), r((3, 20)) * 0.5, r((5, 20)) * 0.5, r(20) * 0.1]
    ffn_inputs = [r((2, 3, 4)), r((4, 6)) * 0.5, r(6) * 0.1, r((6, 4)) * 0.5, r(4) * 0.1]
    ln_inputs = [r((4, 7)), r(7) * 0.5 + 1.0, r(7) * 0.2]
    ln_inputs_3d = [r((2, 3, 7)), r(7) * 0.5 + 1.0, r(7) * 0.2]
    core_inputs = [r((2, 4, d)), r((2, 6, d)), r((2, 6, d))]  # n_q != n_k
    nll_probs = [np.abs(r((2, 3, 9))) + 0.1]
    nll_labels = rng.integers(0, 9, size=6).reshape(2, 3)
    ce_logits = [r((5, 9))]
    ce_target = ops.one_hot_labels(rng.integers(0, 9, size=5), 9)
    take_idx = np.array([0, 2, 2, 4])
    si_anchors = [Tensor(r((3, 9))) for _ in range(2)]  # caption and label rows: constants, as in `train_align`
    # latent 12 (as 3 x 2 x 2), hidden 5, four time features, a six-wide condition
    denoiser_shapes = ((12, 5), (5,), (4, 5), (5,), (6, 5), (5,), (5, 5), (5,), (5, 12), (12,), (4, 12), (12,))
    denoiser_inputs = [r((3, 3, 2, 2)), r((3, 4)), r((3, 6))] + [r(s) * 0.5 for s in denoiser_shapes]

    def probe(build, inputs, out_shape):
        w = Tensor(r(out_shape))
        return (lambda ts: _weighted_sum(build(ts), w)), inputs

    catalog: dict[str, tuple[LossFn, list[np.ndarray]]] = {
        "add": probe(lambda ts: ts[0] + ts[1], [r((4, 5)), r((4, 5))], (4, 5)),
        "add_bias_broadcast": probe(lambda ts: ts[0] + ts[1], [r((4, 5)), r(5)], (4, 5)),
        "mul": probe(lambda ts: mul(ts[0], ts[1]), [r((4, 5)), r((4, 5))], (4, 5)),
        # a leading axis and a size-1 axis, as the LMM predictor broadcasts its queries
        "broadcast_to": probe(lambda ts: broadcast_to(ts[0], (3, 4, 5)), [r((4, 1))], (3, 4, 5)),
        "take": probe(lambda ts: take(ts[0], take_idx, axis=0), [r((5, 3))], (4, 3)),
        "concat": probe(lambda ts: concat([ts[0], ts[1]], axis=1), [r((4, 3)), r((4, 2))], (4, 5)),
        "sum": probe(lambda ts: tsum(ts[0], axis=0), [r((4, 5))], (5,)),
        "mean": probe(lambda ts: tmean(ts[0], axis=0), [r((6, 5))], (5,)),
        "softmax": probe(lambda ts: softmax(ts[0], axis=-1), [r((4, 7))], (4, 7)),
        "layer_norm": probe(lambda ts: ops.layer_norm(ts[0], ts[1], ts[2]), ln_inputs, (4, 7)),
        "layer_norm_3d": probe(lambda ts: ops.layer_norm(*ts), ln_inputs_3d, (2, 3, 7)),
        "attention_core": probe(lambda ts: ops.attention_core(*ts, n_heads=n_heads), core_inputs, (2, 4, d)),
        "codeword_nll": (lambda ts: ops.codeword_nll(ts[0], nll_labels), nll_probs),
        "self_attention": (self_attn_loss, attn_inputs_self),
        "cross_attention": (cross_attn_loss, attn_inputs_cross),
        "lstm_sequence": probe(lambda ts: ops.lstm_sequence(*ts), lstm_inputs, (2, 3, 5)),
        "feed_forward": probe(lambda ts: ops.feed_forward(*ts), ffn_inputs, (2, 3, 4)),
        # every input requires grad here, the target included
        "mse_loss": (lambda ts: ops.mse_loss(ts[0], ts[1]), [r((4, 5)), r((4, 5))]),
        "cross_entropy": (lambda ts: ops.cross_entropy(ts[0], Tensor(ce_target)), ce_logits),
        "si_loss": (lambda ts: ops.si_loss(ts[0], *si_anchors, 0.5), [r((3, 9))]),
        "linear": probe(lambda ts: ops.linear(*ts), [r((4, 6)), r((6, 5)), r(5)], (4, 5)),
        "linear_batched": probe(lambda ts: ops.linear(*ts), [r((3, 4, 6)), r((6, 5)), r(5)], (3, 4, 5)),
    }
    fixed_target = Tensor(r((4, 5)))
    catalog["mse_loss_fixed_target"] = (lambda ts: ops.mse_loss(ts[0], fixed_target), [r((4, 5))])
    catalog["linear_4d"] = probe(lambda ts: ops.linear(*ts), [r((2, 3, 4, 6)), r((6, 5)), r(5)], (2, 3, 4, 5))
    catalog["mlp_cross_entropy"] = (lambda ts: ops.mlp_cross_entropy(*ts, np.array([0, 3, 1, 3, 2])),  # x too
                                    [r((5, 6)), r((6, 3)) * 0.5, r(3) * 0.1, r((3, 4)) * 0.5, r(4) * 0.1])
    denoiser_target = r((3, 3, 2, 2))  # a constant, as `train_denoiser`'s noise is
    # x and t_feat require grad too, and each feeds two products
    catalog["denoiser_mse"] = (lambda ts: ops.denoiser_mse(*ts[:3], denoiser_target, *ts[3:]), denoiser_inputs)
    # `DenoiserNet.predict`'s shapes: one time-feature row and one condition row broadcast over the batch
    catalog["denoiser_mse_shared_rows"] = (catalog["denoiser_mse"][0],
                                           denoiser_inputs[:1] + [r((1, 4)), r((1, 6))] + denoiser_inputs[3:])
    # the blocks' `fold` entries over their parameters too; two cross-attention blocks share one context
    sa, ca = nn.AttentionBlock(4, 2, 4, rng), [nn.AttentionBlock(4, 2, 4, rng) for _ in range(2)]
    sa_inputs = [r((2, 4, 4))] + [r(p.shape) * 0.5 for p in sa.parameters()]
    ca_inputs = [r((1, 2, 4)), r((1, 3, 4))] + [r(p.shape) * 0.5 for b in ca for p in b.parameters()]
    catalog["self_attention_block"] = probe(lambda ts: _bind(sa, ts[1:])(ts[0]), sa_inputs, (2, 4, 4))
    catalog["self_attention_block_rows"] = probe(
        lambda ts: _bind(sa, ts[1:])(ts[0], rows=np.array([0, 2, 3])), sa_inputs, (2, 3, 4))
    catalog["cross_attention_blocks"] = probe(
        lambda ts: _bind(ca[1], ts[18:])(_bind(ca[0], ts[2:18])(ts[0], ts[1]), ts[1]), ca_inputs, (1, 2, 4))
    return catalog


def _bind(module: nn.Module, tensors: Sequence[Tensor]) -> nn.Module:
    """`module` with its parameters, in `named_parameters` order, replaced by `tensors`."""
    for (name, _), t in zip(module.named_parameters(), tensors):
        *path, attr = name.split(".")
        setattr(functools.reduce(getattr, path, module), attr, t)
    return module


def run_catalog_suite(probes: int = 10, seed: int = 2024, tol: float = DEFAULT_TOL) -> dict[str, float]:
    """Check every catalog op against finite differences on `probes` random draws.

    Returns the worst relative error per op; raises nothing, callers decide.
    """
    worst: dict[str, float] = {}
    for p in range(probes):
        rng = np.random.default_rng(seed + p)
        for name, (fn, arrays) in op_catalog(rng).items():
            err = check_gradients(fn, arrays)
            worst[name] = max(worst.get(name, 0.0), err)
    return worst
