"""Composite differentiable operations built from the tensor primitives, plus
fused ones that each record one tape entry of their own: `linear`, `feed_forward` (linear, GELU,
linear), `layer_norm`, `attention_core`, `lstm_sequence` (the whole gated recurrence),
`denoiser_mse` (the whole diffusion denoiser and its loss), `mse_loss`,
`cross_entropy`, `mlp_cross_entropy` (the surrogate's training loss), `codeword_nll` and `si_loss`
(align's dual-cosine loss).  A fused forward runs the numpy ops of the composition it replaces in
order, so it is bit-equal to it.

Everything here works on arbitrary leading batch dimensions; the last one or
two axes carry the operation's structure.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    _gelu_backward,
    _gelu_forward,
    _make,
    _matmul_data,
    _matmul_grads,
    _require_finite,
    _sigmoid,
    _tracks,
    _unbroadcast,
    as_tensor,
)

LAYER_NORM_EPS = 1e-5
LOG_EPS = 1e-12


def _affine(op: str, x: Tensor, weight: Tensor, bias: Tensor) -> np.ndarray:
    """x @ weight + bias for `linear` and `feed_forward`, a (d_out,) bias of its dtype added in place."""
    prod = _matmul_data(op, x, weight)
    in_place = bias.shape == prod.shape[-1:] and bias.dtype == prod.dtype
    try:
        return np.add(prod, bias.data, out=prod if in_place else None)
    except ValueError as exc:
        raise ShapeError(f"{op}: bias {bias.shape} does not broadcast to {prod.shape}") from exc


def linear(x: Tensor, weight: Tensor, bias: Tensor) -> Tensor:
    """x @ weight + bias.  x: (..., n, d_in), weight: (d_in, d_out).

    One tape entry whose backward is the matmul's plus the bias add's.  Only
    the biased output is checked finite: the bias is finite, so a NaN or Inf
    in the product always reaches it.
    """
    x, weight, bias = as_tensor(x), as_tensor(weight), as_tensor(bias)
    return _make(
        "linear", (x, weight, bias), _affine("linear", x, weight, bias),
        lambda g: (*_matmul_grads(g, x, weight), _unbroadcast(g, bias.shape)),
    )


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """linear(gelu(linear(x, w1, b1)), w2, b2) as one tape entry, bit-equal to the three.  It saves x, fc1's
    output s and GELU's tanh t; the backward rebuilds GELU's output h with the forward's own two operations,
    so to the bit.  s is checked finite: GELU of a finite s is finite, and a NaN or Inf past it reaches the output."""
    x, w1, b1, w2, b2 = (as_tensor(a) for a in (x, w1, b1, w2, b2))
    hidden = Tensor.__new__(Tensor)  # h as fc2's operand, holding h only while a product reads it
    hidden.requires_grad = True  # its gradient is formed even where no input before it needs one
    s = _affine("feed_forward", x, w1, b1)
    _require_finite("feed_forward", s)
    hidden.data, t = _gelu_forward(s)
    out = _affine("feed_forward", hidden, w2, b2)
    del hidden.data

    def bw(g):
        hidden.data = np.add(t, 1.0)
        hidden.data *= np.multiply(s, 0.5)
        g_h, g_w2 = _matmul_grads(g, hidden, w2)
        del hidden.data
        g_s = _gelu_backward(g_h, s, t)
        return *_matmul_grads(g_s, x, w1), _unbroadcast(g_s, b1.shape), g_w2, _unbroadcast(g, b2.shape)

    return _make("feed_forward", (x, w1, b1, w2, b2), out, bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift.

    One tape entry saving x_hat, built in the centered copy of x, and the (..., 1)
    inverse std; the output is built in the squared deviations' array when gain
    and bias share x's dtype.  The variance is checked finite: were it Inf, the
    inverse std would be 0, the output `bias`.
    """
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError(
            f"layer_norm: gain/bias {gain.shape}/{bias.shape} must match last axis of {x.shape}"
        )
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    scratch = centered * centered
    var = scratch.mean(axis=-1, keepdims=True)
    _require_finite("layer_norm", var)
    inv = (var + LAYER_NORM_EPS) ** -0.5
    x_hat = np.multiply(centered, inv, out=centered)
    buf = scratch if gain.dtype == bias.dtype == x_hat.dtype else None
    out = np.add(np.multiply(x_hat, gain.data, out=buf), bias.data, out=buf)

    def bw(g):
        g_hat = g * gain.data
        g_x = g_hat - g_hat.mean(axis=-1, keepdims=True)
        g_x -= x_hat * (g_hat * x_hat).mean(axis=-1, keepdims=True)
        g_x *= inv
        return g_x, _unbroadcast(g * x_hat, gain.shape), _unbroadcast(g, bias.shape)

    return _make("layer_norm", (x, gain, bias), out, bw)


def attention_core(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """softmax(q_h k_h^T / sqrt(d_head)) v_h per head, heads merged back: (..., n_q, d).

    q: (..., n_q, d); k, v: (..., n_k, d), already projected.  One tape entry
    that saves the split heads and the probabilities; the scores are checked
    finite before the softmax, which would turn a -Inf score into a finite 0.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (min(q.ndim, k.ndim) < 2 or k.shape != v.shape
            or q.shape[:-2] + q.shape[-1:] != k.shape[:-2] + k.shape[-1:]):
        raise ShapeError(f"attention: query {q.shape}, key {k.shape} and value {v.shape} do not match")
    *lead, n_q, d = q.shape
    if d % n_heads != 0:
        raise ShapeError(f"attention: model dim {d} not divisible by {n_heads} heads")

    def split(a):  # (..., n, d) -> (..., heads, n, d_head)
        return np.swapaxes(a.reshape(a.shape[:-1] + (n_heads, d // n_heads)), -3, -2).copy()

    def merge(a):  # (..., heads, n, d_head) -> (..., n, d)
        return np.swapaxes(a, -3, -2).reshape(a.shape[:-3] + (a.shape[-2], d))

    q_h, v_h = split(q.data), split(v.data)
    # the keys split once, straight into the (..., heads, d_head, n_k) layout the scores read
    k_t = np.moveaxis(k.data.reshape(k.shape[:-1] + (n_heads, d // n_heads)), -3, -1).copy()
    scale = 1.0 / math.sqrt(d // n_heads)
    probs = np.matmul(q_h, k_t)
    probs *= scale
    _require_finite("attention", probs)
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)

    def bw(g):
        g_o = split(g)
        g_s = np.matmul(g_o, np.swapaxes(v_h, -1, -2))
        g_s -= (g_s * probs).sum(axis=-1, keepdims=True)
        g_s *= probs
        g_s *= scale
        g_v = np.matmul(np.swapaxes(probs, -1, -2), g_o)
        g_k = np.matmul(np.swapaxes(g_s, -1, -2), q_h)
        return merge(np.matmul(g_s, np.swapaxes(k_t, -1, -2))), merge(g_k), merge(g_v)

    return _make("attention", (q, k, v), merge(np.matmul(probs, v_h)), bw)


def multi_head_attention(
    query: Tensor,
    context: Tensor,
    w_q: Tensor,
    b_q: Tensor,
    w_k: Tensor,
    b_k: Tensor,
    w_v: Tensor,
    b_v: Tensor,
    w_o: Tensor,
    b_o: Tensor,
    n_heads: int,
) -> Tensor:
    """Scaled dot-product attention, self- or cross- depending on `context`.

    query: (..., n_q, d); context: (..., n_k, d).  Scale is 1/sqrt(d_head).
    Sequences are fixed-length throughout the pipeline, so no padding mask.
    """
    q = linear(query, w_q, b_q)
    k = linear(context, w_k, b_k)
    v = linear(context, w_v, b_v)
    return linear(attention_core(q, k, v, n_heads), w_o, b_o)


def lstm_sequence(seq: Tensor, w_x: Tensor, w_h: Tensor, bias: Tensor) -> Tensor:
    """Final hidden state of a gated recurrence run along axis -2, as one tape entry.

    seq: (..., T, d_in); w_x: (d_in, 4*d_h); w_h: (d_h, 4*d_h); bias: (4*d_h,).
    Gate blocks are ordered input, forget, cell, output; h and c start at
    zero.  Returns h_T, shape (..., d_h).

    Every step's input projection is one GEMM hoisted out of the loop
    (Appleyard et al., arXiv:1604.01946) into a time-major (T, B, 4*d_h)
    buffer.  Step t adds h_{t-1} @ w_h into its own row and activates all
    4*d_h gates with one tanh, overwriting the row with the gates.  The
    backward is closed-form BPTT over the saved gates, cells and tanh(cells);
    it writes the gate gradients over the saved gates, so one forward supports
    exactly one backward, as each VJP runs once.
    Every step's pre-activation (at t = 0, the projection row itself) is
    checked finite; past it every value is bounded (gates in [-1, 1],
    |c_t| <= t + 1).
    """
    seq, w_x, w_h, bias = (as_tensor(t) for t in (seq, w_x, w_h, bias))
    if seq.ndim < 2:
        raise ShapeError(f"lstm_sequence: input must be (..., T, d_in), got {seq.shape}")
    *lead, n_steps, d_in = seq.shape
    d_h = w_h.shape[0]
    if w_x.shape != (d_in, 4 * d_h) or w_h.shape != (d_h, 4 * d_h) or bias.shape != (4 * d_h,):
        raise ShapeError(
            f"lstm_sequence: gate weights {w_x.shape}/{w_h.shape}/{bias.shape} inconsistent "
            f"with input size {d_in} and hidden size {d_h}"
        )
    batch = math.prod(lead)
    x = np.swapaxes(seq.data.reshape(batch, n_steps, d_in), 0, 1).reshape(n_steps * batch, d_in)
    gates = np.matmul(x, w_x.data).reshape(n_steps, batch, 4 * d_h)
    gates += bias.data
    scale = np.full(4 * d_h, 0.5, dtype=gates.dtype)  # sigmoid blocks; tanh for the cell block
    scale[2 * d_h : 3 * d_h] = 1.0
    blocks = gates.reshape(n_steps, batch, 4, d_h)
    # cells and tanh(cells) are kept for every step only when a backward can
    # read them; otherwise one row is reused (row t % kept)
    kept = n_steps if _tracks((seq, w_x, w_h, bias)) else 1
    cells = np.empty((kept, batch, d_h), dtype=gates.dtype)
    tanh_c = np.empty_like(cells)
    h = c = np.zeros((batch, d_h), dtype=gates.dtype)
    for t in range(n_steps):
        z = gates[t]
        if t:
            z += h @ w_h.data
        _require_finite("lstm_sequence", z)
        _sigmoid(z, scale, out=z)
        i, f, g, o = (blocks[t, :, k] for k in range(4))
        c = np.multiply(f, c, out=cells[t % kept])
        c += i * g
        h = o * np.tanh(c, out=tanh_c[t % kept])

    def bw(g_out):
        # the pre-activations' gradients are written over the gates: h_prev, which reads every
        # output gate, is formed first, and step t reads its gates from a copy of row t
        h_prev = (blocks[:-1, :, 3] * tanh_c[:-1]).reshape(-1, d_h)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        dh = g_out.reshape(batch, d_h)
        dc = np.zeros_like(dh)
        for t in range(n_steps - 1, -1, -1):
            z = gates[t].copy()
            i, f, g, o = (z.reshape(batch, 4, d_h)[:, k] for k in range(4))
            d_i, d_f, d_g, d_o = (blocks[t, :, k] for k in range(4))
            dc = dc + dh * o * (1 - tanh_c[t] * tanh_c[t])
            # d(gate)/d(pre-activation) times the gate's factor in c_t or h_t,
            # scaled by dc or dh; the sigmoid form is overwritten for the cell block
            np.multiply(z, 1 - z, out=gates[t])
            np.multiply(i, 1 - g * g, out=d_g)
            d_i *= g
            d_f *= cells[t - 1] if t else 0.0
            blocks[t, :, :3] *= dc[:, None]
            d_o *= tanh_c[t] * dh
            if t:
                dc = dc * f
                dh = gates[t] @ w_h_t
        flat = gates.reshape(n_steps * batch, 4 * d_h)
        g_w_x = x.T @ flat
        g_w_h = h_prev.T @ flat[batch:]
        g_bias = flat.sum(axis=0)
        g_seq = None
        if seq.requires_grad:
            g_x = (flat @ w_x.data.T).reshape(n_steps, batch, d_in)
            g_seq = np.swapaxes(g_x, 0, 1).reshape(seq.shape)
        return g_seq, g_w_x, g_w_h, g_bias

    return _make("lstm_sequence", (seq, w_x, w_h, bias), h.reshape(tuple(lead) + (d_h,)), bw)


def _denoiser_forward(op: str, tensors: tuple) -> tuple:
    """The inputs as tensors, the (B, L) noise estimate and its backward, for `denoiser_mse` and
    `DenoiserNet.predict`; `op` names the caller in errors.

    x: (B, *latent), flattened to (B, L); t_feat: (B or 1, d_t); cond: (B or
    1, e).  The forward runs the op-by-op composition in its order:
        h = gelu(((x @ w_in + b_in) + (t @ w_t + b_t)) + (cond @ w_c + b_c))
        h = gelu(h @ w_m + b_m)
        eps = (h @ w_o + b_o) + (t @ w_s + b_s) * x
    The backward forms only the gradients its inputs need.
    """
    # from a list, not a generator: CPython would keep each resized tuple on its free list
    inputs = x, t_feat, cond, w_in, b_in, w_t, b_t, w_c, b_c, w_m, b_m, w_o, b_o, w_s, b_s = tuple(
        [as_tensor(a) for a in tensors])
    flat = x.data.reshape(x.shape[0], math.prod(x.shape[1:]))
    (batch, lat), d_t, hid = flat.shape, t_feat.shape[-1], w_m.shape[0]
    weights = [(lat, hid), (d_t, hid), (cond.shape[-1], hid), (hid, hid), (hid, lat), (d_t, lat)]
    if ([p.shape for p in inputs[3:]] != [s for w in weights for s in (w, w[1:])]
            or {t_feat.shape[:-1], cond.shape[:-1]} - {(1,), (batch,)}):
        raise ShapeError(f"{op}: weights {[p.shape for p in inputs[3:]]} do not fit latent {x.shape}, "
                         f"time features {t_feat.shape} and condition {cond.shape}")
    t, c = t_feat.data, cond.data
    s = flat @ w_in.data + b_in.data + (t @ w_t.data + b_t.data) + (c @ w_c.data + b_c.data)
    h1, tanh1 = _gelu_forward(s)
    m = h1 @ w_m.data + b_m.data
    h2, tanh2 = _gelu_forward(m)
    skip = t @ w_s.data + b_s.data

    def lin(a, g, w, b):  # the weight's and the bias's gradient of a @ w + b, where needed
        return a.T @ g if w.requires_grad else None, g.sum(axis=0) if b.requires_grad else None

    def bw(g):
        g = g.reshape(flat.shape)
        g_skip = _unbroadcast(g * flat, skip.shape)
        g_m = _gelu_backward(g @ w_o.data.T, m, tanh2)
        g_s = _gelu_backward(g_m @ w_m.data.T, s, tanh1)
        g_time, g_cond = _unbroadcast(g_s, (len(t), hid)), _unbroadcast(g_s, (len(c), hid))
        g_x = (g * skip + g_s @ w_in.data.T).reshape(x.shape) if x.requires_grad else None
        g_t = g_skip @ w_s.data.T + g_time @ w_t.data.T if t_feat.requires_grad else None
        return (g_x, g_t, g_cond @ w_c.data.T if cond.requires_grad else None,
                *lin(flat, g_s, w_in, b_in), *lin(t, g_time, w_t, b_t), *lin(c, g_cond, w_c, b_c),
                *lin(h1, g_m, w_m, b_m), *lin(h2, g, w_o, b_o), *lin(t, g_skip, w_s, b_s))

    return inputs, h2 @ w_o.data + b_o.data + skip * flat, bw


def denoiser_mse(x: Tensor, t_feat: Tensor, cond: Tensor, target: np.ndarray, *weights: Tensor) -> Tensor:
    """mse_loss of `_denoiser_forward`'s estimate against `target` as one tape entry, bit-equal to the
    op-by-op composition's; `weights` are w_in, b_in, w_t, b_t, w_c, b_c, w_m, b_m, w_o, b_o, w_s, b_s and
    `target` is a constant shaped like x.  Only the loss is checked finite: a NaN or Inf in the estimate
    or target reaches it."""
    inputs, out, bw = _denoiser_forward("denoiser_mse", (x, t_feat, cond, *weights))
    target = np.asarray(target, dtype=out.dtype)
    if target.shape != inputs[0].shape:
        raise ShapeError(f"denoiser_mse: target {target.shape} differs from latent {inputs[0].shape}")
    diff = out.reshape(target.shape) - target
    return _make("denoiser_mse", inputs, np.asarray((diff * diff).mean()), lambda g: bw(_mse_grad(g, diff)))


def _mse_grad(g: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """d(mean(diff^2))/d(diff) as the two product paths it sums: gd + gd."""
    gd = (g / diff.size) * diff
    return gd + gd


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error over all elements, as one tape entry."""
    pred = as_tensor(pred)
    target = as_tensor(target, pred)
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target.data

    def bw(g):
        g_pred = _mse_grad(g, diff)
        return g_pred, -g_pred if target.requires_grad else None

    # a NaN or Inf in diff or diff^2 (all >= 0) carries into the checked mean
    return _make("mse_loss", (pred, target), np.asarray((diff * diff).mean()), bw)


def one_hot_labels(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(R,) class indices in [0, n_classes) -> (R, n_classes) float32 one-hot rows, the targets of `cross_entropy`."""
    if labels.size and not 0 <= labels.min() <= labels.max() < n_classes:
        raise ValueError(f"one_hot_labels: labels span [{labels.min()}, {labels.max()}], outside [0, {n_classes})")
    out = np.zeros((len(labels), n_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """log_softmax over the last axis; its row max, over a transposed copy, is faster on narrow rows."""
    shifted = logits - np.ascontiguousarray(logits.T).max(axis=0).T[..., None]
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy(logits: Tensor, one_hot: Tensor | np.ndarray) -> Tensor:
    """-mean over rows of sum(one_hot * log_softmax(logits)), as one tape entry.

    `one_hot` is a constant target and gets no gradient.  A NaN or Inf logit
    carries into the checked loss.
    """
    logits = as_tensor(logits)
    one_hot = as_tensor(one_hot, logits).data
    if logits.shape != one_hot.shape:
        raise ShapeError(f"cross_entropy: shapes {logits.shape} and {one_hot.shape} differ")
    ls = _log_softmax(logits.data)
    per_row = (one_hot * ls).sum(axis=-1)

    def bw(g):
        g_ls = one_hot * ((g * -1.0) / per_row.size)
        return (g_ls - np.exp(ls) * g_ls.sum(axis=-1, keepdims=True),)

    return _make("cross_entropy", (logits,), np.asarray(per_row.mean() * -1.0), bw)


def mlp_cross_entropy(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor, labels: np.ndarray) -> Tensor:
    """cross_entropy(gelu(x @ w1 + b1) @ w2 + b2, one_hot_labels(labels, k)) as one bit-equal tape entry; x is
    (n, d), labels (n,) in [0, k).  All log-probabilities are checked finite: a -Inf one off the label misses the loss."""
    inputs = x, w1, b1, w2, b2 = tuple([as_tensor(a) for a in (x, w1, b1, w2, b2)])
    labels, (hid, k) = np.asarray(labels), w2.shape if w2.ndim == 2 else (0, 0)
    shapes = [p.shape for p in inputs[1:]] + [labels.shape]
    if x.ndim != 2 or shapes != [(x.shape[1], hid), (hid,), (hid, k), (k,), x.shape[:1]]:
        raise ShapeError(f"mlp_cross_entropy: weights and labels {shapes} do not fit input {x.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < k:
        raise ValueError(f"mlp_cross_entropy: labels span [{labels.min()}, {labels.max()}], outside [0, {k})")
    s = x.data @ w1.data
    s += b1.data
    h, t = _gelu_forward(s)
    logits = h @ w2.data
    logits += b2.data
    ls = _log_softmax(logits)
    _require_finite("mlp_cross_entropy", ls.min())
    rows = np.arange(len(labels))
    per_row = ls[rows, labels]  # the one term of (one_hot * ls).sum(-1) that is not 0 * ls, a signed zero

    def bw(g):
        c = (g * -1.0) / per_row.size  # a one-hot row's sum of one_hot * c
        g_l = np.exp(ls) * c
        np.subtract(0.0 * c, g_l, out=g_l)  # one_hot * c - exp(ls) * c off the label, 0 * c keeping its sign
        g_l[rows, labels] += c  # on it, c + (0 * c - y) is c - y to the bit
        g_s = _gelu_backward(g_l @ w2.data.T, s, t)
        g_x = g_s @ w1.data.T if x.requires_grad else None
        return g_x, x.data.T @ g_s, g_s.sum(axis=0), h.T @ g_l, g_l.sum(axis=0)

    return _make("mlp_cross_entropy", inputs, np.asarray(per_row.mean() * -1.0), bw)


def codeword_nll(probs: Tensor, labels: np.ndarray) -> Tensor:
    """-mean over rows of sum(one_hot(labels) * log(probs + LOG_EPS)), as one tape entry.

    `labels` are the constant codeword indices, one per row of `probs`.  For p >= 0, loss
    and gradient are bit-equal to the one-hot form: a row's sum is its one term that is
    not 0 * log, a signed zero, and off the label the gradient is (0 / p) * c = 0 * c.
    """
    probs = as_tensor(probs)
    labels = np.asarray(labels)
    if probs.shape[:-1] != labels.shape:
        raise ShapeError(f"codeword_nll: probabilities {probs.shape} do not fit labels {labels.shape}")
    if labels.size and not 0 <= labels.min() <= labels.max() < probs.shape[-1]:
        raise ValueError(f"codeword_nll: labels span [{labels.min()}, {labels.max()}], outside [0, {probs.shape[-1]})")
    at = (*np.indices(labels.shape, sparse=True), labels)
    p_at = probs.data[at] + LOG_EPS
    with np.errstate(divide="ignore", invalid="ignore"):
        per_row = np.log(p_at)
    shape, dtype = probs.shape, probs.dtype

    def bw(g):
        c = -g / per_row.size
        g_p = np.zeros(shape, dtype)
        g_p *= c
        g_p[at] = 1.0 / p_at * c
        return (g_p,)

    return _make("codeword_nll", (probs,), np.asarray(-per_row.mean()), bw)


def si_loss(out: Tensor, cap: Tensor, label: Tensor, label_weight: float = 1.0) -> Tensor:
    """Mean over rows of (1 + w) - cos(cap, out) - w * cos(label, out), w = `label_weight`, as one tape entry.

    Align's interpolation loss, 0 only where a row is positively colinear with both anchors; `cap` and
    `label` are constants shaped like `out`.  The backward replays the cosine chain's VJPs in reverse,
    so loss and gradient are bit-equal to it.  A zero-norm row raises; each norm product is checked
    finite, since an overflowed one would make its inverse 0 and the cosine finite.
    """
    out, cap, label = as_tensor(out), as_tensor(cap), as_tensor(label)
    if not out.shape == cap.shape == label.shape:
        raise ShapeError(f"si_loss: output {out.shape}, caption {cap.shape} and label {label.shape} shapes differ")
    b = out.data
    squares = [np.asarray((x * x).sum(axis=-1)) for x in (b, cap.data, label.data)]
    for name, sq in zip(("output", "caption", "label"), squares):
        if np.any(sq == 0.0):
            raise ValueError(f"si_loss: zero-norm {name} row")
    nb = np.sqrt(squares[0])

    def cosine(a, sq_a):  # cos(a, out) as dot * (|a| |out|) ** -1, and what its backward reads
        dot, na = np.asarray((a * b).sum(axis=-1)), np.sqrt(sq_a)
        nn = na * nb
        _require_finite("si_loss", nn)
        inv = nn ** -1.0
        return dot * inv, (a, dot, na, nn, inv)

    cos_c, cap_saved = cosine(cap.data, squares[1])
    cos_l, label_saved = cosine(label.data, squares[2])
    w = np.asarray(label_weight, dtype=cos_l.dtype)
    rows = (np.asarray(1.0 + label_weight, dtype=cos_c.dtype) - cos_c) - cos_l * w

    def terms(g, a, dot, na, nn, inv):  # a cosine's gradient terms for out, in tape order: b*b twice, a*b
        bb = np.expand_dims(g * dot * -1.0 * nn ** -2.0 * na * 0.5 / nb, -1) * b
        return bb, bb, np.expand_dims(g * inv, -1) * a

    def bw(g):
        g_rows = np.broadcast_to(g, np.shape(rows)) / np.size(rows)
        t = terms(-g_rows * w, *label_saved) + terms(-g_rows, *cap_saved)
        return (sum(t[1:], t[0]),)

    return _make("si_loss", (out,), np.asarray(rows.mean()), bw)
