"""Reference implementations that only the tests use.

Each is a pure oracle against which library code is checked: exact noise
inversion for the reverse chain, the inverse of `segment_units`, the
one-hot codeword map the LMM loss targets are built from, the one-image
SSIM the batched `ssim` must match bit for bit, the one-image target
builder `make_image_set` must match byte for byte, the per-entry BVC
writer whose bytes `write_fixtures` must reproduce, the
per-item matmul gradients the folded ones must match in rounding, the
op-by-op tape compositions whose forwards the fused `layer_norm`,
`attention_core` and `codeword_nll` and the untaped denoiser estimate must match bit for bit (and whose
forward and gradients the fused `cross_entropy`, `denoiser_mse` and `si_loss` must),
the one-hot `codeword_nll` whose loss and gradient bytes the index form must match,
the transformer blocks and their feed-forward as flat tapes, one entry per op, whose output
and gradients the blocks' single `fold` entries and `ops.feed_forward` must match bit for bit,
and the two-buffer LSTM backward whose gradient bytes `lstm_sequence`'s must match.  The tape ops
that only these compositions, the step-by-step LSTM reference and the tests use (`narrow`,
`swapaxes`, `log`, `log_softmax`, `tanh`, `sigmoid`, `sub`, `power`, `sqrt`, `matmul`,
`reshape`, `cosine_similarity`) live here too, with their gradient probes in `oracle_op_probes`,
which also probes `gelu`, a tape op no pipeline forward records.
`as_float64` lifts a float32 network to float64 for gradient checks.
"""

from __future__ import annotations

import math
import struct
import zlib
from io import BytesIO

import numpy as np

from brainvis_forge.autodiff.nn import Module
from brainvis_forge.autodiff.ops import LAYER_NORM_EPS, LOG_EPS, linear, one_hot_labels
from brainvis_forge.autodiff.tensor import (
    ShapeError,
    Tensor,
    _broadcast_data,
    _make,
    _matmul_data,
    _matmul_grads,
    _sigmoid,
    _unbroadcast,
    add,
    as_tensor,
    gelu,
    mul,
    softmax,
    take,
    tmean,
    tsum,
)
from brainvis_forge.diffusion import NoiseSchedule
from brainvis_forge.lmm import Codebook


class OracleDenoiser:
    """Knows the clean latent; returns the exact noise consistent with x_t.

    eps = (x_t - sqrt(alpha_bar_t) * x0) / sqrt(1 - alpha_bar_t).  Ignores the
    condition, which makes it a pure algebra probe for the reverse chain.
    """

    def __init__(self, x0: np.ndarray, schedule: NoiseSchedule):
        self.x0 = np.asarray(x0, dtype=np.float64)
        self.schedule = schedule

    def predict(self, x_t: np.ndarray, t: int, cond: np.ndarray | None = None) -> np.ndarray:
        ab = self.schedule.alpha_bars[t]
        return (np.asarray(x_t, dtype=np.float64) - np.sqrt(ab) * self.x0) / np.sqrt(1.0 - ab)


def reassemble_units(units: np.ndarray) -> np.ndarray:
    """Inverse of segment_units: (..., n, c, w) back to (..., c, n*w)."""
    *lead, n, c, w = units.shape
    return units.swapaxes(-3, -2).reshape(*lead, c, n * w)


def tokenize(codebook: Codebook, flat_units: np.ndarray) -> np.ndarray:
    """One-hot codewords for raw masked units: (m, unit_dim) -> (m, n_t)."""
    return one_hot_labels(codebook.assign(flat_units), codebook.n_entries)


def ssim(
    img_a: np.ndarray,
    img_b: np.ndarray,
    dynamic_range: float = 2.0,
    window: int = 8,
    stride: int = 4,
) -> float:
    """Windowed structural similarity, plain box windows, mean over windows and channels.

    Inputs are (C, H, W) with values spanning `dynamic_range` (2 for [-1, 1]).
    C1 = (0.01 L)^2, C2 = (0.03 L)^2; window variance is the population form.
    """
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"ssim: shapes differ, {a.shape} vs {b.shape}")
    if a.ndim == 2:
        a, b = a[None], b[None]
    channels, height, width = a.shape
    if height < window or width < window:
        raise ValueError(f"ssim: image {height}x{width} smaller than window {window}")
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2

    values = []
    for ch in range(channels):
        for y in range(0, height - window + 1, stride):
            for x in range(0, width - window + 1, stride):
                wa = a[ch, y : y + window, x : x + window]
                wb = b[ch, y : y + window, x : x + window]
                mu_a, mu_b = wa.mean(), wb.mean()
                var_a, var_b = wa.var(), wb.var()
                cov = ((wa - mu_a) * (wb - mu_b)).mean()
                values.append(
                    ((2 * mu_a * mu_b + c1) * (2 * cov + c2))
                    / ((mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2))
                )
    return float(np.mean(values))


def _blocky(rng: np.random.Generator, channels: int, size: int, grid: int = 4) -> np.ndarray:
    coarse = rng.uniform(-1.0, 1.0, size=(channels, grid, grid))
    reps = int(np.ceil(size / grid))
    up = np.kron(coarse, np.ones((reps, reps)))[:, :size, :size]
    return up


def make_image(class_label: int, image_id: int, size: int = 16, channels: int = 3, seed: int = 0) -> np.ndarray:
    """One target image, its class base pattern drawn afresh for every image."""
    base_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, class_label]))
    jitter_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x1A6E, class_label, image_id]))
    img = 0.8 * _blocky(base_rng, channels, size) + 0.15 * _blocky(jitter_rng, channels, size, grid=8)
    return np.clip(img, -1.0, 1.0).astype(np.float32)


def write_fixtures_per_entry(path, entries: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]], e: int) -> None:
    """The fixtures' BVC archive (version 3) written field by field, one
    entry at a time: (class_label, image_id) -> (label vector, caption
    vector), image ids 0, 1, ... in dict order.  The stage tag "data" comes
    first as u16 length and bytes; the columns follow in name order, c_cap,
    c_label, labels, each as u16 name length, name, u8 dtype code (0
    float32, 1 int64), u8 rank, u32 dims, then its rows."""
    if [image_id for _, image_id in entries] != list(range(len(entries))):
        raise ValueError("write_fixtures_per_entry: image ids must run 0, 1, ... in order")
    n = len(entries)
    columns = {
        b"c_cap": (0, (n, e), [struct.pack(f"<{e}f", *cap) for _, cap in entries.values()]),
        b"c_label": (0, (n, e), [struct.pack(f"<{e}f", *label) for label, _ in entries.values()]),
        b"labels": (1, (n,), [struct.pack("<q", class_label) for class_label, _ in entries]),
    }
    body = BytesIO()
    body.write(struct.pack("<H", 4) + b"data")
    for name, (code, dims, packed) in columns.items():
        body.write(struct.pack("<H", len(name)) + name + struct.pack(f"<BB{len(dims)}I", code, len(dims), *dims))
        body.write(b"".join(packed))
    payload = body.getvalue()
    with open(path, "wb") as fh:
        fh.write(b"BVC1" + struct.pack("<2I", 3, len(columns)) + payload)
        fh.write(struct.pack("<I", zlib.crc32(payload)))


def matmul_grads_per_item(g: np.ndarray, a, b) -> tuple:
    """Gradients of a @ b as `_matmul_grads` took them before batched a @ 2-D b
    was folded: per-item products, the weight gradient a (B, d_in, d_out) stack
    that `_unbroadcast` sums over B."""
    ga = _unbroadcast(np.matmul(g, np.swapaxes(b.data, -1, -2)), a.shape) if a.requires_grad else None
    gb = _unbroadcast(np.matmul(np.swapaxes(a.data, -1, -2), g), b.shape) if b.requires_grad else None
    return ga, gb


def as_float64(module: Module) -> Module:
    """`module` with every parameter recast to float64 in place; networks are
    built in float32, and central differences need the wider type."""
    for t in module.parameters():
        t.data = t.data.astype(np.float64)
    return module


def sub(a, b) -> Tensor:
    a = as_tensor(a, b if isinstance(b, Tensor) else None)
    b = as_tensor(b, a)
    out = _broadcast_data("sub", a, b, np.subtract)
    return _make(
        "sub", (a, b), out,
        lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)),
    )


def power(a: Tensor, p: float) -> Tensor:
    """Elementwise a**p for a constant scalar exponent."""
    a = as_tensor(a)
    if not isinstance(p, (int, float)):
        raise TypeError("power: exponent must be a python scalar")
    out = a.data ** p
    return _make("power", (a,), out, lambda g: (g * p * a.data ** (p - 1),))


def sqrt(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.sqrt(a.data)
    return _make("sqrt", (a,), out, lambda g: (g * 0.5 / out,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a @ b through the folded products and gradients that `ops.linear` runs."""
    a, b = as_tensor(a), as_tensor(b)
    out = _matmul_data("matmul", a, b)
    return _make("matmul", (a, b), out, lambda g: _matmul_grads(g, a, b))


def reshape(a: Tensor, shape) -> Tensor:
    a = as_tensor(a)
    out = a.data.reshape(shape)
    return _make("reshape", (a,), out, lambda g: (g.reshape(a.shape),))


def swapaxes(a: Tensor, ax1: int, ax2: int) -> Tensor:
    a = as_tensor(a)
    out = np.swapaxes(a.data, ax1, ax2).copy()
    return _make("swapaxes", (a,), out, lambda g: (np.swapaxes(g, ax1, ax2),))


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


def log(a: Tensor) -> Tensor:
    a = as_tensor(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(a.data)
    return _make("log", (a,), out, lambda g: (g / a.data,))


def log_softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    ls = shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))

    def bw(g):
        return (g - np.exp(ls) * g.sum(axis=axis, keepdims=True),)

    return _make("log_softmax", (a,), ls, bw)


def tanh(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = np.tanh(a.data)
    return _make("tanh", (a,), out, lambda g: (g * (1.0 - out * out),))


def sigmoid(a: Tensor) -> Tensor:
    a = as_tensor(a)
    out = _sigmoid(a.data)
    return _make("sigmoid", (a,), out, lambda g: (g * out * (1.0 - out),))


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Cosine of the angle between two vectors (last-axis contraction).

    Zero-norm operands raise rather than being silently clamped.
    """
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ShapeError(f"cosine_similarity: shapes {a.shape} and {b.shape} differ")
    flat_a = a.data.reshape(-1, a.shape[-1])
    flat_b = b.data.reshape(-1, b.shape[-1])
    if np.any(np.linalg.norm(flat_a, axis=-1) == 0.0) or np.any(np.linalg.norm(flat_b, axis=-1) == 0.0):
        raise ValueError("cosine_similarity: zero-norm vector")
    dot = tsum(mul(a, b), axis=-1)
    norm_a = sqrt(tsum(mul(a, a), axis=-1))
    norm_b = sqrt(tsum(mul(b, b), axis=-1))
    return mul(dot, power(mul(norm_a, norm_b), -1.0))


def oracle_op_probes(rng: np.random.Generator) -> dict:
    """One gradient probe per tape op above, built as `gradcheck.op_catalog`
    builds its own: name -> (loss over the input tensors, float64 inputs)."""
    r = rng.standard_normal

    def probe(build, inputs, out_shape):
        w = Tensor(r(out_shape))
        return (lambda ts: tsum(mul(build(ts), w))), inputs

    return {
        "swapaxes": probe(lambda ts: swapaxes(ts[0], 0, 1), [r((4, 5))], (5, 4)),
        "narrow": probe(lambda ts: narrow(ts[0], 1, 1, 3), [r((4, 6))], (4, 3)),
        "log": probe(lambda ts: log(ts[0]), [np.abs(r((4, 5))) + 0.5], (4, 5)),
        "log_softmax": probe(lambda ts: log_softmax(ts[0], axis=-1), [r((4, 7))], (4, 7)),
        "tanh": probe(lambda ts: tanh(ts[0]), [r((4, 5))], (4, 5)),
        "sigmoid": probe(lambda ts: sigmoid(ts[0]), [r((4, 5))], (4, 5)),
        "sub": probe(lambda ts: sub(ts[0], ts[1]), [r((4, 5)), r((4, 5))], (4, 5)),
        "power": probe(lambda ts: power(ts[0], 3.0), [r((4, 5))], (4, 5)),
        "sqrt": probe(lambda ts: sqrt(ts[0]), [np.abs(r((4, 5))) + 0.5], (4, 5)),
        "matmul": probe(lambda ts: matmul(ts[0], ts[1]), [r((4, 6)), r((6, 5))], (4, 5)),
        "matmul_batched": probe(lambda ts: matmul(ts[0], ts[1]), [r((3, 4, 6)), r((6, 5))], (3, 4, 5)),
        "matmul_4d": probe(lambda ts: matmul(ts[0], ts[1]), [r((2, 3, 4, 6)), r((6, 5))], (2, 3, 4, 5)),
        "reshape": probe(lambda ts: reshape(ts[0], (2, 10)), [r((4, 5))], (2, 10)),
        "cosine_similarity": (lambda ts: cosine_similarity(ts[0], ts[1]), [r(9) + 0.1, r(9) + 0.1]),
        "gelu": probe(lambda ts: gelu(ts[0]), [r((4, 5))], (4, 5)),
    }


def layer_norm_composed(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm as nine tape ops: mean, centre, variance, inverse std, scale, shift."""
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, LAYER_NORM_EPS), -0.5)
    return add(mul(mul(centered, inv), gain), bias)


def attention_core_composed(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Split heads, scaled scores, softmax, mix and merge heads, one tape op at a time."""

    def split(x):
        *lead, n, d = x.shape
        return swapaxes(reshape(x, tuple(lead) + (n, n_heads, d // n_heads)), -3, -2)

    q_h, k_h, v_h = split(q), split(k), split(v)
    scores = mul(matmul(q_h, swapaxes(k_h, -1, -2)), 1.0 / math.sqrt(q_h.shape[-1]))
    mixed = swapaxes(matmul(softmax(scores, axis=-1), v_h), -3, -2)
    return reshape(mixed, mixed.shape[:-2] + (q.shape[-1],))


def codeword_nll_composed(probs: Tensor, targets: Tensor) -> Tensor:
    """-mean(sum(targets * log(probs + LOG_EPS), axis=-1)) as six tape ops."""
    return mul(tmean(tsum(mul(targets, log(probs + LOG_EPS)), axis=-1)), -1.0)


def codeword_nll_dense(probs: Tensor, targets: np.ndarray) -> Tensor:
    """`ops.codeword_nll` over one-hot `targets` rows, as one tape entry: the form it took
    before it read codeword indices."""
    probs = as_tensor(probs)
    targets = np.asarray(targets, dtype=probs.dtype)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_row = (targets * np.log(probs.data + LOG_EPS)).sum(axis=-1)

    def bw(g):
        return (targets / (probs.data + LOG_EPS) * (-g / per_row.size),)

    return _make("codeword_nll", (probs,), np.asarray(-per_row.mean()), bw)


def self_attention_block_flat(block, x: Tensor, rows=None) -> Tensor:
    """`AttentionBlock` without a context, taped one entry per op, as before its ops folded into one entry."""
    h = q = block.ln1(x)
    if rows is not None:
        x, q = take(x, rows, axis=-2), take(h, rows, axis=-2)
    x = add(x, block.attn(q, h))
    return add(x, feed_forward_flat(block.ln2(x), *block.ffn.parameters()))


def cross_attention_block_flat(block, query: Tensor, context: Tensor) -> Tensor:
    """`AttentionBlock` over a context, taped one entry per op."""
    query = add(query, block.attn(block.ln1(query), context))
    return add(query, feed_forward_flat(block.ln2(query), *block.ffn.parameters()))


def feed_forward_flat(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """`ops.feed_forward` as the three tape entries it fuses: `linear`, `gelu`, `linear`."""
    return linear(gelu(linear(x, w1, b1)), w2, b2)


def lstm_sequence_two_buffers(seq: Tensor, w_x: Tensor, w_h: Tensor, bias: Tensor) -> Tensor:
    """`ops.lstm_sequence` as it was taped before its backward wrote the gate gradients over its saved
    gates: the same forward, and a backward that forms them in a second (T, B, 4*d_h) buffer."""
    *lead, n_steps, d_in = seq.shape
    d_h, batch = w_h.shape[0], math.prod(lead)
    x = np.swapaxes(seq.data.reshape(batch, n_steps, d_in), 0, 1).reshape(n_steps * batch, d_in)
    gates = np.matmul(x, w_x.data).reshape(n_steps, batch, 4 * d_h)
    gates += bias.data
    scale = np.full(4 * d_h, 0.5, dtype=gates.dtype)
    scale[2 * d_h : 3 * d_h] = 1.0
    blocks = gates.reshape(n_steps, batch, 4, d_h)
    cells = np.empty((n_steps, batch, d_h), dtype=gates.dtype)
    tanh_c = np.empty_like(cells)
    h = c = np.zeros((batch, d_h), dtype=gates.dtype)
    for t in range(n_steps):
        z = gates[t]
        if t:
            z += h @ w_h.data
        _sigmoid(z, scale, out=z)
        i, f, g, o = (blocks[t, :, k] for k in range(4))
        c = np.multiply(f, c, out=cells[t])
        c += i * g
        h = o * np.tanh(c, out=tanh_c[t])

    def bw(g_out):
        dz = np.empty_like(gates)
        dz_blocks = dz.reshape(n_steps, batch, 4, d_h)
        w_h_t = np.ascontiguousarray(w_h.data.T)
        dh = g_out.reshape(batch, d_h)
        dc = np.zeros_like(dh)
        for t in range(n_steps - 1, -1, -1):
            i, f, g, o = (blocks[t, :, k] for k in range(4))
            d_i, d_f, d_g, d_o = (dz_blocks[t, :, k] for k in range(4))
            dc = dc + dh * o * (1 - tanh_c[t] * tanh_c[t])
            np.multiply(gates[t], 1 - gates[t], out=dz[t])
            np.multiply(i, 1 - g * g, out=d_g)
            d_i *= g
            d_f *= cells[t - 1] if t else 0.0
            dz_blocks[t, :, :3] *= dc[:, None]
            d_o *= tanh_c[t] * dh
            if t:
                dc = dc * f
                dh = dz[t] @ w_h_t
        flat = dz.reshape(n_steps * batch, 4 * d_h)
        h_prev = (blocks[:-1, :, 3] * tanh_c[:-1]).reshape(-1, d_h)
        g_seq = None
        if seq.requires_grad:
            g_x = (flat @ w_x.data.T).reshape(n_steps, batch, d_in)
            g_seq = np.swapaxes(g_x, 0, 1).reshape(seq.shape)
        return g_seq, x.T @ flat, h_prev.T @ flat[batch:], flat.sum(axis=0)

    return _make("lstm_sequence", (seq, w_x, w_h, bias), h.reshape(tuple(lead) + (d_h,)), bw)


def cross_entropy_composed(logits: Tensor, one_hot: Tensor) -> Tensor:
    """-mean(sum(one_hot * log_softmax(logits), axis=-1)) as five tape ops."""
    return mul(tmean(tsum(mul(one_hot, log_softmax(logits)), axis=-1)), -1.0)


def denoiser_composed(x, t_feat, cond, w_in, b_in, w_t, b_t, w_c, b_c, w_m, b_m, w_o, b_o, w_s, b_s) -> Tensor:
    """The denoiser's estimate as the tape ops `DenoiserNet` once recorded: six
    `linear`, three `add`, two `gelu`, one `mul` and a `reshape` at each end,
    the first one taped only when x requires a gradient."""
    flat = reshape(x, (x.shape[0], math.prod(x.shape[1:])))
    h = gelu(add(add(linear(flat, w_in, b_in), linear(t_feat, w_t, b_t)), linear(cond, w_c, b_c)))
    h = gelu(linear(h, w_m, b_m))
    return reshape(add(linear(h, w_o, b_o), mul(linear(t_feat, w_s, b_s), flat)), x.shape)


def si_loss_chain(out: Tensor, cap: Tensor, label: Tensor, label_weight: float = 1.0) -> Tensor:
    """`ops.si_loss` as the op chain it fuses: two cosines, two `sub`, one `mul` and the `mean`,
    twenty tape entries when only `out` requires a gradient."""
    cos_cap = cosine_similarity(cap, out)
    cos_label = cosine_similarity(label, out)
    return tmean(sub(sub(1.0 + label_weight, cos_cap), mul(cos_label, label_weight)))
