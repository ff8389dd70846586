"""Forward semantics of the tensor ops: identities, hand values, error paths."""

import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from brainvis_forge.autodiff import (
    NonFiniteError,
    ShapeError,
    Tensor,
    active_tape,
    backward,
    concat,
    gelu,
    no_grad,
    softmax,
    take,
    tmean,
    tsum,
)
from brainvis_forge.autodiff import ops, tensor
from brainvis_forge.autodiff.nn import Attention, AttentionBlock, Linear, LstmEncoder
from brainvis_forge.autodiff.tensor import (
    _GELU_FORWARD_BLOCK,
    _gelu_forward,
    _matmul_grads,
    add,
    broadcast_to,
    mul,
)
from brainvis_forge.diffusion import DenoiserNet
from brainvis_forge.lmm.loss import lmm_loss
from brainvis_forge.metrics.surrogate import SurrogateClassifier
from oracles import (
    as_float64,
    attention_core_composed,
    codeword_nll_composed,
    codeword_nll_dense,
    cosine_similarity,
    cross_attention_block_flat,
    cross_entropy_composed,
    feed_forward_flat,
    layer_norm_composed,
    log,
    lstm_sequence_two_buffers,
    matmul,
    matmul_grads_per_item,
    narrow,
    power,
    reshape,
    self_attention_block_flat,
    sigmoid,
    sub,
    tanh,
)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 5))
    out = matmul(Tensor(np.eye(3)), Tensor(a))
    np.testing.assert_array_equal(out.data, a.astype(out.data.dtype))


def test_matmul_shape_error_names_op_and_shapes():
    with pytest.raises(ShapeError, match=r"matmul.*\(3, 4\).*\(5, 2\)"):
        matmul(Tensor(np.zeros((3, 4))), Tensor(np.zeros((5, 2))))


def test_softmax_uniform_on_zeros():
    out = softmax(Tensor(np.zeros(4, dtype=np.float64)))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-12)


@pytest.mark.parametrize("offset", [1e3, -1e3])
def test_softmax_and_cross_entropy_of_large_logits_are_finite_and_exact(offset):
    # Every logit minus the row max is exact here, so shifting by the max
    # must reproduce the results for the unshifted row to the bit.
    base = np.array([[0.0, -1.0, -2.0, -3.5]])
    target = np.array([[0.0, 0.0, 1.0, 0.0]])
    closed = {
        softmax: np.exp(base) / np.exp(base).sum(),
        (lambda t: ops.cross_entropy(t, target)): np.log(np.exp(base).sum()) - base[0, 2],
    }
    for op, want in closed.items():
        got = op(Tensor(base + offset)).data
        assert np.all(np.isfinite(got))
        assert got.tobytes() == op(Tensor(base)).data.tobytes()
        np.testing.assert_allclose(got, want, rtol=1e-15)


def test_cross_entropy_uniform_is_log_classes():
    n = 660
    logits = Tensor(np.zeros((1, n), dtype=np.float64))
    onehot = np.zeros((1, n))
    onehot[0, 17] = 1.0
    loss = ops.cross_entropy(logits, Tensor(onehot))
    assert abs(loss.item() - np.log(660)) < 1e-6


@pytest.mark.parametrize("shape, offset", [((2000, 40), 0.0), ((3, 4), 0.0), ((3, 4), 1e3)])
def test_fused_cross_entropy_is_bit_equal_to_its_composition(shape, offset):
    rng = np.random.default_rng(43)
    logits = (rng.standard_normal(shape) * 3.0 + offset).astype(np.float32)
    one_hot = Tensor(ops.one_hot_labels(rng.integers(0, shape[1], shape[0]), shape[1]))
    results = []
    for loss_fn in (ops.cross_entropy, cross_entropy_composed):
        x = Tensor(logits, requires_grad=True)
        loss = loss_fn(x, one_hot)
        backward(loss)
        results.append((np.asarray(loss.data), x.grad))
    (fused, fused_grad), (composed, composed_grad) = results
    assert fused.dtype == fused_grad.dtype == np.float32
    assert fused.tobytes() == composed.tobytes()
    assert fused_grad.tobytes() == composed_grad.tobytes()


def test_fused_cross_entropy_records_one_entry_and_no_target_gradient():
    tape = active_tape()
    logits = Tensor(np.random.default_rng(5).standard_normal((6, 4)), requires_grad=True)
    one_hot = Tensor(ops.one_hot_labels(np.array([0, 1, 2, 3, 0, 1]), 4), requires_grad=True)
    before = len(tape)
    loss = ops.cross_entropy(logits, one_hot)
    assert [e.op for e in tape.entries[before:]] == ["cross_entropy"]
    backward(loss)
    assert logits.grad is not None and one_hot.grad is None


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("x_needs_grad", [False, True])
@pytest.mark.parametrize("scale", [1.0, -2.0])
def test_fused_mlp_cross_entropy_is_bit_equal_to_its_composition(dtype, x_needs_grad, scale):
    # `train_surrogate`'s loss against `cross_entropy(model(flat), one_hot)` on the
    # op-by-op tape; a negative scale flips the sign of every loss gradient
    rng = np.random.default_rng(47)
    n, d, k = 40, 12, 5
    model = SurrogateClassifier(d, 8, k, rng)
    if dtype == np.float64:
        as_float64(model)
    flat = rng.standard_normal((n, d)).astype(dtype)
    flat[0] *= 1e4  # a row whose logits spread so far that every off-label exp underflows to 0
    labels = rng.integers(0, k, n)
    with no_grad():
        logits = model(Tensor(flat)).data
    labels[0] = logits[0].argmax()
    assert np.count_nonzero(np.exp(logits[0] - logits[0].max())) == 1
    params = model.parameters()  # fc1.weight, fc1.bias, fc2.weight, fc2.bias
    results = []
    for loss_fn in (lambda x: ops.mlp_cross_entropy(x, *params, labels),
                    lambda x: ops.cross_entropy(model(x), Tensor(ops.one_hot_labels(labels, k)))):
        x = Tensor(flat, requires_grad=x_needs_grad)
        for p in params:
            p.grad = None
        loss = loss_fn(x)
        backward(mul(loss, scale))
        results.append([loss.data, x.grad] + [p.grad for p in params])
    fused, composed = results
    assert fused[0].dtype == dtype and (fused[1] is None) == (not x_needs_grad)
    for a, b in zip(fused, composed):
        assert (a is None and b is None) or a.tobytes() == b.tobytes()


def test_nonfinite_forward_is_hard_error():
    with pytest.raises(NonFiniteError, match="log"):
        log(Tensor(np.zeros(3)))


def test_tensor_rejects_nan_input():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1.0, np.nan]))


def test_take_gathers_and_narrow_slices():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    np.testing.assert_array_equal(take(x, np.array([2, 0]), axis=0).data, x.data[[2, 0]])
    np.testing.assert_array_equal(narrow(x, 1, 1, 2).data, x.data[:, 1:3])
    with pytest.raises(ShapeError):
        narrow(x, 1, 3, 2)


def test_concat_roundtrip_shapes():
    a, b = Tensor(np.ones((2, 3))), Tensor(np.zeros((2, 2)))
    out = concat([a, b], axis=1)
    assert out.shape == (2, 5)
    with pytest.raises(ShapeError):
        concat([a, Tensor(np.zeros((3, 2)))], axis=1)


def test_layer_norm_normalizes_last_axis():
    rng = np.random.default_rng(3)
    x = Tensor(np.asarray(rng.standard_normal((4, 7)) * 5 + 2, dtype=np.float64))
    out = ops.layer_norm(x, Tensor(np.ones(7)), Tensor(np.zeros(7)))
    np.testing.assert_allclose(out.data.mean(axis=-1), 0.0, atol=1e-7)
    np.testing.assert_allclose(out.data.std(axis=-1), 1.0, atol=1e-3)


def test_cosine_similarity_rejects_zero_norm():
    with pytest.raises(ValueError, match="zero-norm"):
        cosine_similarity(Tensor(np.zeros(4)), Tensor(np.ones(4)))


def test_lstm_sequence_zero_weights_give_zero_hidden():
    h = ops.lstm_sequence(
        Tensor(np.ones((2, 4, 3))),
        Tensor(np.zeros((3, 20))),
        Tensor(np.zeros((5, 20))),
        Tensor(np.zeros(20)),
    )
    np.testing.assert_array_equal(h.data, np.zeros((2, 5)))


def test_lstm_sequence_rejects_inconsistent_gate_weights():
    seq = Tensor(np.ones((2, 4, 3)))
    with pytest.raises(ShapeError, match="lstm_sequence: gate weights"):
        ops.lstm_sequence(seq, Tensor(np.zeros((3, 16))), Tensor(np.zeros((5, 20))), Tensor(np.zeros(20)))


def _unfused_lstm(seq, w_x, w_h, bias):
    """Reference: the recurrence one step at a time from single tape ops."""
    *lead, n_steps, _ = seq.shape
    d_h = w_h.shape[0]
    h = c = Tensor(np.zeros(tuple(lead) + (1, d_h)))
    for t in range(n_steps):
        z = add(add(matmul(narrow(seq, -2, t, 1), w_x), matmul(h, w_h)), bias)
        i, f, g, o = (narrow(z, -1, k * d_h, d_h) for k in range(4))
        c = add(mul(sigmoid(f), c), mul(sigmoid(i), tanh(g)))
        h = mul(sigmoid(o), tanh(c))
    return reshape(h, tuple(lead) + (d_h,))


@pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
@pytest.mark.parametrize("n_steps", [1, 5])
def test_lstm_sequence_matches_unfused_steps(lead, n_steps):
    rng = np.random.default_rng(len(lead) * 10 + n_steps)
    d_in, d_h = 4, 6
    arrays = [
        rng.standard_normal(lead + (n_steps, d_in)),
        rng.standard_normal((d_in, 4 * d_h)) * 0.5,
        rng.standard_normal((d_h, 4 * d_h)) * 0.5,
        rng.standard_normal(4 * d_h) * 0.1,
    ]
    weights = rng.standard_normal(lead + (d_h,))

    def run(fn):
        ts = [Tensor(a, requires_grad=True) for a in arrays]
        out = fn(*ts)
        backward(tsum(mul(out, Tensor(weights))))
        return [out.data] + [t.grad for t in ts]

    for fused, ref in zip(run(ops.lstm_sequence), run(_unfused_lstm)):
        assert fused.shape == ref.shape
        np.testing.assert_allclose(fused, ref, rtol=0, atol=1e-12)


def test_lstm_encoder_forward_is_one_tape_entry():
    enc = LstmEncoder(8, 16, np.random.default_rng(0))
    tape = active_tape()
    before = len(tape)
    out = enc(Tensor(np.random.default_rng(1).standard_normal((3, 7, 8)).astype(np.float32)))
    assert len(tape) == before + 1
    assert tape.entries[-1].op == "lstm_sequence"
    backward(tsum(out))


def _lstm_arrays(seed):
    rng = np.random.default_rng(seed)
    return [
        rng.standard_normal((3, 6, 4)).astype(np.float32),
        (rng.standard_normal((4, 32)) * 0.5).astype(np.float32),
        (rng.standard_normal((8, 32)) * 0.5).astype(np.float32),
        (rng.standard_normal(32) * 0.1).astype(np.float32),
    ]


def _lstm_grads(arrays):
    ts = [Tensor(a, requires_grad=True) for a in arrays]
    backward(tsum(ops.lstm_sequence(*ts)))
    return [t.grad for t in ts]


def test_lstm_sequence_untracked_forward_matches_recorded_one():
    arrays = _lstm_arrays(6)
    recorded = ops.lstm_sequence(*(Tensor(a, requires_grad=True) for a in arrays))
    with no_grad():
        untracked = ops.lstm_sequence(*(Tensor(a, requires_grad=True) for a in arrays))
    np.testing.assert_array_equal(untracked.data, recorded.data)
    backward(tsum(recorded))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead, n_steps", [((), 1), ((3,), 5), ((2, 3), 4)])
@pytest.mark.parametrize("seq_grad", [True, False])
def test_lstm_sequence_gradients_are_bit_equal_to_the_two_buffer_backward(seq_grad, lead, n_steps, dtype):
    rng = np.random.default_rng(59)
    arrays = [rng.standard_normal(lead + (n_steps, 4)), rng.standard_normal((4, 24)) * 0.5,
              rng.standard_normal((6, 24)) * 0.5, rng.standard_normal(24) * 0.1]
    weights = Tensor(rng.standard_normal(lead + (6,)).astype(dtype))

    def run(fn):
        ts = [Tensor(a.astype(dtype), requires_grad=seq_grad or k > 0) for k, a in enumerate(arrays)]
        out = fn(*ts)
        backward(tsum(mul(out, weights)))
        return [out.data] + [t.grad for t in ts]

    got, want = run(ops.lstm_sequence), run(lstm_sequence_two_buffers)
    assert [a is None for a in got] == [a is None for a in want] == [False, not seq_grad, False, False, False]
    for a, b in zip(got, want):
        assert a is None or (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes())


def _lstm_backward_peak(lstm) -> tuple[int, int]:
    """The traced peak of `lstm`'s backward at T = 64, B = 8, d_h = 32, and one (T, B, 4*d_h) gate buffer's bytes."""
    rng = np.random.default_rng(61)
    seq = Tensor(rng.standard_normal((8, 64, 4)).astype(np.float32), requires_grad=True)
    w_x, w_h = (Tensor((rng.standard_normal(s) * 0.3).astype(np.float32), requires_grad=True)
                for s in ((4, 128), (32, 128)))
    loss = tsum(lstm(seq, w_x, w_h, Tensor(np.zeros(128, np.float32), requires_grad=True)))
    tracemalloc.start()
    try:
        backward(loss)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, 64 * 8 * 128 * 4


def test_lstm_sequence_backward_forms_no_second_gate_buffer():
    peak, gate_bytes = _lstm_backward_peak(ops.lstm_sequence)
    assert peak < gate_bytes
    two_buffer_peak, _ = _lstm_backward_peak(lstm_sequence_two_buffers)
    assert two_buffer_peak > gate_bytes


@pytest.mark.parametrize("overflow", ["projection", "recurrence"])
def test_lstm_sequence_overflow_raises_and_leaves_tape_clean(overflow):
    clean = _lstm_grads(_lstm_arrays(4))
    seq, w_x, w_h, bias = _lstm_arrays(5)
    if overflow == "projection":
        seq, w_x = seq * np.float32(1e10), w_x * np.float32(1e30)
    else:  # the projection stays finite; h_{t-1} @ w_h overflows in the recurrence
        w_h = np.full_like(w_h, 3e38)
    tape = active_tape()
    before = len(tape)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="lstm_sequence"):
            ops.lstm_sequence(Tensor(seq, requires_grad=True), Tensor(w_x, requires_grad=True),
                              Tensor(w_h, requires_grad=True), Tensor(bias, requires_grad=True))
    assert len(tape) == before
    for after, ref in zip(_lstm_grads(_lstm_arrays(4)), clean):
        np.testing.assert_array_equal(after, ref)


@pytest.mark.parametrize("dtype, x", [(np.float32, 100.0), (np.float64, 1000.0)])
def test_sigmoid_saturates_without_overflow(dtype, x):
    with np.errstate(all="raise"):
        out = sigmoid(Tensor(np.array([-x, x], dtype=dtype))).data
    assert out.dtype == dtype
    np.testing.assert_array_equal(out, [0.0, 1.0])


@pytest.mark.parametrize("a_needs_grad", [True, False])
def test_mul_forms_no_gradient_for_a_constant_operand(a_needs_grad):
    rng = np.random.default_rng(12)
    a, b, g = rng.standard_normal((4, 5)), rng.standard_normal(5), rng.standard_normal((4, 5))
    mul(Tensor(a, requires_grad=a_needs_grad), Tensor(b, requires_grad=not a_needs_grad))
    ga, gb = active_tape().entries.pop().backward_fn(g)
    if a_needs_grad:
        assert gb is None and ga.tobytes() == (g * b).tobytes()
    else:
        assert ga is None and gb.tobytes() == (g * a).sum(axis=0).tobytes()


def test_mse_loss_hand_value():
    loss = ops.mse_loss(Tensor(np.array([0.0, 0.0, 0.0, 0.0])), Tensor(np.array([1.0, 0.0, 0.0, 0.0])))
    assert loss.item() == pytest.approx(0.25)


def _grads_through(fn, arrays, needs_grad, weights=None):
    """Output and input gradients of fn over float32 tensors; `weights`
    reduces a non-scalar output to a scalar loss."""
    ts = [Tensor(a, requires_grad=r) for a, r in zip(arrays, needs_grad)]
    out = fn(*ts)
    backward(out if weights is None else tsum(mul(out, Tensor(weights))))
    return [out.data] + [t.grad for t in ts]


@pytest.mark.parametrize("x_shape", [(4, 6), (3, 4, 6)])
@pytest.mark.parametrize("x_needs_grad", [True, False])
def test_fused_linear_is_bit_equal_to_matmul_plus_bias(x_shape, x_needs_grad):
    rng = np.random.default_rng(len(x_shape))
    arrays = [rng.standard_normal(s).astype(np.float32) for s in (x_shape, (6, 5), (5,))]
    weights = rng.standard_normal(x_shape[:-1] + (5,)).astype(np.float32)
    needs = (x_needs_grad, True, True)
    fused = _grads_through(ops.linear, arrays, needs, weights)
    unfused = _grads_through(lambda x, w, b: add(matmul(x, w), b), arrays, needs, weights)
    for a, b in zip(fused, unfused):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _unfused_mse(pred, target):
    """Reference: the mean of diff * diff from single tape ops, diff taken once."""
    diff = sub(pred, target)
    return tmean(mul(diff, diff))


@pytest.mark.parametrize("target_needs_grad", [True, False])
def test_fused_mse_loss_is_bit_equal_to_its_composite(target_needs_grad):
    rng = np.random.default_rng(9)
    arrays = [rng.standard_normal((5, 7)).astype(np.float32) for _ in range(2)]
    needs = (True, target_needs_grad)
    fused = _grads_through(ops.mse_loss, arrays, needs)
    unfused = _grads_through(_unfused_mse, arrays, needs)
    for a, b in zip(fused, unfused):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if target_needs_grad:
        np.testing.assert_array_equal(fused[2], -fused[1])


def test_linear_and_mse_loss_are_one_tape_entry_each():
    rng = np.random.default_rng(2)
    layer = Linear(6, 5, rng)
    tape = active_tape()
    before = len(tape)
    out = layer(Tensor(rng.standard_normal((4, 6)).astype(np.float32)))
    loss = ops.mse_loss(out, Tensor(np.zeros((4, 5), dtype=np.float32)))
    assert [e.op for e in tape.entries[before:]] == ["linear", "mse_loss"]
    backward(loss)


@pytest.mark.parametrize("where, x, w, b", [
    ("product", np.full((2, 3), 1e30), np.full((3, 4), 1e30), np.zeros(4)),
    ("bias add", np.full((2, 3), 1.0), np.full((3, 4), 1e38), np.full(4, 3e38)),
])
def test_linear_nonfinite_raises_and_leaves_tape_clean(where, x, w, b):
    tape = active_tape()
    before = len(tape)
    tensors = [Tensor(np.asarray(a, dtype=np.float32), requires_grad=True) for a in (x, w, b)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="linear"):
            ops.linear(*tensors)
    assert len(tape) == before


@pytest.mark.parametrize("where, pred, target", [
    ("difference", np.full(4, 3e38), np.full(4, -3e38)),
    ("square", np.full(4, 1e20), np.zeros(4)),
])
def test_mse_loss_nonfinite_raises_and_leaves_tape_clean(where, pred, target):
    tape = active_tape()
    before = len(tape)
    tensors = [Tensor(np.asarray(a, dtype=np.float32), requires_grad=True) for a in (pred, target)]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match="mse_loss"):
            ops.mse_loss(*tensors)
    assert len(tape) == before


def test_attention_output_shape_and_batch():
    rng = np.random.default_rng(5)
    d, heads = 8, 2
    ws = [Tensor(rng.standard_normal((d, d)) * 0.3) for _ in range(4)]
    bs = [Tensor(np.zeros(d)) for _ in range(4)]
    x = Tensor(rng.standard_normal((2, 5, d)))
    out = ops.multi_head_attention(x, x, ws[0], bs[0], ws[1], bs[1], ws[2], bs[2], ws[3], bs[3], heads)
    assert out.shape == (2, 5, d)


# --- fused LMM-path ops: one tape entry each, forwards bit-equal to their compositions


def _lmm_operands(rng, n_codewords=660):
    """Float32 operands at the medium LMM geometry: B=16, 82 masked and 28
    visible units, d=256, 660 codewords."""
    x = rng.standard_normal((16, 82, 256)).astype(np.float32)
    gain = (rng.standard_normal(256) * 0.5 + 1.0).astype(np.float32)
    bias = (rng.standard_normal(256) * 0.2).astype(np.float32)
    q = rng.standard_normal((16, 82, 256)).astype(np.float32)
    k, v = (rng.standard_normal((16, 28, 256)).astype(np.float32) for _ in range(2))
    probs = rng.uniform(0.0, 1.0, (16, 82, n_codewords)).astype(np.float32)
    probs /= probs.sum(axis=-1, keepdims=True)
    labels = rng.integers(0, n_codewords, 16 * 82).reshape(16, 82)
    return x, gain, bias, q, k, v, probs, labels


@pytest.mark.parametrize("needs_grad", [True, False])
def test_fused_lmm_ops_forward_bit_equal_to_their_compositions(needs_grad):
    x, gain, bias, q, k, v, probs, labels = _lmm_operands(np.random.default_rng(31))
    targets = ops.one_hot_labels(labels.reshape(-1), probs.shape[-1]).reshape(probs.shape)

    def t(a):
        return Tensor(a, requires_grad=needs_grad)

    pairs = [
        (ops.layer_norm(t(x), t(gain), t(bias)), layer_norm_composed(t(x), t(gain), t(bias))),
        (ops.attention_core(t(q), t(k), t(v), 8), attention_core_composed(t(q), t(k), t(v), 8)),
        (ops.codeword_nll(t(probs), labels), codeword_nll_composed(t(probs), Tensor(targets))),
    ]
    active_tape().clear()
    for fused, composed in pairs:
        assert fused.data.dtype == np.float32 and fused.shape == composed.shape
        assert np.array_equal(fused.data, composed.data)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_forward_bit_equal_to_its_formula(dtype):
    x = (np.random.default_rng(7).standard_normal((16, 82, 1024)) * 3).astype(dtype)
    k, c = math.sqrt(2.0 / math.pi), 0.044715  # python floats: numpy computes in `dtype`
    want = 0.5 * x * (1 + np.tanh(k * (x + c * x * x * x)))
    out = gelu(Tensor(x)).data
    assert out.dtype == dtype and np.array_equal(out, want)


def _gelu_backward_fn(x):
    """The backward that gelu records for `x`, taken off the tape."""
    gelu(Tensor(x, requires_grad=True))
    return active_tape().entries.pop().backward_fn


# (16, 82, 1024) is the medium predictor's FFN width, a whole number of blocks;
# (5, 4000) ends in a part block and (0, 1024) has no rows at all.
@pytest.mark.parametrize("shape", [(16, 82, 1024), (5, 4000), (3, 7), (5,), (0, 1024)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_bit_equal_to_its_formula(dtype, shape):
    rng = np.random.default_rng(8)
    x = (rng.standard_normal(shape) * 3).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    k, c = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(k * (x + c * x * x * x))
    want = g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * (k * (1.0 + 3.0 * c * x * x)))
    (got,) = _gelu_backward_fn(x)(g)
    assert got.dtype == want.dtype == dtype and got.shape == shape
    assert got.tobytes() == want.tobytes()


def test_gelu_backward_allocates_only_its_result():
    rng = np.random.default_rng(9)
    x, g = (rng.standard_normal((16, 82, 1024)).astype(np.float32) for _ in range(2))
    backward_fn = _gelu_backward_fn(x)
    tracemalloc.start()
    try:
        (got,) = backward_fn(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= got.nbytes + (1 << 20)


# One element either side of two forward blocks, where the blocks begin, and a part block past three.
@pytest.mark.parametrize("shape", [((1 << 17) - 1,), (1 << 17,), ((1 << 17) + 1,), (3, 65541)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_forward_in_blocks_is_bit_equal_to_its_formula(dtype, shape):
    x = (np.random.default_rng(10).standard_normal(shape) * 3).astype(dtype)
    k, c = math.sqrt(2.0 / math.pi), 0.044715
    want_t = np.tanh(k * (x + c * x * x * x))
    want = 0.5 * x * (1 + want_t)
    out, t = _gelu_forward(x)
    assert out.dtype == t.dtype == dtype and out.shape == t.shape == shape
    assert out.tobytes() == want.tobytes() and t.tobytes() == want_t.tobytes()


def test_gelu_forward_allocates_its_two_results_and_block_scratch():
    x = np.random.default_rng(11).standard_normal((16, 82, 1024)).astype(np.float32)
    tracemalloc.start()
    try:
        out, t = _gelu_forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= out.nbytes + t.nbytes + _GELU_FORWARD_BLOCK * x.itemsize + (1 << 16)


# input shapes and forward of each op that builds its output in place
IN_PLACE_FORWARDS = {
    "linear": (((2, 5, 8), (8, 6), (6,)), ops.linear),
    "layer_norm": (((2, 5, 8), (8,), (8,)), ops.layer_norm),
    "softmax": (((2, 5, 8),), softmax),
    "gelu": (((2, 5, 8),), gelu),
    "gelu_blocked": (((3, 65541),), gelu),
    "feed_forward": (((2, 5, 8), (8, 16), (16,), (16, 8), (8,)), ops.feed_forward),
    "attention_core": (((2, 5, 8), (2, 3, 8), (2, 3, 8)), lambda q, k, v: ops.attention_core(q, k, v, 2)),
}


@pytest.mark.parametrize("name", sorted(IN_PLACE_FORWARDS))
def test_in_place_forwards_leave_their_inputs_and_share_no_memory(name):
    shapes, forward = IN_PLACE_FORWARDS[name]
    rng = np.random.default_rng(12)
    inputs = [Tensor(rng.standard_normal(s).astype(np.float32), requires_grad=True) for s in shapes]
    before = [a.data.tobytes() for a in inputs]
    out = forward(*inputs)
    for i, a in enumerate(inputs):
        assert not np.shares_memory(out.data, a.data), f"{name}: output aliases input {i}"
        assert a.data.tobytes() == before[i], f"{name}: input {i} changed"
    backward(tsum(out))


def test_linear_with_a_broadcast_or_wider_bias_keeps_the_plain_add():
    rng = np.random.default_rng(13)
    x, w = rng.standard_normal((5, 8)).astype(np.float32), rng.standard_normal((8, 6)).astype(np.float32)
    for bias in (rng.standard_normal(6).astype(np.float32), rng.standard_normal((1, 6)).astype(np.float32),
                 rng.standard_normal(6)):
        out = ops.linear(Tensor(x), Tensor(w), Tensor(bias)).data
        want = x @ w + bias
        assert out.dtype == want.dtype and out.shape == want.shape and out.tobytes() == want.tobytes()
    with pytest.raises(ShapeError, match=re.escape("linear: bias (5,) does not broadcast to (5, 6)")):
        ops.linear(Tensor(x), Tensor(w), Tensor(np.zeros(5, np.float32)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("scale", [1.0, -2.0])
def test_codeword_nll_indices_match_the_one_hot_form_in_loss_and_gradient_bytes(scale, dtype):
    *_, probs, labels = _lmm_operands(np.random.default_rng(37))
    probs = probs.astype(dtype)
    # a label probability of exactly 1 (a log of 0) and one of exactly 0 (the LOG_EPS clamp)
    probs[0, 0] = 0.0
    probs[0, 0, labels[0, 0]] = 1.0
    probs[1, 1, labels[1, 1]] = 0.0
    targets = ops.one_hot_labels(labels.reshape(-1), probs.shape[-1]).reshape(probs.shape)
    results = []
    for codeword_nll, target in ((ops.codeword_nll, labels), (codeword_nll_dense, targets)):
        p = Tensor(probs, requires_grad=True)
        loss = codeword_nll(p, target)
        backward(mul(loss, scale))  # the sign of the off-label gradient's zeros follows the scale's
        results.append((loss.data.dtype, loss.data.tobytes(), p.grad.tobytes()))
    assert results[0] == results[1]


# --- transformer blocks: one `fold` entry each, bit-equal to the flat tape


def _block_run(case: str, flat: bool, dtype) -> tuple:
    """A block case's output, entry count and the gradients of its input, context and
    parameters, through the blocks' `fold` entries or `oracles`' flat tapes."""
    rng = np.random.default_rng(41)
    self_attn = case.startswith("self")
    blocks = [AttentionBlock(32, 4, 64, rng) for _ in range(1 if self_attn else 2)]
    if dtype == np.float64:
        blocks = [as_float64(b) for b in blocks]
    x = Tensor(rng.standard_normal((4, 10, 32)).astype(dtype), requires_grad=True)
    context = Tensor(rng.standard_normal((4, 7, 32)).astype(dtype), requires_grad=True)
    if self_attn:
        rows = np.array([1, 4, 5, 9]) if case == "self_rows" else None
        out = self_attention_block_flat(blocks[0], x, rows) if flat else blocks[0](x, rows=rows)
    else:  # two blocks sharing one context, as the tiny predictor's
        out = x
        for block in blocks:
            out = cross_attention_block_flat(block, out, context) if flat else block(out, context)
    n_entries = len(active_tape())
    backward(tsum(mul(out, Tensor(rng.standard_normal(out.shape).astype(dtype)))))
    leaves = [x, context] + [p for block in blocks for p in block.parameters()]
    return out.data, n_entries, [t.grad for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case, n_folded, n_flat", [("self", 1, 12), ("self_rows", 1, 14), ("cross_pair", 2, 24)])
def test_block_fold_entries_are_bit_equal_to_the_flat_tape(case, n_folded, n_flat, dtype):
    out, folded_entries, grads = _block_run(case, False, dtype)
    flat_out, flat_entries, flat_grads = _block_run(case, True, dtype)
    assert (folded_entries, flat_entries) == (n_folded, n_flat)
    assert out.dtype == dtype and out.tobytes() == flat_out.tobytes()
    assert [g is None for g in grads] == [g is None for g in flat_grads] == [False, case.startswith("self")] + [
        False] * (len(grads) - 2)
    for g, flat_g in zip(grads, flat_grads):
        assert g is None or (g.dtype == flat_g.dtype and g.tobytes() == flat_g.tobytes())


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
# the 3-D case's hidden layer is past two gelu forward blocks, so its forward runs block by block
@pytest.mark.parametrize("x_shape, hidden", [((6, 8), 16), ((3, 50, 8), 1024)])
@pytest.mark.parametrize("needs_grad", [(True,) * 5, (False,) + (True,) * 4, (False,) * 3 + (True,) * 2])
def test_feed_forward_is_bit_equal_to_linear_gelu_linear(needs_grad, x_shape, hidden, dtype):
    rng = np.random.default_rng(53)
    arrays = [rng.standard_normal(x_shape), rng.standard_normal((8, hidden)) * 0.5, rng.standard_normal(hidden) * 0.1,
              rng.standard_normal((hidden, 8)) * 0.5, rng.standard_normal(8) * 0.1]
    weights = Tensor(rng.standard_normal(x_shape).astype(dtype))

    def run(fn):
        ts = [Tensor(a.astype(dtype), requires_grad=r) for a, r in zip(arrays, needs_grad)]
        out = fn(*ts)
        n_entries = len(active_tape())
        backward(tsum(mul(out, weights)))
        return out.data, n_entries, [t.grad for t in ts]

    (out, n_fused, grads), (flat_out, n_flat, flat_grads) = run(ops.feed_forward), run(feed_forward_flat)
    assert (n_fused, n_flat) == (1, 3 if needs_grad[1] else 1)
    assert out.dtype == dtype and out.tobytes() == flat_out.tobytes()
    assert [g is None for g in grads] == [g is None for g in flat_grads] == [not r for r in needs_grad]
    for g, flat_g in zip(grads, flat_grads):
        assert g is None or (g.dtype == flat_g.dtype and g.tobytes() == flat_g.tobytes())


def test_block_entry_keeps_only_what_its_backward_reads(monkeypatch):
    rng = np.random.default_rng(43)
    block = AttentionBlock(16, 2, 32, rng)
    linear_outs, sums = [], []

    def spy(record, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            record.append(weakref.ref(out.data))
            return out
        return wrapped

    def gelu_spy(s, *args):
        h, t = gelu_forward(s, *args)
        gelu_arrays.extend(weakref.ref(a) for a in (s, h, t))
        return h, t

    gelu_forward, gelu_arrays = ops._gelu_forward, []
    monkeypatch.setattr(ops, "linear", spy(linear_outs, ops.linear))
    monkeypatch.setattr(ops, "_gelu_forward", gelu_spy)
    monkeypatch.setattr(tensor, "add", spy(sums, tensor.add))
    x = Tensor(rng.standard_normal((2, 5, 16)), requires_grad=True)
    out = block(x)
    (entry,) = active_tape().entries
    assert entry.op == "self_attention_block" and entry.output is out
    # each outside tensor once per internal use, in replay order: x feeds the residual sum and ln1
    a, f = block.attn, block.ffn
    expected = [f.fc1.weight, f.fc1.bias, f.fc2.weight, f.fc2.bias, block.ln2.gain, block.ln2.bias, x,
                a.w_o, a.b_o, a.w_v, a.b_v, a.w_k, a.b_k, a.w_q, a.b_q, x, block.ln1.gain, block.ln1.bias]
    assert len(entry.inputs) == len(expected) and all(t is e for t, e in zip(entry.inputs, expected))
    assert len(linear_outs) == 4 and len(sums) == 2
    assert linear_outs[0]() is None, "the q projection outlived the block"
    assert sums[0]() is None, "the first residual sum outlived the block"
    assert sums[1]() is out.data
    s, h, t = (ref() for ref in gelu_arrays)
    assert h is None, "GELU's output outlived the block"
    assert s is not None and t is not None, "the feed-forward's backward reads fc1's output and GELU's tanh"
    # on the flat tape the same q projection stays alive, held by its entry
    self_attention_block_flat(block, x)
    assert linear_outs[4]() is not None
    active_tape().clear()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_fold_nested_in_a_fold_is_bit_equal_to_the_flat_tape(dtype):
    def run(nested):
        rng = np.random.default_rng(47)
        blocks = [AttentionBlock(16, 2, 32, rng) for _ in range(2)]
        if dtype == np.float64:
            blocks = [as_float64(b) for b in blocks]
        x = Tensor(rng.standard_normal((3, 5, 16)).astype(dtype), requires_grad=True)
        context = Tensor(rng.standard_normal((3, 4, 16)).astype(dtype), requires_grad=True)
        if nested:  # both blocks' own `fold` entries inside one outer fold, whose outside tensor is the context
            out = tensor.fold("pair", lambda q: blocks[1](blocks[0](q, context)), x)
        else:
            out = self_attention_block_flat(blocks[1], cross_attention_block_flat(blocks[0], x, context))
        n_entries = len(active_tape())
        backward(tsum(mul(out, Tensor(rng.standard_normal(out.shape).astype(dtype)))))
        return out.data, n_entries, [t.grad for t in [x, context] + [p for b in blocks for p in b.parameters()]]

    (out, n_nested, grads), (flat_out, n_flat, flat_grads) = run(True), run(False)
    assert (n_nested, n_flat) == (1, 24)
    assert out.dtype == dtype and out.tobytes() == flat_out.tobytes()
    for g, flat_g in zip(grads, flat_grads, strict=True):
        assert g.dtype == flat_g.dtype and g.tobytes() == flat_g.tobytes()


@pytest.mark.parametrize("earlier_entry", [False, True])
def test_fold_returning_an_outside_tensor_records_nothing(earlier_entry):
    x = Tensor(np.arange(3.0), requires_grad=True)
    outside = mul(x, 2.0) if earlier_entry else x
    before = len(active_tape())

    def fn(t):
        mul(t, 5.0)  # taped, but nothing it produces reaches the fold's output
        return outside

    assert tensor.fold("outside", fn, x) is outside
    assert len(active_tape()) == before
    backward(tsum(mul(outside, 3.0)))
    np.testing.assert_array_equal(x.grad, np.full(3, 6.0 if earlier_entry else 3.0))


def test_fused_lmm_ops_are_one_tape_entry_each():
    rng = np.random.default_rng(4)
    x, gain, bias = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 5, 8), (8,), (8,)))
    q, k, v = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 5, 8), (2, 3, 8), (2, 3, 8)))
    tape = active_tape()
    before = len(tape)
    out = ops.layer_norm(x, gain, bias) + ops.attention_core(q, k, v, 2)
    loss = ops.codeword_nll(softmax(out), rng.integers(0, 8, (2, 5)))
    assert [e.op for e in tape.entries[before:]] == ["layer_norm", "attention", "add", "softmax", "codeword_nll"]
    backward(loss)


def _f32(*arrays):
    return (Tensor(np.asarray(a, np.float32), requires_grad=True) for a in arrays)


OVERFLOWS = {
    # the variance overflows; the inverse std would then be 0 and the output `bias`
    "layer_norm": lambda: ops.layer_norm(*_f32([[2e19, -2e19, 0.0, 1.0]], np.ones(4), np.zeros(4))),
    # one score overflows to -Inf; the softmax would give it a finite 0 weight
    "attention": lambda: ops.attention_core(
        *_f32(np.full((1, 2, 4), 1e20), [[[1.0] * 4, [-1e20] * 4]], np.ones((1, 2, 4))), 2),
    # a probability below -LOG_EPS at a label: its log is NaN (indices cannot overflow the mean)
    "codeword_nll": lambda: ops.codeword_nll(*_f32([[0.5, -0.5], [0.5, 0.5]]), np.array([1, 0])),
}


@pytest.mark.parametrize("op", sorted(OVERFLOWS))
def test_fused_lmm_op_overflow_raises_and_leaves_tape_clean(op):
    tape = active_tape()
    before = len(tape)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteError, match=op):
            OVERFLOWS[op]()
    assert len(tape) == before


def _leaf(*shape):
    return Tensor(np.ones(shape), requires_grad=True)


def _zero_row_leaf(*shape):
    leaf = _leaf(*shape)
    leaf.data[-1] = 0.0
    return leaf


def _nan_leaf(*shape):
    leaf = _leaf(*shape)
    leaf.data[(0,) * len(shape)] = np.nan  # past the Tensor constructor's own check
    return leaf


def _nan_block():
    """An `AttentionBlock` at d = 4 whose feed-forward output weight holds a NaN."""
    block = AttentionBlock(4, 2, 8, np.random.default_rng(0))
    block.ffn.fc2.weight.data[0, 0] = np.nan
    return block


def _denoiser_mse(x, target, w_in=(4, 3)):
    """`ops.denoiser_mse` at batch 2, latent 4, hidden 3, two time features and a two-wide
    condition, with latent `x`, a constant `target` and weight `w_in`."""
    shapes = [w_in, (3,), (2, 3), (3,), (2, 3), (3,), (3, 3), (3,), (3, 4), (4,), (2, 4), (4,)]
    return ops.denoiser_mse(x, _leaf(2, 2), _leaf(2, 2), target, *[_leaf(*s) for s in shapes])


def _nan_denoiser_predict():
    """`DenoiserNet.predict` at latent 4 through an input weight that holds a NaN."""
    net = DenoiserNet((4,), 2, 2, 3, np.random.default_rng(0))
    net.in_proj.weight.data[0, 0] = np.nan
    return net.predict(np.ones((2, 4)), 1, np.ones((2, 2)))


def _mlp_leaves(x, w2=None, labels=(0, 3)):
    """`ops.mlp_cross_entropy`'s inputs at hidden 2 and four classes, with input `x`."""
    return [x, _leaf(3, 2), _leaf(2), _leaf(2, 4) if w2 is None else w2, _leaf(4), np.array(labels)]


GUARDS = {
    "add": (lambda: add(_leaf(2, 3), _leaf(4)), ShapeError,
            "add: shapes (2, 3) and (4,) are not broadcastable"),
    "power": (lambda: power(_leaf(2), np.array([2.0])), TypeError,
              "power: exponent must be a python scalar"),
    "matmul": (lambda: matmul(_leaf(3), _leaf(3)), ShapeError,
               "matmul: operands must have ndim >= 2, got (3,) and (3,)"),
    "broadcast_to": (lambda: broadcast_to(_leaf(3), (2, 4)), ShapeError,
                     "broadcast_to: cannot broadcast (3,) to (2, 4)"),
    "concat": (lambda: concat([]), ValueError, "concat: need at least one tensor"),
    "linear_bias": (lambda: ops.linear(_leaf(2, 3), _leaf(3, 4), _leaf(5)), ShapeError,
                    "linear: bias (5,) does not broadcast to (2, 4)"),
    "layer_norm_gain": (lambda: ops.layer_norm(_leaf(2, 4), _leaf(3), _leaf(4)), ShapeError,
                        "layer_norm: gain/bias (3,)/(4,) must match last axis of (2, 4)"),
    "layer_norm_bias": (lambda: ops.layer_norm(_leaf(2, 4), _leaf(4), _leaf(3)), ShapeError,
                        "layer_norm: gain/bias (4,)/(3,) must match last axis of (2, 4)"),
    "lstm_sequence": (lambda: ops.lstm_sequence(_leaf(3), _leaf(3, 8), _leaf(2, 8), _leaf(8)), ShapeError,
                      "lstm_sequence: input must be (..., T, d_in), got (3,)"),
    "mse_loss": (lambda: ops.mse_loss(_leaf(2, 3), _leaf(3, 2)), ShapeError,
                 "mse_loss: shapes (2, 3) and (3, 2) differ"),
    "cross_entropy": (lambda: ops.cross_entropy(_leaf(2, 3), np.ones((2, 4))), ShapeError,
                      "cross_entropy: shapes (2, 3) and (2, 4) differ"),
    "cross_entropy_nan": (lambda: ops.cross_entropy(_nan_leaf(2, 3), np.eye(3)[[0, 2]]), NonFiniteError,
                          "cross_entropy: output contains NaN or Inf"),
    "denoiser_mse_weights": (lambda: _denoiser_mse(_leaf(2, 4), np.zeros((2, 4)), w_in=(5, 3)), ShapeError,
                             "denoiser_mse: weights [(5, 3), (3,), (2, 3), (3,), (2, 3), (3,), (3, 3), (3,), "
                             "(3, 4), (4,), (2, 4), (4,)] do not fit latent (2, 4), time features (2, 2) and "
                             "condition (2, 2)"),
    "predict_nan": (_nan_denoiser_predict, NonFiniteError, "DenoiserNet.predict: output contains NaN or Inf"),
    "denoiser_mse": (lambda: _denoiser_mse(_leaf(2, 4), np.zeros((2, 2, 2))), ShapeError,
                     "denoiser_mse: target (2, 2, 2) differs from latent (2, 4)"),
    "denoiser_mse_nan": (lambda: _denoiser_mse(_nan_leaf(2, 4), np.zeros((2, 4))), NonFiniteError,
                         "denoiser_mse: output contains NaN or Inf"),
    "one_hot_labels_negative": (lambda: ops.one_hot_labels(np.array([-1, 0]), 3), ValueError,
                                "one_hot_labels: labels span [-1, 0], outside [0, 3)"),
    "one_hot_labels_n_classes": (lambda: ops.one_hot_labels(np.array([0, 3]), 3), ValueError,
                                 "one_hot_labels: labels span [0, 3], outside [0, 3)"),
    "mlp_cross_entropy": (lambda: ops.mlp_cross_entropy(*_mlp_leaves(_leaf(2, 3), w2=_leaf(2, 5))), ShapeError,
                          "mlp_cross_entropy: weights and labels [(3, 2), (2,), (2, 5), (4,), (2,)] do not fit "
                          "input (2, 3)"),
    "mlp_cross_entropy_label": (lambda: ops.mlp_cross_entropy(*_mlp_leaves(_leaf(2, 3), labels=[-1, 3])),
                                ValueError, "mlp_cross_entropy: labels span [-1, 3], outside [0, 4)"),
    "mlp_cross_entropy_label_k": (lambda: ops.mlp_cross_entropy(*_mlp_leaves(_leaf(2, 3), labels=[0, 4])),
                                  ValueError, "mlp_cross_entropy: labels span [0, 4], outside [0, 4)"),
    "mlp_cross_entropy_nan": (lambda: ops.mlp_cross_entropy(*_mlp_leaves(_nan_leaf(2, 3))), NonFiniteError,
                              "mlp_cross_entropy: output contains NaN or Inf"),
    # a logit that overflows to -Inf off the label leaves the loss finite, but not the log-probabilities
    "mlp_cross_entropy_inf_logit": (lambda: ops.mlp_cross_entropy(*_mlp_leaves(
                                        _leaf(2, 3), w2=Tensor(np.array([[0.0, -1e308, -1e308, -1e308]] * 2)),
                                        labels=[0, 0])),
                                    NonFiniteError, "mlp_cross_entropy: output contains NaN or Inf"),
    "codeword_nll": (lambda: ops.codeword_nll(_leaf(2, 3), np.ones(3, np.int64)), ShapeError,
                     "codeword_nll: probabilities (2, 3) do not fit labels (3,)"),
    "codeword_nll_label": (lambda: ops.codeword_nll(_leaf(2, 3), np.array([0, 3])), ValueError,
                           "codeword_nll: labels span [0, 3], outside [0, 3)"),
    # a NaN weight past the block's first eight ops: none of them, nor the block, stays on the tape
    "self_attention_block_nan": (lambda: _nan_block()(_leaf(2, 3, 4)), NonFiniteError,
                                 "feed_forward: output contains NaN or Inf"),
    "feed_forward_weights": (lambda: ops.feed_forward(_leaf(2, 3), _leaf(3, 5), _leaf(5), _leaf(4, 3), _leaf(3)),
                             ShapeError, "feed_forward: inner dimensions differ, (2, 5) @ (4, 3)"),
    "feed_forward_nan": (lambda: ops.feed_forward(_nan_leaf(2, 3), _leaf(3, 4), _leaf(4), _leaf(4, 3), _leaf(3)),
                         NonFiniteError, "feed_forward: output contains NaN or Inf"),
    "si_loss_shape": (lambda: ops.si_loss(_leaf(2, 3), _leaf(2, 4), _leaf(2, 3)), ShapeError,
                      "si_loss: output (2, 3), caption (2, 4) and label (2, 3) shapes differ"),
    "si_loss_zero_output": (lambda: ops.si_loss(_zero_row_leaf(2, 3), _leaf(2, 3), _leaf(2, 3)), ValueError,
                            "si_loss: zero-norm output row"),
    "si_loss_zero_caption": (lambda: ops.si_loss(_leaf(2, 3), _zero_row_leaf(2, 3), _leaf(2, 3)), ValueError,
                             "si_loss: zero-norm caption row"),
    "si_loss_zero_label": (lambda: ops.si_loss(_leaf(2, 3), _leaf(2, 3), _zero_row_leaf(2, 3)), ValueError,
                           "si_loss: zero-norm label row"),
    # a float32 row whose squared norm overflows: its norm product is Inf, the inverse 0 and the cosine finite
    "si_loss_overflow": (lambda: ops.si_loss(*_f32([[1e20] * 3, [1.0] * 3], np.ones((2, 3)), np.ones((2, 3)))),
                         NonFiniteError, "si_loss: output contains NaN or Inf"),
    "attention_heads": (lambda: Attention(6, 4, np.random.default_rng(0)), ShapeError,
                        "Attention: dim 6 not divisible by 4 heads"),
    "load_state": (lambda: Linear(3, 2, np.random.default_rng(0)).load_state(
                       {"weight": np.zeros((2, 3)), "bias": np.zeros(2)}), ShapeError,
                   "load_state: weight expects (3, 2), got (2, 3)"),
    "lmm_loss": (lambda: lmm_loss(np.zeros((3, 4)), _leaf(3, 5), np.ones((3, 2)), _leaf(3, 2)), ShapeError,
                 "mse_loss: shapes (3, 5) and (3, 4) differ"),
}


@pytest.mark.parametrize("case", sorted(GUARDS))
def test_op_guards_raise_and_record_nothing(case):
    call, error, message = GUARDS[case]
    before = len(active_tape())
    with np.errstate(over="ignore"), pytest.raises(error, match=f"^{re.escape(message)}"):
        call()
    assert len(active_tape()) == before
    add(_leaf(1), _leaf(1))  # the tape records at its top level again: one tracked op, one entry
    assert len(active_tape()) == before + 1
    del active_tape().entries[before:]


def test_attention_core_rejects_mismatched_operands():
    q, kv = Tensor(np.zeros((2, 5, 8))), Tensor(np.zeros((2, 3, 8)))
    with pytest.raises(ShapeError, match="not divisible"):
        ops.attention_core(q, kv, kv, 3)
    with pytest.raises(ShapeError, match="do not match"):
        ops.attention_core(q, Tensor(np.zeros((3, 3, 8))), Tensor(np.zeros((3, 3, 8))), 2)
    with pytest.raises(ShapeError, match="do not match"):
        ops.attention_core(q, kv, Tensor(np.zeros((2, 4, 8))), 2)


# --- batched x @ 2-D weight: one GEMM over the folded rows --------------------


def _per_item_product(x, w):
    """Oracle: one np.matmul per leading index of x."""
    lead = x.shape[:-2]
    items = [np.matmul(x[idx], w) for idx in np.ndindex(lead)]
    return np.stack(items).reshape(lead + (x.shape[-2], w.shape[-1]))


def _noncontiguous(x):
    """x's values in a view whose leading axes are not C-ordered."""
    return np.ascontiguousarray(np.swapaxes(x, 0, 1)).swapaxes(0, 1)


# The shapes the pipeline multiplies: the tiny chain's 2-3 visible units at
# d = 32 and the medium geometry's 28 visible units at d = 256, plus 4-D ones.
FOLD_CASES = [
    ((16, 3, 32), (32, 32), np.float32, False),
    ((16, 28, 256), (256, 256), np.float32, False),
    ((16, 28, 256), (256, 256), np.float32, True),
    ((2, 3, 10, 32), (32, 64), np.float32, False),
    ((4, 10, 32), (32, 32), np.float64, False),
    ((2, 3, 10, 32), (32, 64), np.float64, True),
]


@pytest.mark.parametrize("x_shape, w_shape, dtype, strided", FOLD_CASES)
def test_folded_forward_equals_per_item_matmul(x_shape, w_shape, dtype, strided):
    rng = np.random.default_rng(sum(x_shape))
    x = rng.standard_normal(x_shape).astype(dtype)
    if strided:
        x = _noncontiguous(x)
        assert not x.flags.c_contiguous
    w = rng.standard_normal(w_shape).astype(dtype)
    b = rng.standard_normal(w_shape[-1]).astype(dtype)
    expected = _per_item_product(x, w)
    tape = active_tape()
    before = len(tape)
    for needs_grad in (False, True):
        got = matmul(Tensor(x, requires_grad=needs_grad), Tensor(w)).data
        assert got.dtype == dtype and got.shape == expected.shape
        assert np.array_equal(got, expected)
        got = ops.linear(Tensor(x, requires_grad=needs_grad), Tensor(w), Tensor(b)).data
        assert np.array_equal(got, expected + b)
    assert [e.op for e in tape.entries[before:]] == ["matmul", "linear"]
    del tape.entries[before:]


@pytest.mark.parametrize("x_shape, w_shape, dtype", [
    ((16, 1, 32), (32, 32), np.float64),  # one row per item: numpy takes gemv per item
    ((16, 28, 512), (512, 16), np.float32),  # per item below OpenBLAS's small-matrix cut-off
])
def test_folded_forward_where_blas_switches_kernel_agrees_in_rounding(x_shape, w_shape, dtype):
    rng = np.random.default_rng(3)
    x = rng.standard_normal(x_shape).astype(dtype)
    w = rng.standard_normal(w_shape).astype(dtype)
    got = matmul(Tensor(x), Tensor(w)).data
    rtol = 1e-13 if dtype == np.float64 else 1e-5
    np.testing.assert_allclose(got, _per_item_product(x, w), rtol=rtol, atol=rtol * np.abs(got).max())


def _fold_grads(x, w, g):
    a, b = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
    return _matmul_grads(g, a, b), matmul_grads_per_item(g, a, b)


GRAD_CASES = [
    ((16, 28, 32), (32, 24), False),  # 28 rows per item
    ((16, 10, 32), (32, 24), False),  # 10 rows per item
    ((2, 3, 10, 8), (8, 6), False),
    ((2, 3, 10, 8), (8, 6), True),
]


@pytest.mark.parametrize("x_shape, w_shape, strided", GRAD_CASES)
def test_folded_gradients_match_per_item_formula_in_float64(x_shape, w_shape, strided):
    rng = np.random.default_rng(len(x_shape) + x_shape[-2])
    x = rng.standard_normal(x_shape)
    x = _noncontiguous(x) if strided else x
    w = rng.standard_normal(w_shape)
    g = rng.standard_normal(x_shape[:-1] + w_shape[-1:])
    (ga, gw), (ga_ref, gw_ref) = _fold_grads(x, w, g)
    for got, ref in ((ga, ga_ref), (gw, gw_ref)):
        assert got.shape == ref.shape and got.dtype == np.float64
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())


@pytest.mark.parametrize("x_shape, w_shape, strided", GRAD_CASES)
def test_folded_gradients_in_float32_stay_within_1e_5_of_float64(x_shape, w_shape, strided):
    rng = np.random.default_rng(len(x_shape) + x_shape[-2])
    x = rng.standard_normal(x_shape)
    x = _noncontiguous(x) if strided else x
    w = rng.standard_normal(w_shape)
    g = rng.standard_normal(x_shape[:-1] + w_shape[-1:])
    _, reference = _fold_grads(x, w, g)
    folded, per_item = _fold_grads(*(v.astype(np.float32) for v in (x, w, g)))
    for got, old, ref in zip(folded, per_item, reference):
        assert got.dtype == np.float32 and got.shape == ref.shape
        scale = np.abs(ref).max()
        assert np.abs(got - ref).max() <= 1e-5 * scale
        assert np.abs(old - ref).max() <= 1e-5 * scale


@pytest.mark.parametrize("x_shape, w_shape", [
    ((2, 3, 0), (0, 5)),  # zero inner dimension: reshape(-1, 0) would raise here
    ((0, 3, 4), (4, 5)),  # zero leading rows
])
def test_folded_matmul_handles_empty_operands(x_shape, w_shape):
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal(x_shape), requires_grad=True)
    w = Tensor(rng.standard_normal(w_shape), requires_grad=True)
    out = matmul(x, w)
    assert np.array_equal(out.data, np.matmul(x.data, w.data))
    assert out.shape == x_shape[:-1] + w_shape[-1:]
    backward(tsum(out))
    assert x.grad.shape == x_shape and w.grad.shape == w_shape
    assert not x.grad.any() and not w.grad.any()


class _GemmCounter(np.ndarray):
    """An upstream gradient that counts the matmuls it takes part in."""

    calls = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _GemmCounter.calls += 1
        inputs = tuple(i.view(np.ndarray) if isinstance(i, _GemmCounter) else i for i in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("x_needs_grad, gemms", [(True, 2), (False, 1)])
def test_folded_backward_skips_the_input_gemm_when_x_needs_no_gradient(x_needs_grad, gemms):
    rng = np.random.default_rng(5)
    x, w = rng.standard_normal((3, 4, 6)), rng.standard_normal((6, 5))
    g = rng.standard_normal((3, 4, 5)).view(_GemmCounter)
    _GemmCounter.calls = 0
    ga, gw = _matmul_grads(g, Tensor(x, requires_grad=x_needs_grad), Tensor(w, requires_grad=True))
    assert _GemmCounter.calls == gemms
    assert (ga is None) == (not x_needs_grad)
    assert type(gw) is np.ndarray and gw.shape == (6, 5)
