"""Backward-pass contracts: seeding, accumulation, determinism, tape lifecycle."""

import weakref

import numpy as np
import pytest

from brainvis_forge.autodiff import Tensor, active_tape, backward, no_grad, tsum
from brainvis_forge.autodiff.ops import mse_loss
from brainvis_forge.autodiff.tensor import _make, add, mul


def test_backward_of_sum_is_ones():
    x = Tensor(np.random.default_rng(0).standard_normal((3, 4)), requires_grad=True)
    backward(tsum(x))
    np.testing.assert_array_equal(x.grad, np.ones((3, 4), dtype=x.data.dtype))


def test_backward_of_mse_at_minimum_is_zero():
    x0 = np.random.default_rng(1).standard_normal(5)
    x = Tensor(x0.copy(), requires_grad=True)
    backward(mse_loss(x, Tensor(x0)))
    np.testing.assert_array_equal(x.grad, np.zeros(5, dtype=x.data.dtype))


def test_non_scalar_loss_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, 2.0)
    with pytest.raises(ValueError, match="scalar"):
        backward(y)
    active_tape().clear()


def test_empty_tape_rejected():
    with pytest.raises(RuntimeError, match="tape is empty"):
        backward(Tensor(np.array(1.0)))


def test_loss_no_entry_produced_rejected_and_tape_emptied():
    x = Tensor(np.ones(3), requires_grad=True)
    mul(x, 2.0)
    loss = Tensor(np.array(1.0), requires_grad=True)
    with pytest.raises(RuntimeError, match="^backward: no recorded operation produced the loss$"):
        backward(loss)
    assert len(active_tape()) == 0 and loss.grad is None and x.grad is None


def test_tape_cleared_after_backward():
    x = Tensor(np.ones(3), requires_grad=True)
    backward(tsum(mul(x, x)))
    assert len(active_tape()) == 0


def test_backward_whose_vjp_raises_leaves_the_tape_empty():
    x = Tensor(np.ones(3), requires_grad=True)

    def failing_vjp(g):
        raise RuntimeError("vjp failed")

    y = _make("failing", (x,), x.data * 2.0, failing_vjp)
    loss = tsum(mul(y, y))
    assert len(active_tape()) == 3
    with pytest.raises(RuntimeError, match="vjp failed"):
        backward(loss)
    assert len(active_tape()) == 0
    backward(tsum(mul(x, 3.0)))  # the next forward's backward sees only its own entries
    np.testing.assert_array_equal(x.grad, np.full(3, 3.0))


def test_backward_frees_each_entry_once_its_vjp_has_run():
    x = Tensor(np.ones(3), requires_grad=True)
    saved = np.arange(3.0)
    saved_ref, seen = weakref.ref(saved), []
    # the first entry's VJP runs last, after the second entry's, which reads `saved`
    first = _make("first", (x,), x.data + 1.0, lambda g: (seen.append(saved_ref()) or g,))
    second = _make("second", (first,), first.data * saved, lambda g, saved=saved: (g * saved,))
    del saved
    backward(tsum(second))
    assert seen == [None]
    np.testing.assert_array_equal(x.grad, np.arange(3.0))


def test_gradients_accumulate_across_backward_calls():
    x = Tensor(np.ones(3), requires_grad=True)
    backward(tsum(mul(x, 2.0)))
    first = x.grad.copy()
    backward(tsum(mul(x, 3.0)))
    np.testing.assert_allclose(x.grad, first + 3.0)


def test_gradient_additivity_sum_of_losses():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((4, 4))

    def grads_of(fn):
        x = Tensor(base.copy(), requires_grad=True)
        backward(fn(x))
        return x.grad

    g1 = grads_of(lambda x: tsum(mul(x, x)))
    g2 = grads_of(lambda x: mse_loss(x, Tensor(np.zeros((4, 4)))))
    g_sum = grads_of(lambda x: tsum(mul(x, x)) + mse_loss(x, Tensor(np.zeros((4, 4)))))
    np.testing.assert_allclose(g_sum, g1 + g2, rtol=1e-6)


def test_no_grad_suppresses_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = mul(x, 2.0)
    assert not y.requires_grad
    assert len(active_tape()) == 0


def test_shared_input_used_twice_accumulates():
    x = Tensor(np.array([3.0]), requires_grad=True)
    backward(tsum(mul(x, x)))  # d/dx x^2 = 2x
    np.testing.assert_allclose(x.grad, [6.0])


def test_determinism_bitwise():
    def run():
        rng = np.random.default_rng(42)
        x = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        w = Tensor(rng.standard_normal((6, 6)), requires_grad=True)
        from brainvis_forge.autodiff import softmax
        from oracles import matmul

        loss = tsum(softmax(matmul(x, w), axis=-1))
        backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    l1, gx1, gw1 = run()
    l2, gx2, gw2 = run()
    assert l1 == l2
    np.testing.assert_array_equal(gx1, gx2)
    np.testing.assert_array_equal(gw1, gw2)


def test_leaf_gradient_accumulates_in_reverse_recording_order():
    # x feeds three ops; h = x * c3 is consumed twice by one op.  In float32
    # the sum's order shows in the bits, so .grad must be (g3 + g2) + g1.
    rng = np.random.default_rng(11)
    x0, w, c1, c2, c3 = (
        (rng.standard_normal(64) * scale).astype(np.float32) for scale in (1.0, 1.0, 1e4, 1.0, 1e-2)
    )
    x = Tensor(x0, requires_grad=True)
    y1, y2, h = mul(x, c1), mul(x, c2), mul(x, c3)
    backward(tsum(mul(add(add(y1, y2), mul(h, h)), w)))

    g1, g2 = w * c1, w * c2
    g3 = (w * h.data + w * h.data) * c3
    assert x.grad.dtype == np.float32
    np.testing.assert_array_equal(x.grad, (g3 + g2) + g1)
    assert not np.array_equal((g3 + g2) + g1, (g1 + g2) + g3)  # the order is visible
