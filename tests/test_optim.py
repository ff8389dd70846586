"""Adam update semantics, the parameter store and the shared training loop."""

import numpy as np
import pytest

from brainvis_forge.autodiff import (
    ParamStore, Tensor, active_tape, adam_step, backward, no_grad, power, predict, train_epoch, tsum,
)
from brainvis_forge.autodiff.nn import Linear


def make_store(values: dict[str, np.ndarray]) -> ParamStore:
    store = ParamStore()
    for name, v in values.items():
        store.register(name, Tensor(np.asarray(v, dtype=np.float64), requires_grad=True))
    return store


def test_zero_gradient_leaves_parameters_unchanged():
    store = make_store({"w": np.array([1.0, -2.0])})
    adam_step(store, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(store["w"].data, [1.0, -2.0])
    assert store.step_count == 1


def test_first_step_matches_hand_formula():
    # At t=1: m_hat = g, v_hat = g^2, so the update is -lr * g / (|g| + eps).
    g = np.array([0.3, -0.7, 2.0])
    lr, eps = 0.05, 1e-8
    store = make_store({"w": np.zeros(3)})
    adam_step(store, {"w": g.copy()}, lr=lr, eps=eps)
    expected = -lr * g / (np.abs(g) + eps)
    np.testing.assert_allclose(store["w"].data, expected, rtol=1e-12)


def test_constant_gradient_moves_against_its_sign():
    store = make_store({"w": np.array([0.0, 0.0])})
    g = np.array([1.0, -1.0])
    for _ in range(50):
        adam_step(store, {"w": g.copy()}, lr=0.01)
    assert store["w"].data[0] < 0 < store["w"].data[1]


def test_missing_trainable_gradient_is_error():
    store = make_store({"a": np.zeros(2), "b": np.zeros(2)})
    with pytest.raises(KeyError, match="missing gradients.*'b'"):
        adam_step(store, {"a": np.ones(2)}, lr=0.1, trainable=["a", "b"])


def test_unknown_gradient_name_is_error():
    store = make_store({"a": np.zeros(2)})
    with pytest.raises(KeyError, match="unknown"):
        adam_step(store, {"zzz": np.ones(2)}, lr=0.1)


def test_duplicate_registration_rejected():
    store = make_store({"a": np.zeros(2)})
    with pytest.raises(ValueError, match="duplicate"):
        store.register("a", Tensor(np.zeros(2), requires_grad=True))


def test_state_roundtrip_including_moments():
    store = make_store({"w": np.array([1.0, 2.0])})
    adam_step(store, {"w": np.array([0.5, -0.5])}, lr=0.1)
    snapshot = store.state()
    other = make_store({"w": np.zeros(2)})
    other.load_state(snapshot)
    assert other.step_count == store.step_count
    np.testing.assert_array_equal(other["w"].data, store["w"].data)
    np.testing.assert_array_equal(other._m["w"], store._m["w"])
    np.testing.assert_array_equal(other._v["w"], store._v["w"])


def test_step_discards_a_stale_gradient():
    # The stale backward leaves d(w^2)/dw = (2, -4) on w; a step on sum(w)
    # must see only its own gradient (1, 1), as a store without it does.
    stale = make_store({"w": np.array([1.0, -2.0])})
    backward(tsum(power(stale["w"], 2)))
    clean = make_store({"w": np.array([1.0, -2.0])})
    assert stale.step(tsum(stale["w"]), lr=0.1) == clean.step(tsum(clean["w"]), lr=0.1) == -1.0
    np.testing.assert_array_equal(stale["w"].data, clean["w"].data)
    np.testing.assert_allclose(clean["w"].data, [0.9, -2.1])
    assert stale.step_count == 1


def test_train_epoch_visits_rows_once_in_permutation_order_and_returns_mean_loss():
    store = make_store({"w": np.array([0.5])})
    rows = np.arange(100, 110)
    batches, losses = [], []

    def batch_loss(idx):
        batches.append(idx.copy())
        loss = tsum(store["w"] * float(len(batches)))
        losses.append(loss.item())
        return loss

    mean = train_epoch(store, np.random.default_rng(3), rows, 4, 0.01, batch_loss)
    assert [len(b) for b in batches] == [4, 4, 2]
    np.testing.assert_array_equal(np.concatenate(batches), np.random.default_rng(3).permutation(rows))
    assert store.step_count == 3
    assert mean == pytest.approx(sum(losses) / 3, rel=1e-12)


def test_predict_batches_rows_and_passes_none_through():
    layer = Linear(3, 2, np.random.default_rng(0), dtype=np.float64)
    x = np.random.default_rng(1).standard_normal((300, 3))
    calls = []

    def fn(rows, nothing):
        calls.append((len(rows), nothing))
        return layer(Tensor(rows))

    taped = len(active_tape().entries)
    out = predict(fn, x, None)
    assert len(active_tape().entries) == taped
    assert calls == [(256, None), (44, None)]
    with no_grad():
        np.testing.assert_allclose(out, layer(Tensor(x)).data, rtol=1e-12)


def test_keyword_modules_register_like_register_module():
    rng = np.random.default_rng(0)
    a, b = Linear(2, 3, rng), Linear(3, 1, rng)
    by_hand = ParamStore()
    by_hand.register_module("a", a)
    by_hand.register_module("b", b)
    by_keyword = ParamStore(a=a, b=b)
    assert by_keyword.names() == by_hand.names() == ["a.weight", "a.bias", "b.weight", "b.bias"]
    assert all(by_keyword[n] is by_hand[n] for n in by_hand.names())
