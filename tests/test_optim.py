"""Adam update semantics, the parameter store and the shared training loop."""

import re
import tracemalloc

import numpy as np
import pytest

from brainvis_forge.autodiff import (
    ParamStore, ShapeError, Tensor, active_tape, adam_step, backward, no_grad, predict, train_epoch, tsum,
)
from brainvis_forge.autodiff import optim
from brainvis_forge.autodiff.nn import Linear
from oracles import as_float64, power


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


def _trained_store() -> ParamStore:
    """Two parameters after one step, so every arena buffer holds non-zero bytes."""
    store = make_store({"a": np.array([1.0, -2.0]), "b": np.array([0.5, 0.0, 3.0])})
    adam_step(store, {"a": np.array([0.3, -1.0]), "b": np.array([2.0, 0.1, -0.4])}, lr=0.1)
    return store


def _state(store: ParamStore) -> tuple:
    return store._p.tobytes(), store._m.tobytes(), store._v.tobytes(), store.step_count


def test_unknown_gradient_name_is_error():
    store = _trained_store()
    before = _state(store)
    with pytest.raises(KeyError, match=re.escape("adam_step: gradients for unknown parameters ['zzz']")):
        adam_step(store, {"a": np.ones(2), "zzz": np.ones(2)}, lr=0.1)
    assert _state(store) == before


def test_duplicate_registration_rejected():
    store = make_store({"a": np.zeros(2)})
    with pytest.raises(ValueError, match="duplicate"):
        store.register("a", Tensor(np.zeros(2), requires_grad=True))


def test_step_discards_a_stale_gradient():
    # The stale backward leaves d(w^2)/dw = (2, -4) on w; a step on sum(w)
    # must see only its own gradient (1, 1), as a store without it does.
    stale = make_store({"w": np.array([1.0, -2.0])})
    backward(tsum(power(stale["w"], 2)))
    clean = make_store({"w": np.array([1.0, -2.0])})
    assert stale.step(lambda: tsum(stale["w"]), lr=0.1) == clean.step(lambda: tsum(clean["w"]), lr=0.1) == -1.0
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
    layer = as_float64(Linear(3, 2, np.random.default_rng(0)))
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


# --- the flat parameter arena ---------------------------------------------


def _per_tensor_adam_step(store, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8, trainable=None):
    """The per-parameter Adam update the arena replaced, kept verbatim as the oracle."""
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


class _PerTensorStore:
    """The state `_per_tensor_adam_step` reads: tensors and their own moments."""

    def __init__(self, values):
        self._params = {name: Tensor(v.copy(), requires_grad=True) for name, v in values.items()}
        self._m = {name: np.zeros_like(t.data) for name, t in self._params.items()}
        self._v = {name: np.zeros_like(t.data) for name, t in self._params.items()}
        self.step_count = 0


SHAPES = {"a": (3, 4), "b": (5,), "c": (2, 3, 2), "d": (), "e": (7, 1)}
GRADIENT_SUBSETS = {
    "all present": list(SHAPES),
    "first missing": list(SHAPES)[1:],
    "middle missing": ["a", "b", "d", "e"],
    "last missing": list(SHAPES)[:-1],
}


# Blocks of 1, 4 and 7 floats split the 37-float arena into segments at every
# parameter boundary, at some, and around the gradient-less gaps.
@pytest.mark.parametrize("block", [1, 4, 7, optim._ADAM_BLOCK], ids=["block1", "block4", "block7", "default"])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_arena_adam_is_bit_equal_to_the_per_tensor_update(dtype, block, monkeypatch):
    monkeypatch.setattr(optim, "_ADAM_BLOCK", block)
    rng = np.random.default_rng(17)
    values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in SHAPES.items()}
    arena = ParamStore()
    for name, v in values.items():
        arena.register(name, Tensor(v.copy(), requires_grad=True))
    reference = _PerTensorStore(values)
    subsets = list(GRADIENT_SUBSETS.values())
    for step in range(25):
        names = subsets[rng.integers(len(subsets))]
        # float64 gradients into float32 parameters on odd steps exercise the cast
        g_dtype = np.float64 if step % 2 else dtype
        grads = {n: (rng.standard_normal(SHAPES[n]) * 10.0 ** rng.integers(-3, 2)).astype(g_dtype) for n in names}
        lr = float(rng.uniform(1e-3, 1e-1))
        adam_step(arena, {n: g.copy() for n, g in grads.items()}, lr)
        _per_tensor_adam_step(reference, grads, lr)
    assert arena.step_count == reference.step_count == 25
    for name in SHAPES:
        assert arena[name].data.dtype == reference._params[name].data.dtype == dtype
        assert arena[name].data.tobytes() == reference._params[name].data.tobytes(), name


@pytest.mark.parametrize("dtype, first_exact", [(np.float32, 165), (np.float64, 356)])
def test_arena_adam_stays_bit_equal_past_the_exact_bias_correction(dtype, first_exact):
    # From step `first_exact` on, 1 - 0.9^t rounds to exactly 1 in `dtype` and
    # `adam_step` skips m's divide by it; 400 steps cross both boundaries.
    assert dtype(1.0 - 0.9 ** (first_exact - 1)) < 1.0 == dtype(1.0 - 0.9 ** first_exact)
    rng = np.random.default_rng(18)
    values = {name: rng.standard_normal(shape).astype(dtype) for name, shape in SHAPES.items()}
    arena = ParamStore()
    for name, v in values.items():
        arena.register(name, Tensor(v.copy(), requires_grad=True))
    reference = _PerTensorStore(values)
    subsets = list(GRADIENT_SUBSETS.values())
    for step in range(400):
        names = subsets[step % len(subsets)]  # one parameter has no gradient on three steps in four
        grads = {n: (rng.standard_normal(SHAPES[n]) * 10.0 ** rng.integers(-3, 2)).astype(dtype) for n in names}
        adam_step(arena, {n: g.copy() for n, g in grads.items()}, 1e-2)
        _per_tensor_adam_step(reference, grads, 1e-2)
        for name in SHAPES:
            assert arena[name].data.tobytes() == reference._params[name].data.tobytes(), (step, name)
    assert arena.step_count == 400


def test_adam_step_scratch_is_bounded_by_the_block_not_the_arena():
    # 2.2M float32s over 17 parameters, one of them larger than a block
    sizes = [optim._ADAM_BLOCK] * 12 + [optim._ADAM_BLOCK // 2 + 3] * 4 + [3 * optim._ADAM_BLOCK // 2]
    rng = np.random.default_rng(5)
    store = ParamStore()
    for i, size in enumerate(sizes):
        store.register(f"p{i}", Tensor(rng.standard_normal(size).astype(np.float32), requires_grad=True))
    grads = {name: rng.standard_normal(size).astype(np.float32) for name, size in zip(store.names(), sizes)}
    assert sum(sizes) >= 2_000_000
    scratch = 2 * max(optim._ADAM_BLOCK, max(sizes)) * 4 + (64 << 10)
    tracemalloc.start()
    try:
        adam_step(store, grads, lr=0.01)  # builds the arena: parameters and both moments
        built, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        adam_step(store, grads, lr=0.01)
        step_peak = tracemalloc.get_traced_memory()[1] - built
    finally:
        tracemalloc.stop()
    assert build_peak < 3 * sum(sizes) * 4 + scratch
    assert step_peak < scratch


def _shares_arena(store: ParamStore) -> bool:
    return all(np.shares_memory(store[n].data, store._p) and store[n].data.base is store._p for n in store.names())


def test_parameters_stay_in_the_arena_through_steps_and_load_state():
    rng = np.random.default_rng(4)
    layer = as_float64(Linear(3, 2, rng))
    store = ParamStore(layer=layer)
    x = Tensor(rng.standard_normal((5, 3)))
    store.step(lambda: tsum(power(layer(x), 2)), lr=0.01)
    assert _shares_arena(store)
    trained = layer.state()
    layer.load_state({name: np.full_like(arr, 0.5) for name, arr in trained.items()})
    assert _shares_arena(store)
    np.testing.assert_array_equal(store["layer.weight"].data, np.full((3, 2), 0.5))
    for _ in range(3):
        store.step(lambda: tsum(power(layer(x), 2)), lr=0.01)
    assert _shares_arena(store)
    assert not np.array_equal(store["layer.weight"].data, np.full((3, 2), 0.5))


def test_rebound_parameter_is_an_error_not_a_detached_copy():
    store = make_store({"w": np.array([1.0, -2.0]), "b": np.zeros(3)})
    adam_step(store, {"w": np.ones(2), "b": np.ones(3)}, lr=0.1)
    store["b"].data = store["b"].data.copy()
    with pytest.raises(RuntimeError, match=r"b\.data was rebound"):
        adam_step(store, {"w": np.ones(2)}, lr=0.1)
    assert store.step_count == 1


def test_mixed_dtypes_in_one_store_are_rejected():
    store = make_store({"w": np.zeros(2)})
    with pytest.raises(TypeError, match="float32.*float64"):
        store.register("v", Tensor(np.zeros(2, dtype=np.float32), requires_grad=True))


def test_registering_after_a_step_keeps_earlier_moments():
    # b registered late must train exactly as a b that had no gradient so far
    g_a, g_b = np.array([0.3, -1.2]), np.array([2.0, 0.5, -0.1])
    early = make_store({"a": np.zeros(2), "b": np.ones(3)})
    late = make_store({"a": np.zeros(2)})
    for store in (early, late):
        for _ in range(3):
            adam_step(store, {"a": g_a.copy()}, lr=0.05)
    late.register("b", Tensor(np.ones(3), requires_grad=True))
    for store in (early, late):
        for _ in range(3):
            adam_step(store, {"a": g_a.copy(), "b": g_b.copy()}, lr=0.05)
    for name in ("a", "b"):
        assert early[name].data.tobytes() == late[name].data.tobytes()
    assert _shares_arena(late)


def test_shape_error_leaves_the_store_untouched():
    store = make_store({"w": np.array([1.0, -2.0])})
    with pytest.raises(ShapeError, match="gradient for w"):
        adam_step(store, {"w": np.ones(3)}, lr=0.1)
    assert store.step_count == 0
    np.testing.assert_array_equal(store["w"].data, [1.0, -2.0])
    # a later parameter's bad shape refuses the step after an earlier one passed its check
    store = _trained_store()
    before = _state(store)
    with pytest.raises(ShapeError, match=re.escape("adam_step: gradient for b has shape (4,), expected (3,)")):
        adam_step(store, {"a": np.ones(2), "b": np.ones(4)}, lr=0.1)
    assert _state(store) == before
