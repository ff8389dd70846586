"""A taped forward that raises leaves the tape as it found it: `tensor.scope`, and the
forwards that run in one (`fold`, `ParamStore.step` at every training site, the gradient check)."""

import numpy as np
import pytest

import brainvis_forge.align.train as align_train
import brainvis_forge.diffusion.ddpm as ddpm
import brainvis_forge.lmm.train as lmm_train
import brainvis_forge.metrics.surrogate as surrogate
from brainvis_forge.align import AlignmentNet, SemanticFixtures
from brainvis_forge.autodiff import NonFiniteError, ParamStore, ShapeError, Tensor, active_tape, ops, tsum
from brainvis_forge.autodiff.gradcheck import analytic_grads
from brainvis_forge.autodiff.nn import AttentionBlock, Linear
from brainvis_forge.autodiff.tensor import mul, scope
from brainvis_forge.diffusion import DenoiserNet, NoiseSchedule
from brainvis_forge.lmm import build_lmm_models
from oracles import as_float64, power


def _outside_entry() -> None:
    """Tape one `mul` entry outside any scope: it stays until the next `backward`."""
    mul(Tensor(np.ones(3), requires_grad=True), 2.0)


def _ops() -> list[str]:
    return [entry.op for entry in active_tape().entries]


def _fail_first_call(monkeypatch, module, name: str) -> list:
    """Make the first call of `module.name` record its real entry, note the tape's ops and raise
    a `NonFiniteError`; later calls pass through.  Returns the list the ops are noted in."""
    real, noted = getattr(module, name), []

    def failing(*args, **kwargs):
        out = real(*args, **kwargs)
        if not noted:
            noted.append(_ops())
            raise NonFiniteError(f"{name}: injected")
        return out

    monkeypatch.setattr(module, name, failing)
    return noted


def test_scope_drops_only_what_its_failed_body_recorded():
    rng = np.random.default_rng(0)
    a, w, b, w2 = (Tensor(rng.standard_normal(s), requires_grad=True) for s in ((2, 3), (3, 4), (4,), (3, 4)))
    _outside_entry()
    with pytest.raises(ShapeError):
        with scope() as mark:
            h = ops.linear(a, w, b)
            ops.linear(h, w2, b)  # (2, 4) @ (3, 4)
    assert mark == 1 and _ops() == ["mul"]
    with scope():
        ops.linear(a, w, b)
    assert _ops() == ["mul", "linear"]


def test_fold_nested_in_a_failed_scope_is_dropped():
    block = AttentionBlock(4, 2, 8, np.random.default_rng(1))
    x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 4)), requires_grad=True)
    _outside_entry()
    with pytest.raises(NonFiniteError):
        with scope():
            block(x)
            assert _ops() == ["mul", "self_attention_block"]
            raise NonFiniteError("injected")
    assert _ops() == ["mul"]


def _linear_store() -> tuple[Linear, ParamStore]:
    layer = as_float64(Linear(3, 2, np.random.default_rng(4)))
    return layer, ParamStore(layer=layer)


def test_failed_step_leaves_tape_and_store_as_they_were_and_the_next_step_is_clean():
    x = Tensor(np.random.default_rng(5).standard_normal((5, 3)))
    layer, store = _linear_store()
    before = {name: store[name].data.copy() for name in store.names()}
    _outside_entry()

    def failing():
        ops.linear(x, layer.weight, layer.bias)
        raise NonFiniteError("injected")

    with pytest.raises(NonFiniteError):
        store.step(failing, lr=0.01)
    assert _ops() == ["mul"] and store.step_count == 0
    assert all(np.array_equal(store[name].data, arr) for name, arr in before.items())

    clean_layer, clean = _linear_store()
    for lay, s in ((layer, store), (clean_layer, clean)):
        s.step(lambda: tsum(power(lay(x), 2)), lr=0.01)
    assert len(active_tape()) == 0
    for name in store.names():
        assert store[name].grad.tobytes() == clean[name].grad.tobytes()
        assert store[name].data.tobytes() == clean[name].data.tobytes()


def test_failed_gradcheck_probe_leaves_the_tape_as_it_was():
    def probe(ts):
        mul(ts[0], 3.0)
        raise NonFiniteError("injected")

    _outside_entry()
    with pytest.raises(NonFiniteError):
        analytic_grads(probe, [np.ones(3)])
    assert _ops() == ["mul"]


def _align():
    rng = np.random.default_rng(6)
    labels = np.repeat(np.arange(2), 4)
    fixtures = SemanticFixtures(labels, rng.standard_normal((8, 5)), rng.standard_normal((8, 5)))
    embeddings = rng.standard_normal((8, 6))
    return (lambda: AlignmentNet(6, 5, np.random.default_rng(7)),
            lambda net: align_train.train_align(net, embeddings, labels, np.arange(8), fixtures, epochs=2,
                                                batch_size=4, seed=1))


def _denoiser():
    rng = np.random.default_rng(8)
    images, labels = rng.standard_normal((4, 2, 2, 2)), np.array([0, 1, 1, 0])
    return (lambda: DenoiserNet((2, 2, 2), 3, 2, 5, np.random.default_rng(9)),
            lambda net: ddpm.train_denoiser(net, NoiseSchedule.linear(T=10), images, labels, None, steps=3,
                                            batch_size=2, seed=1))


def _surrogate():
    rng = np.random.default_rng(10)
    images, labels = rng.uniform(-1, 1, (9, 3, 2, 2)), rng.integers(0, 3, 9)
    return (lambda: surrogate.SurrogateClassifier(12, 6, 3, np.random.default_rng(11)),
            lambda net: surrogate.train_surrogate(net, images, labels, epochs=3, lr=3e-3))


def _lmm():
    units = np.random.default_rng(12).standard_normal((5, 6, 8)).astype(np.float32)
    return (lambda: build_lmm_models(unit_dim=8, n_units=6, d=8, n_heads=2, ffn_dim=16, sa_blocks=1, ca_blocks=1,
                                     n_codewords=12, teacher_momentum=0.9, seed=0),
            lambda models: lmm_train.train_lmm(units, models, mask_ratio=0.5, steps=2, batch_size=3, seed=1))


# site -> (module holding the loss op, the op, its network and trainer, the ops a failed first step tapes)
SITES = {
    "train_epoch": (align_train, "si_loss", _align,
                    ["mul", "linear", "feed_forward", "add", "feed_forward", "add", "si_loss"]),
    "train_denoiser": (ddpm, "denoiser_mse", _denoiser, ["mul", "take", "denoiser_mse"]),
    "train_surrogate": (surrogate, "mlp_cross_entropy", _surrogate, ["mul", "mlp_cross_entropy"]),
    "train_lmm": (lmm_train, "lmm_loss", _lmm, None),
}


def _state(net) -> list[tuple]:
    return [(name, t.data.tobytes(), t.grad.tobytes()) for name, t in net.named_parameters()]


@pytest.mark.parametrize("site", sorted(SITES))
def test_failed_training_step_leaves_the_tape_as_it_was_and_the_rerun_is_clean(site, monkeypatch):
    module, op, build, failed_ops = SITES[site]
    make_net, train = build()
    net = make_net()
    noted = _fail_first_call(monkeypatch, module, op)
    _outside_entry()
    with pytest.raises(NonFiniteError, match="injected"):
        train(net)
    if failed_ops is None:  # the LMM step: both blocks' `fold` entries were taped in the failed step
        assert {"self_attention_block", "cross_attention_block"} <= set(noted[0])
    else:
        assert noted[0] == failed_ops
    assert _ops() == ["mul"]

    train(net)
    assert len(active_tape()) == 0
    clean = make_net()
    train(clean)
    assert _state(net) == _state(clean)
