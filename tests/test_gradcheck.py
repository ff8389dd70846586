"""Finite-difference verification of analytic gradients (spot checks).

The full ten-probe catalog sweep lives in the acceptance suite; here a
lighter two-probe pass, targeted checks on the model-level composites, and
the ten-draw check of the test-only tape ops that `oracles` defines.
"""

import numpy as np
import pytest

from brainvis_forge.autodiff import Tensor, active_tape, ops, tensor, tsum
from brainvis_forge.autodiff.gradcheck import check_gradients, op_catalog, run_catalog_suite
from brainvis_forge.autodiff.tensor import mul
from oracles import as_float64, oracle_op_probes

TOL = 1e-4


def _rebind(root, dotted: str, tensor: Tensor) -> None:
    """Replace the parameter at a dotted path with the harness tensor."""
    parts = dotted.split(".")
    obj = root
    for p in parts[:-1]:
        obj = obj[int(p)] if p.isdigit() else getattr(obj, p)
    setattr(obj, parts[-1], tensor)


def _param_probe(module, x_shape, out_shape, seed):
    """Build (loss_fn, arrays) where arrays = [input] + all module parameters."""
    rng = np.random.default_rng(seed)
    names = [n for n, _ in module.named_parameters()]
    weights = Tensor(rng.standard_normal(out_shape))

    def loss_fn(ts):
        for name, t in zip(names, ts[1:]):
            _rebind(module, name, t)
        return tsum(mul(module(ts[0]), weights))

    arrays = [rng.standard_normal(x_shape)] + [t.data.copy() for _, t in module.named_parameters()]
    return loss_fn, arrays


def test_catalog_two_probes_all_under_tolerance():
    worst = run_catalog_suite(probes=2, seed=99)
    assert len(worst) >= 30
    failing = {k: v for k, v in worst.items() if v >= TOL}
    assert not failing, f"ops over tolerance: {failing}"


@pytest.mark.parametrize("name", sorted(oracle_op_probes(np.random.default_rng(0))))
def test_oracle_tape_ops_match_central_differences(name):
    # ten draws, as criterion 1 checks the catalog
    for seed in range(2024, 2034):
        fn, arrays = oracle_op_probes(np.random.default_rng(seed))[name]
        assert check_gradients(fn, arrays) < TOL, seed


def test_denoiser_mlp_gradient_with_one_time_row_and_one_condition_row():
    # `predict`'s shapes: one time-feature row and one condition row broadcast over the batch,
    # through the fused denoiser forward and its mse against a constant target
    shapes = [(2, 4), (1, 3), (1, 2), (4, 3), (3,), (3, 3), (3,), (2, 3), (3,), (3, 3), (3,), (3, 4), (4,), (3, 4), (4,)]
    for seed in range(2024, 2034):
        rng = np.random.default_rng(seed)
        arrays = [rng.standard_normal(s) for s in shapes]
        target = rng.standard_normal((2, 4))
        loss = lambda ts: ops.denoiser_mse(*ts[:3], target, *ts[3:])  # noqa: E731
        assert check_gradients(loss, arrays) < TOL, seed


def test_lstm_three_step_sequence_gradient():
    from brainvis_forge.autodiff.nn import LstmEncoder

    enc = as_float64(LstmEncoder(3, 4, np.random.default_rng(11)))
    loss_fn, arrays = _param_probe(enc, (2, 3, 3), (2, 4), seed=11)
    assert check_gradients(loss_fn, arrays) < TOL


def test_residual_alignment_net_gradient():
    from brainvis_forge.align.model import AlignmentNet

    net = as_float64(AlignmentNet(6, 5, np.random.default_rng(13), n_blocks=2))
    loss_fn, arrays = _param_probe(net, (3, 6), (3, 5), seed=13)
    assert check_gradients(loss_fn, arrays) < TOL


def test_encoder_block_gradient_through_eight_blocks():
    from brainvis_forge.lmm.model import VisibleEncoder

    enc = as_float64(VisibleEncoder(4, 2, 8, 8, np.random.default_rng(17)))
    loss_fn, arrays = _param_probe(enc, (5, 4), (5, 4), seed=17)
    assert check_gradients(loss_fn, arrays) < 1e-3  # 8 blocks deep, fd noise compounds


def test_si_loss_gradient_wrt_output():
    from brainvis_forge.autodiff.ops import si_loss

    rng = np.random.default_rng(17)
    cap = Tensor(rng.standard_normal(7))
    lab = Tensor(rng.standard_normal(7))

    def loss_fn(ts):
        return si_loss(ts[0], cap, lab)

    assert check_gradients(loss_fn, [rng.standard_normal(7) + 0.2]) < TOL


def _recorded_ops(forward) -> set[str]:
    """Names of the ops one taped call of `forward` records: its tape entries, and the
    ops that record inside a block's `fold` entry."""
    tape = active_tape()
    tape.clear()
    names, make = set(), tensor._make

    def recording_make(op, inputs, out_data, backward_fn):
        out = make(op, inputs, out_data, backward_fn)
        if out.requires_grad:
            names.add(op)
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tensor, "_make", recording_make)
        patch.setattr(ops, "_make", recording_make)
        forward()
    names |= {entry.op for entry in tape.entries}
    tape.clear()
    return names


def _pipeline_forwards() -> dict:
    """One tiny taped forward per trained network, each ending in its loss."""
    from brainvis_forge.align import AlignmentNet, si_loss
    from brainvis_forge.autodiff.nn import Linear, LstmEncoder
    from brainvis_forge.autodiff.ops import cross_entropy, mlp_cross_entropy
    from brainvis_forge.diffusion import DenoiserNet
    from brainvis_forge.diffusion.denoiser import timestep_embedding
    from brainvis_forge.freq import FreqClassifier
    from brainvis_forge.fusion import TfeModel
    from brainvis_forge.lmm import build_lmm_models, make_mask_plan
    from brainvis_forge.lmm.model import UnitProjector, VisibleEncoder
    from brainvis_forge.lmm.train import lmm_step
    from brainvis_forge.metrics.surrogate import SurrogateClassifier

    rng = np.random.default_rng(23)
    onehot = np.eye(4)[[0, 3]]
    lmm = build_lmm_models(
        unit_dim=8, n_units=6, d=8, n_heads=2, ffn_dim=16, sa_blocks=1, ca_blocks=1,
        n_codewords=12, teacher_momentum=0.9, seed=0,
    )
    tfe = TfeModel(
        UnitProjector(8, 4, 5, rng), VisibleEncoder(4, 2, 8, 1, rng), LstmEncoder(2, 3, rng), Linear(7, 4, rng)
    )
    freq = FreqClassifier(2, 3, 4, rng)
    align_net = AlignmentNet(6, 5, rng)
    denoiser = DenoiserNet((3, 4, 4), 8, 4, 16, rng)
    surrogate = SurrogateClassifier(3 * 4 * 4, 8, 4, rng)
    return {
        "lmm_step": lambda: lmm_step(
            lmm, rng.standard_normal((2, 6, 8)).astype(np.float32), make_mask_plan(6, 0.5, rng)
        ),
        "TfeModel.logits": lambda: cross_entropy(
            tfe.logits(rng.standard_normal((2, 5, 8)), rng.standard_normal((2, 6, 2))), onehot
        ),
        "FreqClassifier": lambda: cross_entropy(freq(Tensor(rng.standard_normal((2, 6, 2)))), onehot),
        "AlignmentNet": lambda: si_loss(
            align_net(Tensor(rng.standard_normal((2, 6)))), Tensor(rng.standard_normal((2, 5))),
            Tensor(rng.standard_normal((2, 5))),
        ),
        # `train_denoiser`'s loss, on a class-condition step
        "DenoiserNet": lambda: ops.denoiser_mse(
            Tensor(rng.standard_normal((2, 3, 4, 4))), Tensor(timestep_embedding(np.array([3, 7]))),
            denoiser.class_condition([1, 2]), rng.standard_normal((2, 3, 4, 4)), *denoiser.weights(),
        ),
        # `train_surrogate`'s loss; the surrogate's forward itself runs only untaped
        "SurrogateClassifier": lambda: mlp_cross_entropy(
            Tensor(rng.standard_normal((2, 48))), *surrogate.parameters(), np.array([0, 3])
        ),
    }


def _probe_ops() -> dict[str, set[str]]:
    """Names of the ops each `op_catalog` probe records."""
    return {name: _recorded_ops(lambda: fn([Tensor(a, requires_grad=True) for a in arrays]))
            for name, (fn, arrays) in op_catalog(np.random.default_rng(0)).items()}


def test_every_op_the_pipeline_tapes_has_a_catalog_probe():
    covered = set().union(*_probe_ops().values())
    for name, forward in _pipeline_forwards().items():
        recorded = _recorded_ops(forward)
        assert recorded, f"{name} recorded nothing"
        assert recorded <= covered, f"{name} tapes ops without a finite-difference probe: {sorted(recorded - covered)}"


# The probe reduction.
NOT_PIPELINE_TAPED = {"mul", "sum"}


def test_every_op_a_catalog_probe_tapes_is_taped_by_the_pipeline():
    taped = set().union(*(_recorded_ops(forward) for forward in _pipeline_forwards().values()))
    for name, recorded in _probe_ops().items():
        untaped = recorded - NOT_PIPELINE_TAPED - taped
        assert not untaped, f"probe {name} tapes ops that no pipeline forward tapes: {sorted(untaped)}"
