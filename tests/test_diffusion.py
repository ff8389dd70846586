"""Schedule algebra, reverse-step correctness, cascade mechanics, PPM output."""

import re

import numpy as np
import pytest

from brainvis_forge.autodiff import Tensor, active_tape, backward, no_grad
from brainvis_forge.autodiff import ops
from brainvis_forge.diffusion import ddpm
from brainvis_forge.diffusion import (
    DenoiserNet,
    NoiseSchedule,
    RowNoise,
    forward_diffuse,
    generate_samples,
    latent_to_rgb,
    read_ppm,
    reverse_chain,
    reverse_step,
    switch_step,
    train_denoiser,
    write_ppm,
    x0_estimate,
)
from brainvis_forge.diffusion.denoiser import timestep_embedding
from oracles import OracleDenoiser, denoiser_composed


@pytest.fixture(scope="module")
def schedule():
    return NoiseSchedule.linear(T=100)


def test_alpha_bar_strictly_decreasing_and_terminal(schedule):
    assert schedule.alpha_bars[0] == 1.0
    assert np.all(np.diff(schedule.alpha_bars) < 0)
    assert schedule.alpha_bars[-1] < 0.05


def test_validate_rejects_alpha_bar_0_one_ulp_below_one(schedule):
    # The rest of the chain still decreases strictly, so only the alpha_bar_0 rule can refuse this.
    bad = NoiseSchedule(schedule.T, schedule.betas, schedule.alphas, schedule.alpha_bars.copy())
    bad.alpha_bars[0] = np.nextafter(1.0, 0.0)
    with pytest.raises(ValueError, match="alpha_bar_0 must be exactly 1"):
        bad.validate()


def test_forward_identity_at_t0(schedule):
    x0 = np.random.default_rng(0).standard_normal((3, 4, 4))
    out = forward_diffuse(schedule, x0, 0, np.random.default_rng(1).standard_normal(x0.shape))
    np.testing.assert_array_equal(out, x0)


def test_forward_zero_noise_is_pure_scaling(schedule):
    x0 = np.random.default_rng(2).standard_normal((3, 4, 4))
    t = 40
    out = forward_diffuse(schedule, x0, t, np.zeros_like(x0))
    np.testing.assert_allclose(out, np.sqrt(schedule.alpha_bars[t]) * x0, rtol=1e-12)
    # a (B,) array of steps scales each item of a (B, ...) batch by its own step
    batch, steps = np.stack([x0, -x0, 2 * x0]), np.array([0, t, 100])
    out = forward_diffuse(schedule, batch, steps, np.zeros_like(batch))
    for item, step, got in zip(batch, steps, out):
        np.testing.assert_array_equal(got, forward_diffuse(schedule, item, int(step), np.zeros_like(item)))


def test_forward_t_out_of_range_rejected(schedule):
    x0 = np.zeros((1, 2, 2))
    with pytest.raises(ValueError):
        forward_diffuse(schedule, x0, 101, np.zeros_like(x0))
    with pytest.raises(ValueError):
        forward_diffuse(schedule, x0, np.array([101]), np.zeros_like(x0))


def test_forward_variance_monte_carlo(schedule):
    # Var(x_t) ~= alpha_bar * Var(x0) + (1 - alpha_bar) over many noise draws.
    rng = np.random.default_rng(3)
    x0 = rng.standard_normal((4, 4)) * 0.5
    t = 60
    draws = np.stack([forward_diffuse(schedule, x0, t, rng.standard_normal(x0.shape)) for _ in range(10_000)])
    ab = schedule.alpha_bars[t]
    expected = ab * x0.var() + (1 - ab)
    assert abs(draws.var() / expected - 1.0) < 0.05


def test_x0_recovery_from_true_noise(schedule):
    rng = np.random.default_rng(4)
    x0 = rng.uniform(-1, 1, (3, 8, 8))
    for t in (1, 17, 60, 100):
        eps = rng.standard_normal(x0.shape)
        x_t = forward_diffuse(schedule, x0, t, eps)
        rmse = np.sqrt(np.mean((x0_estimate(schedule, x_t, t, eps) - x0) ** 2))
        assert rmse < 1e-5


def test_reverse_step_zero_denoiser_zero_noise_is_rescaling(schedule):
    class ZeroDenoiser:
        def predict(self, x_t, t, cond):
            return np.zeros_like(x_t)

    x = np.random.default_rng(5).standard_normal((2, 3, 3))
    out = reverse_step(schedule, ZeroDenoiser(), x, 1, None, np.random.default_rng(0))
    np.testing.assert_allclose(out, x / np.sqrt(schedule.alphas[1]), rtol=1e-12)


def test_reverse_step_rejects_t_zero(schedule):
    with pytest.raises(ValueError):
        reverse_step(schedule, OracleDenoiser(np.zeros((1, 2, 2)), schedule), np.zeros((1, 2, 2)), 0, None, np.random.default_rng(0))


def test_reverse_chain_writes_into_neither_the_callers_latent_nor_the_denoisers_output(schedule):
    class SharedOutput:  # one array returned on every call
        def __init__(self, shape):
            self.out = np.random.default_rng(7).standard_normal(shape)

        def predict(self, x_t, t, cond):
            return self.out

    x = np.random.default_rng(8).standard_normal((2, 3, 4, 4))
    denoiser = SharedOutput(x.shape)
    x_before, out_before = x.tobytes(), denoiser.out.tobytes()
    final = reverse_chain(schedule, denoiser, x, np.zeros(4), np.random.default_rng(9), 3)
    assert x.tobytes() == x_before and denoiser.out.tobytes() == out_before

    # and each step is (x_t - c * eps) / sqrt(alpha) + sqrt(beta) * noise, bit for bit
    rng, expected = np.random.default_rng(9), x
    for t in (3, 2, 1):
        c = schedule.betas[t] / schedule.sqrt_one_minus_alpha_bars[t]
        expected = (expected - c * denoiser.out) / np.sqrt(schedule.alphas[t])
        if t > 1:
            expected = expected + np.sqrt(schedule.betas[t]) * rng.standard_normal(x.shape)
    assert final.tobytes() == expected.tobytes()


def test_reverse_trajectory_bit_identical_for_fixed_seed(schedule):
    x0 = np.random.default_rng(6).uniform(-1, 1, (3, 4, 4))
    oracle = OracleDenoiser(x0, schedule)

    def run():
        rng = np.random.default_rng(99)
        x = rng.standard_normal(x0.shape)
        for t in range(schedule.T, 0, -1):
            x = reverse_step(schedule, oracle, x, t, None, rng)
        return x

    np.testing.assert_array_equal(run(), run())


# --- cascade ------------------------------------------------------------------


def test_stage_step_counts_sum_to_T(schedule):
    t_s = switch_step(0.3, schedule.T)
    assert t_s == 30
    assert (schedule.T - t_s) + t_s == schedule.T


def test_stage1_executes_seventy_steps(schedule):
    calls = []

    class CountingOracle(OracleDenoiser):
        def predict(self, x_t, t, cond=None):
            calls.append(t)
            return super().predict(x_t, t, cond)

    x0 = np.random.default_rng(7).uniform(-1, 1, (3, 4, 4))
    oracle = CountingOracle(x0, schedule)
    rng = np.random.default_rng(0)
    out = reverse_chain(schedule, oracle, rng.standard_normal(x0.shape), np.zeros(4), rng, schedule.T, 30)
    assert len(calls) == 70
    assert calls == list(range(100, 30, -1))
    assert out.shape == x0.shape


def test_stage2_executes_thirty_steps_and_bit_exact_handoff(schedule):
    x0 = np.random.default_rng(8).uniform(-1, 1, (3, 4, 4))
    oracle = OracleDenoiser(x0, schedule)
    rng = np.random.default_rng(1)
    x_ts = reverse_chain(schedule, oracle, rng.standard_normal(x0.shape), np.zeros(4), rng, schedule.T, 30)
    handoff = x_ts.copy()

    calls = []

    class CountingOracle(OracleDenoiser):
        def predict(self, x_t, t, cond=None):
            calls.append(t)
            if not calls[:-1]:
                np.testing.assert_array_equal(x_t, handoff)  # stage 2 consumes stage 1 output unmodified
            return super().predict(x_t, t, cond)

    reverse_chain(schedule, CountingOracle(x0, schedule), x_ts, np.zeros(4), rng, 30)
    assert calls == list(range(30, 0, -1))
    np.testing.assert_array_equal(x_ts, handoff)


def test_oracle_cascade_recovers_memorized_image(schedule):
    x0 = np.random.default_rng(9).uniform(-1, 1, (3, 16, 16))
    oracle = OracleDenoiser(x0, schedule)
    rng = np.random.default_rng(12)
    x_ts = reverse_chain(schedule, oracle, rng.standard_normal(x0.shape), np.zeros(4), rng, schedule.T, 30)
    final = reverse_chain(schedule, oracle, x_ts, np.zeros(4), rng, 30)
    rmse = np.sqrt(np.mean((final - x0) ** 2))
    assert rmse < 0.05


def test_condition_sensitivity_same_seed_different_condition():
    schedule = NoiseSchedule.linear(T=20)
    net = DenoiserNet((3, 4, 4), 8, 4, 32, np.random.default_rng(0))
    # perturb conditioning weights so conditions act on the output
    rng = np.random.default_rng(1)
    net.out_proj.weight.data = rng.standard_normal(net.out_proj.weight.shape).astype(np.float32) * 0.1
    c1, c2 = np.zeros(8), np.ones(8)

    def stage1(cond):
        noise = np.random.default_rng(5)
        x = noise.standard_normal((3, 4, 4))
        return reverse_chain(schedule, net, x, cond, noise, schedule.T, switch_step(0.3, schedule.T))

    a, b = stage1(c1), stage1(c2)
    assert np.linalg.norm(a - b) > 0


def test_generate_samples_counts_steps_and_determinism():
    schedule = NoiseSchedule.linear(T=10)
    net = DenoiserNet((3, 4, 4), 8, 4, 16, np.random.default_rng(2))
    kwargs = dict(
        record_indices=np.array([3]), c_eeg=np.ones((1, 8)), predicted_labels=np.array([2]),
        rho=0.3, n_samples=4, master_seed=11,
    )
    x1, *steps1 = generate_samples(schedule, net, **kwargs)
    x2, *steps2 = generate_samples(schedule, net, **kwargs)
    assert x1.shape == (4, 3, 4, 4) and x1.dtype == np.float64
    np.testing.assert_array_equal(x1, x2)
    assert steps1 == steps2 == [7, 3]


def test_generate_modes_step_split():
    schedule = NoiseSchedule.linear(T=10)
    net = DenoiserNet((3, 4, 4), 8, 4, 16, np.random.default_rng(2))
    base = dict(record_indices=np.array([0]), c_eeg=np.ones((1, 8)), predicted_labels=np.array([0]),
                rho=0.3, n_samples=1, master_seed=0)
    assert generate_samples(schedule, net, mode="no-refine", **base)[1:] == (10, 0)
    assert generate_samples(schedule, net, mode="no-semantic", **base)[1:] == (0, 10)


def _conditioned_net(latent_shape=(3, 4, 4), cond_dim=8, seed=2):
    """A small DenoiserNet whose output layer is live, so x_t and the condition move eps."""
    net = DenoiserNet(latent_shape, cond_dim, 4, 16, np.random.default_rng(seed))
    net.out_proj.weight.data = np.random.default_rng(seed + 1).standard_normal(net.out_proj.weight.shape).astype(np.float32) * 0.1
    return net


# The step at which each mode hands over from the semantic to the class condition.
def _handover(mode, T):
    return {"cascade": switch_step(0.3, T), "no-refine": 0, "no-semantic": T}[mode]


def _per_sample_latent(schedule, net, mode, c_eeg, label, seed_seq):
    """One sample's chain at batch size 1 on its own seed stream, step by step."""
    rng = np.random.default_rng(seed_seq)
    x = rng.standard_normal(net.latent_shape)
    for t in range(schedule.T, 0, -1):
        cond = c_eeg if t > _handover(mode, schedule.T) else net.class_table.data[label]
        x = reverse_step(schedule, net, x, t, cond, rng)
    return x


@pytest.mark.parametrize("mode", ["cascade", "no-refine", "no-semantic"])
def test_generation_is_one_chain_switching_condition_at_the_handover(mode):
    schedule = NoiseSchedule.linear(T=12)
    calls = []

    class RecordingNet(DenoiserNet):
        def predict(self, x_t, t, cond):
            calls.append((t, np.array(cond, copy=True)))
            return super().predict(x_t, t, cond)

    net = RecordingNet((3, 4, 4), 8, 4, 16, np.random.default_rng(2))
    inputs = _batch_inputs()
    generate_samples(schedule, net, rho=0.3, n_samples=2, master_seed=3, mode=mode, **inputs)
    semantic = np.repeat(inputs["c_eeg"], 2, axis=0)
    classes = np.repeat(net.class_table.data[inputs["predicted_labels"]], 2, axis=0)
    assert [t for t, _ in calls] == list(range(schedule.T, 0, -1))
    for t, cond in calls:
        expected = semantic if t > _handover(mode, schedule.T) else classes
        np.testing.assert_array_equal(cond, expected, err_msg=f"t={t}")


def _rel_err(a, b):
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


def _batch_inputs(n_records=3, e=8, seed=4):
    rng = np.random.default_rng(seed)
    return dict(
        record_indices=np.array([5, 9, 2, 14][:n_records]),
        c_eeg=rng.standard_normal((n_records, e)),
        predicted_labels=np.array([1, 3, 0, 2][:n_records]),
    )


@pytest.mark.parametrize("mode", ["cascade", "no-refine", "no-semantic"])
def test_batched_generation_matches_per_sample_chains(mode):
    schedule = NoiseSchedule.linear(T=12)
    net = _conditioned_net()
    inputs = _batch_inputs()
    latents, *steps = generate_samples(schedule, net, rho=0.3, n_samples=4, master_seed=11, mode=mode, **inputs)
    assert latents.shape == (3 * 4, *net.latent_shape)
    assert steps == [12 - _handover(mode, 12), _handover(mode, 12)]
    for k, latent in enumerate(latents):
        row, s = divmod(k, 4)
        ref = _per_sample_latent(
            schedule, net, mode, inputs["c_eeg"][row], inputs["predicted_labels"][row],
            np.random.SeedSequence([11, inputs["record_indices"][row], s]),
        )
        assert _rel_err(latent, ref) < 1e-6, (k, _rel_err(latent, ref))
    # distinct seed streams give distinct samples of one record
    assert _rel_err(latents[0], latents[1]) > 1e-3


def test_generation_of_a_record_subset_matches_the_full_batch():
    schedule = NoiseSchedule.linear(T=12)
    net = _conditioned_net()
    full_inputs = _batch_inputs(n_records=4)
    full, *full_steps = generate_samples(schedule, net, rho=0.3, n_samples=3, master_seed=5, **full_inputs)
    rows = [3, 1]
    subset, *subset_steps = generate_samples(
        schedule, net, rho=0.3, n_samples=3, master_seed=5,
        **{k: v[rows] for k, v in full_inputs.items()},
    )
    expected = [full[row * 3 + s] for row in rows for s in range(3)]
    assert len(subset) == len(expected) and subset_steps == full_steps
    for x_sub, x_full in zip(subset, expected):
        assert _rel_err(x_sub, x_full) < 1e-6


def test_generate_samples_rejects_mismatched_record_arrays():
    schedule = NoiseSchedule.linear(T=10)
    inputs = _batch_inputs()
    inputs["predicted_labels"] = inputs["predicted_labels"][:2]
    with pytest.raises(ValueError, match="differ in length"):
        generate_samples(schedule, _conditioned_net(), rho=0.3, n_samples=2, master_seed=0, **inputs)
    with pytest.raises(ValueError, match="unknown mode"):
        generate_samples(schedule, _conditioned_net(), rho=0.3, n_samples=2, master_seed=0, mode="bogus",
                         **_batch_inputs())


@pytest.mark.parametrize("missing", ["n_samples", "master_seed"])
def test_generate_samples_takes_no_default_sample_count_or_seed(missing):
    given = {"n_samples": 2, "master_seed": 0}
    del given[missing]
    with pytest.raises(TypeError, match=missing):
        generate_samples(NoiseSchedule.linear(T=10), _conditioned_net(), rho=0.3, **given, **_batch_inputs())


def test_row_noise_draws_each_rows_own_stream():
    seqs = [np.random.SeedSequence([0, r]) for r in range(3)]
    noise = RowNoise([np.random.default_rng(q) for q in seqs])
    first, second = noise.standard_normal((3, 2, 5)), noise.standard_normal((3, 4))
    assert all(d.dtype == np.float64 and d.flags.c_contiguous and d.base is None for d in (first, second))
    for r, q in enumerate(seqs):
        alone = np.random.default_rng(q)
        np.testing.assert_array_equal(first[r], alone.standard_normal((2, 5)))
        np.testing.assert_array_equal(second[r], alone.standard_normal(4))
    with pytest.raises(ValueError, match="streams"):
        noise.standard_normal((2, 4))


def test_batched_predict_equals_stacked_single_calls():
    net = _conditioned_net()
    net.skip_gate.weight.data = np.full(net.skip_gate.weight.shape, 0.05, dtype=np.float32)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((5,) + net.latent_shape)
    cond = rng.standard_normal((5, 8))
    batched = net.predict(x, 7, cond)
    assert batched.shape == x.shape and batched.dtype == np.float64
    stacked = np.stack([net.predict(x[i], 7, cond[i]) for i in range(5)])
    np.testing.assert_allclose(batched, stacked, rtol=1e-5, atol=1e-6)
    shared = net.predict(x, 7, cond[0])  # one condition broadcast over the batch
    np.testing.assert_allclose(shared, np.stack([net.predict(x[i], 7, cond[0]) for i in range(5)]), rtol=1e-5, atol=1e-6)
    for bad in (np.zeros((3, 4, 5)), np.zeros((2, 2, 3, 4, 4)), np.zeros(2 * 48)):
        with pytest.raises(ValueError, match="latent shape"):
            net.predict(bad, 7, cond[0])


def test_predict_equals_the_float32_forward():
    # Pins the inference path's rounding: PPM quantisation would hide a change in it.
    net = _conditioned_net()
    net.skip_gate.weight.data = np.full(net.skip_gate.weight.shape, 0.05, dtype=np.float32)
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5,) + net.latent_shape)
    cond = rng.standard_normal((5, 8))
    with no_grad():
        forward = denoiser_composed(Tensor(x.astype(np.float32)), Tensor(timestep_embedding(np.array([7]))),
                                    Tensor(cond.astype(np.float32)), *net.weights())
    np.testing.assert_array_equal(net.predict(x, 7, cond), forward.data.astype(np.float64))


def test_unknown_class_label_rejected():
    net = DenoiserNet((3, 4, 4), 8, 4, 16, np.random.default_rng(2))
    with pytest.raises(ValueError, match="labels outside"):
        net.class_condition(np.array([7]))


# --- training ------------------------------------------------------------------


def test_denoiser_initial_loss_near_one():
    # Zero-initialized output layer predicts zero noise, so the first losses
    # sit at E[eps^2] = 1 up to sampling error.
    schedule = NoiseSchedule.linear(T=50)
    net = DenoiserNet((3, 8, 8), 8, 4, 64, np.random.default_rng(3))
    images = np.random.default_rng(4).uniform(-1, 1, (4, 3, 8, 8)).astype(np.float32)
    labels = np.array([0, 1, 2, 3])
    history = train_denoiser(net, schedule, images, labels, None, steps=5, batch_size=16, seed=5)
    assert 0.8 < history[0]["loss"] < 1.2


def test_denoiser_two_image_memorization_loss():
    schedule = NoiseSchedule.linear(T=50)
    net = DenoiserNet((3, 8, 8), 8, 2, 96, np.random.default_rng(6))
    images = np.random.default_rng(7).uniform(-1, 1, (2, 3, 8, 8)).astype(np.float32)
    labels = np.array([0, 1])
    history = train_denoiser(net, schedule, images, labels, None, steps=2000, batch_size=16, seed=8)
    tail = np.mean([h["loss"] for h in history[-50:]])
    assert tail < 0.2


def _live_net(seed=20):
    """The tiny config's denoiser geometry with every parameter drawn at random,
    so no gradient is zero by construction."""
    net = DenoiserNet((3, 8, 8), 16, 5, 48, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for p in net.parameters():
        p.data[...] = rng.standard_normal(p.shape) * 0.3
    return net


@pytest.mark.parametrize("use_class", [True, False])
def test_fused_denoiser_step_is_bit_equal_to_its_composition(use_class):
    net = _live_net()
    rng = np.random.default_rng(22)
    x_t = Tensor(rng.standard_normal((16, 3, 8, 8)).astype(np.float32))
    eps = Tensor(rng.standard_normal((16, 3, 8, 8)).astype(np.float32))
    t = rng.integers(1, 101, 16)
    labels = rng.integers(0, 5, 16)
    t_feat = Tensor(timestep_embedding(t))
    eeg = Tensor(rng.standard_normal((16, 16)).astype(np.float32))

    def through(forward):  # the estimate, then `mse_loss` as its own tape entry
        def loss(cond):
            pred = forward(x_t, t_feat, cond, *net.weights())
            return pred.data, ops.mse_loss(pred, eps)
        return loss

    def fused_loss(cond):  # `train_denoiser`'s one entry, given its float64 noise as the target
        return None, ops.denoiser_mse(x_t, t_feat, cond, eps.data.astype(np.float64), *net.weights())

    results = []
    for step in (through(denoiser_composed), fused_loss):
        for p in net.parameters():
            p.grad = None
        pred, loss = step(net.class_condition(labels) if use_class else eeg)
        backward(loss)
        assert not active_tape().entries
        results.append((pred, loss.data, [p.grad for p in net.parameters()]))
    (composed, composed_loss, composed_grads), _ = results
    with no_grad():  # the untaped estimate, as `DenoiserNet.predict` forms it
        cond = net.class_condition(labels) if use_class else eeg
        _, estimate, _ = ops._denoiser_forward("DenoiserNet.predict", (x_t, t_feat, cond, *net.weights()))
    assert estimate.dtype == np.float32 and estimate.shape == (16, 3 * 8 * 8)
    assert estimate.tobytes() == composed.tobytes()
    for _, loss, grads in results:
        assert loss.dtype == np.float32 and loss.tobytes() == composed_loss.tobytes()
        for got, want in zip(grads[:12], composed_grads[:12]):
            assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        if use_class:
            # the class table's gradient flows back through `take`
            assert grads[12].tobytes() == composed_grads[12].tobytes()
            assert np.abs(grads[12]).sum() > 0
        else:
            assert grads[12] is None and eeg.grad is None


def test_untaped_fused_denoiser_at_generate_batch_matches_its_composition():
    net = _live_net()
    rng = np.random.default_rng(23)
    x = rng.standard_normal((800, 3, 8, 8))
    cond = rng.standard_normal((800, 16))
    t_feat = Tensor(timestep_embedding(np.array([37])))  # one row for the whole batch
    tape = active_tape()
    before = len(tape)
    with no_grad():
        want = denoiser_composed(Tensor(x.astype(np.float32)), t_feat, Tensor(cond.astype(np.float32)),
                                 *net.weights()).data
    got = net.predict(x, 37, cond)
    assert len(tape) == before
    assert got.tobytes() == want.astype(np.float64).tobytes()


def test_train_denoiser_tapes_one_fused_entry_per_step(monkeypatch):
    recorded = []

    def loss_after_recording(*args):
        loss = ops.denoiser_mse(*args)
        recorded.append([e.op for e in active_tape().entries])
        return loss

    monkeypatch.setattr(ddpm, "denoiser_mse", loss_after_recording)
    net = DenoiserNet((3, 4, 4), 8, 2, 16, np.random.default_rng(12))
    images = np.random.default_rng(13).uniform(-1, 1, (4, 3, 4, 4)).astype(np.float32)
    eeg = np.random.default_rng(14).standard_normal((4, 8))
    history = train_denoiser(net, NoiseSchedule.linear(T=20), images, np.array([0, 1, 0, 1]), eeg,
                             steps=12, batch_size=4, seed=15)
    assert {h["condition"] for h in history} == {"class", "eeg"}
    for h, ops_taped in zip(history, recorded, strict=True):
        assert ops_taped == (["take", "denoiser_mse"] if h["condition"] == "class" else ["denoiser_mse"])


# T of configs/tiny.json and of the diffusion tests
@pytest.mark.parametrize("T", [20, 50, 100])
def test_timestep_table_rows_are_the_per_step_embedding(T):
    # `train_denoiser` gathers its batch's time features from one table over [0, T]
    table = timestep_embedding(np.arange(T + 1))
    assert table.shape == (T + 1, 32) and table.dtype == np.float32
    for t in range(T + 1):
        assert table[t].tobytes() == timestep_embedding(np.array([t]))[0].tobytes(), t
    batch = np.random.default_rng(T).integers(1, T + 1, 16)
    assert table[batch].tobytes() == timestep_embedding(batch).tobytes()


def test_schedule_coefficients_are_the_per_step_square_roots():
    schedule = NoiseSchedule.linear(T=50)
    for t in range(51):
        ab = schedule.alpha_bars[t]
        assert schedule.sqrt_alpha_bars[t] == np.sqrt(ab) and schedule.sqrt_one_minus_alpha_bars[t] == np.sqrt(1.0 - ab)


def test_train_denoiser_rejects_images_of_another_latent_shape():
    net = DenoiserNet((3, 4, 4), 8, 2, 16, np.random.default_rng(12))
    images = np.zeros((4, 3, 4, 5), dtype=np.float32)
    with pytest.raises(ValueError, match=r"noise shape \(4, 3, 4, 4\) differs from \(4, 3, 4, 5\)"):
        train_denoiser(net, NoiseSchedule.linear(T=20), images, np.array([0, 1, 0, 1]), None, steps=1, batch_size=4)
    assert not active_tape().entries


def test_denoiser_training_deterministic():
    schedule = NoiseSchedule.linear(T=20)
    images = np.random.default_rng(9).uniform(-1, 1, (2, 3, 4, 4)).astype(np.float32)
    labels = np.array([0, 1])

    def run():
        net = DenoiserNet((3, 4, 4), 8, 2, 32, np.random.default_rng(10))
        return [h["loss"] for h in train_denoiser(net, schedule, images, labels, None, steps=20, batch_size=4, seed=11)]

    assert run() == run()


# --- ppm -----------------------------------------------------------------------


def test_ppm_roundtrip_and_clamping(tmp_path):
    latent = np.linspace(-1.5, 1.5, 3 * 4 * 4).reshape(3, 4, 4)
    path = tmp_path / "0_0.ppm"
    write_ppm(path, latent)
    rgb = read_ppm(path)
    assert rgb.shape == (4, 4, 3)
    np.testing.assert_array_equal(rgb, latent_to_rgb(latent))
    assert rgb.min() == 0 and rgb.max() == 255  # clamped ends map to the full range


@pytest.mark.parametrize("header, message", [
    (b"P3\n2 2\n255\n", "not a P6 file"),
    (b"P6\n2 2\n65535\n", "expected 8-bit maxval 255"),
])
def test_read_ppm_rejects_other_formats(tmp_path, header, message):
    path = tmp_path / "x.ppm"
    path.write_bytes(header + bytes(12))
    with pytest.raises(ValueError, match=message):
        read_ppm(path)


def test_read_ppm_names_the_file_and_byte_counts_of_a_short_pixel_section(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n8 8\n255\n" + bytes(182))
    with pytest.raises(ValueError, match=f"^read_ppm: {re.escape(str(path))}: "
                                         "expected 192 pixel bytes for 8x8, got 182$"):
        read_ppm(path)


def test_read_ppm_names_the_file_whose_header_has_no_pixel_section(tmp_path):
    path = tmp_path / "headless.ppm"
    path.write_bytes(b"P6\n8 8\n255")
    with pytest.raises(ValueError, match=f"^read_ppm: {re.escape(str(path))}: no pixel section after the header "
                                         r"\(10 bytes in all\)$"):
        read_ppm(path)


def test_ppm_quantization_bound(tmp_path):
    rng = np.random.default_rng(13)
    latent = rng.uniform(-1, 1, (3, 8, 8))
    path = tmp_path / "q.ppm"
    write_ppm(path, latent)
    back = read_ppm(path).astype(np.float64) / 255.0 * 2.0 - 1.0
    assert np.max(np.abs(np.transpose(back, (2, 0, 1)) - latent)) <= 1.0 / 255.0 + 1e-12
