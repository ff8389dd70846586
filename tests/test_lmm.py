"""Masked-modeling components: masking, tokenizer, encoders, teacher, loss."""

from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvis_forge.autodiff import Tensor, active_tape, backward, tsum
from brainvis_forge.autodiff.tensor import mul
from brainvis_forge.data import SyntheticGenSpec, generate_synthetic, zscore_channels
from brainvis_forge.lmm import (
    Codebook,
    Teacher,
    UnitProjector,
    VisibleEncoder,
    build_lmm_models,
    lmm_loss,
    lmm_step,
    make_mask_plan,
    prepare_units,
    teacher_update,
)
from oracles import as_float64, tokenize


# --- masking ----------------------------------------------------------------


def test_reference_mask_counts_110_075():
    plan = make_mask_plan(110, 0.75, np.random.default_rng(0))
    assert len(plan.masked) == 82
    assert len(plan.visible) == 28


def test_small_mask_plan():
    plan = make_mask_plan(4, 0.5, np.random.default_rng(1))
    assert len(plan.masked) == 2


@settings(max_examples=50, deadline=None)
@given(n=st.integers(4, 200), seed=st.integers(0, 2**30))
def test_mask_plan_partition_property(n, seed):
    plan = make_mask_plan(n, 0.75, np.random.default_rng(seed))
    merged = np.concatenate([plan.visible, plan.masked])
    assert len(np.intersect1d(plan.visible, plan.masked)) == 0
    np.testing.assert_array_equal(np.sort(merged), np.arange(n))


def test_mask_plan_degenerate_ratios_rejected():
    with pytest.raises(ValueError):
        make_mask_plan(10, 0.05, np.random.default_rng(0))  # floor -> 0
    with pytest.raises(ValueError):
        make_mask_plan(10, 1.5, np.random.default_rng(0))


def test_mask_frequency_uniform_over_many_draws():
    n, draws = 110, 10_000
    rng = np.random.default_rng(123)
    counts = np.zeros(n)
    for _ in range(draws):
        counts[make_mask_plan(n, 0.75, rng).masked] += 1
    freq = counts / draws
    assert np.all(np.abs(freq - 82 / 110) < 0.02)


# --- tokenizer ---------------------------------------------------------------


def test_tokenizer_deterministic_and_one_hot():
    rng = np.random.default_rng(5)
    cb = Codebook(unit_dim=16, n_entries=32, rng=rng)
    units = np.random.default_rng(1).standard_normal((10, 16))
    one_hot = tokenize(cb, units)
    np.testing.assert_array_equal(one_hot, tokenize(cb, units))
    assert one_hot.shape == (10, 32)
    np.testing.assert_array_equal(one_hot.sum(axis=1), np.ones(10))
    assert np.all((one_hot == 0) | (one_hot == 1))


def test_tokenizer_weight_immutable():
    cb = Codebook(unit_dim=8, n_entries=16, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        cb.weight[0, 0] = 1.0


def test_tokenizer_no_collapse_on_synthetic_corpus():
    spec = SyntheticGenSpec(n_classes=8, records_per_class=10, c=8, l=80, seed=2, sample_rate=100.0)
    raw = generate_synthetic(spec)
    records = replace(raw, x=zscore_channels(raw.x))
    units = prepare_units(records, 20)[:].reshape(-1, 8 * 4)
    cb = Codebook(unit_dim=units.shape[1], n_entries=660, rng=np.random.default_rng(3))
    distinct = len(np.unique(cb.assign(units)))
    assert distinct >= 50


# --- projection and encoders --------------------------------------------------


def test_projection_zero_input_zero_weights_gives_positions_only():
    rng = np.random.default_rng(0)
    proj = UnitProjector(unit_dim=6, d=8, n_units=5, rng=rng)
    proj.proj.weight.data = np.zeros_like(proj.proj.weight.data)
    out = proj(Tensor(np.zeros((2, 5, 6), dtype=np.float32)))
    np.testing.assert_allclose(out.data[0], proj.pos.data, atol=1e-7)
    np.testing.assert_allclose(out.data[1], proj.pos.data, atol=1e-7)


def test_projection_reference_dims():
    proj = UnitProjector(unit_dim=512, d=1024, n_units=110, rng=np.random.default_rng(0))
    out = proj(Tensor(np.random.default_rng(1).standard_normal((1, 110, 512)).astype(np.float32)))
    assert out.shape == (1, 110, 1024)


def test_projection_positionally_sensitive():
    rng = np.random.default_rng(4)
    proj = UnitProjector(unit_dim=6, d=8, n_units=5, rng=rng)
    x = rng.standard_normal((1, 5, 6)).astype(np.float32)
    perm = x[:, ::-1, :].copy()
    out_a = proj(Tensor(x)).data
    out_b = proj(Tensor(perm)).data
    assert not np.allclose(out_a[0, 0], out_b[0, 4], atol=1e-6)


def test_visible_encoder_shape_and_permutation_equivariance():
    rng = np.random.default_rng(6)
    enc = as_float64(VisibleEncoder(d=8, n_heads=2, ffn_dim=16, n_blocks=3, rng=rng))
    z = rng.standard_normal((4, 8))
    perm = np.array([2, 0, 3, 1])
    out = enc(Tensor(z)).data
    out_perm = enc(Tensor(z[perm])).data
    assert out.shape == (4, 8)
    np.testing.assert_allclose(out_perm, out[perm], atol=1e-10)


def test_gradient_reaches_every_encoder_block():
    rng = np.random.default_rng(7)
    enc = VisibleEncoder(d=8, n_heads=2, ffn_dim=16, n_blocks=8, rng=rng)
    z = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    w = Tensor(rng.standard_normal((5, 8)).astype(np.float32))
    backward(tsum(mul(enc(z), w)))
    for name, t in enc.named_parameters():
        if name.endswith("weight"):
            assert t.grad is not None and np.any(t.grad != 0), f"no gradient in {name}"


# --- teacher -----------------------------------------------------------------


def _tiny_encoder(seed=0):
    return VisibleEncoder(d=4, n_heads=2, ffn_dim=8, n_blocks=1, rng=np.random.default_rng(seed))


def test_teacher_initial_copy_matches_student():
    student = as_float64(_tiny_encoder())
    teacher = Teacher(student, momentum=0.99)
    z = np.random.default_rng(1).standard_normal((3, 4))
    np.testing.assert_array_equal(teacher.encode(z), student(Tensor(z)).data)


def test_teacher_momentum_one_freezes_and_zero_copies():
    student = as_float64(_tiny_encoder())
    teacher = Teacher(student, momentum=0.99)
    before = teacher.module.state()
    for t in student.parameters():
        t.data = t.data + 1.0
    teacher_update(teacher, student, 1.0)
    for k, v in teacher.module.state().items():
        np.testing.assert_array_equal(v, before[k])
    teacher_update(teacher, student, 0.0)
    for k, v in teacher.module.state().items():
        np.testing.assert_array_equal(v, student.state()[k])


def test_teacher_closed_form_constant_student():
    # teacher_k = w + tau^k (teacher_0 - w); exact (bitwise) for dyadic tau
    # and w = 0, where every float operation is exact.
    student = as_float64(_tiny_encoder(seed=3))
    for t in student.parameters():
        t.data = np.zeros_like(t.data)
    teacher = Teacher(student, momentum=0.5)
    t0 = {k: v.copy() for k, v in teacher.module.state().items()}
    for k in range(1, 101):
        teacher.update(student)
        expected = {name: (0.5**k) * v for name, v in t0.items()}
        for name, v in teacher.module.state().items():
            np.testing.assert_array_equal(v, expected[name])


def test_teacher_update_writes_in_place_and_equals_the_rebinding_formula():
    student = _tiny_encoder(seed=5)
    teacher = Teacher(student, momentum=0.9)
    arrays = {name: t.data for name, t in teacher.module.named_parameters()}
    expected = {name: a.copy() for name, a in arrays.items()}
    rng = np.random.default_rng(6)
    for _ in range(3):
        for t in student.parameters():
            t.data += rng.standard_normal(t.shape).astype(t.dtype)
        teacher.update(student)
        for name, s in student.named_parameters():
            expected[name] = 0.9 * expected[name] + (1.0 - 0.9) * s.data
        for name, t in teacher.module.named_parameters():
            assert t.data is arrays[name]
            assert t.data.dtype == np.float32 and t.data.tobytes() == expected[name].tobytes()


def test_teacher_receives_no_gradients():
    models = build_lmm_models(
        unit_dim=8, n_units=6, d=8, n_heads=2, ffn_dim=16, sa_blocks=1, ca_blocks=1,
        n_codewords=12, teacher_momentum=0.9, seed=0,
    )
    units = np.random.default_rng(0).standard_normal((2, 6, 8)).astype(np.float32)
    plan = make_mask_plan(6, 0.5, np.random.default_rng(1))
    _, _, total = lmm_step(models, units, plan)
    backward(total)
    for t in models.teacher.module.parameters():
        assert t.grad is None and not t.requires_grad


# --- loss --------------------------------------------------------------------


def test_loss_regression_zero_when_equal():
    f = np.random.default_rng(0).standard_normal((3, 4))
    p = np.full((3, 5), 0.2)
    l_m = np.eye(5)[:3]
    reg, _, _ = lmm_loss(f, Tensor(f.copy()), l_m, Tensor(p))
    assert reg.item() == 0.0


def test_loss_regression_hand_case_quarter():
    f_m = np.array([[1.0, 0.0, 0.0, 0.0]])
    f_mp = Tensor(np.zeros((1, 4)))
    l_m = np.array([[1.0, 0.0]])
    p_m = Tensor(np.array([[0.5, 0.5]]))
    reg, _, _ = lmm_loss(f_m, f_mp, l_m, p_m)
    assert reg.item() == pytest.approx(0.25)


def test_loss_classification_uniform_is_log_660():
    n_t = 660
    l_m = np.zeros((2, n_t))
    l_m[0, 3] = 1.0
    l_m[1, 100] = 1.0
    p_m = Tensor(np.full((2, n_t), 1.0 / n_t, dtype=np.float64))
    f = np.zeros((2, 3))
    _, cls, _ = lmm_loss(f, Tensor(f.copy()), l_m, p_m)
    assert abs(cls.item() - np.log(660)) < 1e-6


def test_loss_total_is_exact_sum():
    rng = np.random.default_rng(2)
    f_m = rng.standard_normal((4, 6))
    f_mp = Tensor(rng.standard_normal((4, 6)))
    p = rng.uniform(0.1, 1.0, (4, 7))
    p /= p.sum(axis=1, keepdims=True)
    l_m = np.eye(7)[rng.integers(0, 7, 4)]
    reg, cls, total = lmm_loss(f_m, f_mp, l_m, Tensor(p))
    assert total.item() == reg.item() + cls.item()


# --- predictor ----------------------------------------------------------------


def test_predictor_shapes_and_row_sums():
    models = build_lmm_models(
        unit_dim=8, n_units=10, d=8, n_heads=2, ffn_dim=16, sa_blocks=1, ca_blocks=2,
        n_codewords=660, teacher_momentum=0.9, seed=1,
    )
    units = np.random.default_rng(3).standard_normal((2, 10, 8)).astype(np.float32)
    plan = make_mask_plan(10, 0.75, np.random.default_rng(2))
    z = models.projector(Tensor(units))
    from brainvis_forge.autodiff import take

    f_v = models.encoder(take(z, plan.visible, axis=1))
    f_mp, p_m = models.predictor(f_v, plan.masked, models.projector.pos)
    assert f_mp.shape == (2, 7, 8)
    assert p_m.shape == (2, 7, 660)
    np.testing.assert_allclose(p_m.data.sum(axis=-1), 1.0, atol=1e-5)


def test_predictor_distinct_positions_distinct_outputs():
    models = build_lmm_models(
        unit_dim=8, n_units=10, d=8, n_heads=2, ffn_dim=16, sa_blocks=1, ca_blocks=1,
        n_codewords=16, teacher_momentum=0.9, seed=2,
    )
    f_v = Tensor(np.random.default_rng(5).standard_normal((1, 3, 8)).astype(np.float32))
    f_mp, _ = models.predictor(f_v, np.array([1, 4, 7]), models.projector.pos)
    assert not np.allclose(f_mp.data[0, 0], f_mp.data[0, 1], atol=1e-6)
    assert not np.allclose(f_mp.data[0, 1], f_mp.data[0, 2], atol=1e-6)


def test_lmm_step_tapes_one_entry_per_fused_op():
    models = build_lmm_models(
        unit_dim=8, n_units=10, d=16, n_heads=4, ffn_dim=32, sa_blocks=2, ca_blocks=1,
        n_codewords=12, teacher_momentum=0.9, seed=3,
    )
    names = [name for name, _ in models.named_parameters()]
    n_layer_norms = sum(name.endswith(".gain") for name in names)
    n_attentions = sum(name.endswith(".w_q") for name in names)
    assert (n_layer_norms, n_attentions) == (8, 3)
    units = np.random.default_rng(4).standard_normal((2, 10, 8)).astype(np.float32)
    tape = active_tape()
    tape.clear()
    _, _, total = lmm_step(models, units, make_mask_plan(10, 0.75, np.random.default_rng(5)))
    counts = Counter(entry.op for entry in tape.entries)
    assert counts["layer_norm"] == n_layer_norms
    assert counts["attention"] == n_attentions
    assert counts["codeword_nll"] == 1
    assert not {"swapaxes", "sub", "power"} & set(counts)
    # 13 entries outside the blocks and 12 per block: 2 layer norms, the attention's
    # 4 linears and core, the 2 residual adds and the feed-forward's linear-gelu-linear
    assert len(tape) == 13 + 12 * 3 == 49
    backward(total)
