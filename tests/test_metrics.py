"""Metric definitions against brute-force oracles and closed forms."""

import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvis_forge.metrics import (
    MetricsReport,
    f1_macro,
    fid,
    fid_from_moments,
    inception_score,
    n_way_top_k,
    ssim,
    top_k_accuracy,
)
from brainvis_forge.metrics.generation import _sym_sqrt
from oracles import ssim as ssim_per_image


# --- top-k ----------------------------------------------------------------------


def test_top_k_equal_to_class_count_is_one():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((20, 6))
    labels = rng.integers(0, 6, 20)
    assert top_k_accuracy(logits, labels, 6) == 1.0


def test_top_one_perfect_on_one_hot_logits():
    labels = np.array([2, 0, 1])
    logits = np.eye(3)[labels]
    assert top_k_accuracy(logits, labels, 1) == 1.0


def test_top_k_matches_full_sort_oracle():
    rng = np.random.default_rng(1)
    for _ in range(100):
        logits = rng.standard_normal((8, 7))
        labels = rng.integers(0, 7, 8)
        for k in (1, 3, 5):
            # oracle: stable descending sort ranks ties by lower class index
            hits = 0
            for row, lab in zip(logits, labels):
                order = np.argsort(-row, kind="stable")
                hits += int(lab in order[:k])
            assert top_k_accuracy(logits, labels, k) == pytest.approx(hits / 8)


def test_top_k_out_of_range_rejected():
    with pytest.raises(ValueError):
        top_k_accuracy(np.zeros((2, 4)), np.zeros(2, dtype=int), 5)


# --- f1 -------------------------------------------------------------------------


def test_f1_perfect_predictions():
    labels = np.array([0, 1, 2, 0, 1, 2])
    assert f1_macro(labels, labels, 3) == 1.0


def test_f1_single_class_collapse_hand_value():
    # two balanced classes, everything predicted as class 0:
    # class 0 has P=0.5, R=1 -> F1=2/3; class 1 has F1=0; macro = 1/3.
    labels = np.array([0, 0, 1, 1])
    preds = np.zeros(4, dtype=int)
    assert f1_macro(preds, labels, 2) == pytest.approx(1 / 3)


def test_f1_matches_confusion_matrix_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n_classes = 5
        labels = rng.integers(0, n_classes, 40)
        preds = rng.integers(0, n_classes, 40)
        cm = np.zeros((n_classes, n_classes), dtype=int)
        for p, t in zip(preds, labels):
            cm[t, p] += 1
        scores = []
        for c in range(n_classes):
            tp = cm[c, c]
            fp = cm[:, c].sum() - tp
            fn = cm[c, :].sum() - tp
            p = tp / (tp + fp) if tp + fp else 0.0
            r = tp / (tp + fn) if tp + fn else 0.0
            scores.append(2 * p * r / (p + r) if p + r else 0.0)
        assert f1_macro(preds, labels, n_classes) == pytest.approx(np.mean(scores))


# --- n-way top-k -------------------------------------------------------------------


def _enumerated_ga(probs: np.ndarray, labels: np.ndarray, n_way: int, top_k: int) -> float:
    """GA by brute force: every (N-1)-subset of the wrong classes, per row."""
    from itertools import combinations

    n_classes = probs.shape[1]
    exact_hits = []
    for row, lab in zip(probs, labels):
        wrong = [c for c in range(n_classes) if c != lab]
        hits = 0
        total = 0
        for subset in combinations(wrong, n_way - 1):
            cands = sorted((lab,) + subset)
            scores = row[cands]
            target = row[lab]
            pos = cands.index(lab)
            stronger = np.sum(scores > target) + np.sum((scores == target) & (np.arange(len(cands)) < pos))
            hits += int(stronger < top_k)
            total += 1
        exact_hits.append(hits / total)
    return float(np.mean(exact_hits))


def test_n_way_equal_to_all_classes_reduces_to_plain_top_k():
    rng = np.random.default_rng(3)
    probs = rng.dirichlet(np.ones(6), size=30)
    labels = rng.integers(0, 6, 30)
    assert n_way_top_k(probs, labels, 6, 1) == top_k_accuracy(probs, labels, 1)


def test_n_way_global_max_always_hits():
    probs = np.zeros((10, 8))
    labels = np.arange(8).tolist() + [0, 1]
    probs[np.arange(10), labels] = 1.0
    assert n_way_top_k(probs, np.array(labels), 4, 1) == 1.0


def test_n_way_matches_exhaustive_subset_enumeration():
    rng = np.random.default_rng(4)
    n_classes, n_way = 6, 3
    probs = rng.dirichlet(np.ones(n_classes), size=4)
    labels = rng.integers(0, n_classes, 4)
    exact = _enumerated_ga(probs, labels, n_way, 1)
    assert n_way_top_k(probs, labels, n_way, 1) == exact


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_classes=st.integers(2, 8),
    data=st.data(),
)
def test_n_way_closed_form_equals_enumeration(n_classes, data):
    n_way = data.draw(st.integers(2, n_classes), label="n_way")
    top_k = data.draw(st.integers(1, n_way - 1), label="top_k")
    rows = data.draw(st.integers(1, 6), label="rows")
    # Scores from a 3-level grid so ties, including ties with the true class, are common.
    levels = data.draw(st.lists(st.integers(0, 2), min_size=rows * n_classes, max_size=rows * n_classes))
    probs = np.array(levels, dtype=np.float64).reshape(rows, n_classes) / 2.0
    labels = np.array(data.draw(st.lists(st.integers(0, n_classes - 1), min_size=rows, max_size=rows)))
    assert n_way_top_k(probs, labels, n_way, top_k) == _enumerated_ga(probs, labels, n_way, top_k)
    if n_way == n_classes:
        assert n_way_top_k(probs, labels, n_way, top_k) == top_k_accuracy(probs, labels, top_k)


def test_n_way_monotone_in_k():
    rng = np.random.default_rng(6)
    probs = rng.dirichlet(np.ones(10), size=20)
    labels = rng.integers(0, 10, 20)
    rates = [
        n_way_top_k(probs, labels, 6, k)
        for k in (1, 2, 3, 4, 5)
    ]
    assert all(a <= b + 1e-12 for a, b in zip(rates, rates[1:]))


def test_n_way_exceeding_class_count_rejected():
    # N above the class count, N below 2, and K not below N
    for n_way, top_k, match in ((5, 1, "exceeds"), (1, 1, "n_way must be >= 2"), (3, 3, r"top_k must be in \[1")):
        with pytest.raises(ValueError, match=match):
            n_way_top_k(np.full((2, 4), 0.25), np.array([0, 1]), n_way, top_k)


# --- inception score -----------------------------------------------------------------


def test_is_uniform_rows_give_one():
    mean, std = inception_score(np.full((12, 5), 0.2))
    assert mean == pytest.approx(1.0, abs=1e-6)
    assert std == 0.0


def test_is_distinct_one_hots_give_class_count():
    mean, _ = inception_score(np.eye(7))
    assert mean == pytest.approx(7.0, abs=1e-6)


def test_is_matches_double_loop_kl_oracle():
    rng = np.random.default_rng(8)
    probs = rng.dirichlet(np.ones(6), size=20)
    marginal = probs.mean(axis=0)
    kls = [sum(p[j] * np.log(p[j] / marginal[j]) for j in range(6) if p[j] > 0) for p in probs]
    expected = float(np.exp(np.mean(kls)))
    mean, _ = inception_score(probs)
    assert mean == pytest.approx(expected, rel=1e-9)


def test_is_rejects_unnormalized_rows():
    bad = np.full((3, 4), 0.3)
    with pytest.raises(ValueError, match="sum to 1"):
        inception_score(bad)


def test_is_split_statistics():
    rng = np.random.default_rng(9)
    probs = rng.dirichlet(np.ones(5), size=30)
    mean, std = inception_score(probs, splits=3)
    assert mean >= 1.0 and std >= 0.0


# --- fid ------------------------------------------------------------------------------


def test_fid_identical_sets_is_zero():
    a = np.random.default_rng(10).standard_normal((60, 5))
    assert abs(fid(a, a)) < 1e-8


def test_fid_symmetry():
    rng = np.random.default_rng(11)
    a, b = rng.standard_normal((50, 4)), rng.standard_normal((40, 4)) + 0.5
    assert fid(a, b) == pytest.approx(fid(b, a), abs=1e-8)


def test_fid_mean_offset_gaussians():
    rng = np.random.default_rng(12)
    delta = np.array([1.0, -2.0, 0.5])
    a = rng.standard_normal((20000, 3))
    b = rng.standard_normal((20000, 3)) + delta
    assert fid(a, b) == pytest.approx(delta @ delta, rel=0.1)


def test_fid_closed_form_commuting_covariances():
    mu_a, mu_b = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    sig_a, sig_b = np.diag([2.0, 3.0]), np.diag([1.0, 5.0])
    expected = 2.0 + (2 + 1 - 2 * np.sqrt(2)) + (3 + 5 - 2 * np.sqrt(15))
    assert fid_from_moments(mu_a, sig_a, mu_b, sig_b) == pytest.approx(expected, abs=1e-6)


def test_fid_dim_mismatch_rejected():
    with pytest.raises(ValueError, match="fid: feature dims differ"):
        fid(np.zeros((10, 3)), np.zeros((10, 4)))


def test_sym_sqrt_floor_is_absolute_below_unit_magnitude():
    # Largest |eigenvalue| 1e-3 < 1, so the floor is EIG_CLAMP itself, -1e-8.
    c, s = np.cos(0.4), np.sin(0.4)
    q = np.array([[c, -s], [s, c]])
    with pytest.raises(ValueError, match="eigenvalue -1.500e-08 below tolerance"):
        _sym_sqrt(q @ np.diag([1e-3, -1.5e-8]) @ q.T)
    clamped = _sym_sqrt(q @ np.diag([1e-3, -0.5e-8]) @ q.T)
    np.testing.assert_allclose(clamped, q @ np.diag([np.sqrt(1e-3), 0.0]) @ q.T, atol=1e-12)


def test_fid_small_sample_warns():
    rng = np.random.default_rng(13)
    with pytest.warns(UserWarning, match="rank-deficient"):
        fid(rng.standard_normal((4, 8)), rng.standard_normal((20, 8)))


# --- ssim ----------------------------------------------------------------------------


def test_ssim_self_is_one():
    img = np.random.default_rng(14).uniform(-1, 1, (3, 16, 16))
    assert ssim(img, img) == pytest.approx(1.0, abs=1e-9)


def test_ssim_symmetric():
    rng = np.random.default_rng(15)
    a, b = rng.uniform(-1, 1, (3, 16, 16)), rng.uniform(-1, 1, (3, 16, 16))
    assert ssim(a, b) == pytest.approx(ssim(b, a), abs=1e-12)


def test_ssim_constant_images_closed_form():
    # constant a vs a + delta: contrast and structure terms are 1, so SSIM
    # equals the luminance ratio (2 m1 m2 + C1) / (m1^2 + m2^2 + C1).
    a_val, delta, L = 0.2, 0.3, 2.0
    c1 = (0.01 * L) ** 2
    m1, m2 = a_val, a_val + delta
    expected = (2 * m1 * m2 + c1) / (m1**2 + m2**2 + c1)
    a = np.full((1, 8, 8), m1)
    b = np.full((1, 8, 8), m2)
    assert ssim(a, b, dynamic_range=L) == pytest.approx(expected, rel=1e-12)


def test_ssim_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="ssim: shapes differ"):
        ssim(np.zeros((3, 16, 16)), np.zeros((3, 8, 8)))


def test_ssim_within_range_on_random_pairs():
    rng = np.random.default_rng(16)
    for _ in range(20):
        a, b = rng.uniform(-1, 1, (1, 12, 12)), rng.uniform(-1, 1, (1, 12, 12))
        assert -1.0 <= ssim(a, b) <= 1.0


@pytest.mark.parametrize("shape", [(800, 3, 8, 8), (20, 3, 16, 16), (5, 1, 12, 20), (7, 3, 9, 9)])
@pytest.mark.parametrize("dynamic_range", [2.0, 4.0])
def test_ssim_batch_bit_equal_to_per_image_oracle(shape, dynamic_range):
    rng = np.random.default_rng(18)
    a = rng.uniform(-1, 1, shape) * dynamic_range / 2
    b = rng.uniform(-1, 1, shape) * dynamic_range / 2
    batched = ssim(a, b, dynamic_range=dynamic_range)
    assert batched.shape == shape[:1]
    expected = [ssim_per_image(x, y, dynamic_range=dynamic_range) for x, y in zip(a, b)]
    assert batched.tolist() == expected
    assert ssim(a[0], b[0], dynamic_range=dynamic_range) == expected[0]
    assert isinstance(ssim(a[0], b[0], dynamic_range=dynamic_range), float)


def test_ssim_batch_in_any_memory_layout_bit_equal_to_oracle():
    # evaluate stacks (H, W, C) images transposed to (C, H, W), so the batch
    # is not C-contiguous and its channel axis is innermost in memory.
    rng = np.random.default_rng(20)
    generated = np.stack([np.transpose(x, (2, 0, 1)) for x in rng.integers(0, 256, (64, 8, 8, 3)) / 127.5 - 1.0])
    reference = rng.uniform(-1, 1, (64, 3, 8, 8)).astype(np.float32)
    assert not generated.flags.c_contiguous
    expected = [ssim_per_image(g, r) for g, r in zip(generated, reference)]
    assert ssim(generated, reference).tolist() == expected


def test_ssim_keeps_every_leading_axis():
    rng = np.random.default_rng(19)
    a, b = rng.uniform(-1, 1, (2, 3, 3, 9, 9)), rng.uniform(-1, 1, (2, 3, 3, 9, 9))
    batched = ssim(a, b)
    assert batched.shape == (2, 3)
    assert batched[1, 2] == ssim_per_image(a[1, 2], b[1, 2])
    assert ssim(a[0, 0, 0], b[0, 0, 0]) == ssim_per_image(a[0, 0, 0], b[0, 0, 0])


# --- report --------------------------------------------------------------------------


def test_metrics_report_json_roundtrip():
    report = MetricsReport(
        top1_ca=0.5, top3_ca=0.8, top5_ca=0.9, f1_macro=0.4, ga=0.45,
        is_mean=3.2, is_std=0.1, fid=12.5, ssim_mean=0.7,
        per_class={"0": 1.0, "1": 0.0}, config={"seed": 7},
    )
    report.validate_ranges()
    again = MetricsReport.from_json(report.to_json())
    assert again == report
    assert again.to_json() == report.to_json()


def test_metrics_report_range_validation():
    report = MetricsReport(
        top1_ca=1.5, top3_ca=0.8, top5_ca=0.9, f1_macro=0.4, ga=0.45,
        is_mean=3.2, is_std=0.1, fid=12.5, ssim_mean=0.7,
    )
    with pytest.raises(ValueError, match="top1_ca"):
        report.validate_ranges()


@pytest.mark.parametrize("ssim_mean, ok", [(1.0, True), (-1.0, True), (1.0 + 1e-8, False), (-1.0 - 1e-8, False)])
def test_metrics_report_accepts_ssim_at_its_bounds_only(ssim_mean, ok):
    report = MetricsReport(
        top1_ca=0.5, top3_ca=0.8, top5_ca=0.9, f1_macro=0.4, ga=0.45,
        is_mean=3.2, is_std=0.1, fid=12.5, ssim_mean=ssim_mean,
    )
    if ok:
        report.validate_ranges()
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(f'MetricsReport: ssim_mean={ssim_mean} outside [-1, 1]')}$"):
            report.validate_ranges()


def _report(**fields) -> MetricsReport:
    """A report with in-range values, overridden by `fields`."""
    return MetricsReport(**{**dict(top1_ca=0.5, top3_ca=0.8, top5_ca=0.9, f1_macro=0.4, ga=0.45,
                                   is_mean=3.2, is_std=0.1, fid=12.5, ssim_mean=0.7), **fields})


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: inception_score(np.zeros((0, 4))),
                 "inception_score: expected nonempty (n, classes), got (0, 4)", id="is_empty"),
    pytest.param(lambda: inception_score(np.full((3, 4), 0.25), splits=0),
                 "inception_score: splits=0 invalid for 3 rows", id="is_no_split"),
    pytest.param(lambda: inception_score(np.full((3, 4), 0.25), splits=4),
                 "inception_score: splits=4 invalid for 3 rows", id="is_more_splits_than_rows"),
    pytest.param(lambda: fid_from_moments(np.zeros(2), np.eye(2), np.zeros(3), np.eye(3)),
                 "fid_from_moments: moment shapes differ", id="fid_moments"),
    pytest.param(lambda: _report(is_mean=0.5).validate_ranges(), "MetricsReport: is_mean=0.5 below 1", id="is_mean"),
])
def test_metric_guards_raise_with_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "n_generated, n_reference, valid",
    [
        (12, 3, False),  # the tiny chain: 3 test records x 4 samples
        (33, 32, False),  # the reference pool only matches the 32 feature dims
        (32, 33, False),  # and here the generated set
        (800, 200, True),  # a 40 x 50 set: 200 test records x 4 samples
    ],
)
def test_evaluate_generation_reports_fid_sample_counts(n_generated, n_reference, valid):
    from brainvis_forge.metrics import SurrogateClassifier, evaluate_generation

    rng = np.random.default_rng(17)
    surrogate = SurrogateClassifier(3 * 8 * 8, 32, 4, rng)
    generated = rng.uniform(-1, 1, (n_generated, 3, 8, 8))
    reference = rng.uniform(-1, 1, (n_reference, 3, 8, 8))
    labels = rng.integers(0, 4, n_generated)
    block = evaluate_generation(
        generated, labels, reference, generated, surrogate, n_way=4, top_k=1,
    )
    assert (block["n_generated"], block["n_reference"], block["fid_valid"]) == (n_generated, n_reference, valid)


def test_metrics_report_reads_reports_without_sample_counts():
    report = MetricsReport(
        top1_ca=0.5, top3_ca=0.8, top5_ca=0.9, f1_macro=0.4, ga=0.45,
        is_mean=3.2, is_std=0.1, fid=12.5, ssim_mean=0.7, n_generated=800, n_reference=200, fid_valid=True,
    )
    old = json.loads(report.to_json())
    for key in ("n_generated", "n_reference", "fid_valid"):
        del old[key]
    again = MetricsReport.from_json(json.dumps(old))
    assert (again.n_generated, again.n_reference, again.fid_valid) == (0, 0, False)
    assert again.fid == report.fid
    assert MetricsReport.from_json(report.to_json()) == report


def test_evaluate_generation_perfect_bound():
    # Feeding the ground-truth images back as "generated" must score
    # perfectly: GA 1, FID ~0, SSIM 1 (given an overfit surrogate).
    from brainvis_forge.data import make_image_set
    from brainvis_forge.metrics import SurrogateClassifier, evaluate_generation, train_surrogate

    images, labels = make_image_set(4, 6, size=8, seed=3)
    surrogate = SurrogateClassifier(images[0].size, 32, 4, np.random.default_rng(np.random.SeedSequence([0, 0x5A9])))
    assert train_surrogate(surrogate, images, labels, epochs=200, lr=3e-3) == 1.0

    block = evaluate_generation(
        images, labels, images, images, surrogate, n_way=4, top_k=1,
    )
    assert block["ga"] == 1.0
    assert abs(block["fid"]) < 1e-4  # eigendecomposition noise scales with feature magnitude
    assert block["ssim_mean"] == pytest.approx(1.0, abs=1e-9)


def test_train_surrogate_tapes_one_entry_per_epoch_and_leaves_the_tape_empty(monkeypatch):
    from brainvis_forge.autodiff import active_tape, optim
    from brainvis_forge.metrics import SurrogateClassifier, train_surrogate

    taped, backward = [], optim.backward

    def recording_backward(loss):
        taped.append([entry.op for entry in active_tape().entries])
        return backward(loss)

    monkeypatch.setattr(optim, "backward", recording_backward)
    rng = np.random.default_rng(19)
    surrogate = SurrogateClassifier(12, 6, 3, rng)
    train_surrogate(surrogate, rng.uniform(-1, 1, (9, 3, 2, 2)), rng.integers(0, 3, 9), epochs=4, lr=3e-3)
    assert taped == [["mlp_cross_entropy"]] * 4
    assert len(active_tape()) == 0
