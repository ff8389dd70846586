"""Frequency branch training and the fused classifier."""

from dataclasses import replace

import numpy as np
import pytest

from brainvis_forge.autodiff import Tensor, active_tape, concat, tmean
from brainvis_forge.autodiff.nn import Linear, LstmEncoder
from brainvis_forge.autodiff.tensor import ShapeError
from brainvis_forge.data import SyntheticGenSpec, generate_synthetic, split_by_image, zscore_channels
from brainvis_forge.freq import FreqClassifier, freq_classify_train, spectra_matrix, train_spectra
from brainvis_forge.freq import train as freq_train
from brainvis_forge.fusion import finetune_tfe
from brainvis_forge.fusion.model import TfeModel
from brainvis_forge.fusion.train import tfe_inputs
from brainvis_forge.lmm.model import UnitProjector, VisibleEncoder


def test_lstm_output_length_matches_hidden():
    enc = LstmEncoder(8, 128, np.random.default_rng(0))
    out = enc(Tensor(np.random.default_rng(1).standard_normal((2, 5, 8)).astype(np.float32)))
    assert out.shape == (2, 128)


def test_lstm_input_dim_mismatch_rejected_not_broadcast():
    enc = LstmEncoder(8, 16, np.random.default_rng(0))
    with pytest.raises(ShapeError):
        enc(Tensor(np.zeros((2, 5, 7), dtype=np.float32)))


def _train_freq(records, split, n_classes, hidden, seed, *, epochs, batch_size, lr=1e-3):
    """A fresh FreqClassifier trained on `train_spectra`, as the freq stage does: (model, scale, history)."""
    spectra, scale = train_spectra(records, split)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xF9E9]))
    model = FreqClassifier(spectra.shape[2], hidden, n_classes, rng)
    history = freq_classify_train(model, spectra, records.labels, split, epochs=epochs, batch_size=batch_size, lr=lr,
                                  rng=rng)
    return model, scale, history


def test_freq_training_separable_classes_reach_full_train_accuracy():
    # noise-free, spectrally separable: must hit 1.0 within 50 epochs
    spec = SyntheticGenSpec(
        n_classes=4, records_per_class=10, c=4, l=40, noise_std=0.0,
        sample_rate=100.0, seed=3,
    )
    raw = generate_synthetic(spec)
    records = replace(raw, x=zscore_channels(raw.x))
    split = split_by_image(records, seed=3)
    _, _, history = _train_freq(records, split, 4, 16, 4, epochs=50, batch_size=16, lr=3e-3)
    assert max(h["train_acc"] for h in history) == 1.0


def test_freq_training_deterministic_same_seed():
    spec = SyntheticGenSpec(n_classes=3, records_per_class=6, c=4, l=40, seed=5, sample_rate=100.0)
    raw = generate_synthetic(spec)
    records = replace(raw, x=zscore_channels(raw.x))
    split = split_by_image(records, seed=5)

    def curve():
        _, _, history = _train_freq(records, split, 3, 8, 9, epochs=5, batch_size=8)
        return [(h["loss"], h["train_acc"]) for h in history]

    assert curve() == curve()


def test_freq_trains_on_the_spectra_tfe_is_fed(monkeypatch):
    """The scaled spectra the freq stage trains and scores on (`train_spectra`) are
    `spectra_matrix(dataset, scale=s)`, which the tfe stage feeds the encoder."""
    spec = SyntheticGenSpec(n_classes=3, records_per_class=6, c=4, l=40, seed=5, sample_rate=100.0)
    raw = generate_synthetic(spec)
    records = replace(raw, x=zscore_channels(raw.x))
    split = split_by_image(records, seed=5)
    seen, predict = [], freq_train.predict

    def spy(fn, rows, *args, **kwargs):
        seen.append(rows)
        return predict(fn, rows, *args, **kwargs)

    monkeypatch.setattr(freq_train, "predict", spy)
    _, scale, _ = _train_freq(records, split, 3, 8, 9, epochs=1, batch_size=8)
    want = spectra_matrix(records, scale=scale)
    assert np.array_equal(seen[0], want[split.train])
    assert np.array_equal(seen[1], want[split.val])


# --- pooling and fusion -------------------------------------------------------
# TfeModel pools time features with `tmean` over the unit axis and fuses the
# branches with `concat` on the last axis.


def test_pool_time_constant_rows():
    v = np.array([1.5, -2.0, 0.5])
    x = Tensor(np.tile(v, (6, 1)))
    np.testing.assert_allclose(tmean(x, axis=-2).data, v, atol=1e-7)


def test_pool_time_row_permutation_invariant():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((5, 4))
    a = tmean(Tensor(x), axis=-2).data
    b = tmean(Tensor(x[::-1].copy()), axis=-2).data
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pool_time_two_row_hand_case():
    out = tmean(Tensor(np.array([[1.0, 3.0], [3.0, 5.0]])), axis=-2)
    np.testing.assert_array_equal(out.data, [2.0, 4.0])


def test_fuse_concatenates_losslessly():
    t = Tensor(np.arange(4.0))
    f = Tensor(np.arange(3.0) + 10)
    out = concat([t, f], axis=-1)
    assert out.shape == (7,)
    np.testing.assert_array_equal(out.data[:4], t.data)
    np.testing.assert_array_equal(out.data[4:], f.data)


def test_fuse_reference_widths():
    out = concat([Tensor(np.zeros(1024)), Tensor(np.zeros(128))], axis=-1)
    assert out.shape == (1152,)


def test_fuse_rejects_mismatched_leading_shapes():
    with pytest.raises(ShapeError):
        concat([Tensor(np.zeros((2, 4))), Tensor(np.zeros((3, 2)))], axis=-1)


def test_tfe_head_width_validated():
    rng = np.random.default_rng(0)
    with pytest.raises(ShapeError, match="head expects"):
        TfeModel(
            UnitProjector(8, 4, 5, rng), VisibleEncoder(4, 2, 8, 1, rng),
            LstmEncoder(2, 3, rng), Linear(99, 4, rng),
        )


def test_tfe_fused_and_logits_both_require_spectra():
    rng = np.random.default_rng(0)
    model = TfeModel(
        UnitProjector(8, 4, 5, rng), VisibleEncoder(4, 2, 8, 1, rng),
        LstmEncoder(2, 3, rng), Linear(7, 4, rng),
    )
    units = np.zeros((2, 5, 8), dtype=np.float32)
    for method in (model.fused, model.logits):
        with pytest.raises(ValueError, match="no spectra"):
            method(units, None)
        # Refused before the time branch runs: nothing is left on the tape.
        assert len(active_tape()) == 0


# --- staged fine-tuning --------------------------------------------------------


@pytest.fixture(scope="module")
def staged_setup():
    spec = SyntheticGenSpec(
        n_classes=4, records_per_class=10, c=8, l=40, noise_std=0.1,
        sample_rate=100.0, seed=21, phase_jitter=0.3,
    )
    raw = generate_synthetic(spec)
    records = replace(raw, x=zscore_channels(raw.x))
    split = split_by_image(records, seed=21)
    from brainvis_forge.lmm import build_lmm_models, prepare_units, train_lmm

    units = prepare_units(records.take(split.train), 10)
    lmm = build_lmm_models(unit_dim=units.shape[2], n_units=10, d=16, n_heads=2, ffn_dim=32, sa_blocks=1,
                           ca_blocks=1, n_codewords=16, teacher_momentum=0.99, seed=6)
    train_lmm(units, lmm, mask_ratio=0.75, steps=20, batch_size=32, seed=6)
    freq_model, scale, _ = _train_freq(records, split, 4, 8, 6, epochs=15, batch_size=16)
    return records, split, lmm, (freq_model, scale)


def _finetune(records, split, lmm, freq, **kw):
    """Fine-tune a TfeModel over the pretrained branches, `freq` being (classifier, spectrum scale);
    `lmm=None` cold-starts the time branch."""
    freq_model, scale = freq
    rng = np.random.default_rng(6)
    if lmm is not None:
        projector, encoder = lmm.projector, lmm.encoder
    else:
        c, l = records[0].x.shape
        projector, encoder = UnitProjector(c * (l // 10), 16, 10, rng), VisibleEncoder(16, 2, 32, 1, rng)
    model = TfeModel(
        projector, encoder, freq_model.encoder, Linear(16 + 8, 4, rng), spectrum_scale=scale
    )
    args = dict(stage1_epochs=10, stage2_epochs=5, batch_size=16, seed=6)
    args.update(kw)
    return finetune_tfe(model, *tfe_inputs(model, records, 10), records.labels, split, **args)


def test_staged_overfit_small(staged_setup):
    records, split, lmm, freq = staged_setup
    history = _finetune(records, split, lmm, freq)
    assert {h["stage"] for h in history} == {1, 2}
    assert history[-1]["train_acc"] >= 0.95


def test_stage2_skippable_for_ablation(staged_setup):
    records, split, lmm, freq = staged_setup
    history = _finetune(records, split, lmm, freq, stage2_epochs=0)
    assert {h["stage"] for h in history} == {1}


def test_stage2_without_stage1_requires_override(staged_setup):
    records, split, lmm, freq = staged_setup
    with pytest.raises(ValueError, match="stage 2 requires stage 1"):
        _finetune(records, split, lmm, freq, stage1_epochs=0)


def test_cold_start_requires_explicit_flag(staged_setup):
    records, split, _, freq = staged_setup
    history = _finetune(records, split, None, freq, stage1_epochs=2, stage2_epochs=0)
    assert {h["stage"] for h in history} == {1}


def test_finetune_deterministic(staged_setup):
    records, split, lmm, freq = staged_setup
    import copy

    def run():
        lmm_copy = copy.deepcopy(lmm)
        freq_copy = copy.deepcopy(freq)
        history = _finetune(records, split, lmm_copy, freq_copy, stage1_epochs=3, stage2_epochs=2)
        return [(h["loss"], h["train_acc"], h["val_acc"]) for h in history]

    assert run() == run()
