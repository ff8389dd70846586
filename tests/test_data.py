"""Dataset container round trips, synthetic generation, splitting, segmentation."""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainvis_forge.binio import ChecksumError, TruncatedError, UnsupportedFormatError
from brainvis_forge.data import (
    EegDataset,
    SyntheticGenSpec,
    flatten_units,
    generate_synthetic,
    load_dataset,
    make_image_set,
    segment_units,
    split_by_image,
    write_dataset,
    zscore_channels,
)
from brainvis_forge.lmm.train import prepare_units
from oracles import make_image, reassemble_units

# (R, c, l) shapes for the batched-versus-per-trial checks: odd, prime and
# single-channel geometries next to the tiny, reference and 2,000-record ones.
BATCH_SHAPES = [(5, 1, 7), (9, 8, 40), (3, 4, 129), (4, 16, 1031), (2, 128, 440), (2000, 8, 40)]


def _records(n=5, c=4, l=12, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, l)).astype(np.float32)
    return EegDataset(x, np.arange(n) % 3, np.arange(n) % 2, np.arange(n))


def _images(image_ids, c=2, l=4):
    """Zero trials carrying the given image ids."""
    n = len(image_ids)
    return EegDataset(np.zeros((n, c, l), dtype=np.float32), np.zeros(n), np.zeros(n), image_ids)


def _zscore_one_trial(x):
    """The per-trial z-score the batched one must reproduce bit for bit."""
    mu = x.mean(axis=1, keepdims=True)
    sd = x.std(axis=1, keepdims=True)
    return ((x - mu) / np.maximum(sd, 1e-8)).astype(x.dtype)


def _segment_one_trial(x, n):
    """Per-trial units by explicit column slices: (c, l) -> (n, c*l/n)."""
    w = x.shape[1] // n
    return np.stack([x[:, i * w : (i + 1) * w] for i in range(n)]).reshape(n, -1)


# --- BVD1 container ---------------------------------------------------------


def test_empty_file_roundtrip(tmp_path):
    path = tmp_path / "empty.bvd"
    write_dataset(path, _records(n=0, c=0, l=0), n_classes=40)
    records, header = load_dataset(path)
    assert len(records) == 0 and list(records) == []
    assert header.n_records == 0 and header.n_classes == 40


def test_roundtrip_bit_identical(tmp_path):
    path = tmp_path / "d.bvd"
    original = _records()
    write_dataset(path, original, n_classes=3)
    loaded, header = load_dataset(path)
    assert len(loaded) == len(original)
    for a, b in zip(original, loaded):
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.class_label, a.subject_id, a.image_id) == (b.class_label, b.subject_id, b.image_id)
    assert not header.normalized


def test_bdve_shaped_header(tmp_path):
    path = tmp_path / "b.bvd"
    rng = np.random.default_rng(0)
    recs = EegDataset(rng.standard_normal((1, 128, 440)).astype(np.float32), [0], [0], [0])
    write_dataset(path, recs, n_classes=40)
    _, header = load_dataset(path)
    assert (header.c, header.l, header.n_classes) == (128, 440, 40)


def test_bad_magic_distinct_error(tmp_path):
    path = tmp_path / "x.bvd"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(UnsupportedFormatError):
        load_dataset(path)


def test_wrong_version_rejected(tmp_path):
    path = tmp_path / "v2.bvd"
    write_dataset(path, _records(), n_classes=3)
    blob = bytearray(path.read_bytes())
    blob[4:8] = (2).to_bytes(4, "little")
    path.write_bytes(bytes(blob))
    with pytest.raises(UnsupportedFormatError, match="unsupported version 2, expected 1"):
        load_dataset(path)


def test_corrupted_crc_distinct_error(tmp_path):
    path = tmp_path / "c.bvd"
    write_dataset(path, _records(), n_classes=3)
    blob = bytearray(path.read_bytes())
    blob[40] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(ChecksumError):
        load_dataset(path)


def test_truncated_distinct_error(tmp_path):
    path = tmp_path / "t.bvd"
    write_dataset(path, _records(), n_classes=3)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedError):
        load_dataset(path)


def test_normalize_on_load_sets_flag(tmp_path):
    path = tmp_path / "n.bvd"
    write_dataset(path, _records(), n_classes=3)
    records, header = load_dataset(path, normalize=True)
    assert header.normalized
    np.testing.assert_allclose(records[0].x.mean(axis=1), 0.0, atol=1e-5)


def test_normalize_on_load_is_bit_identical_to_per_trial_zscore(tmp_path):
    for r, c, l in BATCH_SHAPES:
        raw = _records(n=r, c=c, l=l, seed=r * l)
        raw.x *= np.linspace(0.5, 40.0, c, dtype=np.float32)[:, None]
        raw.x += 3.0
        path = tmp_path / f"z{r}_{c}_{l}.bvd"
        write_dataset(path, raw, n_classes=3)
        loaded, _ = load_dataset(path, normalize=True)
        want = np.stack([_zscore_one_trial(t) for t in raw.x])
        assert loaded.x.dtype == np.float32 and loaded.x.flags.c_contiguous
        assert loaded.x.tobytes() == want.tobytes(), (r, c, l)
        assert zscore_channels(raw.x).tobytes() == want.tobytes(), (r, c, l)


def _rewrite_last_value(path, value):
    """Set the last sample of the last record to `value` and re-seal the CRC."""
    blob = bytearray(path.read_bytes())
    blob[-8:-4] = np.float32(value).tobytes()
    blob[-4:] = zlib.crc32(bytes(blob[25:-4])).to_bytes(4, "little")
    path.write_bytes(bytes(blob))


def test_load_rejects_nan_trial_behind_valid_crc(tmp_path):
    path = tmp_path / "nan.bvd"
    write_dataset(path, _records(), n_classes=3)
    _rewrite_last_value(path, np.nan)
    for normalize in (False, True):
        with pytest.raises(ValueError, match="NaN or Inf"):
            load_dataset(path, normalize=normalize)


def test_dataset_rejects_inf_trial():
    x = _records().x
    x[2, 1, 5] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        EegDataset(x, np.zeros(5), np.zeros(5), np.arange(5))


def test_dataset_rejects_wrongly_shaped_arrays():
    with pytest.raises(ValueError, match="3-D"):
        EegDataset(np.zeros((4, 12), dtype=np.float32), np.zeros(4), np.zeros(4), np.arange(4))
    with pytest.raises(ValueError, match="labels"):
        EegDataset(np.zeros((4, 2, 12), dtype=np.float32), np.zeros(3), np.zeros(4), np.arange(4))


def test_write_rejects_ids_outside_u32(tmp_path):
    data = _records()
    data.subjects[3] = -1
    with pytest.raises(ValueError, match="u32"):
        write_dataset(tmp_path / "neg.bvd", data, n_classes=3)


def test_dataset_rows_view_the_array_and_take_subsets():
    data = _records(n=6)
    row = data[4]
    assert (row.class_label, row.subject_id, row.image_id) == (1, 0, 4)
    assert np.shares_memory(row.x, data.x)
    assert [r.image_id for r in data] == list(range(6))
    sub = data.take([5, 1])
    assert sub.x.tobytes() == data.x[[5, 1]].tobytes()
    assert sub.labels.tolist() == [2, 1] and sub.image_ids.tolist() == [5, 1]


# --- synthetic generation ---------------------------------------------------


def test_synthetic_deterministic_same_seed():
    spec = SyntheticGenSpec(n_classes=3, records_per_class=4, c=4, l=20, seed=9, sample_rate=100.0)
    a = generate_synthetic(spec)
    b = generate_synthetic(SyntheticGenSpec(n_classes=3, records_per_class=4, c=4, l=20, seed=9, sample_rate=100.0))
    assert all(x.x.tobytes() == y.x.tobytes() for x, y in zip(a, b))


def test_synthetic_counts_mirror_stimulus_set():
    spec = SyntheticGenSpec(n_classes=40, records_per_class=50, c=2, l=40, seed=0, sample_rate=100.0)
    records = generate_synthetic(spec)
    assert len(records) == 2000
    assert len({r.image_id for r in records}) == 2000


def test_synthetic_records_per_image_repeats_each_image_id():
    per_class, per_image = 4, 3
    spec = SyntheticGenSpec(n_classes=3, records_per_class=per_class, c=4, l=20, seed=2, sample_rate=100.0,
                            records_per_image=per_image)
    records = generate_synthetic(spec)
    assert len(records) == 3 * per_class * per_image
    # Records run class-major, then image, then repetition.
    np.testing.assert_array_equal(records.image_ids, np.repeat(np.arange(3 * per_class), per_image))
    np.testing.assert_array_equal(records.labels, records.image_ids // per_class)
    # make_image_set's layout: image id k * per_class + j belongs to class k.
    _, image_labels = make_image_set(3, per_class, size=4, seed=2)
    np.testing.assert_array_equal(records.labels, image_labels[records.image_ids])
    for image_id in range(3 * per_class):
        trials = records.x[records.image_ids == image_id]
        assert len(trials) == per_image
        assert len({t.tobytes() for t in trials}) == per_image


def test_too_many_classes_for_signal_length_rejected():
    with pytest.raises(ValueError, match="distinct frequency signatures"):
        SyntheticGenSpec(n_classes=40, records_per_class=1, c=2, l=20, seed=0, sample_rate=100.0)


def test_pure_sinusoid_energy_concentrates_at_expected_bin():
    # Direct DFT evaluation as the oracle: bin = f0 * l / sample_rate.
    l, fs, f0 = 64, 100.0, 12.5
    spec = SyntheticGenSpec(
        n_classes=1, records_per_class=1, c=2, l=l, seed=3, sample_rate=fs,
        noise_std=0.0, sinusoids_per_class=1, class_frequencies=[(f0,)],
    )
    rec = generate_synthetic(spec)[0]
    k_expected = round(f0 * l / fs)
    for ch in rec.x.astype(np.float64):
        mags = np.array([abs(sum(ch[t] * np.exp(-2j * np.pi * k * t / l) for t in range(l))) for k in range(l // 2 + 1)])
        assert np.argmax(mags) == k_expected
        others = np.delete(mags, k_expected)
        assert np.all(others < 1e-6 * mags[k_expected] + 1e-6)


def test_duplicate_class_signatures_rejected():
    with pytest.raises(ValueError, match="distinct"):
        SyntheticGenSpec(
            n_classes=2, records_per_class=1, c=2, l=20, sample_rate=100.0,
            class_frequencies=[(10.0, 20.0), (20.0, 10.0)],
        )


def test_frequency_above_nyquist_rejected():
    with pytest.raises(ValueError, match="Hz"):
        SyntheticGenSpec(
            n_classes=1, records_per_class=1, c=2, l=20, sample_rate=100.0,
            class_frequencies=[(60.0,)],
        )


# --- splitting --------------------------------------------------------------


def test_split_2000_images_is_1600_200_200():
    spec = SyntheticGenSpec(n_classes=40, records_per_class=50, c=2, l=40, seed=0, sample_rate=100.0)
    records = generate_synthetic(spec)
    split = split_by_image(records, seed=5)
    assert (len(split.train), len(split.val), len(split.test)) == (1600, 200, 200)


def test_split_ten_images_is_8_1_1():
    records = _images(np.arange(10))
    split = split_by_image(records, seed=0)
    assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)


def test_split_fewer_than_ten_images_rejected():
    records = _images(np.arange(9))
    with pytest.raises(ValueError, match="10 distinct images"):
        split_by_image(records, seed=0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_split_image_exclusive_for_any_seed(seed):
    # 12 images x 3 records each; no image may straddle two splits.
    records = _images(np.repeat(np.arange(12), 3))
    split = split_by_image(records, seed=seed)
    groups = {"train": split.train, "val": split.val, "test": split.test}
    all_idx = sorted(i for g in groups.values() for i in g)
    assert all_idx == list(range(len(records)))
    image_home = {}
    for name, idxs in groups.items():
        for i in idxs:
            img = records[i].image_id
            assert image_home.setdefault(img, name) == name


# --- segmentation -----------------------------------------------------------


def test_segment_matches_reference_geometry():
    x = np.arange(128 * 440, dtype=np.float32).reshape(128, 440)
    units = segment_units(x, 110)
    assert units.shape == (110, 128, 4)
    np.testing.assert_array_equal(units[3], x[:, 12:16])
    batch = np.stack([x, -x])
    units = segment_units(batch, 110)
    assert units.shape == (2, 110, 128, 4)
    np.testing.assert_array_equal(units[1, 3], -x[:, 12:16])


def test_segment_single_unit_is_whole_signal():
    x = np.random.default_rng(0).standard_normal((4, 12)).astype(np.float32)
    units = segment_units(x, 1)
    np.testing.assert_array_equal(units[0], x)
    np.testing.assert_array_equal(segment_units(x[None], 1)[0, 0], x)


def test_segment_reassemble_bitwise_roundtrip():
    x = np.random.default_rng(1).standard_normal((8, 40)).astype(np.float32)
    assert reassemble_units(segment_units(x, 10)).tobytes() == x.tobytes()
    batch = np.random.default_rng(2).standard_normal((3, 8, 40)).astype(np.float32)
    assert reassemble_units(segment_units(batch, 10)).tobytes() == batch.tobytes()


def test_segment_rejects_non_divisor():
    with pytest.raises(ValueError, match="divide"):
        segment_units(np.zeros((4, 10), dtype=np.float32), 3)
    with pytest.raises(ValueError, match="divide"):
        segment_units(np.zeros((2, 4, 10), dtype=np.float32), 3)
    # The units view checks when it is built, not at the first index.
    with pytest.raises(ValueError, match="n=7 must divide signal length l=160"):
        prepare_units(_records(n=3, c=2, l=160), 7)


def test_batched_units_equal_per_trial_units():
    for r, c, l in BATCH_SHAPES:
        data = _records(n=r, c=c, l=l, seed=l)
        for n in (n for n in (1, 10, l) if l % n == 0):
            want = np.stack([_segment_one_trial(t, n) for t in data.x])
            assert flatten_units(segment_units(data.x, n)).tobytes() == want.tobytes(), (r, c, l, n)
            units = prepare_units(data, n)
            assert units.dtype == np.float32 and units.shape == (r, n, c * l // n)
            assert units[:].tobytes() == want.tobytes(), (r, c, l, n)
            idx = np.random.default_rng(n).choice(r, size=min(r, 64), replace=False)
            assert units[idx].tobytes() == want[idx].tobytes(), (r, c, l, n)


def test_prepare_units_is_a_row_view_of_the_trials():
    data = _records(n=64, c=32, l=160, seed=4)  # 1.3 MB of trials
    n = 8
    eager = np.ascontiguousarray(flatten_units(segment_units(data.x, n)))
    units = prepare_units(data, n)
    assert (len(units), units.shape, units.dtype) == (len(eager), eager.shape, eager.dtype)
    assert np.shares_memory(units.x, data.x)
    picks = np.random.default_rng(4).choice(len(data), size=17, replace=False)
    for idx in (5, picks, slice(3, 40), slice(9, 9)):
        rows = units[idx]
        assert rows.flags.c_contiguous and rows.dtype == np.float32, idx
        assert rows.shape == eager[idx].shape and rows.tobytes() == eager[idx].tobytes(), idx


def test_prepare_units_copies_no_trials():
    import tracemalloc

    data = _records(n=64, c=32, l=160, seed=5)
    assert data.x.nbytes >= 1 << 20
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        prepare_units(data, 8)
        allocated = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert allocated < 0.01 * data.x.nbytes

def test_zscore_channels_statistics():
    x = np.random.default_rng(2).standard_normal((3, 50)).astype(np.float32) * 7 + 3
    z = zscore_channels(x)
    np.testing.assert_allclose(z.mean(axis=1), 0.0, atol=1e-5)
    np.testing.assert_allclose(z.std(axis=1), 1.0, atol=1e-4)
    batch = np.stack([x, 2 * x - 5])
    z = zscore_channels(batch)
    np.testing.assert_allclose(z.mean(axis=-1), 0.0, atol=1e-5)
    np.testing.assert_allclose(z.std(axis=-1), 1.0, atol=1e-4)
    assert z[0].tobytes() == zscore_channels(x).tobytes()


# --- target images -----------------------------------------------------------------


@pytest.mark.parametrize(
    "n_classes, per_class, size, channels",
    [
        (40, 50, 8, 3),  # the generate_eval benchmark's image set
        (4, 8, 8, 3),  # configs/tiny.json
        (3, 5, 16, 3),
        (2, 3, 10, 1),  # the 4x4 and 8x8 grids do not divide 10; one channel
    ],
)
def test_image_set_byte_equal_to_per_image_oracle(n_classes, per_class, size, channels):
    images, labels = make_image_set(n_classes, per_class, size=size, channels=channels, seed=7)
    assert len(images) == len(labels) == n_classes * per_class
    for image_id, (img, label) in enumerate(zip(images, labels)):
        assert label == image_id // per_class
        expected = make_image(label, image_id, size=size, channels=channels, seed=7)
        assert img.dtype == expected.dtype and img.shape == expected.shape == (channels, size, size)
        assert img.tobytes() == expected.tobytes()
