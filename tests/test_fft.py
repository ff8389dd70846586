"""Transform correctness against an independent direct-summation oracle and numpy.fft."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brainvis_forge.data.records import EegDataset
from brainvis_forge.freq import train as freq_train
from brainvis_forge.freq.fft import fft, fft_magnitude
from brainvis_forge.freq.train import spectra_matrix


def naive_dft(x: np.ndarray) -> np.ndarray:
    """O(n^2) direct evaluation; deliberately shares no code with fft()."""
    n = len(x)
    k = np.arange(n)
    return np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in range(n)])


@pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 12, 35, 81, 121, 440])
def test_fft_matches_naive_dft(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n)
    got = fft(x)
    want = naive_dft(x)
    scale = max(1.0, np.max(np.abs(want)))
    assert np.max(np.abs(got - want)) / scale < 1e-10


def test_fft_handles_non_power_of_two_length_440():
    # 440 = 2^3 * 5 * 11; a power-of-two-only implementation cannot do this.
    x = np.random.default_rng(0).standard_normal(440)
    assert fft(x).shape == (440,)


def test_parseval_identity_on_100_random_signals():
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.standard_normal(440)
        spectrum = fft(x)
        lhs = np.sum(x * x)
        rhs = np.sum(np.abs(spectrum) ** 2) / len(x)
        assert abs(lhs - rhs) / abs(lhs) < 1e-6


def test_linearity_in_complex_domain():
    rng = np.random.default_rng(9)
    for _ in range(20):
        x, y = rng.standard_normal(440), rng.standard_normal(440)
        a, b = rng.standard_normal(2)
        lhs = fft(a * x + b * y)
        rhs = a * fft(x) + b * fft(y)
        scale = max(1.0, np.max(np.abs(rhs)))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-6


def test_constant_signal_concentrates_at_dc():
    a, l = 0.73, 64
    seq = fft_magnitude(np.full((2, l), a), sample_rate=100.0)
    assert seq.magnitude.shape == (l // 2 + 1, 2)
    np.testing.assert_allclose(seq.magnitude[0], a * l, rtol=1e-12)
    assert np.all(seq.magnitude[1:] < 1e-6)


def test_integer_bin_sinusoid_magnitude_is_half_length():
    l, k = 64, 5
    t = np.arange(l)
    x = np.sin(2 * np.pi * k * t / l)[None, :]
    seq = fft_magnitude(x, sample_rate=float(l))
    np.testing.assert_allclose(seq.magnitude[k, 0], l / 2, rtol=1e-9)
    others = np.delete(seq.magnitude[:, 0], k)
    assert np.all(others < 1e-6)


def test_bin_resolution_and_count_for_reference_geometry():
    x = np.random.default_rng(1).standard_normal((128, 440))
    seq = fft_magnitude(x, sample_rate=1000.0)
    assert seq.n_bins == 221
    assert seq.bin_resolution == pytest.approx(1000.0 / 440)
    assert np.all(seq.magnitude >= 0)


def test_fft_magnitude_rejects_bad_shapes():
    with pytest.raises(ValueError):
        fft_magnitude(np.zeros(16))
    with pytest.raises(ValueError):
        fft_magnitude(np.zeros((4, 1)))


def _rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-300))


@pytest.mark.parametrize("n", [1, 2, 11, 440, 441, 997, 1024])
def test_fft_matches_numpy_1d_and_batched_along_a_middle_axis(n):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert fft(x).dtype == np.complex128
    assert _rel_err(fft(x), np.fft.fft(x)) < 1e-9
    # 3 x n x 70 along axis 1: 210 transforms, more than one block
    batch = rng.standard_normal((3, n, 70))
    got = fft(batch, axis=1)
    assert got.shape == batch.shape
    assert _rel_err(got, np.fft.fft(batch, axis=1)) < 1e-9


@pytest.mark.parametrize("l", [440, 441])
def test_batched_fft_magnitude_matches_per_trial_calls_and_numpy_rfft(l):
    x = np.random.default_rng(l).standard_normal((9, 16, l)).astype(np.float32)
    batched = fft_magnitude(x, sample_rate=1000.0)
    assert batched.magnitude.shape == (9, l // 2 + 1, 16)
    assert batched.n_bins == l // 2 + 1
    assert batched.bin_resolution == pytest.approx(1000.0 / l)
    for trial, mag in zip(x, batched.magnitude):
        assert _rel_err(mag, fft_magnitude(trial).magnitude) < 1e-12
    want = np.abs(np.fft.rfft(x.astype(np.float64), axis=-1)).swapaxes(-1, -2)
    assert _rel_err(batched.magnitude, want) < 1e-9


def _records(n: int, c: int, l: int, seed: int) -> EegDataset:
    rng = np.random.default_rng(seed)
    return EegDataset(rng.standard_normal((n, c, l), dtype=np.float32), np.arange(n) % 3, np.zeros(n), np.arange(n))


def test_spectra_matrix_row_does_not_depend_on_its_chunk():
    records = _records(2 * freq_train._CHUNK + 3, 6, 440, seed=3)
    spectra = spectra_matrix(records, 1000.0, 7.5)
    assert spectra.shape == (len(records), 221, 6) and spectra.dtype == np.float32
    for i, row in enumerate(spectra):
        alone = spectra_matrix(records.take([i]), 1000.0, 7.5)[0]
        assert _rel_err(row, alone) < 1e-6
    want = np.abs(np.fft.rfft(records.x.astype(np.float64), axis=-1)).swapaxes(-1, -2) / 7.5
    assert _rel_err(spectra, want) < 1e-6


_MEMORY_CHILD = """
import json, resource
import numpy as np
from brainvis_forge.data.records import EegDataset
from brainvis_forge.freq.train import spectra_matrix

rng = np.random.default_rng(0)
records = EegDataset(rng.standard_normal((300, 128, 440), dtype=np.float32), np.zeros(300), np.zeros(300), np.arange(300))
spectra_matrix(records.take([0]), 1000.0)  # plan tables and BLAS set-up
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
spectra = spectra_matrix(records, 1000.0)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"growth_kb": after - before, "input_bytes": 300 * 128 * 440 * 4, "shape": list(spectra.shape)}))
"""


def test_spectra_matrix_peak_memory_stays_below_the_input_size():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _MEMORY_CHILD], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["shape"] == [300, 221, 128]
    # the float32 result alone is 0.5x the input; a float64 copy of the set would be 1x more
    assert result["growth_kb"] * 1024 < result["input_bytes"], result
