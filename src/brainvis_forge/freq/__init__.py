"""Frequency branch: FFT magnitude features and a recurrent classifier."""

# The function `fft` shadows its submodule's name on purpose: perfbench's medium_train check calls `freq.fft(x, axis)`.
from .fft import FreqSequence, fft, fft_magnitude
from .train import FreqClassifier, freq_classify_train, spectra_matrix, train_spectra

__all__ = [
    "FreqClassifier",
    "FreqSequence",
    "fft",
    "fft_magnitude",
    "freq_classify_train",
    "spectra_matrix",
    "train_spectra",
]
