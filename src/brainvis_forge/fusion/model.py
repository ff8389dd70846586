"""Time-frequency embedding: pooled time features concatenated with the
frequency hidden state, feeding a linear class head."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, no_grad
from ..autodiff.nn import Linear, LstmEncoder, Module
from ..autodiff.ops import mean_pool
from ..autodiff.tensor import ShapeError
from ..lmm.model import UnitProjector, VisibleEncoder


def pool_time(encoder_output: Tensor) -> Tensor:
    """Mean over the unit axis: (..., n, d) -> (..., d).

    Parameter-free and order-robust; positional structure already lives in
    the unit embeddings.
    """
    return mean_pool(encoder_output, axis=-2)


def fuse(time_vec: Tensor, freq_vec: Tensor) -> Tensor:
    """Lossless fusion by concatenation: (..., d) + (..., h) -> (..., d + h)."""
    if time_vec.ndim != freq_vec.ndim:
        raise ShapeError(f"fuse: rank mismatch {time_vec.shape} vs {freq_vec.shape}")
    if time_vec.shape[:-1] != freq_vec.shape[:-1]:
        raise ShapeError(f"fuse: leading shapes differ, {time_vec.shape} vs {freq_vec.shape}")
    return concat([time_vec, freq_vec], axis=-1)


class TfeModel(Module):
    """Both branches plus the class head.  A disabled branch may be None and
    contributes zeros, so the fused width (d + h) never changes."""

    def __init__(
        self,
        projector: UnitProjector | None,
        encoder: VisibleEncoder | None,
        freq_encoder: LstmEncoder | None,
        head: Linear,
        *,
        d: int,
        h: int,
        n_classes: int,
        spectrum_scale: float = 1.0,
        use_time: bool = True,
        use_freq: bool = True,
    ):
        if head.weight.shape != (d + h, n_classes):
            raise ShapeError(f"TfeModel: head expects ({d + h}, {n_classes}), got {head.weight.shape}")
        self.projector = projector
        self.encoder = encoder
        self.freq_encoder = freq_encoder
        self.head = head
        self.d = d
        self.h = h
        self.n_classes = n_classes
        self.spectrum_scale = spectrum_scale
        self.use_time = use_time
        self.use_freq = use_freq

    def time_vector(self, flat_units: Tensor) -> Tensor:
        return pool_time(self.encoder(self.projector(flat_units)))

    def freq_vector(self, spectra: Tensor) -> Tensor:
        if self.freq_encoder is None:
            raise RuntimeError("TfeModel: frequency encoder not attached")
        return self.freq_encoder(spectra)

    def fused(self, flat_units: np.ndarray, spectra: np.ndarray | None, freq_hidden: np.ndarray | None = None) -> Tensor:
        """Fused (d + h) embedding rows on the tape; zeros for disabled branches.
        `freq_hidden` short-circuits the recurrence with precomputed constants
        (used while the frequency branch is frozen)."""
        batch = flat_units.shape[0]
        dtype = self.head.weight.data.dtype
        if self.use_time:
            t_vec = self.time_vector(Tensor(np.asarray(flat_units, dtype=dtype)))
        else:
            t_vec = Tensor(np.zeros((batch, self.d), dtype=dtype))
        if not self.use_freq:
            f_vec = Tensor(np.zeros((batch, self.h), dtype=dtype))
        elif freq_hidden is not None:
            f_vec = Tensor(np.asarray(freq_hidden, dtype=dtype))
        elif spectra is None:
            raise ValueError("TfeModel: frequency branch enabled but no spectra given")
        else:
            f_vec = self.freq_vector(Tensor(np.asarray(spectra, dtype=dtype)))
        return fuse(t_vec, f_vec)

    def logits(self, flat_units: np.ndarray, spectra: np.ndarray | None, freq_hidden: np.ndarray | None = None) -> Tensor:
        """Class logits for a batch; arguments as for `fused`."""
        return self.head(self.fused(flat_units, spectra, freq_hidden))

    def tfe_embedding(self, flat_units: np.ndarray, spectra: np.ndarray | None) -> np.ndarray:
        """Fused embedding as a constant array (inference path)."""
        with no_grad():
            return self.fused(flat_units, spectra).data.copy()
