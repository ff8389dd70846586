"""Time-frequency embedding: mean-pooled time features concatenated with the
frequency hidden state (lossless fusion), feeding a linear class head."""

from __future__ import annotations

import numpy as np

from ..autodiff import Tensor, concat, tmean
from ..autodiff.nn import Linear, LstmEncoder, Module
from ..autodiff.tensor import ShapeError
from ..lmm.model import UnitProjector, VisibleEncoder


class TfeModel(Module):
    """Both branches plus the class head.  A disabled branch is None and
    contributes zeros, so the fused width (d + h) never changes.  The branch
    switches, widths and class count are read off the modules; a disabled
    branch's width is what the head has left over."""

    def __init__(
        self,
        projector: UnitProjector | None,
        encoder: VisibleEncoder | None,
        freq_encoder: LstmEncoder | None,
        head: Linear,
        spectrum_scale: float = 1.0,
    ):
        self.projector = projector
        self.encoder = encoder
        self.freq_encoder = freq_encoder
        self.head = head
        self.spectrum_scale = spectrum_scale
        self.use_time = projector is not None
        self.use_freq = freq_encoder is not None
        width, self.n_classes = head.weight.shape
        self.d = projector.proj.weight.shape[1] if self.use_time else width - freq_encoder.d_hidden
        self.h = freq_encoder.d_hidden if self.use_freq else width - self.d
        if width != self.d + self.h or min(self.d, self.h) <= 0:
            raise ShapeError(f"TfeModel: head expects ({self.d + self.h}, {self.n_classes}), got {head.weight.shape}")

    def time_vector(self, flat_units: Tensor) -> Tensor:
        """Encoder features mean-pooled over the unit axis: (..., n, d) -> (..., d);
        positional structure already lives in the unit embeddings."""
        return tmean(self.encoder(self.projector(flat_units)), axis=-2)

    def freq_vector(self, spectra: Tensor) -> Tensor:
        if self.freq_encoder is None:
            raise RuntimeError("TfeModel: frequency encoder not attached")
        return self.freq_encoder(spectra)

    def fused(self, flat_units: np.ndarray | None, spectra: np.ndarray | None, freq_hidden: np.ndarray | None = None) -> Tensor:
        """Fused (d + h) embedding rows on the tape; zeros for disabled branches,
        whose inputs may be None.  `freq_hidden` short-circuits the recurrence
        with precomputed constants (used while the frequency branch is frozen)."""
        batch = len(next(a for a in (flat_units, spectra, freq_hidden) if a is not None))
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
        return concat([t_vec, f_vec], axis=-1)

    def logits(self, flat_units: np.ndarray | None, spectra: np.ndarray | None, freq_hidden: np.ndarray | None = None) -> Tensor:
        """Class logits for a batch; arguments as for `fused`."""
        return self.head(self.fused(flat_units, spectra, freq_hidden))
