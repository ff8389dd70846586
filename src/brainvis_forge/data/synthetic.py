"""Deterministic synthetic EEG with spectrally separable classes.

Each class owns a distinct set of sinusoid frequencies and a channel gain
profile; a record is the gain-weighted sum of those sinusoids (random phase
per record) plus Gaussian noise.  Everything derives from the spec seed, so
identical specs produce byte-identical datasets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .records import EegDataset


def _usable_bins(l: int) -> np.ndarray:
    """DFT bins a class sinusoid may take: 2 .. l // 2 - 2, clear of DC and Nyquist."""
    return np.arange(2, l // 2 - 1)


def check_signal_length(l: int, sinusoids_per_class: int, what: str) -> None:
    """Raise ValueError naming `what` when l samples leave fewer usable bins than one class's sinusoids."""
    usable = len(_usable_bins(l))
    if usable < sinusoids_per_class:
        raise ValueError(f"{what} signal too short for requested sinusoids: l={l} leaves {usable} usable "
                         f"frequency bins for sinusoids_per_class={sinusoids_per_class}")


def check_signature_count(l: int, sinusoids_per_class: int, n_classes: int, what: str) -> None:
    """Raise ValueError naming `what` when fewer distinct frequency signatures exist than classes."""
    count = math.comb(len(_usable_bins(l)), sinusoids_per_class) if sinusoids_per_class >= 0 else 0
    if count < n_classes:
        raise ValueError(f"{what} only {count} distinct frequency signatures available for n_classes={n_classes}; "
                         f"increase l={l} or sinusoids_per_class={sinusoids_per_class}")


@dataclass
class SyntheticGenSpec:
    n_classes: int
    records_per_class: int
    c: int = 128
    l: int = 440
    noise_std: float = 0.1
    sample_rate: float = 1000.0
    seed: int = 0
    sinusoids_per_class: int = 2
    # Per-record phase = class base phase + uniform(-phase_jitter, +phase_jitter).
    # pi makes phases effectively independent per record; small values model
    # stimulus-locked responses and give the time branch something to learn.
    phase_jitter: float = np.pi
    # >1 emits several records per image id (distinct subjects viewing the
    # same stimulus), so image-based splitting has something to group.
    records_per_image: int = 1
    subjects: int = 6
    class_frequencies: list[tuple[float, ...]] | None = None

    def __post_init__(self):
        if self.n_classes < 1 or self.records_per_class < 1:
            raise ValueError("SyntheticGenSpec: n_classes and records_per_class must be >= 1")
        if self.records_per_image < 1:
            raise ValueError("SyntheticGenSpec: records_per_image must be >= 1")
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, 0xC1A55]))
        if self.class_frequencies is None:
            self.class_frequencies = self._draw_frequencies(rng)
        self.class_frequencies = [tuple(float(f) for f in fs) for fs in self.class_frequencies]
        if len(self.class_frequencies) != self.n_classes:
            raise ValueError("SyntheticGenSpec: one frequency signature per class required")
        nyquist = self.sample_rate / 2.0
        for fs in self.class_frequencies:
            if any(f <= 0 or f >= nyquist for f in fs):
                raise ValueError(f"SyntheticGenSpec: frequencies must lie in (0, {nyquist}) Hz, got {fs}")
        signatures = [tuple(sorted(fs)) for fs in self.class_frequencies]
        if len(set(signatures)) != len(signatures):
            raise ValueError("SyntheticGenSpec: class frequency signatures must be pairwise distinct")
        # (n_classes, c) channel gains, drawn after the frequencies from the same stream.
        self.class_gains = rng.uniform(0.5, 1.5, size=(self.n_classes, self.c))

    def _draw_frequencies(self, rng: np.random.Generator) -> list[tuple[float, ...]]:
        # Pick distinct DFT-bin-aligned frequency sets so classes stay
        # separable after any whole-record magnitude spectrum.
        check_signal_length(self.l, self.sinusoids_per_class, "SyntheticGenSpec:")
        check_signature_count(self.l, self.sinusoids_per_class, self.n_classes, "SyntheticGenSpec:")
        bin_hz = self.sample_rate / self.l
        usable = _usable_bins(self.l)
        chosen: set[tuple[int, ...]] = set()
        out = []
        while len(out) < self.n_classes:
            bins = tuple(sorted(rng.choice(usable, size=self.sinusoids_per_class, replace=False).tolist()))
            if bins in chosen:
                continue
            chosen.add(bins)
            out.append(tuple(b * bin_hz for b in bins))
        return out

    @property
    def n_images(self) -> int:
        return self.n_classes * self.records_per_class

    @property
    def n_records(self) -> int:
        return self.n_images * self.records_per_image


def generate_synthetic(spec: SyntheticGenSpec) -> EegDataset:
    """Materialize the dataset described by `spec`, record by record into one array."""
    t = np.arange(spec.l, dtype=np.float64) / spec.sample_rate
    base_rng = np.random.default_rng(np.random.SeedSequence([spec.seed, 0xBA5E]))
    base_phases = base_rng.uniform(0.0, 2.0 * np.pi, size=(spec.n_classes, len(spec.class_frequencies[0])))
    x = np.empty((spec.n_records, spec.c, spec.l), dtype=np.float32)
    idx = 0
    for k in range(spec.n_classes):
        freqs = spec.class_frequencies[k]
        gains = spec.class_gains[k][:, None]  # (c, 1)
        for j in range(spec.records_per_class):
            for rep in range(spec.records_per_image):
                rng = np.random.default_rng(np.random.SeedSequence([spec.seed, k, j, rep]))
                signal = np.zeros((spec.c, spec.l), dtype=np.float64)
                for fi, f in enumerate(freqs):
                    phase = base_phases[k, fi] + rng.uniform(-spec.phase_jitter, spec.phase_jitter)
                    signal += gains * np.sin(2.0 * np.pi * f * t + phase)
                if spec.noise_std > 0:
                    signal += spec.noise_std * rng.standard_normal((spec.c, spec.l))
                x[idx] = signal
                idx += 1
    # Records run class-major, then image, then repetition.
    image_ids = np.repeat(np.arange(spec.n_images), spec.records_per_image)
    return EegDataset(
        x,
        labels=image_ids // spec.records_per_class,
        subjects=np.arange(spec.n_records) % spec.subjects,
        image_ids=image_ids,
    )
