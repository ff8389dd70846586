"""Core dataset types: the trial set, its rows, and splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class EegRecord:
    """One row of an `EegDataset`: x is a (channels, samples) view into the set."""

    x: np.ndarray
    class_label: int
    subject_id: int
    image_id: int


@dataclass
class EegDataset:
    """All trials as one C-contiguous (R, c, l) float32 array plus per-trial ids.

    Construction is the one validity check (x 3-D and finite, R ids of each
    kind); indexing and iteration yield `EegRecord` rows.
    """

    x: np.ndarray
    labels: np.ndarray
    subjects: np.ndarray
    image_ids: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float32)
        if self.x.ndim != 3:
            raise ValueError(f"EegDataset: x must be 3-D (records, channels, samples), got {self.x.shape}")
        # A float64 sum of float32 values cannot overflow: it is finite exactly when every value is.
        if not np.isfinite(self.x.sum(dtype=np.float64)):
            raise ValueError("EegDataset: a trial contains NaN or Inf")
        self.labels, self.subjects, self.image_ids = (
            np.asarray(ids, dtype=np.int64) for ids in (self.labels, self.subjects, self.image_ids)
        )
        if not self.labels.shape == self.subjects.shape == self.image_ids.shape == (len(self.x),):
            raise ValueError(f"EegDataset: labels, subjects and image_ids must each have shape ({len(self.x)},)")

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i: int) -> EegRecord:
        return EegRecord(self.x[i], int(self.labels[i]), int(self.subjects[i]), int(self.image_ids[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def take(self, indices) -> EegDataset:
        """The subset at `indices`, in their order."""
        idx = np.asarray(indices, dtype=np.int64)
        return EegDataset(self.x[idx], self.labels[idx], self.subjects[idx], self.image_ids[idx])


@dataclass
class DatasetSplit:
    """Disjoint train/val/test record indices; every image lives in one split."""

    train: list[int]
    val: list[int]
    test: list[int]


def zscore_channels(x: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    """Zero-mean unit-variance scaling of each channel along the time axis of (..., c, l).
    The std is taken from the centered array as sqrt(sum(c * c) / l), the operations `np.std` runs."""
    out = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((out * out).sum(axis=-1, keepdims=True) / x.shape[-1])
    out /= np.maximum(std, eps)
    return out
