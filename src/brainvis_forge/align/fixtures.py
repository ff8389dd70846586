"""Semantic embedding fixtures, stored in gen-data's archive (format in binio).

Each stimulus image carries two target vectors: a coarse label-level
direction and a finer caption-level variant.  `SemanticFixtures` holds them
as one table whose row i is image id i: `labels[i]` is the image's class,
`c_label[i]` and `c_cap[i]` its two targets.  The fixtures stand in for
external embedding models, so the alignment stage is fully reproducible
offline.  gen-data's archive, data/checkpoint.bvc (tagged stage "data"),
holds the table's three columns beside the trials and the target images:
image_labels (I,) int64, the per-image class column the images share,
and c_label and c_cap (I, e) float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..binio import load_checkpoint


class MissingTargetError(KeyError):
    """No fixture entry for a (class_label, image_id) pair."""


class ZeroNormTargetError(ValueError):
    """A fixture vector has zero norm and cannot anchor a cosine objective."""


@dataclass
class SemanticFixtures:
    """Per-image class (I,), label targets (I, e) and caption targets (I, e)."""

    labels: np.ndarray
    c_label: np.ndarray
    c_cap: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.c_label = np.ascontiguousarray(self.c_label, dtype=np.float32)
        self.c_cap = np.ascontiguousarray(self.c_cap, dtype=np.float32)
        shape = self.c_label.shape
        if len(shape) != 2 or self.c_cap.shape != shape or self.labels.shape != shape[:1]:
            raise ValueError(
                f"SemanticFixtures: need labels (I,) and equal (I, e) vectors, got "
                f"{self.labels.shape} / {self.c_label.shape} / {self.c_cap.shape}"
            )

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def e(self) -> int:
        return self.c_label.shape[1]

    def targets(self, class_labels, image_ids) -> tuple[np.ndarray, np.ndarray]:
        """(c_cap, c_label) rows for a batch of (class, image id) pairs."""
        class_labels = np.asarray(class_labels)
        image_ids = np.asarray(image_ids)
        known = (image_ids >= 0) & (image_ids < len(self))
        bad = ~known
        bad[known] = self.labels[image_ids[known]] != class_labels[known]
        if bad.any():
            i = int(np.argmax(bad))
            raise MissingTargetError(f"no semantic targets for class {class_labels[i]}, image {image_ids[i]}")
        return self.c_cap[image_ids], self.c_label[image_ids]


FIXTURE_KEYS = ("image_labels", "c_label", "c_cap")


def load_fixtures(path) -> SemanticFixtures:
    """The fixtures table of gen-data's archive at `path`; see `archived_fixtures`."""
    return archived_fixtures(load_checkpoint(path, "data", FIXTURE_KEYS))


def archived_fixtures(tensors: dict[str, np.ndarray]) -> SemanticFixtures:
    """The fixtures table of gen-data's archive keys `FIXTURE_KEYS`, checked to hold no zero-norm vector."""
    fixtures = SemanticFixtures(*(tensors[key] for key in FIXTURE_KEYS))
    zero = (np.linalg.norm(fixtures.c_label, axis=1) == 0.0) | (np.linalg.norm(fixtures.c_cap, axis=1) == 0.0)
    if zero.any():
        i = int(np.argmax(zero))
        raise ZeroNormTargetError(f"entry ({fixtures.labels[i]}, {i}) has a zero-norm vector")
    return fixtures


def generate_fixtures(
    n_classes: int,
    images_per_class: int,
    e: int = 768,
    seed: int = 0,
    caption_offset: float = 0.25,
) -> SemanticFixtures:
    """Synthetic targets: unit class direction; caption = normalized
    (class direction + caption_offset * per-image offset).  Deterministic in
    the seed, and the label/caption angle is controlled by the offset scale.
    Image id k * images_per_class + j is class k's j-th image."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xE3B]))
    class_dirs = rng.standard_normal((n_classes, e))
    class_dirs /= np.linalg.norm(class_dirs, axis=1, keepdims=True)
    # One 1-D norm per image, as drawn: an axis=1 norm over all offsets at
    # once sums in another order and would change the bits.
    c_cap = np.empty((n_classes * images_per_class, e), dtype=np.float32)
    for k in range(n_classes):
        for j in range(images_per_class):
            offset = rng.standard_normal(e)
            offset /= np.linalg.norm(offset)
            cap = class_dirs[k] + caption_offset * offset
            cap /= np.linalg.norm(cap)
            c_cap[k * images_per_class + j] = cap
    return SemanticFixtures(
        labels=np.repeat(np.arange(n_classes), images_per_class),
        c_label=np.repeat(class_dirs.astype(np.float32), images_per_class, axis=0),
        c_cap=c_cap,
    )
