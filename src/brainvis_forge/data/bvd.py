"""The dataset, read from gen-data's archive data/checkpoint.bvc (format in
binio, stage tag "data", every key listed in pipeline.checkpoint).

The trials are stored under the field names of `EegDataset`: x, the
(R, c, l) float32 trials, z-scored per channel once, at gen-data; labels,
subjects and image_ids, each (R,) int64.  Row r of every key is trial r.
"""

from __future__ import annotations

from ..binio import load_checkpoint
from .records import EegDataset

TRIAL_KEYS = ("x", "labels", "subjects", "image_ids")


def load_dataset(path) -> EegDataset:
    """The trials and ids bit-identical to what gen-data stored; the archive's
    other keys are skipped, not read into memory."""
    t = load_checkpoint(path, "data", TRIAL_KEYS)
    return EegDataset(*(t[key] for key in TRIAL_KEYS))
