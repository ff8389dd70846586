"""The dataset as one BVC archive (format in binio), tagged stage "data".

Keys: x, the (R, c, l) float32 trials, z-scored per channel once, at
gen-data; labels, subjects and image_ids, each (R,) int64.  Row r of every
key is trial r.
"""

from __future__ import annotations

from ..binio import load_checkpoint, save_checkpoint
from .records import EegDataset


def write_dataset(path, dataset: EegDataset) -> None:
    tensors = {"x": dataset.x, "labels": dataset.labels, "subjects": dataset.subjects, "image_ids": dataset.image_ids}
    save_checkpoint(path, tensors, "data")


def load_dataset(path) -> EegDataset:
    """Read the trials and ids bit-identical to what `write_dataset` wrote."""
    t = load_checkpoint(path, "data")
    return EegDataset(t["x"], t["labels"], t["subjects"], t["image_ids"])
