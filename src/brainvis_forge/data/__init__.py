"""Dataset ingestion, synthetic generation, segmentation, and splitting."""

from .bvd import load_dataset
from .images import make_image_set
from .records import DatasetSplit, EegDataset, EegRecord, zscore_channels
from .segment import flatten_units, segment_units
from .split import split_by_image
from .synthetic import SyntheticGenSpec, generate_synthetic

__all__ = [
    "DatasetSplit",
    "EegDataset",
    "EegRecord",
    "SyntheticGenSpec",
    "flatten_units",
    "generate_synthetic",
    "load_dataset",
    "make_image_set",
    "segment_units",
    "split_by_image",
    "zscore_channels",
]
