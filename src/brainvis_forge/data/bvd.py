"""BVD1 dataset container.

Layout (little-endian):
    magic "BVD1" | u32 version=1 | u32 n_records | u32 c | u32 l
    | u32 n_classes | u8 normalized_flag
    per record: u32 class_label | u32 subject_id | u32 image_id
                | c*l float32 row-major (channels x time)
    trailer: u32 CRC32 over all record bytes
"""

from __future__ import annotations

import struct
from io import BytesIO
from pathlib import Path

import numpy as np

from ..binio import (
    ChecksumError,
    TruncatedError,
    UnsupportedFormatError,
    check_crc,
    crc_bytes,
    expect_magic,
    pack_u32,
    read_exact,
    unpack_u32,
    write_whole,
)
from .records import DatasetHeader, EegDataset, zscore_channels

MAGIC = b"BVD1"
VERSION = 1


def _record_dtype(c: int, l: int) -> np.dtype:
    return np.dtype([("ids", "<u4", (3,)), ("x", "<f4", (c, l))])


def write_dataset(path, dataset: EegDataset, n_classes: int, normalized: bool = False) -> None:
    _, c, l = dataset.x.shape
    block = np.empty(len(dataset), _record_dtype(c, l))
    ids = np.stack([dataset.labels, dataset.subjects, dataset.image_ids], axis=1)
    if ids.size and (ids.min() < 0 or ids.max() > 0xFFFFFFFF):
        raise ValueError("write_dataset: class, subject and image ids must fit in u32")
    block["ids"] = ids
    block["x"] = dataset.x
    payload = block.tobytes()
    write_whole(path, [MAGIC, pack_u32(VERSION, len(dataset), c, l, n_classes),
                       struct.pack("<B", 1 if normalized else 0), payload, crc_bytes(payload)])


def load_dataset(path, normalize: bool = False) -> tuple[EegDataset, DatasetHeader]:
    """Read a BVD1 file; `normalize` z-scores each channel unless already flagged.

    With normalize=False the returned trials are bit-identical to what was
    written, so write/load round trips exactly.
    """
    raw = Path(path).read_bytes()
    buf = BytesIO(raw)
    expect_magic(buf, MAGIC, VERSION)
    n_records, c, l, n_classes = unpack_u32(buf, 4, "header")
    (norm_flag,) = struct.unpack("<B", read_exact(buf, 1, "header"))

    dtype = _record_dtype(c, l)
    payload = read_exact(buf, dtype.itemsize * n_records, "records")
    check_crc(payload, buf)
    block = np.frombuffer(payload, dtype, count=n_records)

    header = DatasetHeader(n_records=n_records, c=c, l=l, n_classes=n_classes, normalized=bool(norm_flag))
    if normalize and not header.normalized:
        x = zscore_channels(block["x"])
        header.normalized = True
    else:
        x = np.array(block["x"], dtype=np.float32)
    ids = block["ids"]
    return EegDataset(x, ids[:, 0], ids[:, 1], ids[:, 2]), header


__all__ = [
    "ChecksumError",
    "TruncatedError",
    "UnsupportedFormatError",
    "load_dataset",
    "write_dataset",
]
