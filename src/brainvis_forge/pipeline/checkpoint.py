"""BVC1 checkpoint container.

Layout (little-endian):
    magic "BVC1" | u32 version=1 | u32 n_tensors
    per tensor: u16 name length | name bytes (utf-8) | u8 rank
                | rank * u32 dims | float32 data
    trailer: u32 CRC32 over all tensor bytes

Tensors are written in sorted name order for byte-stable output.  The stage
tag and config snapshot ride in a JSON sidecar ({path}.meta.json): the binary
body stays pure tensor data and the snapshot stays human-readable.

Key layout:
    model/{param}    the parameters of the network the stage trained
    {name}           a top-level extra (e.g. spectrum_scale)
where {param} is a dotted parameter path such as encoder.blocks.0.attn.w_q.
Optimizer state is not saved: no stage resumes from a checkpoint.
Which stage writes and reads which keys is the runner's concern.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from io import BytesIO
from pathlib import Path

import numpy as np

from ..binio import check_crc, crc_bytes, expect_magic, pack_u32, read_exact, unpack_u32

MAGIC = b"BVC1"
VERSION = 1


class StageError(RuntimeError):
    """A stage's inputs are missing or carry the wrong stage tag."""


@dataclass
class CheckpointArchive:
    tensors: dict[str, np.ndarray]
    stage: str
    config: dict = field(default_factory=dict)
    version: int = VERSION


def save_checkpoint(path, archive: CheckpointArchive) -> None:
    body = BytesIO()
    for name in sorted(archive.tensors):
        arr = np.ascontiguousarray(archive.tensors[name], dtype="<f4")
        encoded = name.encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise ValueError(f"save_checkpoint: tensor name too long ({len(encoded)} bytes)")
        if arr.ndim > 0xFF:
            raise ValueError(f"save_checkpoint: rank {arr.ndim} exceeds format limit")
        body.write(struct.pack("<H", len(encoded)))
        body.write(encoded)
        body.write(struct.pack("<B", arr.ndim))
        body.write(pack_u32(*arr.shape))
        body.write(arr.tobytes())
    payload = body.getvalue()

    path = Path(path)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(pack_u32(VERSION, len(archive.tensors)))
        fh.write(payload)
        fh.write(crc_bytes(payload))
    meta = {"stage": archive.stage, "version": archive.version, "config": archive.config}
    Path(str(path) + ".meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True))


def load_checkpoint(path) -> CheckpointArchive:
    path = Path(path)
    raw = path.read_bytes()
    buf = BytesIO(raw)
    expect_magic(buf, MAGIC, VERSION)
    (n_tensors,) = unpack_u32(buf, 1, "tensor count")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(n_tensors):
        (name_len,) = struct.unpack("<H", read_exact(buf, 2, "name length"))
        name = read_exact(buf, name_len, "name").decode("utf-8")
        (rank,) = struct.unpack("<B", read_exact(buf, 1, "rank"))
        dims = unpack_u32(buf, rank, "dims") if rank else ()
        count = int(np.prod(dims)) if dims else 1
        data = np.frombuffer(read_exact(buf, 4 * count, f"tensor {name}"), dtype="<f4")
        tensors[name] = data.reshape(dims).copy()
    check_crc(raw[12 : buf.tell()], buf)

    meta_path = Path(str(path) + ".meta.json")
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        stage = meta.get("stage", "unknown")
        config = meta.get("config", {})
        version = meta.get("version", VERSION)
    else:
        stage, config, version = "unknown", {}, VERSION
    return CheckpointArchive(tensors=tensors, stage=stage, config=config, version=version)


def require_stage(archive: CheckpointArchive, expected: str) -> CheckpointArchive:
    if archive.stage != expected:
        raise StageError(
            f"checkpoint carries stage {archive.stage!r} but {expected!r} is required here"
        )
    return archive

