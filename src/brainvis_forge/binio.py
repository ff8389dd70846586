"""The BVC container, the one format in which a run stores arrays.

The dataset, the semantic fixtures and every stage checkpoint are BVC
archives: named tensors plus the tag of the stage that wrote them.

Layout (little-endian):
    magic "BVC1" | u32 version=3 | u32 n_tensors
    u16 stage tag length | stage tag bytes (utf-8)
    per tensor: u16 name length | name bytes (utf-8) | u8 dtype code
                | u8 rank | rank * u32 dims | data
    trailer: u32 CRC32 over every byte between the 12-byte header and it
Dtype code 0 is float32 and 1 is int64: integer tensors are stored as
int64 and every other tensor as float32.  Tensors are written in sorted
name order for byte-stable output.  The checksum covers the stage tag, so
an archive is one file that loads whole and verified or not at all; a
stage's config snapshot is its config.json.  Every read names the stage it
expects, and `load_checkpoint` refuses an archive another stage wrote.  A
load error starts with the file's path.
`write_whole` puts a file on disk whole or not at all.
"""

from __future__ import annotations

import os
import struct
import zlib
from io import BytesIO
from pathlib import Path
from typing import Iterable

import numpy as np

MAGIC = b"BVC1"
VERSION = 3
DTYPES = (np.dtype("<f4"), np.dtype("<i8"))  # indexed by dtype code


class FileFormatError(ValueError):
    """Base for structured-file parse failures."""


class UnsupportedFormatError(FileFormatError):
    """Magic bytes, version or dtype code do not match the format."""


class ChecksumError(FileFormatError):
    """Trailing CRC32 does not match the payload."""


class TruncatedError(FileFormatError):
    """File ended before the declared content was read."""


class StageError(RuntimeError):
    """A stage's inputs are missing or carry the wrong stage tag."""


def crc_bytes(payload) -> bytes:
    return struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def write_whole(path, chunks: Iterable[bytes]) -> None:
    """Write `chunks` in order to `path` so that it appears whole or not at all:
    they stream into {path}.tmp, which then replaces `path` in one rename.  If
    a chunk or a write raises, the .tmp is removed and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    os.replace(tmp, path)


def _text(text: str, what: str) -> bytes:
    """`text` as u16 length | utf-8 bytes."""
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"save_checkpoint: {what} too long ({len(encoded)} bytes)")
    return struct.pack(f"<H{len(encoded)}s", len(encoded), encoded)


def save_checkpoint(path, tensors: dict[str, np.ndarray], stage: str) -> None:
    body = BytesIO()
    body.write(_text(stage, "stage tag"))
    for name in sorted(tensors):
        tensor = np.asarray(tensors[name])
        code = int(np.issubdtype(tensor.dtype, np.integer))
        arr = np.asarray(tensor, dtype=DTYPES[code], order="C")
        body.write(_text(name, "tensor name") + struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape))
        body.write(arr.tobytes())
    payload = body.getvalue()
    write_whole(path, [MAGIC, struct.pack("<2I", VERSION, len(tensors)), payload, crc_bytes(payload)])


def load_checkpoint(path, stage: str) -> dict[str, np.ndarray]:
    """The tensors of the archive that `stage` wrote at `path`, each copied
    once out of the file's bytes.

    Every header is parsed and the checksum verified before the stage tag
    is compared or any tensor built; a file that ends early raises
    TruncatedError, and one tagged for another stage StageError.  Every
    error starts with `path`."""
    path = Path(path)
    raw = path.read_bytes()
    pos = 0

    def take(n: int, what: str) -> int:
        """Step over the next n bytes and return where they start."""
        nonlocal pos
        if pos + n > len(raw):
            raise TruncatedError(f"{path}: truncated file: expected {n} bytes for {what}, got {len(raw) - pos}")
        pos += n
        return pos - n

    def unpack(fmt: str, what: str) -> tuple:
        return struct.unpack_from(fmt, raw, take(struct.calcsize(fmt), what))

    def text(what: str) -> bytes:
        (n,) = unpack("<H", f"{what} length")
        return unpack(f"<{n}s", what)[0]

    (magic,) = unpack("<4s", "magic")
    if magic != MAGIC:
        raise UnsupportedFormatError(f"{path}: bad magic: expected {MAGIC!r}, got {magic!r}")
    version, n_tensors = unpack("<2I", "header")
    if version != VERSION:
        raise UnsupportedFormatError(f"{path}: unsupported version {version}, expected {VERSION}")

    tag = text("stage tag")
    entries = []
    for _ in range(n_tensors):
        name = text("name")
        label = f"tensor {name.decode('utf-8', 'replace')!r}"  # no strict decode before the checksum
        code, rank = unpack("<BB", "dtype code and rank")
        dims = unpack(f"<{rank}I", "dims")
        if code >= len(DTYPES):
            raise UnsupportedFormatError(f"{path}: {label}: unknown dtype code {code}")
        count = int(np.prod(dims))
        offset = take(count * DTYPES[code].itemsize, label)
        entries.append((name, DTYPES[code], count, dims, offset))
    end = pos
    (stored,) = unpack("<I", "checksum")
    actual = zlib.crc32(memoryview(raw)[12:end]) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(f"{path}: checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    if tag != stage.encode("utf-8"):
        raise StageError(f"{path}: written by stage {tag.decode('utf-8', 'replace')!r}, expected {stage!r}")

    return {name.decode("utf-8"): np.frombuffer(raw, dtype, count, offset).reshape(dims).copy()
            for name, dtype, count, dims, offset in entries}
