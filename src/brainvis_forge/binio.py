"""The BVC container, the one format in which a run stores arrays.

Every stage archive, gen-data's included, is a BVC archive: named tensors
plus the tag of the stage that wrote them.

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

Both directions stream.  `save_checkpoint` hands the header and each array's
own buffer to `write_whole`, computing the CRC as it goes.  `load_checkpoint`
reads each tensor named in `keys` straight into its own array and passes the
bytes of every other through one reused SKIP_BLOCK buffer, so a read holds
the wanted tensors plus under 64 KiB (the block and an 8 KiB file buffer).
The block stays below glibc's 128 KiB mmap threshold: freeing a larger one
raises that threshold, after which big arrays come from the heap, which
keeps freed pages; a 1 MiB block raised tiny_chain's peak RSS.
"""

from __future__ import annotations

import io
import math
import os
import struct
import zlib
from pathlib import Path
from typing import Iterable

import numpy as np

MAGIC = b"BVC1"
VERSION = 3
DTYPES = (np.dtype("<f4"), np.dtype("<i8"))  # indexed by dtype code
SKIP_BLOCK = 1 << 15  # bytes of an unwanted tensor read per call; see the module docstring


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


def write_whole(path, chunks: Iterable) -> None:
    """Write `chunks` (bytes or C-contiguous arrays) in order to `path` so that
    it appears whole or not at all: they stream into {path}.tmp, which then
    replaces `path` in one rename.  If a chunk, a write or the rename raises,
    the .tmp is removed and `path` is untouched."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _text(text: str, what: str) -> bytes:
    """`text` as u16 length | utf-8 bytes."""
    encoded = text.encode("utf-8")
    if len(encoded) > 0xFFFF:
        raise ValueError(f"save_checkpoint: {what} too long ({len(encoded)} bytes)")
    return struct.pack(f"<H{len(encoded)}s", len(encoded), encoded)


def _body(tensors: dict[str, np.ndarray], stage: str):
    """The bytes the checksum covers: the stage tag, then per tensor its header and its array's own buffer."""
    yield _text(stage, "stage tag")
    for name in sorted(tensors):
        tensor = np.asarray(tensors[name])
        code = int(np.issubdtype(tensor.dtype, np.integer))
        arr = np.asarray(tensor, dtype=DTYPES[code], order="C")
        yield _text(name, "tensor name") + struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape)
        yield arr


def save_checkpoint(path, tensors: dict[str, np.ndarray], stage: str) -> None:
    """Stream the archive to `path` through `write_whole`, computing the CRC as it goes."""

    def chunks():
        yield MAGIC + struct.pack("<2I", VERSION, len(tensors))
        crc = 0
        for chunk in _body(tensors, stage):
            crc = zlib.crc32(chunk, crc)
            yield chunk
        yield struct.pack("<I", crc)

    write_whole(path, chunks())


def load_checkpoint(path, stage: str, keys: Iterable[str] | None = None) -> dict[str, np.ndarray]:
    """The tensors named in `keys` (all if None) of the archive that `stage`
    wrote at `path`, read in one pass.  Every byte feeds the CRC, which is
    verified, then the tag compared, before anything is returned.  A file that
    ends early raises TruncatedError, another stage's tag StageError and a
    missing key KeyError, each starting with `path`."""
    path = Path(path)
    wanted = None if keys is None else {key.encode("utf-8") for key in keys}
    found = {}
    with open(path, "rb", buffering=io.DEFAULT_BUFFER_SIZE) as fh:
        size = os.fstat(fh.fileno()).st_size
        pos = crc = 0
        block = None

        def fill(buf, what: str) -> None:
            """Read the next len(buf) bytes into `buf`, folding them into the CRC."""
            nonlocal pos, crc
            n = memoryview(buf).nbytes
            if pos + n > size or fh.readinto(buf) != n:
                raise TruncatedError(f"{path}: truncated file: expected {n} bytes for {what}, got {size - pos}")
            crc = zlib.crc32(buf, crc)
            pos += n

        def unpack(fmt: str, what: str) -> tuple:
            buf = bytearray(struct.calcsize(fmt))
            fill(buf, what)
            return struct.unpack(fmt, buf)

        def text(what: str) -> bytes:
            (n,) = unpack("<H", f"{what} length")
            return unpack(f"<{n}s", what)[0]

        (magic,) = unpack("<4s", "magic")
        if magic != MAGIC:
            raise UnsupportedFormatError(f"{path}: bad magic: expected {MAGIC!r}, got {magic!r}")
        version, n_tensors = unpack("<2I", "header")
        if version != VERSION:
            raise UnsupportedFormatError(f"{path}: unsupported version {version}, expected {VERSION}")

        crc = 0  # the checksum covers every byte after the 12-byte header
        tag = text("stage tag")
        for _ in range(n_tensors):
            name = text("name")
            label = f"tensor {name.decode('utf-8', 'replace')!r}"  # no strict decode before the checksum
            code, rank = unpack("<BB", "dtype code and rank")
            dims = unpack(f"<{rank}I", "dims")
            if code >= len(DTYPES):
                raise UnsupportedFormatError(f"{path}: {label}: unknown dtype code {code}")
            n = math.prod(dims) * DTYPES[code].itemsize
            if pos + n > size:  # before any array is allocated for it
                raise TruncatedError(f"{path}: truncated file: expected {n} bytes for {label}, got {size - pos}")
            if wanted is None or name in wanted:
                found[name] = np.empty(dims, DTYPES[code])
                fill(found[name], label)
                continue
            block = block or memoryview(bytearray(SKIP_BLOCK))
            for lo in range(0, n, SKIP_BLOCK):
                fill(block[: min(SKIP_BLOCK, n - lo)], label)
        actual = crc
        (stored,) = unpack("<I", "checksum")
    if stored != actual:
        raise ChecksumError(f"{path}: checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")
    if tag != stage.encode("utf-8"):
        raise StageError(f"{path}: written by stage {tag.decode('utf-8', 'replace')!r}, expected {stage!r}")
    missing = sorted((wanted or set()) - found.keys())
    if missing:
        raise KeyError(f"{path}: no tensor named {', '.join(repr(key.decode('utf-8')) for key in missing)}")
    return {name.decode("utf-8"): arr for name, arr in found.items()}
