"""Little-endian binary I/O helpers shared by the BVD1/BVE1/BVC1 formats.

Every format is: fixed header (magic + version + counts), payload blocks,
then a trailing CRC32 of the payload bytes (everything between header and
trailer).  `write_whole` puts a file on disk whole or not at all.
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterable


class FileFormatError(ValueError):
    """Base for structured-file parse failures."""


class UnsupportedFormatError(FileFormatError):
    """Magic bytes or version do not match the expected format."""


class ChecksumError(FileFormatError):
    """Trailing CRC32 does not match the payload."""


class TruncatedError(FileFormatError):
    """File ended before the declared content was read."""


def read_exact(buf, n: int, what: str) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise TruncatedError(f"truncated file: expected {n} bytes for {what}, got {len(data)}")
    return data


def expect_magic(buf, magic: bytes, version: int) -> None:
    got = read_exact(buf, len(magic), "magic")
    if got != magic:
        raise UnsupportedFormatError(f"bad magic: expected {magic!r}, got {got!r}")
    (ver,) = struct.unpack("<I", read_exact(buf, 4, "version"))
    if ver != version:
        raise UnsupportedFormatError(f"unsupported version {ver}, expected {version}")


def check_crc(payload: bytes, buf) -> None:
    (stored,) = struct.unpack("<I", read_exact(buf, 4, "checksum"))
    actual = zlib.crc32(payload) & 0xFFFFFFFF
    if stored != actual:
        raise ChecksumError(f"checksum mismatch: stored {stored:#010x}, computed {actual:#010x}")


def crc_bytes(payload: bytes) -> bytes:
    return struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def pack_u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def unpack_u32(buf, count: int, what: str) -> tuple[int, ...]:
    return struct.unpack(f"<{count}I", read_exact(buf, 4 * count, what))


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
