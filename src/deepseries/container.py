"""Binary tensor-record container used by the weights file.

Layout (all little-endian):

    magic (7 bytes) | u32 record count |
    per record: u16 name length, UTF-8 name, u8 rank, rank * u32 extents,
                product * f32 values |
    u32 CRC32 of everything before it
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import Union

import numpy as np

from .errors import FormatError


def write_records(magic: bytes, entries: dict[str, np.ndarray],
                  sink: Union[str, io.IOBase]):
    buf = io.BytesIO()
    buf.write(magic)
    buf.write(struct.pack("<I", len(entries)))
    for name, arr in entries.items():
        enc = name.encode("utf-8")
        buf.write(struct.pack("<H", len(enc)))
        buf.write(enc)
        buf.write(struct.pack("<B", arr.ndim))
        for ext in arr.shape:
            buf.write(struct.pack("<I", ext))
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())
    payload = buf.getvalue()
    payload += struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)
    if isinstance(sink, str):
        with open(sink, "wb") as fh:
            fh.write(payload)
    else:
        sink.write(payload)


def read_records(magic: bytes, source: Union[str, io.IOBase]) -> dict[str, np.ndarray]:
    if isinstance(source, str):
        with open(source, "rb") as fh:
            raw = fh.read()
    else:
        raw = source.read()
    if len(raw) < len(magic) + 8:
        raise FormatError("file truncated")
    if raw[: len(magic)] != magic:
        raise FormatError(f"bad magic; expected {magic!r}")
    body, crc_raw = raw[:-4], raw[-4:]
    (crc_want,) = struct.unpack("<I", crc_raw)
    if zlib.crc32(body) & 0xFFFFFFFF != crc_want:
        raise FormatError("checksum mismatch; file is corrupt")
    off = len(magic)
    (count,) = struct.unpack_from("<I", body, off)
    off += 4
    entries: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", body, off)
            off += 2
            name = body[off : off + nlen].decode("utf-8")
            off += nlen
            (rank,) = struct.unpack_from("<B", body, off)
            off += 1
            shape = struct.unpack_from(f"<{rank}I", body, off) if rank else ()
            off += 4 * rank
            n = int(np.prod(shape, dtype=np.int64)) if rank else 1
            vals = np.frombuffer(body, dtype="<f4", count=n, offset=off)
            off += 4 * n
            entries[name] = vals.reshape(shape)
    except (struct.error, ValueError) as exc:
        raise FormatError(f"file truncated: {exc}") from None
    if off != len(body):
        raise FormatError("trailing bytes after the last record")
    return entries
