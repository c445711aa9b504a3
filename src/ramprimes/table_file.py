"""The one on-disk layout of the prime and Ramanujan table caches: a
little-endian header, then the payload as a flat array. The header holds a
4-byte magic per kind of table, the uint32 FORMAT_VERSION, the uint64 count
of payload elements, one uint64 per field of the table, and a uint32 CRC32
of those header bytes and then of the payload. A payload is read into a
buffer padded to whole 8-byte words, so that it can be viewed as words in
place (see :func:`word_padded`).
"""

import mmap
import os
import struct
import zlib

import numpy as np

FORMAT_VERSION = 4


def word_padded(nbytes: int) -> np.ndarray:
    """`nbytes` uint8 bytes at the start of a zeroed buffer of whole 8-byte
    words; the buffer is the view's `base`. It is a shared anonymous mapping,
    so that processes forked after it is made write the same bytes; it is
    unmapped when the last array over it is freed."""
    size = -(-max(nbytes, 1) // 8) * 8
    return np.frombuffer(mmap.mmap(-1, size), dtype=np.uint8)[:nbytes]


def write(path, magic: bytes, fields, payload: np.ndarray) -> None:
    """Write a contiguous `payload` under a header of `magic` and `fields`."""
    head = struct.pack(f"<4sIQ{len(fields)}Q", magic, FORMAT_VERSION, payload.size, *fields)
    with open(path, "wb") as fh:
        fh.write(head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))))
        payload.tofile(fh)


def read(path, magic: bytes, nfields: int, dtype) -> tuple[list[int], np.ndarray]:
    """(fields, payload) of a file that `write` made with this magic and field
    count. Any other file is a ValueError; what the fields mean is the table's
    own check."""
    header = struct.Struct(f"<4sIQ{nfields}QI")
    with open(path, "rb") as fh:
        raw = fh.read(header.size)
        if len(raw) != header.size:
            raise ValueError(f"{path}: truncated header")
        found, version, count, *fields, crc = header.unpack(raw)
        if found != magic:
            raise ValueError(f"{path}: not a {magic.decode()} cache file")
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        nbytes = count * np.dtype(dtype).itemsize
        if nbytes != os.fstat(fh.fileno()).st_size - header.size:
            raise ValueError(f"{path}: {count} elements do not fit the payload size")
        payload = word_padded(nbytes)
        if fh.readinto(payload) != nbytes:
            raise ValueError(f"{path}: truncated payload")
        payload = payload.view(dtype)
    if zlib.crc32(payload, zlib.crc32(raw[:-4])) != crc:
        raise ValueError(f"{path}: header or payload fails its checksum")
    return fields, payload
