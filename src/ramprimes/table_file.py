"""The one on-disk layout of the prime and Ramanujan table caches: a
little-endian header, then the payload as a flat array. The header holds a
4-byte magic per kind of table, the uint32 FORMAT_VERSION, the uint64 count
of payload elements, one uint64 per field of the table, and a uint32 CRC32
of those header bytes and then of the payload.
"""

import os
import struct
import zlib

import numpy as np

FORMAT_VERSION = 3


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
        if count * np.dtype(dtype).itemsize != os.fstat(fh.fileno()).st_size - header.size:
            raise ValueError(f"{path}: {count} elements do not fit the payload size")
        payload = np.fromfile(fh, dtype=dtype, count=count)
    if zlib.crc32(payload, zlib.crc32(raw[:-4])) != crc:
        raise ValueError(f"{path}: header or payload fails its checksum")
    return fields, payload
