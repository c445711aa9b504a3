import numpy as np
import pytest

from ramprimes import prime_core, ramanujan_core, table_file

# the shared header: magic 0-3, version 4-7, count 8-15, one uint64 per field, CRC32; the
# prime table has one field (limit), the Ramanujan table three (scan_limit, complete_below,
# count of values), and both payloads are bytes: the flags, the mask over prime indices
HEADER_SIZE = {"primes": 28, "ramanujan": 44}


def saved_file(tmp_path, kind, pt):
    path = tmp_path / f"{kind}.table"
    if kind == "primes":
        prime_core.build(10 ** 5).save(path)
    else:
        ramanujan_core.compute_first(100, pt).save(path)
    return path


def load(kind, path, pt):
    return prime_core.load(path) if kind == "primes" else ramanujan_core.load(path, pt)


def cut_header(data, kind):
    return data[: HEADER_SIZE[kind] - 1]


def flip(offset):
    def edit(data, kind):
        data[offset] ^= 0x01
        return data
    return edit


def zero_count(data, kind):
    data[8:16] = bytes(8)
    return data


def flip_payload(data, kind):
    data[HEADER_SIZE[kind] + 5] ^= 0x01
    return data


@pytest.mark.parametrize("kind", ["primes", "ramanujan"])
@pytest.mark.parametrize("edit, message", [
    (cut_header, "truncated header"),
    (flip(0), "not a RP.T cache file"),
    (flip(4), "unsupported cache version 4"),  # version 5 with its low bit flipped
    (lambda data, kind: data + b"\0", "do not fit the payload size"),  # one trailing byte
    (zero_count, "do not fit the payload size"),
    (flip_payload, "fails its checksum"),
    (flip(16), "fails its checksum"),  # the first field: the checksum covers the header too
], ids=["truncated-header", "magic", "version", "trailing-byte", "zero-count", "payload",
        "field"])
def test_load_rejects_a_malformed_file(tmp_path, pt1m, kind, edit, message):
    path = saved_file(tmp_path, kind, pt1m)
    path.write_bytes(bytes(edit(bytearray(path.read_bytes()), kind)))
    with pytest.raises(ValueError, match=message):
        load(kind, path, pt1m)


def test_an_empty_table_round_trips(tmp_path, pt1m):
    path = tmp_path / "ramanujan.rprt"
    rt = ramanujan_core.compute_below(2, pt1m)
    rt.save(path)  # no prime below 2: no mask byte at all
    loaded = ramanujan_core.load(path, pt1m)
    assert (loaded.count, loaded.scan_limit, loaded.complete_below) == (0, rt.scan_limit, 2)
    assert loaded.values.dtype == rt.values.dtype  # narrowed in memory as the scan narrows it
    assert path.stat().st_size == HEADER_SIZE["ramanujan"]


def test_the_ramanujan_payload_is_the_packed_mask(tmp_path, pt1m):
    path = saved_file(tmp_path, "ramanujan", pt1m)
    loaded = ramanujan_core.load(path, pt1m)
    assert loaded.values.dtype == np.uint32
    assert path.stat().st_size == HEADER_SIZE["ramanujan"] + 300 // 8 + 1  # a bit per p_1..p_300
    bits = np.unpackbits(np.fromfile(path, dtype=np.uint8, offset=HEADER_SIZE["ramanujan"]),
                         bitorder="little")
    assert np.array_equal(np.flatnonzero(bits) + 1, loaded.prime_ranks(pt1m))


def test_values_past_the_scan_are_rejected(tmp_path, pt1m):
    # complete below 14 but scanned only to 11: a value up to 13 would not fit
    # the dtype of the scan, so the file is refused before any value is decoded
    path = tmp_path / "ramanujan.rprt"
    mask = np.packbits(np.isin(pt1m.primes_upto(13), [2, 11]), bitorder="little")
    table_file.write(path, ramanujan_core._MAGIC, [11, 14, 2], mask)
    with pytest.raises(ValueError, match="complete below 14, past the scan to 11"):
        ramanujan_core.load(path, pt1m)
    table_file.write(path, ramanujan_core._MAGIC, [13, 14, 2], mask)
    assert ramanujan_core.load(path, pt1m).values.tolist() == [2, 11]
