import numpy as np
import pytest

from ramprimes import prime_core, ramanujan_core, table_file

# the shared header: magic 0-3, version 4-7, count 8-15, one uint64 per field, CRC32;
# the prime table has one field (limit), the Ramanujan table two (scan_limit, complete_below)
HEADER_SIZE = {"primes": 28, "ramanujan": 36}


def saved_file(tmp_path, kind, pt):
    path = tmp_path / f"{kind}.table"
    if kind == "primes":
        prime_core.build(10 ** 5).save(path)
    else:
        ramanujan_core.compute_first(100, pt).save(path)
    return path


def load(kind, path):
    return (prime_core.load if kind == "primes" else ramanujan_core.load)(path)


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
    (flip(4), "unsupported cache version 2"),
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
        load(kind, path)


def test_an_empty_table_round_trips(tmp_path, pt1m):
    path = tmp_path / "ramanujan.rprt"
    rt = ramanujan_core.compute_below(2, pt1m)
    rt.save(path)  # count 0: no payload at all
    loaded = ramanujan_core.load(path)
    assert (loaded.count, loaded.scan_limit, loaded.complete_below) == (0, rt.scan_limit, 2)
    assert loaded.values.dtype == rt.values.dtype  # narrowed in memory as the scan narrows it
    assert path.stat().st_size == HEADER_SIZE["ramanujan"]


def test_ramanujan_values_stay_int64_on_disk(tmp_path, pt1m):
    path = saved_file(tmp_path, "ramanujan", pt1m)
    loaded = ramanujan_core.load(path)
    assert loaded.values.dtype == np.uint32
    assert path.stat().st_size == HEADER_SIZE["ramanujan"] + 8 * loaded.count
    assert np.fromfile(path, dtype="<i8", offset=HEADER_SIZE["ramanujan"]).tolist() == \
        loaded.values.tolist()


@pytest.mark.parametrize("values", [[2, 11, 2 ** 32 + 17], [-1, 2, 11]])
def test_values_that_narrowing_would_wrap_are_rejected(tmp_path, values):
    path = tmp_path / "ramanujan.rprt"
    table_file.write(path, ramanujan_core._MAGIC, [100, 12], np.array(values, dtype=np.int64))
    with pytest.raises(ValueError, match=r"values outside \[0, 101\]"):
        ramanujan_core.load(path)
