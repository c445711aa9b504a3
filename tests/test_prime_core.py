import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramprimes import prime_core, table_file
from ramprimes.errors import ResourceLimitError
from test_table_file import HEADER_SIZE


def flags_between(pt, lo: int, hi: int) -> np.ndarray:
    """Primality flags of every integer in [lo, hi], decoded from the table
    by `primes_between`: the one route by which tests read per-integer flags."""
    flags = np.zeros(hi - lo + 1, dtype=bool)
    flags[pt.primes_between(lo, hi) - lo] = True
    return flags


@pytest.fixture(scope="module")
def sieve1m():
    """Flags over [0, 10**6] from the independent one-shot sieve."""
    return prime_core.simple_sieve_flags(10 ** 6)


def trial_division(k: int) -> bool:
    if k < 2:
        return False
    for d in range(2, math.isqrt(k) + 1):
        if k % d == 0:
            return False
    return True


def test_build_small_golden():
    pt = prime_core.build(10)
    assert [k for k in range(11) if pt.is_prime(k)] == [2, 3, 5, 7]
    assert pt.prime_count(10) == 4


def test_build_rejects_tiny_limit():
    with pytest.raises(ValueError):
        prime_core.build(1)


def test_build_rejects_over_memory_ceiling(monkeypatch):
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 1000)
    with pytest.raises(ResourceLimitError):
        prime_core.build(10 ** 8)
    # at 10**6 the flags and checkpoints take 62,636 bytes; the working arrays
    # take 628,036 more: one segment of 500,000 bool flags, their 62,500 packed
    # bytes and a 65,536-byte popcount slice (16 whole checkpoint blocks)
    for ceiling in (100_000, 690_671):
        monkeypatch.setattr(prime_core, "_MEMORY_CEILING", ceiling)
        with pytest.raises(ResourceLimitError):
            prime_core.build(10 ** 6)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 690_672)
    assert prime_core.build(10 ** 6).limit == 10 ** 6


def test_nth_prime_reference_points():
    assert prime_core.build(47).nth_prime(15) == 47
    assert prime_core.build(113).nth_prime(30) == 113


def test_is_prime_values(pt1m):
    assert not pt1m.is_prime(0)
    assert not pt1m.is_prime(1)
    assert pt1m.is_prime(2)
    assert pt1m.is_prime(2459) and pt1m.is_prime(2467)
    assert not any(pt1m.is_prime(k) for k in range(2460, 2467))


def test_is_prime_rejects_out_of_range(pt1m):
    with pytest.raises(ValueError):
        pt1m.is_prime(-1)
    with pytest.raises(ValueError):
        pt1m.is_prime(10 ** 6 + 1)


def test_prime_count_small(pt1m):
    assert pt1m.prime_count(0) == 0
    assert pt1m.prime_count(1) == 0
    assert pt1m.prime_count(2) == 1
    assert pt1m.prime_count(3) == 2


def test_prime_count_against_independent_counts(pt1m):
    # trial division on a modest range, then a second full sieve at the limit
    assert pt1m.prime_count(10 ** 4) == sum(trial_division(k) for k in range(10 ** 4 + 1))
    assert pt1m.prime_count(10 ** 6) == int(prime_core.simple_sieve_flags(10 ** 6).sum())
    assert pt1m.prime_count(10 ** 6) == 78498


def test_prime_count_rejects_out_of_range(pt1m):
    with pytest.raises(ValueError):
        pt1m.prime_count(-1)
    with pytest.raises(ValueError):
        pt1m.prime_count(10 ** 6 + 1)


def test_nth_prime_small(pt1m):
    assert pt1m.nth_prime(1) == 2
    assert pt1m.nth_prime(6) == 13
    assert pt1m.nth_prime(657) == 4919
    assert pt1m.nth_prime(658) == 4931


def test_nth_prime_range_errors(pt1m):
    with pytest.raises(ValueError):
        pt1m.nth_prime(0)
    with pytest.raises(ValueError):
        pt1m.nth_prime(pt1m.total_primes + 1)


def test_flags_agree_with_trial_division_exhaustively(pt1m):
    flags = flags_between(pt1m, 0, 10 ** 5)
    expected = np.array([trial_division(k) for k in range(10 ** 5 + 1)])
    assert np.array_equal(flags, expected)


@given(k=st.integers(min_value=0, max_value=10 ** 6))
def test_is_prime_matches_trial_division(pt1m, k):
    assert pt1m.is_prime(k) == trial_division(k)


@given(x=st.integers(min_value=2, max_value=10 ** 6))
def test_nth_prime_of_count_stays_below(pt1m, x):
    n = pt1m.prime_count(x)
    assert pt1m.nth_prime(n) <= x


@given(n=st.integers(min_value=1, max_value=78498))
@settings(max_examples=50)
def test_count_of_nth_prime_roundtrip(pt1m, n):
    p = pt1m.nth_prime(n)
    assert pt1m.prime_count(p) == n
    assert pt1m.prime_count(p - 1) == n - 1


@pytest.mark.parametrize("segment_flags", [8, 64, 1 << 10, 1 << 18])
def test_segmented_matches_simple_construction(monkeypatch, segment_flags):
    monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", segment_flags)
    limit = 10 ** 5 + 7
    pt = prime_core.build(limit)
    assert np.array_equal(flags_between(pt, 0, limit), prime_core.simple_sieve_flags(limit))


def test_segmented_matches_simple_at_one_million(pt1m, sieve1m):
    assert np.array_equal(flags_between(pt1m, 0, 10 ** 6), sieve1m)


def test_count_stride_variants_agree(monkeypatch):
    limit = 10 ** 5
    reference = prime_core.build(limit)
    for stride in (16, 4096, 1 << 20):
        monkeypatch.setattr(prime_core, "_COUNT_STRIDE", stride)
        pt = prime_core.build(limit)
        for x in (2, 3, 1000, 65535, 65536, 99991, limit):
            assert pt.prime_count(x) == reference.prime_count(x)


@pytest.mark.parametrize("stride, slice_bytes", [(16, 1), (48, 1000), (4096, 1)])
def test_checkpoints_for_any_popcount_slice(monkeypatch, stride, slice_bytes):
    # 6,251 flag bytes: (48, 1000) ends on a 257-byte slice holding a partial block
    monkeypatch.setattr(prime_core, "_POPCOUNT_SLICE", slice_bytes)
    monkeypatch.setattr(prime_core, "_COUNT_STRIDE", stride)
    limit = 10 ** 5 + 3
    pt = prime_core.build(limit)
    below = np.concatenate([[0], np.cumsum(prime_core.simple_sieve_flags(limit))])
    edges = np.minimum(np.arange(pt._checkpoints.size) * stride, limit + 1)
    assert np.array_equal(pt._checkpoints, np.maximum(below[edges] - 1, 0))  # odd primes only


def test_batch_queries_match_scalar(pt1m):
    xs = np.array([0, 1, 2, 3, 4, 17, 100, 9973, 65536, 999983, 10 ** 6])
    assert pt1m.is_prime_batch(xs).tolist() == [pt1m.is_prime(int(x)) for x in xs]
    assert pt1m.prime_count_batch(xs).tolist() == [pt1m.prime_count(int(x)) for x in xs]
    ns = np.array([1, 2, 3, 100, 78498])
    assert pt1m.nth_prime_batch(ns).tolist() == [pt1m.nth_prime(int(n)) for n in ns]


def test_primes_upto(pt1m):
    assert pt1m.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert pt1m.primes_upto(1).size == 0


def test_primes_between_windows(pt1m, sieve1m):
    for lo, hi in [(0, 0), (2, 2), (3, 17), (16, 64), (999, 1001), (4096, 5000)]:
        expected = lo + np.flatnonzero(sieve1m[lo : hi + 1])
        assert pt1m.primes_between(lo, hi).tolist() == expected.tolist()


@pytest.mark.parametrize("stride", [16, 48, prime_core._COUNT_STRIDE])
def test_nth_prime_across_checkpoint_boundaries(monkeypatch, stride):
    monkeypatch.setattr(prime_core, "_COUNT_STRIDE", stride)
    limit = 10 ** 5 + 3
    pt = prime_core.build(limit)
    primes = np.flatnonzero(prime_core.simple_sieve_flags(limit))
    for edge in range(0, limit + 1, stride):  # block edges, in integers
        rank = int(np.searchsorted(primes, edge))  # primes below the edge
        for n in (rank - 1, rank, rank + 1, rank + 2):
            if 1 <= n <= primes.size:
                assert pt.nth_prime(n) == primes[n - 1]
    assert pt.total_primes == primes.size
    assert pt.nth_prime(pt.total_primes) == primes[-1]


def test_prime_list_extracts_across_chunk_edges(monkeypatch):
    monkeypatch.setattr(prime_core, "_EXTRACT_CHUNK", 64)
    pt = prime_core.build(10 ** 5)
    flags = prime_core.simple_sieve_flags(10 ** 5)
    for x in (2, 3, 63, 64, 65, 127, 128, 129, 1000, 10 ** 5):  # each x extracts afresh
        got = pt._primes_through(x)
        assert got.size == pt.prime_count(x)
        assert not got.flags.writeable
        assert got.tolist() == np.flatnonzero(flags[: x + 1]).tolist()


def test_save_load_roundtrip(tmp_path, pt1m):
    path = tmp_path / "primes.rppt"
    pt1m.save(path)
    loaded = prime_core.load(path)
    assert loaded.limit == pt1m.limit
    assert np.array_equal(loaded._checkpoints, pt1m._checkpoints)  # rebuilt from the flags
    assert loaded.prime_count(10 ** 6) == pt1m.prime_count(10 ** 6)
    assert np.array_equal(flags_between(loaded, 0, 10 ** 6), flags_between(pt1m, 0, 10 ** 6))


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "bogus.rppt"
    path.write_bytes(b"NOPE" + bytes(60))
    with pytest.raises(ValueError):
        prime_core.load(path)


@given(lo=st.integers(min_value=0, max_value=10 ** 6),
       width=st.integers(min_value=-2, max_value=5000))
def test_primes_between_matches_flags(pt1m, sieve1m, lo, width):
    hi = min(lo + width, 10 ** 6)
    got = pt1m.primes_between(lo, hi)
    assert got.dtype == np.int64
    expected = lo + np.flatnonzero(sieve1m[lo : hi + 1]) if lo <= hi else []
    assert got.tolist() == list(expected)


def test_primes_between_edges(pt1m):
    for lo, hi, expected in [(0, 0, []), (0, 1, []), (0, 2, [2]), (2, 2, [2]), (3, 3, [3]),
                             (2, 7, [2, 3, 5, 7]), (24, 28, []), (5, 4, []),
                             (999_980, 10 ** 6, [999_983])]:
        assert pt1m.primes_between(lo, hi).tolist() == expected
    for lo, hi in [(-1, 10), (0, 10 ** 6 + 1)]:
        with pytest.raises(ValueError):
            pt1m.primes_between(lo, hi)


# header layout: magic 0-3, version 4-7, nbytes 8-15, limit 16-23, CRC32 24-27;
# tests/test_table_file.py covers the rejections shared with the Ramanujan table
@pytest.mark.parametrize("offset, mask", [
    (15, 0x80),  # nbytes near 2**63: rejected before any allocation
    (8, 0x01),   # nbytes one off
    (16, 0x01),  # limit 100001 on a payload built for 100000: fails the header checksum
    (23, 0x80),  # limit near 2**63: fails the header checksum
    (24, 0x01),  # the stored checksum itself
    (31, 0xFF),  # the fourth flag byte, just past the header: the checksum covers it too
])
def test_load_rejects_inconsistent_header(tmp_path, offset, mask):
    path = tmp_path / "primes.rppt"
    prime_core.build(10 ** 5).save(path)
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        prime_core.load(path)


@pytest.mark.parametrize("limit, nbytes", [
    (1, 1),             # too small a limit, though one byte is its flag count
    (10 ** 5 + 1, 6250),  # the flags of limit 100000
    (2 ** 63, 6250),
])
def test_load_rejects_limit_that_does_not_fit_the_flags(tmp_path, limit, nbytes):
    # a well-formed file with a valid checksum still needs a limit that fits its flags
    path = tmp_path / "primes.rppt"
    table_file.write(path, prime_core._MAGIC, [limit], np.zeros(nbytes, dtype=np.uint8))
    with pytest.raises(ValueError, match=f"{nbytes} flag bytes do not fit limit {limit}"):
        prime_core.load(path)


def test_load_rejects_payload_failing_checksum(tmp_path, pt1m):
    path = tmp_path / "primes.rppt"
    pt1m.save(path)
    data = bytearray(path.read_bytes())
    data[HEADER_SIZE["primes"] + 1000] ^= 0x04  # one flag among 16001..16015
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        prime_core.load(path)
