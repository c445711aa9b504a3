import _thread
import contextlib
import hashlib
import math
import os
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramprimes import prime_core, table_file
from ramprimes.errors import InternalConsistencyError, ResourceLimitError
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
    # at 10**6 the flags, 62,500 bytes padded to 62,504 (whole 8-byte words), and
    # the 17 int64 superblock counts take 62,640 bytes; the working arrays take
    # 883,291 more: the pre-sieve pattern's one period of 255,255 bool flags, one
    # segment of 500,000 bool flags, their 62,500 packed bytes and a 65,536-byte
    # counting step (all 16 superblocks, the last zero-padded)
    for ceiling in (100_000, 945_930):
        monkeypatch.setattr(prime_core, "_MEMORY_CEILING", ceiling)
        with pytest.raises(ResourceLimitError):
            prime_core.build(10 ** 6)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 945_931)
    assert prime_core.build(10 ** 6).limit == 10 ** 6
    # at 4 * 10**7, 20 segments sieved by two processes: the flags, 2,500,000 bytes,
    # the 612 counts, 4,896 bytes, and a 2,097,152-byte counting step take 4,602,048
    # bytes; each process adds its pattern, 255,255, its segment buffer, 1,048,576,
    # and a segment's 131,072 packed bytes
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 7_471_853)
    with pytest.raises(ResourceLimitError):
        prime_core.build(4 * 10 ** 7)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 7_471_854)
    assert prime_core.build(4 * 10 ** 7).total_primes == 2_433_654 and len(forks) == 1


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


def assert_sieved_exactly(pt):
    """The table's flags equal the one-shot sieve's, the word padding past them
    is zero, and its superblock counts equal a direct popcount of its flags."""
    limit = pt.limit
    flags = prime_core.simple_sieve_flags(limit)
    assert np.array_equal(flags_between(pt, 0, limit), flags), limit
    padded = pt._packed.base
    assert padded.size % 8 == 0 and not padded[pt._packed.size :].any(), limit
    bits = np.unpackbits(padded, bitorder="little")
    assert not bits[(limit + 1) // 2 :].any(), limit
    assert np.array_equal(pt._supers, superblock_counts(flags, prime_core._SUPER_SHIFT,
                                                        pt._supers.size)), limit


# 600,001 is past one period of the pre-sieve pattern (510,510 integers), so the
# smaller segments start at many offsets into it and some copies wrap past its end
@pytest.mark.parametrize("segment_flags", [8, 64, 1 << 10, 1 << 18])
def test_segmented_matches_simple_construction(monkeypatch, segment_flags):
    monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", segment_flags)
    for limit in (10 ** 5 + 7, 600_001):
        assert_sieved_exactly(prime_core.build(limit))


def test_build_matches_simple_at_every_small_limit():
    # every limit around 17**2 and 19**2, where the first carried prime starts
    for limit in range(2, 1001):
        assert_sieved_exactly(prime_core.build(limit))


def counted_forks(monkeypatch) -> list[int]:
    """The pids of the processes forked from here on, as a list that grows."""
    forks, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forks


def base_primes(limit: int) -> np.ndarray:
    base = np.flatnonzero(prime_core.simple_sieve_flags(math.isqrt(limit)))
    return base[base > prime_core._PRESIEVE[-1]]


def limits_with_part_edges(edges, nproc, candidates) -> set[int]:
    """For each flag bit in `edges`, the first of `candidates` whose split into
    `nproc` parts starts a part there."""
    found = {}
    for limit in candidates:
        for start, _ in prime_core._parts((limit + 1) // 2, base_primes(limit), nproc)[1:]:
            found.setdefault(start, limit)
    assert set(edges) <= found.keys(), (nproc, sorted(set(edges) - found.keys()))
    return {found[e] for e in edges}


# parts that start on and around the flag bits of 17**2 (144, a segment's first
# bit at 8 bits a segment) and 19**2 (180, inside one), where the first carried
# primes begin, and around the pattern's period (255,255 bits, inside the 1024-bit
# segment from 254,976), so that a part starts at many offsets into it
SPLITS = [(8, (136, 144, 152, 176, 184), range(300, 1200)),
          (1024, (253_952, 254_976, 256_000), range(600_000, 1_200_000, 512))]


@pytest.mark.parametrize("nproc", [1, 2, 3])
def test_split_sieve_matches_simple_construction(monkeypatch, nproc):
    monkeypatch.setattr(prime_core, "_PART_SEGMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(nproc)))
    forks = counted_forks(monkeypatch)
    builds = 0
    for segment_flags, edges, candidates in SPLITS:
        monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", segment_flags)
        limits = limits_with_part_edges(edges, 2, candidates) | limits_with_part_edges(
            edges, 3, candidates)  # the same limits for every part count
        for limit in sorted(limits):
            nbits = (limit + 1) // 2
            parts = prime_core._parts(nbits, base_primes(limit), nproc)
            cuts = [start for start, _ in parts] + [nbits]
            assert cuts == sorted(set(cuts)) and all(c % segment_flags == 0 for c in cuts[:-1])
            assert_sieved_exactly(prime_core.build(limit))
            builds += 1
    assert len(forks) == (nproc - 1) * builds


@pytest.fixture()
def three_parts(monkeypatch):
    """`build(10**6)` in three parts: 489 segments of 1024 flag bits on three CPUs."""
    monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", 1024)
    monkeypatch.setattr(prime_core, "_PART_SEGMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_a_failed_sieve_process_is_an_error_and_no_process_is_left(monkeypatch, three_parts):
    sieve = prime_core._sieve

    def failing(packed, pattern, base, start, stop, parent=None):
        if parent is None:  # this process
            return sieve(packed, pattern, base, start, stop)
        if start < packed.size * 4:  # the second part's process fails, the third's hangs
            raise RuntimeError("injected")
        time.sleep(60)

    monkeypatch.setattr(prime_core, "_sieve", failing)
    t0 = time.perf_counter()
    with pytest.raises(InternalConsistencyError, match=r"flag bits \[\d+, \d+\) ended with status 1"):
        prime_core.build(10 ** 6)
    assert time.perf_counter() - t0 < 30


def test_an_interrupted_build_leaves_no_process(monkeypatch, three_parts):
    def interrupted(packed, pattern, base, start, stop, parent=None):
        if parent is None:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(prime_core, "_sieve", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        prime_core.build(10 ** 6)
    assert time.perf_counter() - t0 < 30


def test_a_sieve_process_whose_parent_is_gone_exits():
    packed = table_file.word_padded(8)
    pid = os.fork()
    if pid == 0:
        try:  # -1 is no process's pid, so the parent reads as gone before the first segment
            prime_core._sieve(packed, np.ones(64, dtype=bool), base_primes(127), 0, 64, -1)
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
    assert not packed.any()


def refuse_fork():
    raise OSError("fork refused")


def test_below_the_part_threshold_nothing_is_forked(monkeypatch):
    monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", 1024)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", refuse_fork)
    # two processes need 2 * _PART_SEGMENTS segments: 16 * 1024 flag bits
    below = 2 * (2 * prime_core._PART_SEGMENTS - 1) * 1024
    assert_sieved_exactly(prime_core.build(below))
    with pytest.raises(ResourceLimitError, match="cannot start a sieve process: fork refused"):
        prime_core.build(below + 1)


@contextlib.contextmanager
def another_thread(start):
    """While the block runs, one more OS thread, made by `start(wait)`, waits."""
    release, before = threading.Event(), len(os.listdir("/proc/self/task"))
    start(release.wait)
    try:
        while len(os.listdir("/proc/self/task")) == before:
            time.sleep(0.001)
        yield
    finally:
        release.set()
    while len(os.listdir("/proc/self/task")) > before:
        time.sleep(0.001)


def test_no_process_is_forked_beside_another_thread(monkeypatch):
    monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", 1024)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse_fork)
    limit = 10 ** 6  # 489 segments, two processes
    with another_thread(lambda wait: threading.Thread(target=wait).start()):
        for version in ((3, 11, 0), (3, 12, 0)):
            monkeypatch.setattr(prime_core.sys, "version_info", version)
            assert_sieved_exactly(prime_core.build(limit))
    # an OS thread that the threading module does not count: only from Python
    # 3.12, which warns on a fork beside it, does it keep the sieve in one process
    with another_thread(lambda wait: _thread.start_new_thread(wait, ())):
        assert threading.active_count() == 1
        assert_sieved_exactly(prime_core.build(limit))
        monkeypatch.setattr(prime_core.sys, "version_info", (3, 11, 0))
        with pytest.raises(ResourceLimitError, match="fork refused"):
            prime_core.build(limit)


def test_segmented_matches_simple_at_one_million(pt1m, sieve1m):
    assert np.array_equal(flags_between(pt1m, 0, 10 ** 6), sieve1m)


SHIFTS = (0, 1, 2, 9)  # superblocks of 1, 2, 4 and 512 (the default) flag words


def test_count_stride_variants_agree(monkeypatch):
    limit = 10 ** 4 + 3
    flags = prime_core.simple_sieve_flags(limit)
    primes = np.flatnonzero(flags).tolist()
    for shift in SHIFTS:
        monkeypatch.setattr(prime_core, "_SUPER_SHIFT", shift)
        pt = prime_core.build(limit)
        assert scalar_counts(pt, range(limit + 1)) == np.cumsum(flags).tolist()
        assert [pt.nth_prime(n) for n in range(1, pt.total_primes + 1)] == primes


def superblock_counts(flags: np.ndarray, shift: int, size: int) -> np.ndarray:
    """Reference for `_supers`: the odd primes below each of `size` superblock
    edges, `128 << shift` integers apart, the last one cut to the flags' end."""
    below = np.concatenate([[0], np.cumsum(flags)])
    edges = np.minimum(np.arange(size) * (WORD_INTS << shift), flags.size)
    return np.maximum(below[edges] - 1, 0)  # odd primes only


@pytest.mark.parametrize("shift, chunk", [(0, 16), (1, 1792), (2, 5000), (9, 16)])
def test_superblock_counts_for_any_counting_step(monkeypatch, tmp_path, shift, chunk):
    # 6,251 flag bytes, counted in steps of chunk // 16 bytes cut to whole superblocks,
    # at least one: (2, 5000) counts 9 superblocks of 32 bytes, not 312 bytes, a step
    # and ends on a 203-byte step holding a partial superblock; (9, 16) on a 2,155-byte one
    monkeypatch.setattr(prime_core, "_SUPER_SHIFT", shift)
    monkeypatch.setattr(prime_core, "_COUNT_CHUNK", chunk)
    limit = 10 ** 5 + 3
    flags = prime_core.simple_sieve_flags(limit)
    built = prime_core.build(limit)
    want = superblock_counts(flags, shift, -(-6251 // (8 << shift)) + 1)
    for pt in (built, saved_and_loaded(built, tmp_path / "primes.rppt")):
        assert pt._supers.dtype == np.int64 and np.array_equal(pt._supers, want)


def test_batch_queries_match_scalar(pt1m):
    xs = np.array([0, 1, 2, 3, 4, 17, 100, 9973, 65536, 999983, 10 ** 6])
    assert pt1m.is_prime_batch(xs).tolist() == [trial_division(int(x)) for x in xs]
    assert pt1m.prime_count_batch(xs).tolist() == [pt1m.prime_count(int(x)) for x in xs]
    listed = pt1m.primes_upto(pt1m.limit)
    ns = [1, 2, 3, 100, 78498]
    assert [int(listed[:n][-1]) for n in ns] == [pt1m.nth_prime(n) for n in ns]


# -- prime counts over arrays: a running popcount of the flag words -----------

WORD_INTS = 128  # integers per flag word: 64 odd numbers


def edge_keys(limit: int, shift: int = prime_core._SUPER_SHIFT) -> np.ndarray:
    """0, 1, 2, `limit`, and each word and superblock edge +-1 inside [0, limit],
    for superblocks of `1 << shift` words, ascending: 65,536 integers at the default."""
    edges = np.concatenate([np.arange(0, limit + 2, WORD_INTS),
                            np.arange(0, limit + 2, WORD_INTS << shift)])
    keys = np.concatenate([[0, 1, 2, limit], edges - 1, edges, edges + 1])
    return np.sort(keys[(keys >= 0) & (keys <= limit)])


def searched_counts(pt, keys) -> np.ndarray:
    """Reference for prime_count_batch: binary search in the prime list."""
    return prime_core.search(pt.primes_upto(pt.limit), keys, side="right")


def saved_and_loaded(pt, path):
    pt.save(path)
    return prime_core.load(path)


@pytest.fixture(scope="module")
def table_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tables") / "primes.rppt"


# 100,007: 6,251 flag bytes, not whole words; 65,535 and 131,071: whole superblocks,
# so the limit's bit is the last of the last word
@pytest.mark.parametrize("limit", [2, 3, 127, 128, 129, 65_535, 65_536, 131_071, 100_007, 300_001])
@pytest.mark.parametrize("chunk", [16, 48, 1 << 16])  # keys per step
def test_batch_counts_at_word_and_superblock_edges(monkeypatch, tmp_path, limit, chunk):
    monkeypatch.setattr(prime_core, "_STEP", chunk)
    flags = prime_core.simple_sieve_flags(limit)
    below = np.cumsum(flags)
    for shift in SHIFTS:
        monkeypatch.setattr(prime_core, "_SUPER_SHIFT", shift)
        built = prime_core.build(limit)
        keys = edge_keys(limit, shift)
        expected = below[keys]
        for pt in (built, saved_and_loaded(built, tmp_path / "primes.rppt")):
            assert np.array_equal(pt.prime_count_batch(keys), expected)
            assert scalar_counts(pt, keys) == expected.tolist()
            assert pt.total_primes == below[-1]
            assert np.array_equal(pt._supers, superblock_counts(flags, shift, pt._supers.size))


@pytest.mark.parametrize("chunk, shift", [(1, 0), (7, 1), (1 << 14, 2), (1 << 14, 9)])
def test_batch_counts_for_any_chunk_and_superblock(monkeypatch, chunk, shift):
    monkeypatch.setattr(prime_core, "_STEP", chunk)
    monkeypatch.setattr(prime_core, "_SUPER_SHIFT", shift)
    pt = prime_core.build(10 ** 4 + 3)
    keys = np.arange(pt.limit + 1)
    assert np.array_equal(pt.prime_count_batch(keys), searched_counts(pt, keys))
    assert np.array_equal(pt.is_prime_batch(keys), prime_core.simple_sieve_flags(pt.limit)[keys])


@given(data=st.data(), limit=st.integers(min_value=2, max_value=300_000),
       dtype=st.sampled_from([np.uint32, np.int64]), rows=st.sampled_from([None, 1, 3]),
       loaded=st.booleans())
@settings(max_examples=60, deadline=None)
def test_batch_counts_match_search_and_scalar(table_path, data, limit, dtype, rows, loaded):
    pt = prime_core.build(limit)
    if loaded:
        pt = saved_and_loaded(pt, table_path)
    drawn = data.draw(st.lists(st.integers(0, limit), max_size=120))
    edges = data.draw(st.sampled_from([[], edge_keys(limit).tolist()]))
    keys = np.sort(np.array(drawn + edges, dtype=dtype))
    if rows is not None:
        keys = keys[: keys.size - keys.size % rows].reshape(rows, -1)
    got = pt.prime_count_batch(keys)
    assert got.dtype == np.int64 and got.shape == keys.shape
    assert np.array_equal(got, searched_counts(pt, keys))
    assert got.ravel().tolist() == scalar_counts(pt, keys.ravel())


@given(data=st.data(), limit=st.integers(2, 300_000) | st.sampled_from([2, 3, 16, 17, 65_536]),
       dtype=st.sampled_from([np.uint32, np.int64]), shape=st.sampled_from(["flat", "0-d", "2-D"]),
       kind=st.sampled_from(["built", "loaded", "unpadded"]))
@settings(max_examples=80, deadline=None)
def test_is_prime_batch_matches_scalar(table_path, data, limit, dtype, shape, kind):
    pt = prime_core.build(limit)
    if kind == "loaded":
        pt = saved_and_loaded(pt, table_path)
    elif kind == "unpadded":  # flags cut to their bytes: an even limit's own bit lies past them
        pt = prime_core.PrimeTable(limit, pt._packed.copy())
    keys = np.array([0, 1, 2, limit] + data.draw(st.lists(st.integers(0, limit), max_size=120)),
                    dtype=dtype)
    want = prime_core.simple_sieve_flags(limit)[keys].tolist()
    if shape == "0-d":
        for k, w in zip(keys, want):
            got = pt.is_prime_batch(np.array(k, dtype=dtype))
            assert got.shape == () and got.dtype == bool and bool(got) == w
    else:
        if shape == "2-D":
            rows = data.draw(st.sampled_from([1, 2, 4]))
            keys = keys[: keys.size - keys.size % rows].reshape(rows, -1)
        got = pt.is_prime_batch(keys)
        assert got.dtype == bool and got.shape == keys.shape
        assert got.ravel().tolist() == want[: keys.size]
    for empty in (np.zeros(0, dtype=dtype), np.zeros((0, 3), dtype=dtype)):
        got = pt.is_prime_batch(empty)
        assert got.dtype == bool and got.shape == empty.shape
    for bad in ([limit + 1], [-1, 2] if dtype == np.int64 else [2, limit + 1, 0]):
        with pytest.raises(ValueError, match="outside"):
            pt.is_prime_batch(np.array(bad, dtype=dtype))


def test_is_prime_batch_of_empty_keys(pt1m):
    for keys in ([], (), np.zeros(0, dtype=np.uint32), np.zeros((0, 3), dtype=np.int64)):
        got = pt1m.is_prime_batch(keys)
        assert got.dtype == bool and got.shape == np.shape(keys)


def test_batch_counts_of_empty_keys(pt1m):
    for keys in ([], np.zeros(0, dtype=np.uint32), np.zeros((0, 3), dtype=np.int64)):
        got = pt1m.prime_count_batch(keys)
        assert got.dtype == np.int64 and got.shape == np.shape(keys)


def test_batch_counts_reject_keys_out_of_range(pt1m):
    for keys in ([-1, 5], [5, 10 ** 6 + 1]):
        with pytest.raises(ValueError, match="outside"):
            pt1m.prime_count_batch(keys)


def test_batch_counts_reject_keys_that_do_not_ascend(pt1m, monkeypatch):
    monkeypatch.setattr(prime_core, "_STEP", 4)
    for keys in ([5, 3], [0, 0, 7, 6], [1, 2, 3, 4, 3, 5], [10, 11, 12, 13, 9]):  # the last two
        with pytest.raises(ValueError, match="do not ascend"):  # descend across a step's edge
            pt1m.prime_count_batch(np.array(keys, dtype=np.int64))


def test_batch_counts_keep_the_shape_of_their_keys(pt1m):
    for k in (0, 2, 97, 10 ** 6):  # a plain int, as gap_for_run passes, and a 0-d array
        for key in (k, np.array(k, dtype=np.uint32)):
            got = pt1m.prime_count_batch(key)
            assert got.shape == () and got.dtype == np.int64 and int(got) == pt1m.prime_count(k)
    keys = np.arange(0, 120, 10, dtype=np.uint32).reshape(3, 4)
    got = pt1m.prime_count_batch(keys)
    assert got.shape == (3, 4) and got.dtype == np.int64
    assert got.ravel().tolist() == scalar_counts(pt1m, keys.ravel())


@pytest.mark.parametrize("chunk", [3, 1 << 13])
def test_batch_counts_written_over_their_keys_match_a_fresh_output(pt1m, monkeypatch, chunk):
    monkeypatch.setattr(prime_core, "_STEP", chunk)
    keys = np.arange(0, 10 ** 6, 977, dtype=np.int64)
    fresh = pt1m.prime_count_batch(keys)
    shared = keys.copy()
    assert pt1m.prime_count_batch(shared, out=shared) is shared  # the scan's in-place use
    assert np.array_equal(shared, fresh)
    assert fresh.tolist() == scalar_counts(pt1m, keys)


def test_batch_counts_of_sparse_keys_hold_one_step_of_words(pt_wide, pt1m, monkeypatch):
    keys = np.linspace(0, pt_wide.limit, 5).astype(np.int64)  # 5 keys over the whole table
    tracemalloc.start()
    try:
        got = pt_wide.prime_count_batch(keys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.tolist() == scalar_counts(pt_wide, keys)
    # a step ends at the first key `_STEP` or more flag words past its first, so its
    # running popcount spans fewer words; one over every word between the ends
    # peaked at 4.6 MB here
    assert peak < 64 * prime_core._STEP, peak
    # steps that end early, at keys on, before and past each word's edges
    monkeypatch.setattr(prime_core, "_STEP", 3)
    keys = np.array([x for k in range(1, 200) for x in (384 * k - 1, 384 * k, 384 * k + 1)])
    assert pt1m.prime_count_batch(keys).tolist() == scalar_counts(pt1m, keys)


def test_batch_counts_extract_no_prime_list(monkeypatch):
    pt = prime_core.build(10 ** 5)

    def no_prime_list(*_):
        raise AssertionError("prime_count_batch extracted a prime list")

    monkeypatch.setattr(pt, "_primes_through", no_prime_list)
    assert pt.prime_count_batch([10 ** 5]).tolist() == [9592]


def test_flag_bytes_not_padded_to_whole_words_are_refused(tmp_path):
    pt = prime_core.build(1000)
    for padded in (pt, saved_and_loaded(pt, tmp_path / "primes.rppt")):  # 63 bytes in 8 words
        assert np.shares_memory(padded._words, padded._packed) and padded._words.size == 8
    copied = prime_core.PrimeTable(pt.limit, pt._packed.copy())  # 63 bytes, no padding
    assert copied.prime_count(1000) == 168
    with pytest.raises(ValueError, match="not padded to whole 8-byte words"):
        copied.prime_count_batch([1000])


def test_saved_flags_hold_no_padding(tmp_path):
    # 62,500 flag bytes, padded to 62,504 in memory; the file is the 28-byte header
    # and the flags, and its SHA-256 was recorded before the padding existed
    path = tmp_path / "primes.rppt"
    prime_core.build(10 ** 6).save(path)
    data = path.read_bytes()
    assert len(data) == HEADER_SIZE["primes"] + 62_500
    assert hashlib.sha256(data).hexdigest() == \
        "200580689ae1d1333d37c5de6eddc893f1d33a8ec31400a0d8bdb932cbbe3b10"


def scalar_counts(pt, values) -> list[int]:
    return [pt.prime_count(int(y)) for y in values]


# -- counts of short ascending runs of keys, as the Ramanujan scan asks them ---

@pytest.mark.parametrize("values", [
    [0, 1, 2, 3],
    [15, 16, 17, 31, 32, 33],  # byte edges: 15 and 31 are the last odd numbers of a byte
    [0, 0, 1, 1, 2, 2, 15, 15, 16],  # repeats
    [7], [16], [999_983], [10 ** 6],  # one element
    [],
])
def test_prime_count_ascending_cases(pt1m, values):
    got = pt1m.prime_count_batch(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == scalar_counts(pt1m, values)


@pytest.mark.parametrize("limit", [2, 3, 15, 16, 17, 31, 33, 1000, 1001, 4999])
def test_prime_count_ascending_up_to_the_limit(limit):
    # the last flag byte is full at limit 15, 16 and 31, partly filled otherwise
    pt = prime_core.build(limit)
    values = np.arange(limit + 1)
    assert pt.prime_count_batch(values).tolist() == scalar_counts(pt, values)
    assert pt.prime_count_batch([limit]).tolist() == [pt.prime_count(limit)]


def test_prime_count_ascending_rejects_out_of_range(pt1m):
    for values in ([-1, 5], [5, 10 ** 6 + 1]):
        with pytest.raises(ValueError, match="outside"):
            pt1m.prime_count_batch(values)


@given(data=st.data(), limit=st.integers(min_value=2, max_value=5000))
@settings(max_examples=50, deadline=None)
def test_prime_count_ascending_matches_scalar_small(data, limit):
    pt = prime_core.build(limit)
    lo = data.draw(st.integers(min_value=0, max_value=limit))
    hi = data.draw(st.integers(min_value=lo, max_value=limit))
    values = sorted(data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=60)))
    assert pt.prime_count_batch(values).tolist() == scalar_counts(pt, values)


@given(data=st.data(), lo=st.integers(min_value=0, max_value=10 ** 6))
def test_prime_count_ascending_matches_scalar_1m(pt1m, data, lo):
    hi = data.draw(st.integers(min_value=lo, max_value=min(lo + 5000, 10 ** 6)))
    values = sorted(data.draw(st.lists(st.integers(lo, hi), min_size=1, max_size=60)))
    assert pt1m.prime_count_batch(values).tolist() == scalar_counts(pt1m, values)


def test_primes_upto(pt1m):
    assert pt1m.primes_upto(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert pt1m.primes_upto(1).size == 0


def test_primes_between_windows(pt1m, sieve1m):
    for lo, hi in [(0, 0), (2, 2), (3, 17), (16, 64), (999, 1001), (4096, 5000)]:
        expected = lo + np.flatnonzero(sieve1m[lo : hi + 1])
        assert pt1m.primes_between(lo, hi).tolist() == expected.tolist()


@pytest.mark.parametrize("chunk", [16, 48, 1 << 16])  # integers per counting step
def test_nth_prime_across_checkpoint_boundaries(monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(prime_core, "_COUNT_CHUNK", chunk)
    limit = 10 ** 5 + 3
    primes = np.flatnonzero(prime_core.simple_sieve_flags(limit))
    for shift in SHIFTS:
        monkeypatch.setattr(prime_core, "_SUPER_SHIFT", shift)
        built = prime_core.build(limit)
        for pt in (built, saved_and_loaded(built, tmp_path / "primes.rppt")):
            ranks = np.searchsorted(primes, np.arange(0, limit + 1, WORD_INTS << shift))
            ns = np.unique(np.clip(ranks[:, None] + [-1, 0, 1, 2], 1, primes.size))
            assert [pt.nth_prime(int(n)) for n in ns] == primes[ns - 1].tolist()  # superblock edges
            assert pt.total_primes == primes.size
            assert pt.nth_prime(pt.total_primes) == primes[-1]


def test_prime_list_extracts_across_chunk_edges(monkeypatch):
    monkeypatch.setattr(prime_core, "_STEP", 4)  # 32 flag bits, 64 integers, per step
    monkeypatch.setattr(prime_core, "_COUNT_CHUNK", 64)  # and the counting pass in small steps
    pt = prime_core.build(10 ** 5)
    flags = prime_core.simple_sieve_flags(10 ** 5)
    for x in (2, 3, 63, 64, 65, 127, 128, 129, 1000, 10 ** 5):  # each x extracts afresh
        got = pt._primes_through(x)
        assert got.size == pt.prime_count(x)
        assert not got.flags.writeable
        assert got.tolist() == np.flatnonzero(flags[: x + 1]).tolist()


def test_prime_list_extraction_holds_one_step_beside_the_list(pt_wide):
    pt = prime_core.PrimeTable(pt_wide.limit, pt_wide._packed)  # no prime list yet
    tracemalloc.start()
    try:
        primes = pt._primes_through(pt.limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes.size == pt.total_primes
    # each step's primes are written into the list, a mapping that tracemalloc does
    # not see, so all it sees is one unpacked step of `8 * _STEP` flag bits and its
    # int64 offsets, never above 64 * _STEP bytes (0.5 MB); 1.5 MB at the default
    # step when each step allocated its own primes
    assert peak < min(64 * prime_core._STEP, primes.nbytes // 2), peak


@pytest.mark.parametrize("nproc", [1, 2, 3])
def test_split_prime_list_matches_the_simple_sieve(monkeypatch, nproc):
    monkeypatch.setattr(prime_core, "_PART_SEGMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(nproc)))
    limit = 10 ** 5
    flags = prime_core.simple_sieve_flags(limit)
    pt = prime_core.build(limit)
    forks, extra = counted_forks(monkeypatch), 0
    for segment_flags in (8, 1024):  # 16 and 2048 integers a segment
        monkeypatch.setattr(prime_core, "_SEGMENT_FLAGS", segment_flags)
        # ends on and next to a segment's edge, and lists of one, two, three segments or more
        for x in (2, 3, 15, 16, 17, 31, 32, 33, 47, 48, 1000, 2047, 2048, 6143, limit - 1, limit):
            primes = prime_core.PrimeTable(pt.limit, pt._packed)._primes_through(x)
            assert primes.tolist() == np.flatnonzero(flags[: x + 1]).tolist()
            assert not primes.flags.writeable
            extra += min(nproc, -(-((x + 1) // 2) // segment_flags)) - 1
    assert len(forks) == extra  # one fork for each part past the first


def test_a_failed_extraction_process_is_an_error_and_no_process_is_left(monkeypatch, three_parts):
    pt = prime_core.build(10 ** 6)
    extract = prime_core._extract

    def failing(pt, out, lo, hi, parent=None):
        if parent is None:  # this process
            return extract(pt, out, lo, hi)
        if lo < pt.limit // 2:  # the second part's process fails, the third's hangs
            raise RuntimeError("injected")
        time.sleep(60)

    monkeypatch.setattr(prime_core, "_extract", failing)
    t0 = time.perf_counter()
    with pytest.raises(InternalConsistencyError,
                       match=r"extracting the primes in \[\d+, \d+\) ended with status 1"):
        pt.primes_upto(pt.limit)
    assert time.perf_counter() - t0 < 30
    assert pt._prime_cache is None  # nothing half-written is kept


def test_an_extraction_process_whose_parent_is_gone_exits(pt1m):
    out = table_file.word_padded(8 * 200).view(np.int64)
    pid = os.fork()
    if pid == 0:
        try:  # -1 is no process's pid, so the parent reads as gone before the first segment
            prime_core._extract(pt1m, out, 2, 1000, -1)
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
    assert not out.any()


def test_save_load_roundtrip(tmp_path, pt1m):
    path = tmp_path / "primes.rppt"
    pt1m.save(path)
    loaded = prime_core.load(path)
    assert loaded.limit == pt1m.limit
    assert np.array_equal(loaded._supers, pt1m._supers)  # rebuilt from the flags
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
    out = np.zeros(got.size + 2, dtype=np.uint32)  # the prime list's dtype, with room to spare
    assert pt1m.primes_between(lo, hi, out=out).tolist() == got.tolist()
    assert out[: got.size].tolist() == got.tolist() and not out[got.size :].any()


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
