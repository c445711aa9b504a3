import _thread
import contextlib
import hashlib
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramprimes import prime_core, ramanujan_core, table_file
from ramprimes.errors import InternalConsistencyError, ResourceLimitError
from test_table_file import HEADER_SIZE

WHEEL = (1, 7, 11, 13, 17, 19, 23, 29)  # bit k of flag byte j stands for 30 * j + WHEEL[k]


def flag_bytes(limit: int) -> int:
    """The flag bytes of a table of `limit`: through the byte of the largest
    integer <= limit prime to 30, which for a multiple of 30 is in the byte before."""
    return -(-limit // 30)


def wheel_bits(flags: np.ndarray, nbytes: int) -> np.ndarray:
    """The bits of `nbytes` flag bytes as the layout defines them, from per-integer
    `flags`: each byte's 8 integers prime to 30 in order, clear past the flags' end."""
    ints = 30 * np.arange(nbytes)[:, None] + np.array(WHEEL)
    return ((ints < flags.size) & flags[np.minimum(ints, flags.size - 1)]).ravel()


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
    # at 10**6 the flags, 33,334 bytes padded to 4,167 words (33,336 bytes), their
    # popcounts, 4,167 bytes, and the 10 int64 superblock counts take 37,583 bytes;
    # the working arrays take 413,128 more: the pattern's 8 columns of one period of
    # 17,017 flag bytes (136,136 bools), a segment's 8 columns of the 33,334 flag bytes
    # padded to 33,336 (266,688 bools), and 8 int64 next bytes for each of the 161
    # base primes from 19 to 1000 (10,304 bytes)
    for ceiling in (100_000, 450_710):
        monkeypatch.setattr(prime_core, "_MEMORY_CEILING", ceiling)
        with pytest.raises(ResourceLimitError):
            prime_core.build(10 ** 6)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 450_711)
    assert prime_core.build(10 ** 6).limit == 10 ** 6
    # at 4 * 10**7, 21 units of 2**16 flag bytes sieved by two processes: the flags,
    # 1,333,334 bytes padded to 166,667 words (1,333,336 bytes), their popcounts,
    # 166,667 bytes, and the 327 counts, 2,616 bytes, take 1,502,619 bytes; each
    # process adds its pattern, 136,136, the 8 columns of a segment of 2**20 flag
    # bytes, 8,388,608, and the next bytes of the 816 base primes to 6,324, 52,224
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forks = counted_forks(monkeypatch)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 18_656_554)
    with pytest.raises(ResourceLimitError):
        prime_core.build(4 * 10 ** 7)
    monkeypatch.setattr(prime_core, "_MEMORY_CEILING", 18_656_555)
    assert prime_core.build(4 * 10 ** 7).total_primes == 2_433_654 and len(forks) == 1


def test_one_process_build_peaks_within_its_estimate():
    # build(3 * 10**7) on one CPU sieves in one process and needs 9,308,928 bytes: the
    # flags, 1,000,000 bytes padded to 125,000 words, their popcounts and 246 counts,
    # 1,126,968; the pattern, 136,136; a segment's 8 columns of 1,000,000 bools each;
    # the next bytes of the 716 base primes to 5,477, 45,824. The peak RSS of a fresh
    # process rises by no more, once a small build has run every code path the sieve
    # runs. The peak is VmHWM, as ru_maxrss keeps the peak of the process it was forked from
    script = (
        "import os\n"
        "from ramprimes import prime_core\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "prime_core._MEMORY_CEILING = 9_308_928\n"
        "def peak():\n"
        "    with open('/proc/self/status') as fh:\n"
        "        return 1024 * int(next(x for x in fh if x.startswith('VmHWM:')).split()[1])\n"
        "prime_core.build(10 ** 5)\n"
        "before = peak()\n"
        "prime_core.build(3 * 10 ** 7)\n"
        "print(peak() - before)\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
                         env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(prime_core.__file__))})
    assert run.returncode == 0, run.stderr
    assert 0 < int(run.stdout) <= 9_308_928


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
    """The table's flags equal the one-shot sieve's, bit for bit in the wheel
    layout, with the bits past the limit in the last flag byte and the word
    padding past that byte clear, and its superblock counts equal a direct
    popcount of its flags."""
    limit = pt.limit
    flags = prime_core.simple_sieve_flags(limit)
    assert np.array_equal(flags_between(pt, 0, limit), flags), limit
    padded = pt._packed.base
    assert pt._packed.size == flag_bytes(limit), limit
    assert padded.size % 8 == 0 and not padded[pt._packed.size :].any(), limit
    bits = np.unpackbits(padded, bitorder="little").view(bool)
    assert np.array_equal(bits, wheel_bits(flags, padded.size)), limit
    assert np.array_equal(pt._supers, superblock_counts(flags, prime_core._SUPER_SHIFT,
                                                        pt._supers.size)), limit


# 600,001 is past one period of the pre-sieve pattern (510,510 integers, 17,017 flag
# bytes), so the smaller segments start at many offsets into it, some copies wrap past
# its end, and a segment of 17,017 or 17,018 bytes holds one period or just more
@pytest.mark.parametrize("segment_bytes", [1, 7, 8, 64, 1 << 10, 17_017, 17_018, 1 << 18])
def test_segmented_matches_simple_construction(monkeypatch, segment_bytes):
    monkeypatch.setattr(prime_core, "_SEGMENT_ROWS", segment_bytes)  # 30 integers a byte
    for limit in (10 ** 5 + 7, 600_001):
        assert_sieved_exactly(prime_core.build(limit))


def test_build_matches_simple_at_every_small_limit():
    # every residue of the limit mod 30, the limits 2..7 below the first flagged
    # prime, and every limit around 19**2, where the first carried prime starts
    for limit in range(2, 1001):
        assert_sieved_exactly(prime_core.build(limit))


def test_every_query_matches_the_simple_sieve_at_every_small_limit():
    # every key of every limit in 2..400: each residue of the limit mod 30, and the
    # limits 2..7 around the primes 2, 3 and 5, which are held out of band
    for limit in range(2, 401):
        pt = prime_core.build(limit)
        flags = prime_core.simple_sieve_flags(limit)
        primes, keys, below = np.flatnonzero(flags), np.arange(limit + 1), np.cumsum(flags)
        assert np.array_equal(pt.is_prime_batch(keys), flags), limit
        assert np.array_equal(pt.prime_count_batch(keys), below), limit
        assert [pt.prime_count(k) for k in keys.tolist()] == below.tolist(), limit
        assert pt.total_primes == primes.size, limit
        assert [pt.nth_prime(n) for n in range(1, primes.size + 1)] == primes.tolist(), limit
        # ranges that start or end within 30 of either end, and at one limit past
        # four periods every range, with the scalar is_prime at every key
        near = [k for k in keys.tolist() if min(k, limit - k) <= 30]
        ranges = [(0, k) for k in near] + [(k, limit) for k in near]
        if limit == 130:
            assert [pt.is_prime(k) for k in keys.tolist()] == flags.tolist()
            ranges = [(lo, hi) for lo in keys.tolist() for hi in range(lo - 1, limit + 1)]
        for lo, hi in ranges:
            want = primes[(primes >= lo) & (primes <= hi)].tolist()
            assert pt.primes_between(lo, hi).tolist() == want, (limit, lo, hi)


def test_half_shifts_map_each_bit_to_the_bit_of_its_half_exhaustively():
    # every flag bit i in [0, 1024) of an integer p >= 7: word i >> 7 shifted left by
    # _HALF_SHIFTS[i & 127] keeps the flag bits through (p - 1)/2 and no more. The
    # bits i with i & 127 = 0 keep none (a shift of 64): their (p - 1)/2 is a multiple
    # of 240, whose last bit is the last of the word before
    bits = np.arange(1024, dtype=np.int64)
    p = prime_core._integers(bits, np.empty_like(bits))
    half = 64 * (bits >> 7) + 63 - prime_core._HALF_SHIFTS[bits & 127].astype(np.int64)
    assert [int(h) for h, q in zip(half, p) if q >= 7] == [
        prime_core._last_bit((int(q) - 1) // 2) for q in p if q >= 7]
    assert prime_core._HALF_SHIFTS[0] == 64 and prime_core._HALF_SHIFTS.dtype == np.uint64
    words = np.full(3, 2 ** 64 - 1, dtype=np.uint64)
    assert (words << prime_core._HALF_SHIFTS[[0, 1, 127]]).tolist() == [0, 2 ** 63, 2 ** 64 - 1]


def test_integers_never_write_into_the_bits_they_read(pt1m, monkeypatch):
    # every route from flag bits to integers (a range, the prime list, the scan's
    # stepping primes) converts from a buffer apart from its output
    calls, integers = [], prime_core._integers

    def apart(bits, out):
        assert not np.shares_memory(bits, out)
        calls.append(out.dtype)
        return integers(bits, out)

    monkeypatch.setattr(prime_core, "_integers", apart)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # no process to hide a failure
    pt = prime_core.PrimeTable(pt1m.limit, pt1m._packed)  # no prime list yet
    assert pt.primes_between(0, 10 ** 4).tolist() == pt1m.primes_between(0, 10 ** 4).tolist()
    out = np.zeros(1229, dtype=np.int64)
    assert pt.primes_between(0, 10 ** 4, out=out).tolist() == out.tolist()
    assert pt.primes_upto(pt.limit).size == pt.total_primes
    assert ramanujan_core.compute_first(3000, pt).values.tolist() == \
        ramanujan_core.compute_first(3000, pt1m).values.tolist()
    assert set(calls) == {np.dtype(np.int64), np.dtype(np.uint32)}


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
    """For each flag byte in `edges`, the first of `candidates` whose split into
    `nproc` parts starts a part there."""
    found = {}
    for limit in candidates:
        for start, _ in prime_core._parts(flag_bytes(limit), base_primes(limit), nproc)[1:]:
            found.setdefault(start, limit)
    assert set(edges) <= found.keys(), (nproc, sorted(set(edges) - found.keys()))
    return {found[e] for e in edges}


# parts that start on and around the flag bytes of 19**2 (byte 12) and 23**2
# (byte 17), where the first carried primes begin, at a byte a unit and in
# segments of 7 bytes from each part's start, so that the parts' segments are
# off those of one process; and around the pattern's period (17,017 bytes, inside
# the 64-byte unit from byte 16,960), so that a part starts at many offsets into it
SPLITS = [(1, 7, (11, 12, 13, 16, 17, 18), range(300, 1200)),
          (64, 1 << 20, (16_896, 16_960, 17_024), range(700_000, 1_700_000, 480))]


@pytest.mark.parametrize("nproc", [1, 2, 3])
def test_split_sieve_matches_simple_construction(monkeypatch, nproc):
    monkeypatch.setattr(prime_core, "_PART_SEGMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(nproc)))
    forks = counted_forks(monkeypatch)
    builds = 0
    for unit_bytes, segment_bytes, edges, candidates in SPLITS:
        monkeypatch.setattr(prime_core, "_PART_BYTES", unit_bytes)
        monkeypatch.setattr(prime_core, "_SEGMENT_ROWS", segment_bytes)
        limits = limits_with_part_edges(edges, 2, candidates) | limits_with_part_edges(
            edges, 3, candidates)  # the same limits for every part count
        for limit in sorted(limits):
            nbytes = flag_bytes(limit)
            parts = prime_core._parts(nbytes, base_primes(limit), nproc)
            cuts = [start for start, _ in parts] + [nbytes]
            assert cuts == sorted(set(cuts)) and all(c % unit_bytes == 0 for c in cuts[:-1])
            assert_sieved_exactly(prime_core.build(limit))
            builds += 1
    assert len(forks) == (nproc - 1) * builds


@pytest.fixture()
def three_parts(monkeypatch):
    """`build(10**6)` in three parts: 521 units and segments of 64 flag bytes on three CPUs."""
    monkeypatch.setattr(prime_core, "_PART_BYTES", 64)
    monkeypatch.setattr(prime_core, "_SEGMENT_ROWS", 64)
    monkeypatch.setattr(prime_core, "_PART_SEGMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})


def test_a_failed_sieve_process_is_an_error_and_no_process_is_left(monkeypatch, three_parts):
    sieve = prime_core._sieve

    def failing(packed, pattern, base, start, stop, parent=None):
        if parent is None:  # this process
            return sieve(packed, pattern, base, start, stop)
        if start < packed.size // 2:  # the second part's process fails, the third's hangs
            raise RuntimeError("injected")
        time.sleep(60)

    monkeypatch.setattr(prime_core, "_sieve", failing)
    t0 = time.perf_counter()
    with pytest.raises(InternalConsistencyError, match=r"flag bytes \[\d+, \d+\) ended with status 1"):
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
            prime_core._sieve(packed, np.ones((8, 8), dtype=bool), base_primes(239), 0, 8, -1)
        finally:
            os._exit(0)
    assert os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 1
    assert not packed.any()


def refuse_fork():
    raise OSError("fork refused")


def test_below_the_part_threshold_nothing_is_forked(monkeypatch):
    monkeypatch.setattr(prime_core, "_PART_BYTES", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", refuse_fork)
    # two processes need 2 * _PART_SEGMENTS units: 16 * 64 flag bytes
    below = 30 * (2 * prime_core._PART_SEGMENTS - 1) * 64
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
    monkeypatch.setattr(prime_core, "_PART_BYTES", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", refuse_fork)
    limit = 10 ** 6  # 521 units, two processes
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
    """Reference for `_supers`: the primes past 5 below each of `size` superblock
    edges, `240 << shift` integers apart, the last one cut to the flags' end."""
    below = np.concatenate([[0], np.cumsum(flags)])
    edges = np.minimum(np.arange(size) * (WORD_INTS << shift), flags.size)
    return below[edges] - np.searchsorted([2, 3, 5], edges)  # less 2, 3 and 5 below the edge


@pytest.mark.parametrize("shift", [0, 1, 2, 9])
def test_superblock_counts_for_any_superblock_size(monkeypatch, tmp_path, shift):
    # 3,334 flag bytes, 417 words: 417 whole superblocks of one word at shift 0; 208
    # and 104 whole ones and a partial one of a word at shifts 1 and 2; at 9, no
    # whole superblock, and one partial one of all 417 words
    monkeypatch.setattr(prime_core, "_SUPER_SHIFT", shift)
    limit = 10 ** 5 + 3
    flags = prime_core.simple_sieve_flags(limit)
    built = prime_core.build(limit)
    want = superblock_counts(flags, shift, -(-3334 // (8 << shift)) + 1)
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

WORD_INTS = 240  # integers per flag word: 8 bytes of 30


def edge_keys(limit: int, shift: int = prime_core._SUPER_SHIFT) -> np.ndarray:
    """0, 1, 2, `limit`, and each word and superblock edge +-1 inside [0, limit],
    for superblocks of `1 << shift` words, ascending: 122,880 integers apart at the default."""
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


# 100,007: 3,334 flag bytes, not whole words; 240, 122,880 and 245,760: a whole word
# and whole superblocks, so the limit's bit (of 239, ...) is the last of the last word
@pytest.mark.parametrize("limit", [2, 3, 5, 6, 7, 127, 128, 129, 239, 240, 241, 65_535, 65_536,
                                   122_880, 122_881, 131_071, 245_760, 100_007, 300_001])
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
       kind=st.sampled_from(["built", "loaded"]))
# a multiple of 30: the byte of the key `limit` lies past the flags, and its gather is clipped
@example(data=None, limit=240, dtype=np.uint32, shape="flat", kind="built")
@settings(max_examples=80, deadline=None)
def test_is_prime_batch_matches_scalar(table_path, data, limit, dtype, shape, kind):
    pt = prime_core.build(limit)
    if kind == "loaded":
        pt = saved_and_loaded(pt, table_path)
    drawn = data.draw(st.lists(st.integers(0, limit), max_size=120)) if data else []
    keys = np.array([0, 1, 2, limit] + drawn, dtype=dtype)
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
    assert pt1m.prime_count_batch(keys).tolist() == scalar_counts(pt1m, keys)


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
    keys = np.array([x for k in range(1, 200) for x in (720 * k - 1, 720 * k, 720 * k + 1)])
    assert pt1m.prime_count_batch(keys).tolist() == scalar_counts(pt1m, keys)


def test_batch_counts_extract_no_prime_list(monkeypatch):
    pt = prime_core.build(10 ** 5)

    def no_prime_list(*_):
        raise AssertionError("prime_count_batch decoded primes")

    monkeypatch.setattr(pt, "_flag_bits", no_prime_list)
    assert pt.prime_count_batch([10 ** 5]).tolist() == [9592]


def test_flag_bytes_not_padded_to_whole_words_are_refused(tmp_path):
    pt = prime_core.build(1000)
    for padded in (pt, saved_and_loaded(pt, tmp_path / "primes.rppt")):  # 34 bytes in 5 words
        assert np.shares_memory(padded._words, padded._packed) and padded._words.size == 5
    # 34 bytes with no padding; bytes that are not a buffer's start; 33 bytes whose word
    # goes on to a byte of flags, which the superblock counts would count
    for flags in (pt._packed.copy(), pt._packed[1:], pt._packed[:33]):
        with pytest.raises(ValueError, match="do not start a buffer of whole 8-byte words"):
            prime_core.PrimeTable(pt.limit, flags)


def test_saved_flags_hold_no_padding(tmp_path):
    # 33,334 flag bytes, padded to 33,336 in memory; the file is the 28-byte header
    # and the flags, byte for byte the file built here from the one-shot sieve
    path = tmp_path / "primes.rppt"
    prime_core.build(10 ** 6).save(path)
    data = path.read_bytes()
    assert len(data) == HEADER_SIZE["primes"] + 33_334
    payload = np.packbits(wheel_bits(prime_core.simple_sieve_flags(10 ** 6), 33_334),
                          bitorder="little").tobytes()
    head = struct.pack("<4sIQQ", b"RPPT", 5, 33_334, 10 ** 6)
    assert data == head + struct.pack("<I", zlib.crc32(payload, zlib.crc32(head))) + payload
    assert hashlib.sha256(data).hexdigest() == \
        "6410da10308b6a71e12ba360c93afa3d8f7c2c75a620c372d6bdfca8297703c8"


def scalar_counts(pt, values) -> list[int]:
    return [pt.prime_count(int(y)) for y in values]


# -- counts of short ascending runs of keys, as the Ramanujan scan asks them ---

@pytest.mark.parametrize("values", [
    [0, 1, 2, 3],
    [29, 30, 31, 59, 60, 61],  # byte edges: 29 and 59 are the last flagged integers of a byte
    [0, 0, 1, 1, 2, 2, 15, 15, 16],  # repeats
    [7], [16], [999_983], [10 ** 6],  # one element
    [],
])
def test_prime_count_ascending_cases(pt1m, values):
    got = pt1m.prime_count_batch(np.array(values, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == scalar_counts(pt1m, values)


@pytest.mark.parametrize("limit", [2, 3, 15, 16, 17, 29, 30, 31, 33, 59, 60, 1000, 1001, 4999])
def test_prime_count_ascending_up_to_the_limit(limit):
    # the last flag byte is full at limit 29, 30, 59 and 60, partly filled otherwise
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


@pytest.mark.parametrize("step", [1, 3])  # 8 and 24 bits a decode step
@pytest.mark.parametrize("density", [0.05, 0.5])
def test_the_one_decoder_matches_unpackbits(monkeypatch, step, density):
    monkeypatch.setattr(prime_core, "_STEP", step)
    rng = np.random.default_rng(int(100 * density) + step)
    packed = table_file.word_padded(40)  # 320 bits, 5 words
    packed[:] = np.packbits(rng.random(320) < density, bitorder="little")
    bits = np.flatnonzero(np.unpackbits(packed, bitorder="little"))
    # every bit edge of a byte, a word and a step, and one either side
    edges = sorted({e + d for e in range(0, 321, 8) for d in (-1, 0, 1) if 0 <= e + d <= 320})
    for lo in edges:
        for hi in edges:
            steps = list(prime_core.mask_positions(packed, lo, hi))
            assert len(steps) == max(-(-(hi - lo) // (8 * step)), 0)  # one array a step
            assert all(s.dtype == np.int64 for s in steps)
            got = np.concatenate([np.zeros(0, np.int64), *steps])
            assert got.tolist() == bits[(bits >= lo) & (bits < hi)].tolist(), (lo, hi)
    # the flags' reader: the same bytes as the flags of the integers below 1200, 30 a byte
    pt = prime_core.PrimeTable(1199, packed)
    ints = 30 * (bits >> 3) + np.array(WHEEL)[bits & 7]
    ends = sorted({e + d for e in range(0, 1201, 30) for d in (-1, 0, 1) if 0 <= e + d <= 1199})
    for lo in ends[::3]:
        for hi in ends:
            got = np.concatenate([np.zeros(0, np.int64), *pt._flag_bits(lo, hi)])
            assert got.tolist() == bits[(ints >= lo) & (ints <= hi)].tolist(), (lo, hi)
    # the mask's counter: the set bits below each edge, by a popcount
    for stop in edges:
        assert prime_core.mask_count(packed, stop) == np.count_nonzero(bits < stop), stop


EDGES = sorted({e + d for e in range(0, 321, 64) for d in (-1, 0, 1, 7, 8, 9) if 0 <= e + d <= 320})


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=40), stop=st.sampled_from(EDGES) | st.integers(0, 320),
       padded=st.booleans())
@example(data=b"\xff" * 16, stop=64, padded=True)
@example(data=b"\xff" * 9, stop=65, padded=False)
@example(data=b"\x80" * 8, stop=63, padded=True)  # the last bit of a word, past the stop
@example(data=b"", stop=0, padded=True)
def test_mask_select_and_rank_match_the_unpacked_bits(data, stop, padded):
    packed = table_file.word_padded(len(data)) if padded else np.empty(len(data), np.uint8)
    packed[:] = np.frombuffer(data, np.uint8)
    stop = min(stop, 8 * packed.size)
    index = prime_core.mask_index(packed, stop)
    found = np.flatnonzero(prime_core.mask_bits(packed, 0, stop))
    ks = np.arange(stop + 70)  # and bits past the stop, which count as none
    assert prime_core.mask_rank(index, ks).tolist() == np.searchsorted(found, ks).tolist()
    assert prime_core.mask_select(index, np.arange(1, found.size + 1)).tolist() == found.tolist()
    assert np.shares_memory(index[0], packed) == (padded and stop > 0)  # words in place


@pytest.mark.parametrize("chunk", [16, 48, 1 << 16])  # flag bytes per step of the decode
def test_nth_prime_across_checkpoint_boundaries(monkeypatch, tmp_path, chunk):
    monkeypatch.setattr(prime_core, "_STEP", chunk)  # nth_prime decodes its superblock
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
    monkeypatch.setattr(prime_core, "_STEP", 4)  # 32 flag bits, 120 integers, per step
    pt = prime_core.build(10 ** 5)
    flags = prime_core.simple_sieve_flags(10 ** 5)
    for x in (2, 3, 5, 7, 119, 120, 121, 239, 240, 241, 1000, 10 ** 5):  # each x decodes afresh
        got = pt.primes_upto(x)
        assert got.dtype == prime_core.table_dtype(pt.limit)
        assert got.tolist() == np.flatnonzero(flags[: x + 1]).tolist()
    assert sorted(vars(pt)) == ["_packed", "_supers", "_words", "limit"]  # the table keeps none


def test_prime_list_extraction_holds_one_step_beside_the_list(pt_wide):
    tracemalloc.start()
    try:
        primes = pt_wide.primes_upto(pt_wide.limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes.size == pt_wide.total_primes
    # beside the list, one unpacked step of `8 * _STEP` flag bits and its int64
    # offsets, never above 64 * _STEP bytes (0.5 MB)
    assert peak < primes.nbytes + 64 * prime_core._STEP, peak


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
    (16, 0x01),  # limit 100001 on a payload built for 100000 (both 3,334 bytes): fails the header checksum
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
    (10 ** 5 + 1, 6250),  # the flags of limits 187,471..187,500
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
    data[HEADER_SIZE["primes"] + 1000] ^= 0x04  # the flag of 30,011
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        prime_core.load(path)
