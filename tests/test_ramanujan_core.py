import dataclasses
import hashlib
import math
import os
import threading
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramprimes import gap_analysis, prime_core, ramanujan_core, table_file
from ramprimes.errors import CoverageError, InternalConsistencyError, ResourceLimitError
from ramprimes.ramanujan_core import (
    LAISHRAM_LIMIT,
    BoundsReport,
    compute_below,
    compute_first,
    last_violation_below_threshold,
    log_bound_failures,
    mask_at,
    mask_bits,
    max_ratio,
    rank_scaling_threshold,
    rank_scaling_violations,
    verify_max_ratio_bound,
)
from conftest import search_mask, table_of
from test_prime_core import another_thread, counted_forks, flags_between, refuse_fork
from test_table_file import HEADER_SIZE

FIRST_21 = [2, 11, 17, 29, 41, 47, 59, 67, 71, 97, 101, 107, 127, 149, 151,
            167, 179, 181, 227, 229, 233]

# prime ranks of R_1..R_23 (OEIS A179196)
FIRST_RANKS = [1, 5, 7, 10, 13, 15, 17, 19, 20, 25, 26, 28, 31, 35, 36, 39,
               41, 42, 49, 50, 51, 52, 53]


def oracle_tables(n_max: int):
    """Direct-definition oracle built on trial division, nothing shared with
    the production scan: R_n = 1 + max{x <= p_3n : pi(x) - pi(x//2) < n}.
    """
    limit = ramanujan_core.nth_prime_upper(3 * n_max)
    flags = np.zeros(limit + 1, dtype=bool)
    for k in range(2, limit + 1):
        for d in range(2, math.isqrt(k) + 1):
            if k % d == 0:
                break
        else:
            flags[k] = True
    pi = np.cumsum(flags)
    primes = np.flatnonzero(flags)
    xs = np.arange(limit + 1)
    counts = pi - pi[xs // 2]  # number of primes in (x/2, x]
    values = []
    for n in range(1, n_max + 1):
        p3n = int(primes[3 * n - 1])
        values.append(1 + int(np.flatnonzero(counts[: p3n + 1] < n).max()))
    return values, counts, primes


def check_log_bounds(table, n: int, primes) -> bool:
    """Scalar reference for log_bound_failures: the chain
    2n log 2n < p_2n < R_n < 4n log 4n < p_4n at one n > 1, from scalar
    nth_prime and math.log, under the same 1e-6 margin rule."""
    if n <= 1:
        raise ValueError(f"the inequality chain requires n > 1, got {n}")
    r_n = table.value(n)
    p2n = primes.nth_prime(2 * n)
    p4n = primes.nth_prime(4 * n)
    lo = 2 * n * math.log(2 * n)
    hi = 4 * n * math.log(4 * n)
    for a, b in ((lo, p2n), (r_n, hi), (hi, p4n)):
        if abs(b - a) <= 1e-6 * max(abs(a), abs(b)):
            raise InternalConsistencyError(
                f"margin too small to compare {a} and {b} in double precision"
            )
    return lo < p2n < r_n and r_n < hi < p4n


def blockwise_reference(n: int, primes, block_size: int = 1 << 22) -> np.ndarray:
    """R_1..R_n from a per-integer scan: s(k) for every k of each block from
    the primality flags, then the right-to-left suffix-minimum staircase.
    A second route to the production walk over primes, which reads s(k)
    only just before each prime."""
    top = primes.nth_prime(3 * n) - 1
    values = np.zeros(n, dtype=np.int64)
    carry = None  # min of s over every k already walked, all to the right
    for lo in range(1 + block_size * ((top - 1) // block_size), 0, -block_size):
        hi = min(lo + block_size - 1, top)
        delta = flags_between(primes, lo, hi).astype(np.int8)
        first_even = lo + lo % 2
        if first_even <= hi:
            halves = flags_between(primes, first_even >> 1, hi >> 1)
            delta[first_even - lo :: 2] -= halves.view(np.int8)
        s = np.cumsum(delta, dtype=np.int64)
        s += primes.prime_count(lo - 1) - primes.prime_count((lo - 1) // 2)
        if carry is None:
            carry = int(s[-1]) + 1
        m = np.minimum.accumulate(s[::-1])[::-1]
        np.minimum(m, carry, out=m)
        v = np.arange(int(m[0]), min(n, carry), dtype=np.int64)
        values[v] = lo + np.searchsorted(m, v, side="right")  # 1 + last k with s(k) = v
        carry = int(m[0])
        if carry == 0:
            break
    return values


@pytest.fixture(scope="module")
def oracle_1000():
    return oracle_tables(1000)


def test_first_21_values(pt1m):
    assert compute_first(21, pt1m).values.tolist() == FIRST_21


def test_single_value(pt1m):
    assert compute_first(1, pt1m).values.tolist() == [2]


def test_matches_direct_definition_oracle(pt1m, oracle_1000):
    values, _, _ = oracle_1000
    assert compute_first(1000, pt1m).values.tolist() == values


def test_matches_blockwise_reference_below_21e6(pt_wide, rt_wide):
    x = rt_wide.complete_below
    reference = blockwise_reference(-(-pt_wide.prime_count(x) // 2) + 1, pt_wide)
    assert np.array_equal(reference[reference < x], rt_wide.values)


def assert_mask_is_search_mask(table, pt):
    """The table's mask, over every prime `pt` lists below its coverage, is the
    reference `search_mask` of its values."""
    cov = table.coverage(pt)
    listed = pt.primes_upto(cov)
    assert 8 * table.mask.size >= listed.size
    bits = np.unpackbits(table.mask, count=listed.size, bitorder="little").view(bool)
    assert np.array_equal(bits, search_mask(listed, table.values[table.values <= cov]))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), block=st.integers(min_value=1, max_value=5000))
@example(n=400, block=1)  # most blocks hold no prime; such a block is always skipped,
# below R_n too, as a - pi((hi - 1)/2) >= t_a >= carry there
@example(n=400, block=2)  # [9, 10], [15, 16], ... hold no prime
@example(n=400, block=10)  # blocks start on the primes 11, 31, 41, 61, ...
@example(n=100, block=1987)  # one block, its upper edge exactly p_300 = 1987
@example(n=60, block=64)  # the blocks past R_60 = 769 have no step; a = pi(lo - 1) is
# 18, 31, 43, 54, ... at the blocks' bases, so their bits start inside a byte
def test_any_block_size_matches_both_oracles(pt1m, oracle_1000, n, block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ramanujan_core, "_SCAN_BLOCK", block)
        table = compute_first(n, pt1m)
    assert table.values.tolist() == oracle_1000[0][:n]
    assert np.array_equal(table.values, blockwise_reference(n, pt1m, block))
    assert table.scan_limit == pt1m.nth_prime(3 * n) - 1  # the cache header stores it
    # one bit per prime p_1..p_3n, set at the ranks of the values, and no other
    bits = np.unpackbits(table.mask, bitorder="little").view(bool)
    assert bits.size == 8 * -(-3 * n // 8) and not bits[3 * n :].any()
    assert np.array_equal(bits[: 3 * n],
                          search_mask(pt1m.primes_upto(pt1m.nth_prime(3 * n)), table.values))


def test_interval_counts_walk_properties(oracle_1000):
    # counter stays non-negative and moves by at most one per step
    _, counts, _ = oracle_1000
    steps = np.diff(counts)
    assert counts.min() == 0
    assert int(np.abs(steps).max()) <= 1


def test_definition_invariant_below_and_at_each_value(pt1m, oracle_1000):
    # just below R_n the interval holds n-1 primes; from R_n on, at least n
    values, counts, primes = oracle_1000
    suffix_min = np.minimum.accumulate(counts[::-1])[::-1]
    for n, r in enumerate(values, start=1):
        assert counts[r - 1] == n - 1
        assert suffix_min[r] >= n


@settings(max_examples=300, deadline=None)
@given(bits=st.lists(st.booleans(), max_size=70), lo=st.integers(0, 80), hi=st.integers(0, 80),
       index=st.lists(st.integers(0, 79), max_size=20),
       dtype=st.sampled_from([np.uint32, np.int64, np.intp]))
@example(bits=[True] * 13, lo=9, hi=13, index=[12], dtype=np.uint32)  # the last, partial byte
@example(bits=[True] * 13, lo=13, hi=13, index=[], dtype=np.int64)  # an empty range at the end
@example(bits=[True] * 16, lo=5, hi=5, index=[], dtype=np.int64)  # an empty range inside a byte
@example(bits=[False, True] * 20, lo=3, hi=37, index=[3, 36, 3], dtype=np.uint32)
def test_mask_readers_match_unpackbits(bits, lo, hi, index, dtype):
    packed = np.packbits(np.array(bits, dtype=bool), bitorder="little")
    whole = np.unpackbits(packed, bitorder="little").view(bool)  # with the last byte's padding
    lo, hi = min(lo, whole.size), min(hi, whole.size)
    got = mask_bits(packed, lo, hi)
    assert got.dtype == bool and got.tolist() == whole[lo:hi].tolist()
    index = np.array([i for i in index if i < whole.size], dtype=dtype)
    got = mask_at(packed, index)
    assert got.dtype == bool and got.tolist() == whole[index].tolist()


def test_compute_below_golden(pt1m):
    assert compute_below(100, pt1m).values.tolist() == [
        2, 11, 17, 29, 41, 47, 59, 67, 71, 97,
    ]
    assert compute_below(3, pt1m).values.tolist() == [2]
    assert not compute_below(100, pt1m).values.flags.owndata  # a prefix view, not a copy


def test_below_cuts_to_what_compute_below_gives(pt1m):
    wide = compute_below(10 ** 4, pt1m)
    # 29 = R_4, one past it, a prime that is not Ramanujan, non-primes, the edge
    for x in (2, 29, 30, 31, 100, 1000, 10 ** 4):
        cut, fresh = wide.below(x), compute_below(x, pt1m)
        assert np.array_equal(cut.values, fresh.values)
        assert_mask_is_search_mask(cut, pt1m)
        assert_mask_is_search_mask(fresh, pt1m)
        assert cut.complete_below == fresh.complete_below == x
        assert cut.coverage(pt1m) == fresh.coverage(pt1m)
        n = cut.classified_primes(pt1m).size
        assert mask_bits(cut.mask, 0, n).tolist() == mask_bits(fresh.mask, 0, n).tolist()
    with pytest.raises(CoverageError, match="complete below 10000"):
        wide.below(10 ** 4 + 1)


def test_compute_below_density_at_one_million(pt_wide):
    rt = compute_below(10 ** 6, pt_wide)
    ratio = rt.count / pt_wide.prime_count(10 ** 6 - 1)
    assert round(ratio, 3) == 0.471


def test_compute_below_two_is_empty(pt1m):
    rt = compute_below(2, pt1m)
    assert rt.count == 0
    assert rt.membership_mask(np.array([], dtype=np.int64)).size == 0
    assert rt.classified_primes(pt1m).size == 0
    with pytest.raises(ValueError):
        rt.value(1)


def test_classified_primes_share_one_mask(rt_wide, pt_wide):
    primes = rt_wide.classified_primes(pt_wide)
    assert np.array_equal(primes, pt_wide.primes_upto(rt_wide.complete_below - 1))
    assert np.array_equal(mask_bits(rt_wide.mask, 0, primes.size), rt_wide.membership_mask(primes))
    assert np.shares_memory(rt_wide.classified_primes(pt_wide), primes)  # the one cached list
    assert "mask" not in rt_wide._derived  # the packed mask is the classification


def test_classified_primes_mask_is_read_only(rt_wide, pt_wide):
    primes = rt_wide.classified_primes(pt_wide)
    for array in (rt_wide.mask, primes, compute_first(100, pt_wide).mask):
        with pytest.raises(ValueError):
            array[0] = 0
        with pytest.raises(ValueError):
            array[1:][:3] = 1


def test_twin_index_lists_the_twin_pairs_read_only(rt_wide, pt_wide):
    primes = rt_wide.classified_primes(pt_wide)
    twins = rt_wide.twin_index(pt_wide)
    # a second route: the flags say which listed primes p have p + 2 prime
    assert np.array_equal(twins, np.flatnonzero(pt_wide.is_prime_batch(primes[:-1] + 2)))
    assert twins.dtype == prime_core.table_dtype(primes.size) and rt_wide.twin_index(pt_wide) is twins
    with pytest.raises(ValueError):
        twins[0] = 0


def test_another_prime_table_rebuilds_each_derived_array_once(pt1m, monkeypatch):
    rt = compute_below(10 ** 5, pt1m)
    builds = []
    derived = rt.derived
    monkeypatch.setattr(rt, "derived", lambda primes, key, build: derived(
        primes, key, lambda: builds.append(key) or build()))

    def arrays(pt):
        return [rt.twin_index(pt),
                *gap_analysis.twin_gap_table(rt, pt), rt.prime_ranks(pt)]

    first = arrays(pt1m)
    other = prime_core.build(pt1m.limit)
    second = arrays(other)
    assert all(x is not y and np.array_equal(x, y) for x, y in zip(first, second))
    assert all(x is y for x, y in zip(arrays(other), second))
    keys = ["twins", "twin_gaps", "ranks"]
    assert sorted(builds) == sorted(2 * keys)


def test_compute_below_membership_coverage(pt1m):
    rt = compute_below(100, pt1m)
    assert rt.membership_mask([89, 97]).tolist() == [False, True]
    with pytest.raises(ValueError):
        rt.membership_mask([101])  # beyond the completeness bound


def test_coverage_error_names_requirement():
    pt = prime_core.build(100)
    with pytest.raises(CoverageError, match=r"p_3000"):
        compute_first(1000, pt)


def test_scan_rejects_a_non_increasing_value_list(pt1m, monkeypatch):
    # each block lists its first prime twice and drops its last, so that the count
    # that sized the scan's buffers still holds; pi((p - 1)/2) is read from the
    # flags, so only the walked primes are corrupted
    between = pt1m.primes_between

    def first_twice(lo, hi, out=None):
        p = between(lo, hi, out)
        p[1:] = p[:-1].copy()
        return p

    monkeypatch.setattr(pt1m, "primes_between", first_twice)
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one process walks every block
    with pytest.raises(InternalConsistencyError, match="non-canonical") as exc:
        compute_first(300, pt1m)
    values = exc.traceback[-1].locals["values"]  # the list the final check rejected
    assert values[0] == 2  # so only the ordering can have failed
    assert int(np.sum(values[1:] <= values[:-1])) == 31


def test_scan_checks_the_order_of_its_first_two_values(monkeypatch):
    # every prime the scan walks (it passes `out`) reads as 2, so t_j = j and
    # R_1 = R_2 = 2: the list starts with 2, and only its first pair is out of order
    pt = prime_core.build(100)
    pt.primes_upto(100)  # the prime list, extracted before the flags read falsely
    between = pt.primes_between

    def all_two(lo, hi, out=None):
        p = between(lo, hi, out)
        p[:] = 2 if out is not None else p
        return p

    monkeypatch.setattr(pt, "primes_between", all_two)
    with pytest.raises(InternalConsistencyError, match="non-canonical") as exc:
        compute_first(2, pt)
    assert exc.traceback[-1].locals["values"].tolist() == [2, 2]


def test_scan_decodes_each_unsettled_block_once(pt1m, monkeypatch):
    expected = compute_first(300, pt1m).values
    top = pt1m.nth_prime(900)
    calls = []
    between = pt1m.primes_between
    monkeypatch.setattr(pt1m, "primes_between",
                        lambda lo, hi, out=None: calls.append((lo, hi)) or between(lo, hi, out))

    def no_prime_list(*_):
        raise AssertionError("the scan read a prime list")

    for name in ("primes_upto", "_primes_through"):
        monkeypatch.setattr(pt1m, name, no_prime_list)
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one process walks every block
    assert np.array_equal(compute_first(300, pt1m).values, expected)
    blocks = [(lo, min(lo + 63, top)) for lo in range(1, top + 1, 64)][::-1]
    decoded = calls[1:]  # calls[0] is nth_prime(900) finding p_900
    assert decoded == [b for b in blocks if b in decoded]  # right to left, once each
    assert (len(decoded), len(blocks)) == (79, 110)
    # two counts settle every block above R_300 = 4987 but the first one;
    # every block holding a value is decoded
    assert expected[-1] == 4987 and decoded[0] == (4993, 5056)
    assert {blocks[-1 - (int(v) - 1) // 64] for v in expected} <= set(decoded)


def test_block_size_does_not_change_results(pt1m, monkeypatch):
    baseline = compute_first(200, pt1m).values
    for block in (1, 2, 3, 64, 1 << 10, 1 << 14):
        monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", block)
        assert np.array_equal(compute_first(200, pt1m).values, baseline)


def split_scan(monkeypatch, n, pt, nproc):
    """compute_first(n, pt) split among `nproc` CPUs at one block a part, with
    the parts it ran and, for each, the exact carry into it from the right."""
    monkeypatch.setattr(prime_core, "_PART_SEGMENTS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(nproc)))
    runs, run_parts = [], prime_core._run_parts
    monkeypatch.setattr(prime_core, "_run_parts", lambda parts, *args: (
        runs.append(parts), run_parts(parts, *args)))
    table = compute_first(n, pt)
    # the suffix minimum of t from p_{j+1} on is the number of values below p_{j+1}
    exact = [int(np.searchsorted(table.values, 1 + i1 * ramanujan_core._SCAN_BLOCK))
             for _, i1, _, _, _ in runs[0][:-1]] + [n]
    return table, runs[0], exact


# (block, prime table, counts n): at 64 integers a block, parts start on blocks
# whose first prime index is not a multiple of 8, so a mask byte is shared
SPLIT_SCANS = [(64, "pt1m", (66, 300, 1000, 5000, 26000)), (1 << 20, "pt_wide", (400_000, 690_000))]


@pytest.mark.parametrize("nproc", [1, 2, 3])
@pytest.mark.parametrize("block, fixture, counts", SPLIT_SCANS)
def test_split_scan_matches_one_process(monkeypatch, request, nproc, block, fixture, counts):
    pt = request.getfixturevalue(fixture)
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", block)
    forks, loose, kept, dropped, shared = counted_forks(monkeypatch), 0, 0, 0, 0
    for n in counts:
        with pytest.MonkeyPatch.context() as one:
            one.setattr(os, "sched_getaffinity", lambda pid: {0})
            reference = compute_first(n, pt)
        table, parts, exact = split_scan(monkeypatch, n, pt, nproc)
        assert len(parts) == nproc and table.values.dtype == reference.values.dtype
        assert np.array_equal(table.values, reference.values)
        assert table.mask.tobytes() == reference.mask.tobytes()
        for (i0, _, carry, cut, slot), into in zip(parts, exact):
            assert cut <= into <= carry  # the two bounds on the carry into the part
            loose += carry > into + 1  # from a loose bound, its first staircase jumps
            shared += slot[1] != 0  # its first mask byte holds bits of the part on its left
            v = cut + np.flatnonzero(slot[2:])  # the side buffer's values
            kept, dropped = kept + np.count_nonzero(v < into), dropped + np.count_nonzero(v >= into)
    assert len(forks) == (nproc - 1) * len(counts)
    if nproc > 1:  # each case that a merge handles occurs
        assert loose and kept and dropped and shared


def test_a_part_without_a_step_passes_the_exact_carry_on(monkeypatch, pt1m):
    # at 2 integers a block in 8 parts, a part left of R_n holds no value: it ends
    # above the exact carry into it, which the merge must carry past it unchanged
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 2)
    for n in (3, 4, 5):
        with pytest.MonkeyPatch.context() as one:
            one.setattr(os, "sched_getaffinity", lambda pid: {0})
            reference = compute_first(n, pt1m)
        table, parts, exact = split_scan(monkeypatch, n, pt1m, 8)
        assert np.array_equal(table.values, reference.values)
        assert table.mask.tobytes() == reference.mask.tobytes()
        assert any(slot[0] > into for (_, _, _, _, slot), into in zip(parts, exact))


def test_a_failed_scan_process_is_an_error_and_no_process_is_left(monkeypatch, pt1m):
    scan = ramanujan_core._scan

    def failing(primes, blocks, i0, i1, *args):
        if args[-1] is None:  # this process
            return scan(primes, blocks, i0, i1, *args)
        if i1 < len(blocks[1]):  # the second part's process fails, the last one's hangs
            raise RuntimeError("injected")
        time.sleep(60)

    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(ramanujan_core, "_scan", failing)
    t0 = time.perf_counter()
    with pytest.raises(InternalConsistencyError, match=r"scanning blocks \[\d+, \d+\) ended with"):
        split_scan(monkeypatch, 5000, pt1m, 3)
    assert time.perf_counter() - t0 < 30


def test_an_interrupted_scan_leaves_no_process(monkeypatch, pt1m):
    def interrupted(*args):
        if args[-1] is None:
            raise KeyboardInterrupt
        time.sleep(60)

    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(ramanujan_core, "_scan", interrupted)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        split_scan(monkeypatch, 5000, pt1m, 3)
    assert time.perf_counter() - t0 < 30


def test_a_scan_process_whose_parent_is_gone_exits(monkeypatch, pt1m):
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(os, "getppid", lambda: -1)  # no process's pid: the parent reads as gone
    with pytest.raises(InternalConsistencyError, match="ended with status 1"):
        split_scan(monkeypatch, 5000, pt1m, 2)


def test_a_refused_scan_process_is_a_resource_limit(monkeypatch, pt1m):
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(os, "fork", refuse_fork)
    with pytest.raises(ResourceLimitError, match="cannot start a scan process: fork refused"):
        split_scan(monkeypatch, 5000, pt1m, 2)


def test_no_scan_process_below_the_part_threshold_or_beside_a_thread(monkeypatch, pt1m):
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    monkeypatch.setattr(os, "fork", refuse_fork)
    units, processes = [], prime_core._processes
    monkeypatch.setattr(prime_core, "_processes", lambda n: units.append(n) or processes(n))
    expected = compute_first(65, pt1m).values  # two processes need 2 * _PART_SEGMENTS busy blocks
    with pytest.raises(ResourceLimitError, match="cannot start a scan process: fork refused"):
        compute_first(66, pt1m)
    assert units == [2 * prime_core._PART_SEGMENTS - 1, 2 * prime_core._PART_SEGMENTS]
    with another_thread(lambda wait: threading.Thread(target=wait).start()):
        assert np.array_equal(compute_first(66, pt1m).values[:-1], expected)


def test_prime_rank_values(pt1m):
    rt = compute_first(23, pt1m)
    assert rt.prime_ranks(pt1m).tolist() == FIRST_RANKS


def searchsorted_ranks(rt, pt):
    """Reference for prime_ranks: pi(R_n) by binary search in the prime list."""
    return np.searchsorted(pt.primes_upto(int(rt.values[-1])), rt.values, side="right")


def test_prime_ranks_are_read_by_position(rt_wide, pt_wide, monkeypatch):
    def no_search(*_):
        raise AssertionError("prime_ranks searched the prime list")

    for rt in (rt_wide, compute_first(5000, pt_wide)):
        expected = searchsorted_ranks(rt, pt_wide)
        fresh = dataclasses.replace(rt)  # an empty memo
        with monkeypatch.context() as patch:
            patch.setattr(pt_wide, "prime_count_batch", no_search)
            assert np.array_equal(fresh.prime_ranks(pt_wide), expected)


def test_prime_ranks_past_the_classified_list_are_a_coverage_error(pt1m):
    rt = compute_first(100, pt1m)  # R_100 = 1439
    with pytest.raises(CoverageError, match="R_"):
        rt.prime_ranks(prime_core.build(1000))


def test_prime_rank_consistent_with_nth_prime(pt1m):
    rt = compute_first(500, pt1m)
    ranks = rt.prime_ranks(pt1m)
    assert np.array_equal(pt1m.nth_prime_batch(ranks), rt.values)


def test_rank_bracketing(pt1m):
    rt = compute_first(1000, pt1m)
    n = np.arange(2, 1001)
    ranks = rt.prime_ranks(pt1m)[1:]
    assert np.all(2 * n < ranks)
    assert np.all(ranks < 3 * n)


def test_ratio_to_double_index_prime_stays_moderate(rt_laishram, pt_wide):
    # weak finite proxy for the expected convergence of R_n / p_2n toward 1
    n = np.arange(1000, rt_laishram.count + 1)
    p2n = pt_wide.nth_prime_batch(2 * n)
    assert np.all(rt_laishram.values[999:] < 1.2 * p2n)


def test_check_log_bounds_examples(pt1m):
    rt = compute_first(5, pt1m)
    assert check_log_bounds(rt, 2, pt1m)
    assert 4 * math.log(4) < 7 < 11 < 8 * math.log(8) < 19
    assert check_log_bounds(rt, 5, pt1m)
    assert pt1m.nth_prime(10) == 29 < 41 < pt1m.nth_prime(20) == 71
    assert log_bound_failures(rt, 5, pt1m) == []


def test_check_log_bounds_rejects_n1(pt1m):
    rt = compute_first(5, pt1m)
    with pytest.raises(ValueError):
        check_log_bounds(rt, 1, pt1m)
    assert log_bound_failures(rt, 1, pt1m) == []  # no n with 1 < n <= 1


def test_log_bound_failures_match_the_scalar_reference(rt_laishram, pt_wide):
    top = 2 * 10 ** 4
    expected = [n for n in range(2, top + 1) if not check_log_bounds(rt_laishram, n, pt_wide)]
    assert log_bound_failures(rt_laishram, top, pt_wide) == expected == []


def test_log_bound_failures_flag_a_broken_chain(pt1m):
    # R_3 = 17 moved to 23 stays below 12 log 12 = 29.8; moved to 31 it does not
    for r3, failing in ((23, []), (31, [3])):
        fake = table_of([2, 11, r3, 29, 41], scan_limit=0, complete_below=42)
        assert log_bound_failures(fake, 5, pt1m) == failing
        assert [n for n in range(2, 6) if not check_log_bounds(fake, n, pt1m)] == failing


def test_log_bound_failures_need_the_table_and_the_primes(pt1m):
    rt = compute_first(5, pt1m)
    with pytest.raises(ValueError, match="outside"):
        log_bound_failures(rt, 6, pt1m)
    with pytest.raises(CoverageError, match="p_20"):
        log_bound_failures(rt, 5, prime_core.build(50))


def test_max_ratio_full_range(rt_laishram, pt_wide):
    report = max_ratio(rt_laishram, LAISHRAM_LIMIT, set(), pt_wide)
    assert report.argmax_n == 5
    assert report.ratio == Fraction(41, 47)


def test_max_ratio_exclusions(rt_laishram, pt_wide):
    second = max_ratio(rt_laishram, LAISHRAM_LIMIT, {5}, pt_wide)
    assert (second.argmax_n, second.ratio) == (10, Fraction(97, 113))
    third = max_ratio(rt_laishram, LAISHRAM_LIMIT, {5, 10}, pt_wide)
    assert (third.argmax_n, third.ratio) == (2, Fraction(11, 13))


def test_max_ratio_empty_range(pt1m):
    rt = compute_first(3, pt1m)
    with pytest.raises(ValueError):
        max_ratio(rt, 1, {1}, pt1m)


def test_max_ratio_tie_raises(pt1m):
    # 5/p_3 = 13/p_6 = 1: a table no scan can produce
    rt = table_of([5, 13, 17, 29, 41], scan_limit=41, complete_below=42)
    with pytest.raises(InternalConsistencyError, match=r"^ratio tie between n=2 and n=1$"):
        max_ratio(rt, 5, set(), pt1m)


def test_max_ratio_is_exact_not_floating(pt1m):
    rt = compute_first(30, pt1m)
    report = max_ratio(rt, 30, set(), pt1m)
    assert isinstance(report.ratio, Fraction)
    assert report.ratio == Fraction(rt.value(report.n), pt1m.nth_prime(3 * report.n))


def test_verify_max_ratio_bound(rt_laishram, pt_wide):
    assert verify_max_ratio_bound(rt_laishram, pt_wide)


def test_verify_max_ratio_bound_needs_full_table(pt1m):
    rt = compute_first(10, pt1m)
    with pytest.raises(CoverageError):
        verify_max_ratio_bound(rt, pt1m)


def test_ratio_discriminates_thirteen_fifteenths(pt1m):
    rt = compute_first(5, pt1m)
    # 41/47 exceeds 13/15, while 11/13 stays below it
    assert 15 * rt.value(5) > 13 * pt1m.nth_prime(15)
    assert 15 * rt.value(2) < 13 * pt1m.nth_prime(6)


def test_rank_scaling_thresholds():
    assert rank_scaling_threshold(1) == 1
    assert rank_scaling_threshold(2) == 1245
    assert rank_scaling_threshold(3) == rank_scaling_threshold(4) == 189
    assert rank_scaling_threshold(5) == rank_scaling_threshold(6) == 85
    assert rank_scaling_threshold(7) == rank_scaling_threshold(19) == 10
    assert rank_scaling_threshold(20) == rank_scaling_threshold(50) == 2
    with pytest.raises(ValueError):
        rank_scaling_threshold(0)


def test_rank_scaling_no_violations_small(pt_wide):
    rt = compute_below(10 ** 6, pt_wide)
    assert rank_scaling_violations(rt, 2, 10 ** 6, pt_wide) == []
    assert rank_scaling_violations(rt, 1, 10 ** 6, pt_wide) == []


def test_rank_scaling_reads_only_classified_ranks(rt_wide, pt_wide, pt1m):
    # values run to 21e6, primes to 1e6: every R_mn < 1e6 is classified, R_36961 is not
    wide = dataclasses.replace(rt_wide)  # an empty memo
    exact = compute_below(10 ** 6, pt_wide)
    for m in (2, 3, 7, 20):
        assert rank_scaling_violations(wide, m, 10 ** 6, pt1m) == \
            rank_scaling_violations(exact, m, 10 ** 6, pt_wide) == []
        assert last_violation_below_threshold(wide, m, 10 ** 6, pt1m) == \
            last_violation_below_threshold(exact, m, 10 ** 6, pt_wide) == \
            rank_scaling_threshold(m) - 1
    with pytest.raises(CoverageError, match="R_36961"):
        wide.prime_ranks(pt1m)


def test_rank_scaling_spot_value(pt1m):
    rt = compute_first(10, pt1m)
    ranks = rt.prime_ranks(pt1m)
    assert ranks[9] <= 2 * ranks[4]  # rank(10) = 25 <= 2 * rank(5) = 26


def test_rank_scaling_thresholds_are_sharp_below_1e5(pt_wide):
    rt = compute_below(10 ** 5, pt_wide)
    for m in range(2, 22):
        assert last_violation_below_threshold(rt, m, 10 ** 5, pt_wide) == \
            rank_scaling_threshold(m) - 1
    assert last_violation_below_threshold(rt, 1, 10 ** 5, pt_wide) is None


def rank_scaling_reference(rt, m, limit, pt):
    """Plain loop over prime_ranks: every n >= 1 with R_mn < limit and
    pi(R_mn) > m * pi(R_n), ascending."""
    values, ranks = rt.values.tolist(), rt.prime_ranks(pt).tolist()
    return [n for n in range(1, len(values) // m + 1)
            if values[m * n - 1] < limit and ranks[m * n - 1] > m * ranks[n - 1]]


def test_rank_scaling_matches_the_plain_loop(pt_wide):
    rt = compute_below(10 ** 6, pt_wide)
    values = rt.values.tolist()
    for m in range(1, 26):
        # 3 and 12 leave one and two values, fewer than m; the others include
        # limits just past and at R_5m, so that m divides the count below, or not
        for limit in (3, 12, 1000, values[5 * m - 1] + 1, values[5 * m - 1], 99_991, 10 ** 6):
            bad = rank_scaling_reference(rt, m, limit, pt_wide)
            start = rank_scaling_threshold(m)
            assert rank_scaling_violations(rt, m, limit, pt_wide) == \
                [(m, n) for n in bad if n >= start]
            assert last_violation_below_threshold(rt, m, limit, pt_wide) == \
                max((n for n in bad if n < start), default=None)


def test_table_save_load_roundtrip(tmp_path, pt1m):
    rt = compute_first(100, pt1m)
    path = tmp_path / "ramanujan.rprt"
    rt.save(path)
    loaded = ramanujan_core.load(path, pt1m)
    assert np.array_equal(loaded.values, rt.values)
    assert np.array_equal(loaded.mask, rt.mask)
    assert loaded.scan_limit == rt.scan_limit
    assert loaded.complete_below == rt.complete_below


def test_saved_file_bytes_are_pinned(tmp_path):
    # the header's scan_limit and the mask bytes, which no value comparison reads
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 6))
    rt = compute_below(10 ** 6, pt)
    assert (rt.scan_limit, rt.count) == (1551190, 36960)
    rt.save(path := tmp_path / "ramanujan.rprt")
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "7597237bc98be64b91863850bcd67e6f97f11d6930861fb2107e0edb38ec7740"


@pytest.mark.parametrize("chunk", [ramanujan_core._WALK_CHUNK, 7])  # one decode step, or many
def test_loaded_masks_match_search(tmp_path, pt1m, monkeypatch, chunk):
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
    path = tmp_path / "ramanujan.rprt"
    compute_below(10 ** 4, pt1m).save(path)
    small = prime_core.build(3000)  # lists fewer primes than the file covers
    for loaded in (ramanujan_core.load(path, pt1m), ramanujan_core.load(path, small),
                   ramanujan_core.load(path, pt1m, below=1000),
                   ramanujan_core.load(path, pt1m).below(1000)):
        assert np.array_equal(loaded.values,
                              compute_below(loaded.complete_below, pt1m).values)
        assert_mask_is_search_mask(loaded, pt1m)
    assert ramanujan_core.load(path, small).complete_below == 3001
    assert ramanujan_core.load(path, pt1m, below=1000).complete_below == 1000


def test_load_peak_follows_the_step_not_the_list(tmp_path, rt_wide, pt_wide, monkeypatch):
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", 1 << 12)
    path = tmp_path / "ramanujan.rprt"
    rt_wide.below(10 ** 7).save(path)
    listed = pt_wide.primes_upto(10 ** 7 - 1)  # the prime list exists before tracing
    tracemalloc.start()
    try:
        loaded = ramanujan_core.load(path, pt_wide)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(loaded.values, rt_wide.values[: loaded.count])
    # beside the values (the mask bytes are a mapping, which tracemalloc does not
    # see), one decode step; unpacking the whole mask took one byte per listed
    # prime, 0.66 MB of a 1.17 MB peak here
    assert peak - loaded.values.nbytes < listed.size // 4, (peak, listed.size)


def test_a_mask_short_of_the_covered_primes_is_rejected(tmp_path, pt1m):
    # compute_below(1000) marks the 168 primes below 1000 in 21 bytes; without the
    # last, unpacking would read 947..997 as non-Ramanujan, and 947, 967, 983 are not
    rt = compute_below(1000, pt1m)
    path = tmp_path / "ramanujan.rprt"
    fields = [rt.scan_limit, rt.complete_below]
    table_file.write(path, ramanujan_core._MAGIC, fields + [rt.count - 1], rt.mask[:-1])
    with pytest.raises(ValueError, match="20 mask bytes do not cover the primes below 1000"):
        ramanujan_core.load(path, pt1m)
    assert ramanujan_core.load(path, pt1m, below=947).count == rt.count - 3  # p_160 = 941


@pytest.mark.parametrize("count, below", [(71, None), (73, None), (46, 600)],
                         ids=["fewer", "more", "fewer-than-the-decoded-prefix"])
def test_set_bits_that_do_not_match_the_count_are_rejected(tmp_path, pt1m, count, below):
    rt = compute_below(1000, pt1m)  # 72 values, 47 of them below 600
    path = tmp_path / "ramanujan.rprt"
    table_file.write(path, ramanujan_core._MAGIC, [rt.scan_limit, 1000, count], rt.mask)
    with pytest.raises(ValueError, match=f"set bits below {below or 1000} do not fit count"):
        ramanujan_core.load(path, pt1m, below=below)


# header layout: magic 0-3, version 4-7, byte count 8-15, scan_limit 16-23,
# complete_below 24-31, count 32-39, CRC32 40-43; tests/test_table_file.py covers
# the rejections shared with the prime table
@pytest.mark.parametrize("offset, mask, cut", [
    (15, 0xFF, 0),  # byte count near 2**64: rejected before any allocation
    (8, 0x01, 0),   # byte count one off
    (8, 0x00, 1),   # header intact, last mask byte cut off
])
def test_load_rejects_count_that_does_not_fit_payload(tmp_path, pt1m, offset, mask, cut):
    path = tmp_path / "ramanujan.rprt"
    compute_first(100, pt1m).save(path)
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data[: len(data) - cut]))
    with pytest.raises(ValueError):
        ramanujan_core.load(path, pt1m)


def test_bounds_report_fields():
    report = BoundsReport(n=5, ratio=Fraction(41, 47), argmax_n=5)
    assert report.ratio.numerator == 41
    assert report.ratio.denominator == 47


def test_load_rejects_values_failing_checksum(tmp_path, pt1m):
    path = tmp_path / "ramanujan.rprt"
    compute_first(100, pt1m).save(path)
    data = bytearray(path.read_bytes())
    data[HEADER_SIZE["ramanujan"] + 6] ^= 0x02  # p_50 = 229 = R_20 unmarked
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        ramanujan_core.load(path, pt1m)


def test_classified_mask_includes_a_ramanujan_prime_at_the_coverage_edge(pt1m):
    rt = compute_below(30, pt1m)  # classification ends at 29 = R_4
    primes = rt.classified_primes(pt1m)
    mask = mask_bits(rt.mask, 0, primes.size)
    assert primes[-1] == 29 and mask[-1]
    assert np.array_equal(mask, rt.membership_mask(primes))
