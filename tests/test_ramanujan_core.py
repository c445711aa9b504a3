import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramprimes import gap_analysis, prime_core, ramanujan_core
from ramprimes.errors import CoverageError, InternalConsistencyError
from ramprimes.ramanujan_core import (
    LAISHRAM_LIMIT,
    BoundsReport,
    RamanujanTable,
    compute_below,
    compute_first,
    last_violation_below_threshold,
    log_bound_failures,
    max_ratio,
    rank_scaling_threshold,
    rank_scaling_violations,
    verify_max_ratio_bound,
)
from test_prime_core import flags_between
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
    A second route to the production event walk, which never builds s(k)."""
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


@settings(max_examples=100, deadline=None)
@given(n=st.integers(min_value=1, max_value=400), block=st.integers(min_value=1, max_value=5000))
def test_any_block_size_matches_both_oracles(pt1m, oracle_1000, n, block):
    # block 1 starts every block on an event, so the first interval is empty
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ramanujan_core, "_SCAN_BLOCK", block)
        values = compute_first(n, pt1m).values
    assert values.tolist() == oracle_1000[0][:n]
    assert np.array_equal(values, blockwise_reference(n, pt1m, block))


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


def test_compute_below_golden(pt1m):
    assert compute_below(100, pt1m).values.tolist() == [
        2, 11, 17, 29, 41, 47, 59, 67, 71, 97,
    ]
    assert compute_below(3, pt1m).values.tolist() == [2]
    assert not compute_below(100, pt1m).values.flags.owndata  # a prefix view, not a copy


def test_compute_below_density_at_one_million(pt_wide):
    rt = compute_below(10 ** 6, pt_wide)
    ratio = rt.count / pt_wide.prime_count(10 ** 6 - 1)
    assert round(ratio, 3) == 0.471


def test_compute_below_two_is_empty(pt1m):
    rt = compute_below(2, pt1m)
    assert rt.count == 0
    assert rt.membership_mask(np.array([], dtype=np.int64)).size == 0
    assert rt.classified_primes(pt1m)[1].size == 0
    with pytest.raises(ValueError):
        rt.value(1)


def test_classified_primes_share_one_mask(rt_wide, pt_wide):
    primes, mask = rt_wide.classified_primes(pt_wide)
    assert np.array_equal(primes, pt_wide.primes_upto(rt_wide.complete_below - 1))
    assert np.array_equal(mask, rt_wide.membership_mask(primes))
    assert rt_wide.classified_primes(pt_wide)[1] is mask


def test_classified_primes_mask_is_read_only(rt_wide, pt_wide):
    _, mask = rt_wide.classified_primes(pt_wide)
    with pytest.raises(ValueError):
        mask[0] = False
    with pytest.raises(ValueError):
        mask[1:][:3] = True


def test_twin_index_lists_the_twin_pairs_read_only(rt_wide, pt_wide):
    primes, _ = rt_wide.classified_primes(pt_wide)
    twins = rt_wide.twin_index(pt_wide)
    # a second route: the flags say which listed primes p have p + 2 prime
    assert np.array_equal(twins, np.flatnonzero(pt_wide.is_prime_batch(primes[:-1] + 2)))
    assert rt_wide.twin_index(pt_wide) is twins
    with pytest.raises(ValueError):
        twins[0] = 0


def test_another_prime_table_rebuilds_each_derived_array_once(pt1m, monkeypatch):
    rt = compute_below(10 ** 5, pt1m)
    builds = []
    derived = rt.derived
    monkeypatch.setattr(rt, "derived", lambda primes, key, build: derived(
        primes, key, lambda: builds.append(key) or build()))

    def arrays(pt):
        return [rt.classified_primes(pt)[1], rt.twin_index(pt),
                *gap_analysis.twin_gap_table(rt, pt), rt.prime_ranks(pt)]

    first = arrays(pt1m)
    other = prime_core.build(pt1m.limit)
    second = arrays(other)
    assert all(x is not y and np.array_equal(x, y) for x, y in zip(first, second))
    assert all(x is y for x, y in zip(arrays(other), second))
    keys = ["mask", "twins", "twin_gaps", "ranks"]
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
    # each block lists its first prime twice: s overcounts by one from there on
    between = pt1m.primes_between
    monkeypatch.setattr(pt1m, "primes_between",
                        lambda lo, hi: np.concatenate([between(lo, hi)[:1], between(lo, hi)]))
    monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", 64)
    with pytest.raises(InternalConsistencyError, match="non-canonical") as exc:
        compute_first(300, pt1m)
    values = exc.traceback[-1].locals["values"]  # the list the final check rejected
    assert values[0] == 2  # so only the ordering can have failed
    assert int(np.sum(values[1:] <= values[:-1])) == 17


def test_block_size_does_not_change_results(pt1m, monkeypatch):
    baseline = compute_first(200, pt1m).values
    for block in (1, 2, 3, 64, 1 << 10, 1 << 14):
        monkeypatch.setattr(ramanujan_core, "_SCAN_BLOCK", block)
        assert np.array_equal(compute_first(200, pt1m).values, baseline)


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
        fresh = RamanujanTable(values=rt.values, scan_limit=rt.scan_limit,
                               complete_below=rt.complete_below)  # an empty memo
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
        fake = RamanujanTable(values=np.array([2, 11, r3, 29, 41]), scan_limit=0,
                              complete_below=42)
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
    rt = RamanujanTable(values=np.array([5, 13, 17, 29, 41]), scan_limit=41, complete_below=42)
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


def test_table_save_load_roundtrip(tmp_path, pt1m):
    rt = compute_first(100, pt1m)
    path = tmp_path / "ramanujan.rprt"
    rt.save(path)
    loaded = ramanujan_core.load(path)
    assert np.array_equal(loaded.values, rt.values)
    assert loaded.scan_limit == rt.scan_limit
    assert loaded.complete_below == rt.complete_below


# header layout: magic 0-3, version 4-7, count 8-15, scan_limit 16-23, complete_below 24-31,
# CRC32 32-35; tests/test_table_file.py covers the rejections shared with the prime table
@pytest.mark.parametrize("offset, mask, cut", [
    (15, 0xFF, 0),  # count near 2**64: rejected before any allocation
    (8, 0x01, 0),   # count one off
    (8, 0x00, 8),   # header intact, last value cut off
])
def test_load_rejects_count_that_does_not_fit_payload(tmp_path, pt1m, offset, mask, cut):
    path = tmp_path / "ramanujan.rprt"
    compute_first(100, pt1m).save(path)
    data = bytearray(path.read_bytes())
    data[offset] ^= mask
    path.write_bytes(bytes(data[: len(data) - cut]))
    with pytest.raises(ValueError):
        ramanujan_core.load(path)


def test_bounds_report_fields():
    report = BoundsReport(n=5, ratio=Fraction(41, 47), argmax_n=5)
    assert report.ratio.numerator == 41
    assert report.ratio.denominator == 47


def test_load_rejects_values_failing_checksum(tmp_path, pt1m):
    path = tmp_path / "ramanujan.rprt"
    compute_first(100, pt1m).save(path)
    data = bytearray(path.read_bytes())
    data[HEADER_SIZE["ramanujan"] + 8 * 50] ^= 0x02  # the low byte of R_51
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError, match="checksum"):
        ramanujan_core.load(path)


def test_classified_mask_includes_a_ramanujan_prime_at_the_coverage_edge(pt1m):
    rt = compute_below(30, pt1m)  # classification ends at 29 = R_4
    primes, mask = rt.classified_primes(pt1m)
    assert primes[-1] == 29 and mask[-1]
    assert np.array_equal(mask, rt.membership_mask(primes))
