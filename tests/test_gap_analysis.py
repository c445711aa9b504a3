import bisect
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramprimes import gap_analysis, prime_core, ramanujan_core, twin_stats
from ramprimes.errors import CoverageError, InternalConsistencyError, NotFoundBelowBound
from ramprimes.gap_analysis import (
    first_sharp_run,
    gap_for_run,
    half_point_violations,
    run_interval_violations,
    twin_gap_check,
    twin_gap_table,
)
from ramprimes.prime_core import mask_bits
from conftest import odd_runs, table_of
from test_prime_core import flags_between

# first sharp run of length r = 1..11 starts at... (OEIS A177804)
SHARP_STARTS = [11, 4919, 1439, 7187, 37547, 210143, 3376943, 663563,
                4429739, 17939627, 12034427]


@functools.cache
def sieve_flags(limit: int) -> np.ndarray:
    """Flags over [0, limit] from the independent one-shot sieve, read by the
    per-integer references below."""
    return prime_core.simple_sieve_flags(limit)


def walk_composite_interval(lo, hi, pt):
    """Reference for the enclosing gap: widen [lo, hi] one integer at a time."""
    flags = sieve_flags(pt.limit)
    a, b = lo, hi
    while a > 1 and not flags[a - 1]:
        a -= 1
    while b < pt.limit and not flags[b + 1]:
        b += 1
    if b == pt.limit:
        raise CoverageError(f"composite interval still open at table limit {pt.limit}")
    return a, b


def twin_gap_reference(p, q, rt, pt):
    """Reference for twin_gap_table: the per-pair check it replaced."""
    if q != p + 2:
        raise ValueError(f"({p}, {q}) is not a twin pair")
    if p <= 3:
        raise ValueError(f"twin gap analysis needs p > 3, got {p}")
    if not (pt.is_prime(p) and pt.is_prime(q)):
        raise ValueError(f"({p}, {q}) are not both prime")
    if not rt.membership_mask([p, q]).all():
        raise ValueError(f"({p}, {q}) are not both Ramanujan")
    k, rem = divmod(p + 1, 6)
    if rem:
        raise InternalConsistencyError(f"twin pair ({p}, {q}) not of the form 6k -/+ 1")
    gap_lo, gap_hi = (p + 1) // 2, (q + 1) // 2  # = 3k, 3k + 1
    if k % 2 == 0:
        span = (gap_lo, gap_lo + 4)
    else:
        if sieve_flags(pt.limit)[(q + 3) // 2]:
            raise InternalConsistencyError(
                f"(q+3)/2 = {(q + 3) // 2} prime despite {q} being Ramanujan"
            )
        span = (gap_lo - 1, gap_lo + 3)
    if flags_between(pt, *span).any():
        raise InternalConsistencyError(f"prime inside expected composite span {span}")
    a, b = walk_composite_interval(gap_lo, gap_hi, pt)
    if b - a + 1 < 5:
        raise InternalConsistencyError(
            f"enclosing gap ({a}, {b}) shorter than 5 for twins ({p}, {q})"
        )
    return a, b


def test_gap_for_single_prime_eleven(rt_wide, pt_wide):
    record = gap_for_run(5, 1, rt_wide, pt_wide)  # 11 is the 5th prime
    assert (record.run_start, record.run_end) == (11, 11)
    assert (record.gap_lo, record.gap_hi) == (6, 6)
    assert record.sharp  # 5 and 7 are prime
    assert record.enclosing_gap == (6, 6)


def test_gap_for_pair_run(rt_wide, pt_wide):
    record = gap_for_run(657, 2, rt_wide, pt_wide)  # (4919, 4931)
    assert (record.run_start, record.run_end) == (4919, 4931)
    assert (record.gap_lo, record.gap_hi) == (2460, 2466)
    assert record.sharp  # bounded by the primes 2459 and 2467
    assert pt_wide.primes_between(2460, 2466).size == 0


def test_gap_for_twin_run(rt_wide, pt_wide):
    record = gap_for_run(35, 2, rt_wide, pt_wide)  # (149, 151)
    assert (record.gap_lo, record.gap_hi) == (75, 76)
    assert not record.sharp
    assert record.enclosing_gap == (74, 78)


def test_gap_rejects_even_start(rt_wide, pt_wide):
    with pytest.raises(ValueError):
        gap_for_run(1, 1, rt_wide, pt_wide)  # the prime 2 is excluded


def test_gap_rejects_non_ramanujan_run(rt_wide, pt_wide):
    with pytest.raises(ValueError):
        gap_for_run(2, 1, rt_wide, pt_wide)  # 3 is not Ramanujan
    with pytest.raises(ValueError):
        gap_for_run(5, 3, rt_wide, pt_wide)  # 11, 13, 17: 13 is not Ramanujan


def test_first_sharp_runs_short(rt_wide, pt_wide):
    assert first_sharp_run(1, rt_wide, pt_wide) == 11
    assert first_sharp_run(2, rt_wide, pt_wide) == 4919
    assert first_sharp_run(3, rt_wide, pt_wide) == 1439


def test_first_sharp_run_full_sequence(rt_wide, pt_wide):
    found = [first_sharp_run(r, rt_wide, pt_wide) for r in range(1, 12)]
    assert found == SHARP_STARTS


def test_first_sharp_run_not_found(rt_wide, pt_wide):
    with pytest.raises(NotFoundBelowBound) as exc:
        first_sharp_run(2, rt_wide, pt_wide, search_bound=4000)
    assert exc.value.bound == 4000
    with pytest.raises(NotFoundBelowBound):
        first_sharp_run(40, rt_wide, pt_wide)


def sharp_window_walk(r, rt, pt, search_bound):
    """Reference for first_sharp_run: walk the classified primes from p_2 = 3
    and try each window of r that starts below the bound. A window of Ramanujan
    primes that runs past the list is open at the coverage edge."""
    rt.coverage(pt, search_bound - 1)
    primes = pt.primes_upto(rt.coverage(pt))
    primes, mask = primes.tolist(), mask_bits(rt.mask, 0, primes.size).tolist()
    for i in range(1, len(primes)):
        if primes[i] >= search_bound:
            break
        if not (mask[i] and all(mask[i : i + r])):
            continue
        if i + r > len(primes):
            raise CoverageError("a run is open at the coverage edge")
        p, q = primes[i], primes[i + r - 1]
        if pt.is_prime((p + 1) // 2 - 1) and pt.is_prime((q + 1) // 2 + 1):
            return p
    raise NotFoundBelowBound(search_bound)


def sharp_outcome(fn, *args):
    """The start `fn` returns, or which of its misses it raises."""
    try:
        return fn(*args)
    except NotFoundBelowBound as exc:
        return "not found", exc.bound
    except CoverageError as exc:
        return "open at the edge" if "open at the coverage edge" in str(exc) else "past the tables"


@pytest.fixture(scope="module")
def rt1m(pt_wide):
    return ramanujan_core.compute_below(10 ** 6, pt_wide)


@given(r=st.integers(1, 12), edge=st.integers(2, 10 ** 6),
       back=st.integers(0, 40) | st.integers(0, 10 ** 6))
@example(r=2, edge=4925, back=6)  # 4919, the last prime listed, opens a window of two
@example(r=3, edge=3, back=1)  # the prime 2 alone is listed, and starts no window
@example(r=4, edge=1722, back=2)  # the last window, from 1709, is cut off; 1709 is not Ramanujan
@settings(max_examples=100, deadline=None)
def test_first_sharp_run_matches_the_window_walk(rt1m, pt_wide, r, edge, back):
    rt = rt1m.below(edge)  # a memo of its own, classifying through edge - 1
    bound = max(2, edge + 1 - back)  # back = 0 reads one past the tables
    assert sharp_outcome(first_sharp_run, r, rt, pt_wide, bound) == \
        sharp_outcome(sharp_window_walk, r, rt, pt_wide, bound)


def test_first_sharp_run_certificate_revalidates(rt_wide, pt_wide):
    start = first_sharp_run(4, rt_wide, pt_wide)
    record = gap_for_run(pt_wide.prime_count(start), 4, rt_wide, pt_wide)
    assert record.run_start == start == 7187
    assert record.sharp


def test_twin_gap_check_reference_pairs(rt_wide, pt_wide):
    assert twin_gap_check(149, 151, rt_wide, pt_wide) == (74, 78)
    a, b = twin_gap_check(179, 181, rt_wide, pt_wide)
    assert (a, b) == (90, 96)
    assert type(a) is type(b) is int  # Python ints, not NumPy scalars
    assert b - a + 1 >= 5


def test_twin_gap_check_all_small_pairs(rt_wide, pt_wide):
    lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(10 ** 6, rt_wide, pt_wide)
    for p in lesser[ram_lo & ram_hi].tolist():
        a, b = twin_gap_check(p, p + 2, rt_wide, pt_wide)
        assert (a, b) == walk_composite_interval((p + 1) // 2, (p + 3) // 2, pt_wide)
        assert b - a + 1 >= 5
        assert a <= (p + 1) // 2 and (p + 3) // 2 <= b


def test_twin_gap_table_matches_the_per_pair_reference(rt_wide, pt_wide):
    bound = 10 ** 7
    lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(bound, rt_wide, pt_wide)
    pairs = lesser[ram_lo & ram_hi].tolist()
    table, a, b = twin_gap_table(rt_wide, pt_wide)
    n = len(pairs)
    assert n == 25629 and table[:n].tolist() == pairs
    assert int(table[n]) > bound  # the table runs on to the end of classification
    expected = [twin_gap_reference(p, p + 2, rt_wide, pt_wide) for p in pairs]
    assert list(zip(a[:n].tolist(), b[:n].tolist())) == expected


def test_twin_gap_table_is_built_once_and_read_only(pt1m, monkeypatch):
    rt = ramanujan_core.compute_below(10 ** 5, pt1m)
    first = twin_gap_table(rt, pt1m)
    # answering a pair needs neither a prime list nor a mask once the table exists
    monkeypatch.setattr(pt1m, "primes_between", None)
    monkeypatch.setattr(pt1m, "primes_upto", None)
    assert all(x is y for x, y in zip(twin_gap_table(rt, pt1m), first))
    assert twin_gap_check(149, 151, rt, pt1m) == (74, 78)
    for arr in first:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0
    monkeypatch.undo()
    # another prime table gets a table of its own, with the same contents
    other = twin_gap_table(rt, prime_core.build(pt1m.limit))
    assert other[0] is not first[0]
    assert all(np.array_equal(x, y) for x, y in zip(other, first))
    # and a hit for one prime table is none for another that classifies less
    p = next(p for p in first[0].tolist() if p > 50_000)
    assert twin_gap_check(p, p + 2, rt, pt1m) == twin_gap_reference(p, p + 2, rt, pt1m)
    with pytest.raises(ValueError, match=r"arguments outside \[0, 50000\]"):
        twin_gap_check(p, p + 2, rt, prime_core.build(50_000))


@pytest.mark.parametrize("narrow", [np.uint32, np.int64])
def test_twin_gap_check_reads_memoized_views_and_a_bucket_directory(pt1m, monkeypatch, narrow):
    monkeypatch.setattr(prime_core, "_NARROW", narrow)  # int64 stands in for tables past 2**32
    pt = prime_core.build(pt1m.limit)
    rt = ramanujan_core.compute_below(10 ** 5, pt)
    views = []
    monkeypatch.setattr(gap_analysis, "memoryview",
                        lambda arr: views.append(memoryview(arr)) or views[-1], raising=False)
    gaps = {(149, 151): (74, 78), (179, 181): (90, 96)}
    for (p, q), gap in list(gaps.items()) * 3:
        got = twin_gap_check(p, q, rt, pt)
        assert got == gap and all(type(end) is int for end in got)  # not NumPy scalars
    table = twin_gap_table(rt, pt)
    assert table[0].dtype == narrow
    assert len(views) == 4  # six calls, one view of each array and of the directory, made once
    assert all(view.readonly for view in views)
    for view, arr in zip(views, table):
        assert np.shares_memory(np.asarray(view), arr)
    # first[k] is the first row whose lesser member is at least k << shift, and
    # the buckets hold one to two rows on average
    lesser, first = table[0], np.asarray(views[3])
    shift = rt.derived(pt, "twin_gap_lookup", gap_analysis._gap_lookup)[-1]
    assert first.tolist() == np.searchsorted(lesser, np.arange(first.size) << shift).tolist()
    assert first.size - 1 <= lesser.size < 2 * (first.size - 1)


def test_twin_gap_check_returns_every_gap_table_row(rt_wide, pt_wide, monkeypatch):
    rows = list(zip(*(arr.tolist() for arr in twin_gap_table(rt_wide, pt_wide))))
    assert len(rows) == 49092
    searched = []  # the p that a hit searches for within its bucket
    monkeypatch.setattr(gap_analysis, "bisect_left",
                        lambda a, x, lo, hi: searched.append(x) or bisect.bisect_left(a, x, lo, hi))
    for p, a, b in rows:
        got = twin_gap_check(p, p + 2, rt_wide, pt_wide)
        assert got == (a, b) and type(got[0]) is type(got[1]) is int
    # a row first in its bucket is returned unsearched; both ways are taken
    shift = rt_wide.derived(pt_wide, "twin_gap_lookup", gap_analysis._gap_lookup)[-1]
    bucket = [p >> shift for p, _, _ in rows]
    assert searched == [row[0] for row, k, prev in zip(rows[1:], bucket[1:], bucket) if k == prev]
    assert 0 < len(searched) < len(rows) - len(searched)


@pytest.mark.parametrize("below", [150, 10 ** 5])  # the first row is 149's: none below 150
def test_twin_gap_check_misses_keep_their_messages_at_the_bucket_edges(pt1m, below):
    rt = ramanujan_core.compute_below(below, pt1m)
    lesser = twin_gap_table(rt, pt1m)[0].tolist()
    width = 1 << rt.derived(pt1m, "twin_gap_lookup", gap_analysis._gap_lookup)[-1]
    # p around each bucket's ends, below the first row's bucket, past the last bucket,
    # every twin pair not in the table, and past the classification and the prime table
    twins = twin_stats.twin_pair_arrays(below - 3, rt, pt1m)[0].tolist()
    edges = [k * width for k in range(max(lesser, default=0) // width + 3)]
    ps = ({p for e in edges + [rt.complete_below, pt1m.limit] for p in range(e - 8, e + 9)}
          | set(range(min(lesser, default=below) + 1)) | set(twins))
    hits = misses = 0
    for p in sorted(p for p in ps if p > 3):
        try:
            want = twin_gap_reference(p, p + 2, rt, pt1m)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                twin_gap_check(p, p + 2, rt, pt1m)
            assert str(got.value) == str(exc)
            misses += 1
        else:
            assert twin_gap_check(p, p + 2, rt, pt1m) == want
            hits += 1
    assert hits == len(lesser) and misses > len(twins) - hits


@pytest.mark.parametrize("extra, failure", [
    ([13], r"\(11, 13\): prime inside the expected five-wide composite span"),
    ([5, 7], r"\(5, 7\): \(q\+3\)/2 prime"),
])
def test_twin_gap_table_rejects_a_listed_non_ramanujan_twin(pt1m, extra, failure):
    true = ramanujan_core.compute_below(1000, pt1m)
    fake = table_of(np.sort(np.append(true.values, extra)), true.scan_limit, 1000)
    with pytest.raises(InternalConsistencyError, match=failure):
        twin_gap_table(fake, pt1m)
    with pytest.raises(InternalConsistencyError, match=failure):
        twin_gap_check(149, 151, fake, pt1m)


def test_gap_records_match_the_scalar_walk(rt_wide, pt_wide):
    ranks, _, _, lengths = odd_runs(rt_wide, pt_wide, 10 ** 5)
    for rank, r in zip(ranks.tolist(), lengths.tolist()):
        record = gap_for_run(rank, r, rt_wide, pt_wide)
        assert record.enclosing_gap == walk_composite_interval(
            record.gap_lo, record.gap_hi, pt_wide)


def test_run_past_the_classified_list_is_a_coverage_error(pt1m):
    rt = ramanujan_core.compute_below(30, pt1m)  # classification ends at 29 = R_4 = p_10
    # a run ending on the last listed prime still closes its gap inside the list
    record = gap_for_run(10, 1, rt, pt1m)
    assert (record.run_start, record.enclosing_gap) == (29, (14, 16))
    assert record.enclosing_gap == walk_composite_interval(15, 15, pt1m)
    for rank, r in ((10, 2), (11, 1)):  # 31 = p_11 lies past the list
        with pytest.raises(CoverageError, match=f"p_{rank}..p_{rank + r - 1}"):
            gap_for_run(rank, r, rt, pt1m)


def test_twin_gap_check_validation(rt_wide, pt_wide):
    with pytest.raises(ValueError, match="not both Ramanujan"):
        twin_gap_check(11, 13, rt_wide, pt_wide)  # 13 is not Ramanujan
    with pytest.raises(ValueError):
        twin_gap_check(3, 5, rt_wide, pt_wide)  # needs p > 3
    with pytest.raises(ValueError):
        twin_gap_check(11, 17, rt_wide, pt_wide)  # not twins
    # the reference's messages for a pair not prime, past complete_below, past the limit
    above = pt_wide.primes_between(rt_wide.complete_below, rt_wide.complete_below + 10 ** 4)
    p = int(above[np.flatnonzero(np.diff(above) == 2)[0]])
    limit = pt_wide.limit
    for pair, message in (((25, 27), "not both prime"), ((p, p + 2), "undecidable"),
                          ((limit + 1, limit + 3), "outside")):
        with pytest.raises(ValueError, match=message) as got:
            twin_gap_check(*pair, rt_wide, pt_wide)
        with pytest.raises(ValueError) as want:
            twin_gap_reference(*pair, rt_wide, pt_wide)
        assert str(got.value) == str(want.value)


def test_half_points_always_composite(rt_wide, pt_wide):
    assert half_point_violations(rt_wide, pt_wide, 10 ** 6) == []


def test_half_point_violations_reports_odd_values_below_the_bound(pt1m):
    # a false table: (5 + 1)/2 = 3 and (13 + 1)/2 = 7 are prime; R_1 = 2 is skipped
    fake = table_of([2, 5, 11, 13], scan_limit=0, complete_below=14)
    assert half_point_violations(fake, pt1m, 14) == [5, 13]
    assert half_point_violations(fake, pt1m, 13) == [5]
    assert half_point_violations(fake, pt1m, 3) == []


def test_run_intervals_always_composite(rt_wide, pt_wide):
    assert run_interval_violations(rt_wide, pt_wide, 10 ** 6) == []


def test_runs_enumeration_shape(rt_wide, pt_wide):
    ranks, start_p, end_p, lengths = odd_runs(rt_wide, pt_wide, 1000)
    assert start_p[0] == 11  # first odd Ramanujan prime
    assert np.all(end_p >= start_p)
    assert np.all(lengths >= 1)
    # runs of consecutive primes: rank difference matches the length
    assert np.array_equal(pt_wide.prime_count_batch(start_p) - 1 + lengths,
                          pt_wide.prime_count_batch(end_p))


def test_long_run_chains_like_its_sub_runs(rt_wide, pt_wide):
    # a run's interval is exactly the chain of its length-2 sub-run intervals
    ranks, start_p, end_p, lengths = odd_runs(rt_wide, pt_wide, 10 ** 4)
    i = int(np.flatnonzero(lengths >= 4)[0])
    rank, r = int(ranks[i]), int(lengths[i])
    full = gap_for_run(rank, r, rt_wide, pt_wide)
    subs = [gap_for_run(rank + j, 2, rt_wide, pt_wide) for j in range(r - 1)]
    assert subs[0].gap_lo == full.gap_lo
    assert subs[-1].gap_hi == full.gap_hi
    for left, right in zip(subs, subs[1:]):
        assert left.gap_hi == right.gap_lo


def test_gap_for_run_rejects_a_prime_inside_the_halved_run(pt1m):
    # a made-up table calling 11 and 13 Ramanujan: 7 = (13 + 1) / 2 ends the gap [6, 7]
    fake = table_of([2, 11, 13], scan_limit=0, complete_below=14)
    with pytest.raises(InternalConsistencyError, match=r"prime found inside \[6, 7\]"):
        gap_for_run(5, 2, fake, pt1m)
