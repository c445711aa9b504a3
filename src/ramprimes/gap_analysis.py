"""Runs of odd Ramanujan primes and the prime gaps they pin down.

For a run of r consecutive primes that are all odd Ramanujan primes, from
p to q, every integer in [(p+1)/2, (q+1)/2] is composite. A run is "sharp"
when the integers just outside that interval are both prime. The single
even Ramanujan prime 2 takes no part in any of this.

Runs and their gaps are read by position from the classified prime list.
Maximal runs (`run_stats.blocks_below`) and the windows of `first_sharp_run`
are walked a step at a time from its mask, so the run checks keep only what
they report and build no rank memo. The halves
of a twin Ramanujan pair sit in a prime gap of length 5 or more.
`twin_gap_table` checks that for every covered pair, a step of pairs at a
time, and keeps the gaps in the table's memo; `twin_gap_check` answers one
pair from it in O(1), through a bucket directory over its lesser members.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InternalConsistencyError, NotFoundBelowBound
from .prime_core import PrimeTable, search, table_dtype
from .ramanujan_core import RamanujanTable, mask_bits, walk
from .run_stats import blocks_below

DEFAULT_SHARP_SEARCH_BOUND = 20_000_000


@dataclass
class GapRecord:
    """A run of odd Ramanujan primes with its associated composite interval."""

    run_start: int
    run_end: int
    run_length: int
    gap_lo: int
    gap_hi: int
    sharp: bool
    enclosing_gap: tuple[int, int] | None = None


def _gap_ends(pt: PrimeTable, primes: np.ndarray, lo, hi):
    """Ends a, b of the maximal prime gaps holding the prime-free [lo, hi],
    elementwise: the primes just outside it, found by rank in the ascending
    prime list `primes` from 2, which must hold a prime above each hi."""
    a = primes[pt.prime_count_batch(lo - 1) - 1] + 1
    b = primes[pt.prime_count_batch(hi)] - 1
    return a, b


def gap_for_run(start_index: int, run_length: int, rt: RamanujanTable, pt: PrimeTable) -> GapRecord:
    """Build and verify the gap record for the run of `run_length`
    consecutive primes beginning at the prime of rank `start_index`.

    The run is sliced from the classified primes and must consist of odd
    Ramanujan primes. The interval between the halved endpoints is checked
    against the flags; a prime there would contradict a proved fact, so it
    raises an internal-consistency error rather than a value error.
    """
    if run_length < 1 or start_index < 1:
        raise ValueError(f"rank {start_index} and run length {run_length} must be >= 1")
    primes = rt.classified_primes(pt)
    end = start_index + run_length - 1
    if end > primes.size:
        raise CoverageError(f"run p_{start_index}..p_{end} passes the classified primes")
    p, q = int(primes[start_index - 1]), int(primes[end - 1])
    if p == 2:
        raise ValueError("runs must consist of odd Ramanujan primes; 2 is excluded")
    if not all(mask_bits(rt.mask, lo, hi).all() for lo, hi in walk(start_index - 1, end)):
        raise ValueError(f"primes p_{start_index}..p_{end} are not all Ramanujan")
    gap_lo, gap_hi = (p + 1) // 2, (q + 1) // 2
    if pt.primes_between(gap_lo, gap_hi).size:
        raise InternalConsistencyError(
            f"prime found inside [{gap_lo}, {gap_hi}] for run ({p}, {q})"
        )
    # q is listed above gap_hi, and gap_lo > 2, so both gap ends are in the list
    a, b = map(int, _gap_ends(pt, primes, gap_lo, gap_hi))
    return GapRecord(
        run_start=p,
        run_end=q,
        run_length=run_length,
        gap_lo=gap_lo,
        gap_hi=gap_hi,
        sharp=(a, b) == (gap_lo, gap_hi),
        enclosing_gap=(a, b),
    )


def first_sharp_run(
    r: int,
    rt: RamanujanTable,
    pt: PrimeTable,
    search_bound: int = DEFAULT_SHARP_SEARCH_BOUND,
) -> int:
    """Smallest Ramanujan prime below `search_bound` starting r consecutive
    primes, all Ramanujan, whose halved endpoints are flanked by primes.

    Sub-runs of longer runs qualify: the run is not required to be maximal.
    The classified mask is walked a `walk` step of window starts at a time,
    each step reading the r - 1 bits past its end, and the walk stops at the
    first flanked window. A miss whose last window is cut off by the coverage
    edge, all Ramanujan, is a CoverageError.
    """
    if r < 1:
        raise ValueError(f"run length must be >= 1, got {r}")
    rt.coverage(pt, search_bound - 1)
    primes = rt.classified_primes(pt)
    # windows start at the positions 1..n - 1, past the even prime 2 and below the
    # bound. One starts at the i-th Ramanujan position of a step exactly when the
    # (i + r - 1)-th lies r - 1 on; a step's windows end before its end + r - 1
    n = int(search(primes, search_bound))
    for lo, hi in walk(1, n):
        ram = lo + np.flatnonzero(mask_bits(rt.mask, lo, min(hi + r - 1, primes.size)))
        k = max(ram.size - r + 1, 0)  # the positions that have r - 1 more after them
        starts = ram[:k][ram[r - 1 :] - ram[:k] == r - 1]
        flanked = (pt.is_prime_batch((primes[starts] + 1) // 2 - 1)
                   & pt.is_prime_batch((primes[starts + r - 1] + 1) // 2 + 1))
        if flanked.any():
            break
    else:
        # windows cut off by the end of the list start after every whole one, so
        # only a miss is in doubt: when the last window, from rank n >= 2, is
        # cut off with every prime listed in it Ramanujan
        if n + r - 1 > primes.size and n > 1 and mask_bits(rt.mask, n - 1, primes.size).all():
            raise CoverageError(f"a run from below {search_bound} is open at the coverage "
                                f"edge; extend tables past {primes[-1]}")
        raise NotFoundBelowBound(search_bound)
    record = gap_for_run(int(starts[flanked.argmax()]) + 1, r, rt, pt)  # re-validate it
    if not record.sharp:
        raise InternalConsistencyError("sharp candidate failed re-validation")
    return record.run_start


def _require_none(bad: np.ndarray, lesser: np.ndarray, what: str) -> None:
    """Raise for the first twin pair flagged in `bad`: a proved property failed."""
    hits = np.flatnonzero(bad)
    if hits.size:
        p = int(lesser[hits[0]])
        raise InternalConsistencyError(f"twin Ramanujan pair ({p}, {p + 2}): {what}")


def twin_gap_table(rt: RamanujanTable, pt: PrimeTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every classified twin Ramanujan pair (p, p + 2) with p > 3, as the
    ascending lesser members p and the ends a, b of the maximal prime gap
    holding the halved pair; each gap is checked to be at least 5 long.

    The case split behind the guarantee is verified along the way: writing
    p = 6k - 1, an even k puts the halved pair at the start of a five-wide
    composite stretch, while an odd k relies on (q+3)/2 being composite,
    which is forced by q being Ramanujan. Those stretches are read from the
    flags, the gap ends from prime counts, a `walk` step of pairs at a time. The
    three read-only arrays are built on first use and kept in the memo of `rt` for `pt`.
    """
    return rt.derived(pt, "twin_gaps", _build_twin_gaps)


def _build_twin_gaps(rt: RamanujanTable, pt: PrimeTable):
    primes = rt.classified_primes(pt)
    twins, ram_lo, ram_hi = rt.twin_pairs(pt)
    start = int(search(twins, 3, side="right"))  # the pairs with p > 3
    lesser = twins[start:][ram_lo[start:] & ram_hi[start:]]
    a, b = np.empty_like(lesser), np.empty_like(lesser)
    for lo, hi in walk(0, lesser.size):
        p = lesser[lo:hi]
        k, rem = np.divmod(p + 1, 6)
        _require_none(rem, p, "not of the form 6k -/+ 1")
        odd = (k & 1).astype(bool)
        _require_none(odd & pt.is_prime_batch((p + 5) // 2), p,
                      "(q+3)/2 prime despite q being Ramanujan")
        gap_lo = (p + 1) // 2  # = 3k; the halved pair is 3k, 3k + 1
        span = gap_lo - odd  # [gap_lo, gap_lo + 4] for even k, one lower for odd k
        inside = np.zeros(p.size, dtype=bool)
        for offset in range(5):
            inside |= pt.is_prime_batch(span + offset)
        _require_none(inside, p, "prime inside the expected five-wide composite span")
        # q = p + 2 is a listed prime above the halved pair, so the gap closes inside the list
        a[lo:hi], b[lo:hi] = _gap_ends(pt, primes, gap_lo, gap_lo + 1)
        _require_none(b[lo:hi] - a[lo:hi] + 1 < 5, p, "enclosing gap shorter than 5")
    return lesser, a, b


def _gap_lookup(rt: RamanujanTable, pt: PrimeTable):
    """`twin_gap_table` as memoryviews (lesser, a, b, first), the bucket count and `shift`:
    first[k] is the first row with lesser >= k << shift; the width 1 << shift, the least
    power of two above the lesser members' mean spacing, puts one or two rows in a bucket."""
    lesser, a, b = twin_gap_table(rt, pt)
    last = int(lesser[-1]) if lesser.size else 0
    shift = (last // max(lesser.size, 1)).bit_length()
    first = np.zeros((last >> shift) + 2, dtype=table_dtype(lesser.size))
    for lo, hi in walk(0, lesser.size):  # count each row one bucket on, then sum the counts
        np.add.at(first[1:], lesser[lo:hi] >> shift, first.dtype.type(1))  # a typed 1: 20x faster
    np.add.accumulate(first, out=first)
    first.setflags(write=False)
    return (*map(memoryview, (lesser, a, b, first)), first.size - 1, shift)


def twin_gap_check(p: int, q: int, rt: RamanujanTable, pt: PrimeTable) -> tuple[int, int]:
    """Maximal prime gap containing the halved endpoints of twin Ramanujan
    primes (p, q), read from `twin_gap_table`, which checked it: a hit reads p's
    bucket of one or two rows in the memoized `_gap_lookup`, as Python ints.
    """
    if q != p + 2:
        raise ValueError(f"({p}, {q}) is not a twin pair")
    if p <= 3:
        raise ValueError(f"twin gap analysis needs p > 3, got {p}")
    memo = rt._derived  # a hit reads the memo in place, with no derived() call
    lookup = memo.get("twin_gap_lookup") if memo.get("primes") is pt else None
    lesser, a, b, first, buckets, shift = lookup or rt.derived(pt, "twin_gap_lookup", _gap_lookup)
    k = p >> shift
    if k < buckets:  # row first[k] exists, and is p's when p is first in its bucket
        i = first[k]
        if lesser[i] == p:
            return a[i], b[i]
        end = first[k + 1]
        i = bisect_left(lesser, p, i + 1, end)
        if i < end and lesser[i] == p:
            return a[i], b[i]
    if not (pt.is_prime(p) and pt.is_prime(q)):
        raise ValueError(f"({p}, {q}) are not both prime")
    if not rt.membership_mask([p, q]).all():
        raise ValueError(f"({p}, {q}) are not both Ramanujan")
    raise InternalConsistencyError(f"twin Ramanujan pair ({p}, {q}) missing from the gap table")


def _odd_runs(rt: RamanujanTable, pt: PrimeTable, bound: int):
    """Maximal runs of consecutive primes that are all odd Ramanujan primes,
    starting below `bound`, a walk step at a time: (start ranks, start
    primes, end primes, lengths) as arrays. A block of either class still
    open at the coverage edge is a CoverageError."""
    rt.coverage(pt, bound - 1)
    primes = rt.classified_primes(pt)
    # the blocks of the primes past index 0, the even prime 2
    for starts, lengths, values in blocks_below(int(search(primes, bound)), rt.mask, primes, 1):
        starts, lengths = starts[values], lengths[values]
        yield starts + 1, primes[starts], primes[starts + lengths - 1], lengths


def half_point_violations(rt: RamanujanTable, pt: PrimeTable, bound: int) -> list[int]:
    """Odd Ramanujan primes R < bound whose (R+1)/2 is prime; provably none."""
    rt.coverage(pt, bound - 1)
    steps = (rt.values[lo:hi] for lo, hi in walk(1, int(search(rt.values, bound))))  # past R_1
    return [r for v in steps for r in v[pt.is_prime_batch((v + 1) // 2)].tolist()]


def run_interval_violations(rt: RamanujanTable, pt: PrimeTable, bound: int) -> list[tuple[int, int]]:
    """Maximal odd-Ramanujan runs below `bound` whose halved interval
    contains a prime; provably none. Checked with prime-count differences,
    a separate route from the flag scan in gap_for_run, as each walk step
    closes its runs.
    """
    bad = []
    for _, start_p, end_p, _ in _odd_runs(rt, pt, bound):
        lo, hi = (start_p + 1) // 2, (end_p + 1) // 2
        inside = pt.prime_count_batch(hi) > pt.prime_count_batch(lo - 1)
        bad += zip(start_p[inside].tolist(), end_p[inside].tolist())
    return bad
