"""Runs of odd Ramanujan primes and the prime gaps they pin down.

For a run of r consecutive primes that are all odd Ramanujan primes, from
p to q, every integer in [(p+1)/2, (q+1)/2] is composite. A run is "sharp"
when the integers just outside that interval are both prime. The single
even Ramanujan prime 2 takes no part in any of this.

Runs and their gaps are read by position from the classified prime list
and the run-length encoding of its mask (`run_stats.run_blocks`). The halves
of a twin Ramanujan pair sit in a prime gap of length 5 or more.
`twin_gap_table` checks that for every covered pair at once and keeps the
gaps in the table's memo; `twin_gap_check` answers one pair from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, InternalConsistencyError, NotFoundBelowBound
from .prime_core import PrimeTable
from .ramanujan_core import RamanujanTable
from .run_stats import blocks_below, run_blocks

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


def _gap_ends(primes: np.ndarray, lo, hi):
    """Ends a, b of the maximal prime gaps holding the prime-free [lo, hi],
    elementwise, read from the ascending prime list `primes`. The list must
    hold a prime below each lo and one above each hi."""
    a = primes[np.searchsorted(primes, lo) - 1] + 1
    b = primes[np.searchsorted(primes, hi, side="right")] - 1
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
    primes, mask = rt.classified_primes(pt)
    end = start_index + run_length - 1
    if end > primes.size:
        raise CoverageError(f"run p_{start_index}..p_{end} passes the classified primes")
    p, q = int(primes[start_index - 1]), int(primes[end - 1])
    if p == 2:
        raise ValueError("runs must consist of odd Ramanujan primes; 2 is excluded")
    if not mask[start_index - 1 : end].all():
        raise ValueError(f"primes p_{start_index}..p_{end} are not all Ramanujan")
    gap_lo, gap_hi = (p + 1) // 2, (q + 1) // 2
    if pt.primes_between(gap_lo, gap_hi).size:
        raise InternalConsistencyError(
            f"prime found inside [{gap_lo}, {gap_hi}] for run ({p}, {q})"
        )
    # q is listed above gap_hi, and gap_lo > 2, so both gap ends are in the list
    a, b = map(int, _gap_ends(primes, gap_lo, gap_hi))
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
    """
    if r < 1:
        raise ValueError(f"run length must be >= 1, got {r}")
    rt.coverage(pt, search_bound - 1)
    primes, mask = rt.classified_primes(pt)
    # windows start below index n, so they end before n + r - 1; the blocks are
    # read from index 1, past the even prime 2. A Ramanujan block of b >= r
    # primes from s holds the b - r + 1 windows starting at s .. s + b - r
    n = int(np.searchsorted(primes, search_bound))
    starts, lengths, values = run_blocks(mask[1 : n + r - 1])
    keep = values & (lengths >= r)
    counts = lengths[keep] - r + 1
    before = np.cumsum(counts) - counts  # windows listed ahead of each block
    starts = np.repeat(starts[keep] + 1 - before, counts) + np.arange(counts.sum())
    lo = (primes[starts] + 1) // 2
    hi = (primes[starts + r - 1] + 1) // 2
    hits = np.flatnonzero(pt.is_prime_batch(lo - 1) & pt.is_prime_batch(hi + 1))
    if hits.size == 0:
        # windows cut off by the end of the list start after every whole one, so
        # only a miss is in doubt, and only when the last listed prime is Ramanujan
        if n + r - 1 > primes.size and mask[-1]:
            raise CoverageError(f"a run from below {search_bound} is open at the coverage "
                                f"edge; extend tables past {primes[-1]}")
        raise NotFoundBelowBound(search_bound)
    record = gap_for_run(int(starts[hits[0]]) + 1, r, rt, pt)  # re-validate the certificate
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
    flags, the gap ends from the prime list. The three read-only arrays are
    built on first use and kept in the memo of `rt` for `pt`.
    """
    return rt.derived(pt, "twin_gaps", lambda: _build_twin_gaps(rt, pt))


def _build_twin_gaps(rt: RamanujanTable, pt: PrimeTable):
    primes, mask = rt.classified_primes(pt)
    i = rt.twin_index(pt)
    lesser = primes[i[mask[i] & mask[i + 1] & (primes[i] > 3)]]
    k, rem = np.divmod(lesser + 1, 6)
    _require_none(rem, lesser, "not of the form 6k -/+ 1")
    odd = (k & 1).astype(bool)
    _require_none(odd & pt.is_prime_batch((lesser + 5) // 2), lesser,
                  "(q+3)/2 prime despite q being Ramanujan")
    gap_lo = (lesser + 1) // 2  # = 3k; the halved pair is 3k, 3k + 1
    span = gap_lo - odd  # [gap_lo, gap_lo + 4] for even k, one lower for odd k
    inside = np.zeros(lesser.size, dtype=bool)
    for offset in range(5):
        inside |= pt.is_prime_batch(span + offset)
    _require_none(inside, lesser, "prime inside the expected five-wide composite span")
    # q = p + 2 is a listed prime above the halved pair, so the gap closes inside the list
    a, b = _gap_ends(primes, gap_lo, gap_lo + 1)
    _require_none(b - a + 1 < 5, lesser, "enclosing gap shorter than 5")
    return lesser, a, b


def twin_gap_check(p: int, q: int, rt: RamanujanTable, pt: PrimeTable) -> tuple[int, int]:
    """Maximal prime gap containing the halved endpoints of twin Ramanujan
    primes (p, q), read from `twin_gap_table`, which checked it.
    """
    if q != p + 2:
        raise ValueError(f"({p}, {q}) is not a twin pair")
    if p <= 3:
        raise ValueError(f"twin gap analysis needs p > 3, got {p}")
    lesser, a, b = twin_gap_table(rt, pt)
    i = int(np.searchsorted(lesser, p))
    if i < lesser.size and lesser[i] == p:
        return int(a[i]), int(b[i])
    if not (pt.is_prime(p) and pt.is_prime(q)):
        raise ValueError(f"({p}, {q}) are not both prime")
    if not rt.membership_mask([p, q]).all():
        raise ValueError(f"({p}, {q}) are not both Ramanujan")
    raise InternalConsistencyError(f"twin Ramanujan pair ({p}, {q}) missing from the gap table")


def odd_ramanujan_runs(rt: RamanujanTable, pt: PrimeTable, bound: int):
    """Maximal runs of consecutive primes that are all odd Ramanujan primes,
    restricted to runs starting below `bound`.

    Returns (start ranks, start primes, end primes, lengths) as arrays. A
    block of either class still open at the coverage edge is a CoverageError.
    """
    rt.coverage(pt, bound - 1)
    primes, mask = rt.classified_primes(pt)
    starts, lengths, values = run_blocks(mask[1:])  # skip index 0, the even prime 2
    starts += 1
    keep = np.flatnonzero(values[: blocks_below(bound, primes, starts)])
    starts, lengths = starts[keep], lengths[keep]  # frees the full RLE early
    return starts + 1, primes[starts], primes[starts + lengths - 1], lengths


def half_point_violations(rt: RamanujanTable, pt: PrimeTable, bound: int) -> list[int]:
    """Odd Ramanujan primes R < bound whose (R+1)/2 is prime; provably none."""
    rt.coverage(pt, bound - 1)
    values = rt.values[(rt.values < bound) & (rt.values > 2)]
    if values.size == 0:
        return []
    half = (values + 1) // 2
    bad = pt.is_prime_batch(half)
    return [int(v) for v in values[bad]]


def run_interval_violations(rt: RamanujanTable, pt: PrimeTable, bound: int) -> list[tuple[int, int]]:
    """Maximal odd-Ramanujan runs below `bound` whose halved interval
    contains a prime; provably none. Checked with prime-count differences,
    a separate route from the flag scan in gap_for_run.
    """
    _, start_p, end_p, _ = odd_ramanujan_runs(rt, pt, bound)
    if start_p.size == 0:
        return []
    lo = (start_p + 1) // 2
    hi = (end_p + 1) // 2
    inside = pt.prime_count_batch(hi) - pt.prime_count_batch(lo - 1)
    bad = np.flatnonzero(inside > 0)
    return [(int(start_p[i]), int(end_p[i])) for i in bad]
