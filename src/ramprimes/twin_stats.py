"""Twin prime censuses split by Ramanujan membership, necessary-condition
checks for twin Ramanujan pairs, and reciprocal partial sums.

A pair (p, p+2) of primes is counted at a bound when its lesser member is
at or below the bound; that convention reproduces the reference decade
counts exactly and matches the usual twin-counting function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .prime_core import PrimeTable
from .ramanujan_core import RamanujanTable

RATIO_CONJECTURE_MIN_BOUND = 10 ** 5

KIND_ALL = "all"
KIND_AT_LEAST_ONE = "at_least_one_ramanujan"
KIND_BOTH = "both_ramanujan"
_KINDS = (KIND_ALL, KIND_AT_LEAST_ONE, KIND_BOTH)


@dataclass
class TwinCensus:
    """Counts of twin pairs at a bound: all, one-or-both Ramanujan, both."""

    bound: int
    pi2: int
    pi21: int
    pi22: int


@dataclass
class BrunPartial:
    """Partial sum of 1/p + 1/(p+2) over qualifying twin pairs up to a bound."""

    bound: int
    kind: str
    sum: float
    terms: int


def twin_pair_arrays(bound: int, rt: RamanujanTable, pt: PrimeTable):
    """Lesser members of twin pairs with lesser <= bound, plus both masks,
    sliced from the Ramanujan table's twin index."""
    rt.coverage(pt, bound + 2)
    primes, mask = rt.classified_primes(pt)
    i = rt.twin_index(pt)
    i = i[: int(np.searchsorted(i, np.searchsorted(primes, bound, side="right")))]  # p <= bound
    return primes[i], mask[i], mask[i + 1]


def twin_census(bound: int, rt: RamanujanTable, pt: PrimeTable) -> TwinCensus:
    """Count twin pairs below `bound` in the three membership classes."""
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    _, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    return TwinCensus(
        bound=bound,
        pi2=int(ram_lo.size),
        pi21=int((ram_lo | ram_hi).sum()),
        pi22=int((ram_lo & ram_hi).sum()),
    )


def lower_membership_violations(bound: int, rt: RamanujanTable, pt: PrimeTable) -> list[tuple[int, int]]:
    """Scan consecutive-prime pairs <= bound meeting the necessary condition
    with the larger prime Ramanujan; the smaller is then provably Ramanujan
    too, so any returned pair marks an implementation bug.
    """
    rt.coverage(pt, bound)
    listed, mask = rt.classified_primes(pt)
    n = int(np.searchsorted(listed, bound, side="right"))
    # only a pair with q Ramanujan and p not can be flagged
    i = np.flatnonzero(mask[1:n] & ~mask[:n][:-1])
    p, q = listed[i], listed[i + 1]
    # p and q are consecutive primes, so pi(q) = pi(p) + 1 and the condition
    # pi(p) - pi(p/2) + 1 == pi(q) - pi(q/2) reduces to pi(p/2) == pi(q/2)
    bad = pt.prime_count_batch(p // 2) == pt.prime_count_batch(q // 2)
    return list(zip(p[bad].tolist(), q[bad].tolist()))


def twin_condition_violations(bound: int, pt: PrimeTable) -> list[tuple[int, int]]:
    """Twin pairs (p, p+2) with 5 < p <= bound violating the necessary
    condition; provably none exist.
    """
    if bound + 2 > pt.limit:
        raise CoverageError(f"scan to {bound} needs primes through {bound + 2}")
    primes = pt.primes_upto(bound + 2)
    pair = (primes[1:] - primes[:-1] == 2) & (primes[:-1] <= bound) & (primes[:-1] > 5)
    lo = primes[:-1][pair]
    hi = lo + 2
    lhs = pt.prime_count_batch(lo) - pt.prime_count_batch(lo // 2) + 1
    rhs = pt.prime_count_batch(hi) - pt.prime_count_batch(hi // 2)
    bad = np.flatnonzero(lhs != rhs)
    return [(int(lo[i]), int(hi[i])) for i in bad]


def check_one_sided_counts(bound: int, rt: RamanujanTable, pt: PrimeTable) -> bool:
    """True iff the census classes collapse as the one-sided counts.

    At every twin-pair event up to `bound`, pairs with one-or-both members
    Ramanujan must equal pairs whose smaller member is Ramanujan, and pairs
    with both Ramanujan must equal pairs whose larger member is. Running
    counts agree at every event exactly when each pair adds the same to both.
    """
    _, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    return np.array_equal(ram_lo | ram_hi, ram_lo) and np.array_equal(ram_lo & ram_hi, ram_hi)


def _ratios_hold(pi2, pi21, pi22):
    """pi21/pi2 < 4/5, pi22/pi2 > 2/5 and pi22/pi21 > 1/2 in integer arithmetic,
    elementwise when given count arrays."""
    return (5 * pi21 < 4 * pi2) & (5 * pi22 > 2 * pi2) & (2 * pi22 > pi21)


def _check_ratio_scope(bound: int) -> None:
    if bound < RATIO_CONJECTURE_MIN_BOUND:
        raise ValueError(
            f"the conjectured inequalities start at {RATIO_CONJECTURE_MIN_BOUND}, got {bound}"
        )


def ratio_inequalities_hold(bound: int, census: TwinCensus) -> bool:
    """The three strict ratio inequalities at one bound, compared exactly."""
    _check_ratio_scope(bound)
    return _ratios_hold(census.pi2, census.pi21, census.pi22)


def ratio_inequalities_strict(bound: int, rt: RamanujanTable, pt: PrimeTable) -> bool:
    """Event-driven variant: the inequalities must hold at every twin-pair
    count state from 10^5 up to `bound`, not just at decade snapshots.
    """
    _check_ratio_scope(bound)
    lesser, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    c2 = np.arange(1, lesser.size + 1, dtype=np.int64)
    c21 = np.cumsum((ram_lo | ram_hi).astype(np.int64))
    c22 = np.cumsum((ram_lo & ram_hi).astype(np.int64))
    start = int(np.searchsorted(lesser, RATIO_CONJECTURE_MIN_BOUND, side="right")) - 1
    if start < 0:
        return True
    return bool(_ratios_hold(c2[start:], c21[start:], c22[start:]).all())


def brun_partial(bound: int, kind: str, rt: RamanujanTable, pt: PrimeTable) -> BrunPartial:
    """Compensated partial sum of twin reciprocals for one membership class."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    lesser, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    keep = {KIND_ALL: slice(None), KIND_AT_LEAST_ONE: ram_lo | ram_hi,
            KIND_BOTH: ram_lo & ram_hi}[kind]
    ps = lesser[keep].astype(np.float64)
    recips = np.empty(2 * ps.size)
    recips[0::2] = 1.0 / ps
    recips[1::2] = 1.0 / (ps + 2.0)
    return BrunPartial(bound=bound, kind=kind, sum=math.fsum(recips.tolist()),
                       terms=ps.size)
