"""Twin prime censuses split by Ramanujan membership, necessary-condition
checks for twin Ramanujan pairs, and reciprocal partial sums.

A pair (p, p+2) of primes is counted at a bound when its lesser member is
at or below the bound; that convention reproduces the reference decade
counts exactly and matches the usual twin-counting function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import CoverageError
from .prime_core import PrimeTable, search
from .ramanujan_core import RamanujanTable, walk

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


def _twin_positions(bound: int, rt: RamanujanTable, pt: PrimeTable):
    """(the twin index cut to pairs with lesser <= bound, the classified primes, their mask)."""
    rt.coverage(pt, bound + 2)
    primes, mask = rt.classified_primes(pt)
    i = rt.twin_index(pt)
    return i[: int(search(i, search(primes, bound, side="right")))], primes, mask


def twin_pair_arrays(bound: int, rt: RamanujanTable, pt: PrimeTable):
    """Lesser members of twin pairs with lesser <= bound, plus both masks,
    sliced from the Ramanujan table's twin index."""
    i, primes, mask = _twin_positions(bound, rt, pt)
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
    found = []
    for lo, hi in walk(0, int(search(listed, bound, side="right")) - 1):
        # only a pair with q Ramanujan and p not can be flagged
        i = lo + np.flatnonzero(mask[lo + 1 : hi + 1] & ~mask[lo:hi])
        p, q = listed[i], listed[i + 1]
        # p and q are consecutive primes, so pi(q) = pi(p) + 1 and the condition
        # pi(p) - pi(p/2) + 1 == pi(q) - pi(q/2) reduces to pi(p/2) == pi(q/2)
        bad = pt.prime_count_batch(p // 2) == pt.prime_count_batch(q // 2)
        found += zip(p[bad].tolist(), q[bad].tolist())
    return found


def twin_condition_violations(bound: int, pt: PrimeTable) -> list[tuple[int, int]]:
    """Twin pairs (p, p+2) with 5 < p <= bound violating the necessary
    condition; provably none exist.
    """
    if bound + 2 > pt.limit:
        raise CoverageError(f"scan to {bound} needs primes through {bound + 2}")
    primes = pt.primes_upto(bound + 2)
    found = []
    for lo, hi in walk(0, primes.size - 1):
        p = primes[lo:hi]
        p = p[(primes[lo + 1 : hi + 1] - p == 2) & (p <= bound) & (p > 5)]
        lhs = pt.prime_count_batch(p) - pt.prime_count_batch(p // 2) + 1
        rhs = pt.prime_count_batch(p + 2) - pt.prime_count_batch((p + 2) // 2)
        found += [(x, x + 2) for x in p[lhs != rhs].tolist()]
    return found


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
    count state from 10^5 up to `bound`, not just at decade snapshots. The
    pairs are read a `walk` step at a time, with the counts carried across.
    """
    _check_ratio_scope(bound)
    i, primes, mask = _twin_positions(bound, rt, pt)
    # the state after the last pair with lesser <= 10^5 is the first one checked
    start = int(search(i, search(primes, RATIO_CONJECTURE_MIN_BOUND, side="right"))) - 1
    if start < 0:
        return True
    c21 = c22 = 0  # the counts carried in from the steps before
    for lo, hi in walk(0, i.size):
        ram_lo, ram_hi = mask[i[lo:hi]], mask[i[lo:hi] + 1]
        pi21 = np.cumsum(ram_lo | ram_hi, dtype=np.int64)
        pi21 += c21
        pi22 = np.cumsum(np.logical_and(ram_lo, ram_hi, out=ram_lo), dtype=np.int64)
        pi22 += c22
        at = max(start - lo, 0)
        if not _ratios_hold(np.arange(lo + 1 + at, hi + 1), pi21[at:], pi22[at:]).all():
            return False
        c21, c22 = int(pi21[-1]), int(pi22[-1])
    return True


def brun_partial(bound: int, kind: str, rt: RamanujanTable, pt: PrimeTable) -> BrunPartial:
    """Compensated partial sum of twin reciprocals for one membership class."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    lesser, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    keep = {KIND_ALL: slice(None), KIND_AT_LEAST_ONE: ram_lo | ram_hi,
            KIND_BOTH: ram_lo & ram_hi}[kind]
    ps = lesser[keep]
    # 1/p, 1/(p + 2) for each pair in turn, a walk step of pairs at a time, all
    # into one correctly rounded fsum: a sum of per-step fsums would not be
    terms = (np.divide(1.0, x := ps[lo:hi, None] + (0.0, 2.0), out=x).ravel().tolist()
             for lo, hi in walk(0, ps.size))
    return BrunPartial(bound=bound, kind=kind, sum=math.fsum(chain.from_iterable(terms)),
                       terms=ps.size)
