"""Twin prime censuses split by Ramanujan membership, necessary-condition
checks for twin Ramanujan pairs, and reciprocal partial sums.

A pair (p, p+2) of primes is counted at a bound when its lesser member is
at or below the bound; that convention reproduces the reference decade
counts exactly and matches the usual twin-counting function.

Both condition checks read consecutive primes p < q, so pi(q) = pi(p) + 1 and
pi(p) - pi(p/2) + 1 == pi(q) - pi(q/2) reduces to pi(p/2) == pi(q/2): the prime
after p/2, listed at index pi(p/2), lies past q/2, one prime count and one list
read a pair. The reciprocal sums add each term's significand as an integer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError
from .prime_core import PrimeTable, search
from .ramanujan_core import RamanujanTable, mask_bits, walk

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
    """Lesser members of twin pairs with lesser <= bound, plus the Ramanujan
    bits of both members: read-only views of a prefix of the table's memoized
    twin table (`RamanujanTable.twin_pairs`), found by one search."""
    rt.coverage(pt, bound + 2)
    lesser, ram_lo, ram_hi = rt.twin_pairs(pt)
    n = int(search(lesser, bound, side="right"))
    return lesser[:n], ram_lo[:n], ram_hi[:n]


def twin_census(bound: int, rt: RamanujanTable, pt: PrimeTable) -> TwinCensus:
    """Count twin pairs below `bound` in the three membership classes."""
    if bound < 3:
        raise ValueError(f"bound must be >= 3, got {bound}")
    _, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    return TwinCensus(
        bound=bound,
        pi2=int(ram_lo.size),
        pi21=int(np.count_nonzero(ram_lo | ram_hi)),
        pi22=int(np.count_nonzero(ram_lo & ram_hi)),
    )


def lower_membership_violations(bound: int, rt: RamanujanTable, pt: PrimeTable) -> list[tuple[int, int]]:
    """Scan consecutive-prime pairs <= bound meeting the necessary condition
    with the larger prime Ramanujan; the smaller is then provably Ramanujan
    too, so any returned pair marks an implementation bug.
    """
    rt.coverage(pt, bound)
    listed = rt.classified_primes(pt)
    found = []
    for lo, hi in walk(0, int(search(listed, bound, side="right")) - 1):
        # only a pair with q Ramanujan and p not, where the mask rises, can be flagged
        i = lo + np.flatnonzero(np.diff(mask_bits(rt.mask, lo, hi + 1).view(np.int8)) == 1)
        p, q = listed[i], listed[i + 1]
        # the condition holds: the prime after p/2, at most p, lies past q/2
        bad = listed[pt.prime_count_batch(p // 2)] > q // 2
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
        # the condition fails: the prime after p/2 is at most (p + 2)/2
        bad = primes[pt.prime_count_batch(p // 2)] <= (p + 2) // 2
        found += [(x, x + 2) for x in p[bad].tolist()]
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
    lesser, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    # the state after the last pair with lesser <= 10^5 is the first one checked
    start = int(search(lesser, RATIO_CONJECTURE_MIN_BOUND, side="right")) - 1
    if start < 0:
        return True
    c21 = c22 = 0  # the counts carried in from the steps before
    for lo, hi in walk(0, lesser.size):
        pi21 = np.cumsum(ram_lo[lo:hi] | ram_hi[lo:hi], dtype=np.int64)
        pi21 += c21
        pi22 = np.cumsum(ram_lo[lo:hi] & ram_hi[lo:hi], dtype=np.int64)
        pi22 += c22
        at = max(start - lo, 0)
        if not _ratios_hold(np.arange(lo + 1 + at, hi + 1), pi21[at:], pi22[at:]).all():
            return False
        c21, c22 = int(pi21[-1]), int(pi22[-1])
    return True


def _exact_sum(steps) -> float:
    """`math.fsum` of the finite float64 arrays `steps` (+0.0 for zeros alone), with no
    Python float per term: each is +/-m * 2**(e - 1075), its bits read as the sign, the
    biased exponent e (1 for subnormals, with no implicit bit) and 52 bits of m, summed
    per sign and e, those present found by one scatter, in int64 halves of 26 bits, safe
    below 2**37 terms; the implicit bits are added, and the exact total is rounded once."""
    sums = {}
    for x in steps:
        bits = np.asarray(x, dtype=np.float64).view(np.int64)
        key, m = bits >> 52, bits & (1 << 52) - 1  # key: the sign and the biased exponent
        present = np.zeros(4096, dtype=bool)
        present[key + 2048] = True
        for k in (np.flatnonzero(present) - 2048).tolist():
            at, e = m[key == k], k & 0x7FF
            s = (int(np.sum(at >> 26)) << 26) + int(np.sum(at & 2**26 - 1)) + (at.size << 52 if e else 0)
            sums[max(e, 1)] = sums.get(max(e, 1), 0) + (-s if k < 0 else s)
    low = min(sums, default=0)
    total = sum(s << (e - low) for e, s in sums.items())
    return total / (1 << (1075 - low)) if low <= 1075 else float(total << (low - 1075))


def brun_partial(bound: int, kind: str, rt: RamanujanTable, pt: PrimeTable) -> BrunPartial:
    """Correctly rounded partial sum of twin reciprocals for one membership class."""
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    lesser, ram_lo, ram_hi = twin_pair_arrays(bound, rt, pt)
    keep = {KIND_ALL: slice(None), KIND_AT_LEAST_ONE: ram_lo | ram_hi,
            KIND_BOTH: ram_lo & ram_hi}[kind]
    ps = lesser[keep]
    # 1/p and 1/(p + 2) for each pair, a walk step of pairs at a time, as two rows, so
    # that each inner loop runs along the pairs; _exact_sum adds them in any order
    terms = (np.divide(1.0, x := ps[lo:hi] + ((0.0,), (2.0,)), out=x)
             for lo, hi in walk(0, ps.size))
    return BrunPartial(bound=bound, kind=kind, sum=_exact_sum(terms), terms=ps.size)
