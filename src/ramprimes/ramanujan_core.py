"""Ramanujan primes: the interval-count scan, the prime-index map, and
verifiers for the bound results.

The n-th Ramanujan prime R_n is the smallest integer such that every
x >= R_n has at least n primes in (x/2, x]. Writing s(k) for the number
of primes in (k/2, k], R_n equals 1 plus the largest k with s(k) = n - 1,
and the scan only has to run to the (3n)-th prime because R_n is known to
stay below it. s changes only at a prime p (+1) and at 2q for a prime q
(-1), so the scan steps from event to event rather than over every integer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import table_file
from .errors import CoverageError, InternalConsistencyError
from .prime_core import PrimeTable

# floor((10/3)**10). Above this index the ratio R_n/p_3n is provably below
# 13/15, so an exhaustive check up to here settles the maximum.
LAISHRAM_LIMIT = 169350

_MAGIC = b"RPRT"

_SCAN_BLOCK = 1 << 20  # integers per scan block; the block size bounds peak RSS


def nth_prime_upper(k: int) -> int:
    """Rosser-style upper bound for the k-th prime, used to size sieves."""
    if k < 6:
        return 14
    lk = math.log(k)
    return int(k * (lk + math.log(lk))) + 1


def prime_limit_for_count(n: int) -> int:
    """Sieve limit guaranteed to cover the scan for the first n Ramanujan primes."""
    return nth_prime_upper(3 * max(n, 1))


def prime_limit_for_below(x: int) -> int:
    """Sieve limit guaranteed to cover compute_below(x)."""
    if x < 60184:
        pi_upper = int(1.3 * x / math.log(max(x, 3))) + 10
    else:
        pi_upper = int(x / (math.log(x) - 1.1)) + 1
    return max(prime_limit_for_count(pi_upper // 2 + 2), 300)


def rank_scaling_threshold(m: int) -> int:
    """Index N(m) from which pi(R_mn) <= m*pi(R_n) is conjectured to hold.

    These are the paper's thresholds, kept as the conjecture's statement
    rather than derived from the data. Acceptance criterion 09 shows each
    is sharp: below 1e7 the last violating n is N(m) - 1.
    """
    if m < 1:
        raise ValueError(f"multiplier must be >= 1, got {m}")
    if m == 1:
        return 1
    if m == 2:
        return 1245
    if m <= 4:
        return 189
    if m <= 6:
        return 85
    if m <= 19:
        return 10
    return 2


@dataclass
class RamanujanTable:
    """Ordered Ramanujan primes R_1..R_count with derived lookups.

    `scan_limit` is the highest k the construction examined. Membership
    queries are decidable only for primes below `complete_below`: every
    Ramanujan prime under that bound is present, so absence means
    non-Ramanujan there and is unknown beyond it.
    """

    values: np.ndarray
    scan_limit: int
    complete_below: int
    _derived: dict = field(default_factory=dict, init=False, repr=False)  # see derived()

    @property
    def count(self) -> int:
        return len(self.values)

    def value(self, n: int) -> int:
        if not 1 <= n <= self.count:
            raise ValueError(f"index {n} outside [1, {self.count}]")
        return int(self.values[n - 1])

    def membership_mask(self, primes) -> np.ndarray:
        """Boolean Ramanujan mask over an ascending array of primes."""
        v = np.asarray(primes, dtype=np.int64)
        if v.size and int(v[-1]) >= self.complete_below:
            raise ValueError(
                f"membership above {self.complete_below - 1} undecidable with this table"
            )
        if self.count == 0:
            return np.zeros(v.shape, dtype=bool)
        idx = np.clip(np.searchsorted(self.values, v), 0, self.count - 1)
        return self.values[idx] == v

    def coverage(self, primes: PrimeTable, through: int | None = None) -> int:
        """The largest integer this table and `primes` both classify. The one
        coverage rule: an analytic reading the integers up to `through` passes
        it here, and gets a CoverageError if that lies past them. Builds nothing."""
        cov = min(primes.limit, self.complete_below - 1)
        if through is not None and through > cov:
            raise CoverageError(f"needs primes classified through {through}; "
                                f"the tables classify through {cov}")
        return cov

    def derived(self, primes: PrimeTable, key: str, build):
        """The array, or tuple of arrays, that `build()` returns, made read-only
        and kept under `key` for `primes`. The memo holds one prime table at a
        time, under "primes": passing another starts it afresh."""
        if self._derived.get("primes") is not primes:
            self._derived = {"primes": primes}
        if key not in self._derived:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                arr.setflags(write=False)
            self._derived[key] = value
        return self._derived[key]

    def classified_primes(self, primes: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
        """Every prime both tables can classify, with its memoized, read-only
        Ramanujan mask. The primes from 2 to any covered bound are a prefix
        of this list, so callers slice the mask instead of classifying again."""
        cov = self.coverage(primes)
        listed = primes.primes_upto(cov)

        def build():
            mask = np.zeros(listed.size, dtype=bool)
            kept = self.values[: int(np.searchsorted(self.values, cov, side="right"))]
            mask[np.searchsorted(listed, kept)] = True
            return mask

        return listed, self.derived(primes, "mask", build)

    def twin_index(self, primes: PrimeTable) -> np.ndarray:
        """Memoized, read-only positions i in the classified list with
        listed[i + 1] == listed[i] + 2: the lesser members of twin pairs."""
        return self.derived(primes, "twins", lambda: np.flatnonzero(
            np.diff(self.classified_primes(primes)[0]) == 2))

    def prime_ranks(self, primes: PrimeTable) -> np.ndarray:
        """pi(R_n) for every n, memoized: R_n is the n-th prime the classified mask marks."""
        def build():
            ranks = np.flatnonzero(self.classified_primes(primes)[1]) + 1
            if ranks.size < self.count:
                raise CoverageError(f"R_{ranks.size + 1} lies past the primes to {primes.limit}")
            return ranks
        return self.derived(primes, "ranks", build)

    def save(self, path) -> None:
        table_file.write(path, _MAGIC, [self.scan_limit, self.complete_below],
                         np.ascontiguousarray(self.values, dtype=np.int64))


def load(path) -> RamanujanTable:
    (scan_limit, complete_below), values = table_file.read(path, _MAGIC, 2, np.int64)
    return RamanujanTable(values=values, scan_limit=scan_limit, complete_below=complete_below)


@dataclass
class BoundsReport:
    """Result of a bound check: the exact ratio R_n/p_3n at its argmax n."""

    n: int
    ratio: Fraction
    argmax_n: int | None = None


def compute_first(n: int, primes: PrimeTable) -> RamanujanTable:
    """Compute R_1..R_n by walking the events of the interval prime counts s(k).

    Conceptually the scan walks k = 1 .. p_3n - 1 keeping a counter that
    gains one when k is prime and loses one when k is even with k/2 prime,
    recording for each value v the last k where the counter equals v; R_{v+1}
    is that k plus one. Here the walk runs blockwise from the right and moves
    from event to event: the primes and the doubled primes 2q of a block,
    merged by one stable sort. Since s moves by at most 1 per event, its
    suffix minimum is a staircase whose step from v to v+1 sits at the end
    of the last event interval with suffix minimum v.
    """
    if n < 1:
        raise ValueError(f"count must be >= 1, got {n}")
    if primes.total_primes < 3 * n:
        raise CoverageError(
            f"scan needs primes through p_{3 * n} (about {nth_prime_upper(3 * n)}); "
            f"table covers only {primes.limit}"
        )
    top = primes.nth_prime(3 * n) - 1
    values = np.zeros(n, dtype=np.int64)
    carry = None  # min of s over every k already walked, all to the right
    for lo in range(1 + _SCAN_BLOCK * ((top - 1) // _SCAN_BLOCK), 0, -_SCAN_BLOCK):
        hi = min(lo + _SCAN_BLOCK - 1, top)
        up = primes.primes_between(lo, hi)
        events = np.concatenate([up, 2 * primes.primes_between((lo + 1) // 2, hi // 2)])
        order = np.argsort(events, kind="stable")  # one merge of two sorted runs
        # s[i] holds from starts[i] to starts[i + 1] - 1; interval 0 is empty when
        # an event sits at lo, and the last entry stands for the walk right of hi
        starts = np.concatenate([[lo], events[order], [hi + 1]])
        s = np.empty(starts.size, dtype=np.int64)
        s[0] = primes.prime_count(lo - 1) - primes.prime_count((lo - 1) // 2)
        np.cumsum(2 * (order < up.size).view(np.int8) - 1, out=s[1:-1])  # +1 at p, -1 at 2q
        s[1:-1] += s[0]
        s[-1] = s[-2] + 1 if carry is None else carry
        np.minimum(s, n, out=s)  # R_{v+1} is wanted only for v < n
        m = np.minimum.accumulate(s[::-1])[::-1]
        rise = np.flatnonzero(m[1:] != m[:-1])  # each step of the staircase is +1
        values[m[rise]] = starts[rise + 1]  # R_{v+1} = 1 + last k with s(k) = v
        carry = int(m[0])
        if carry == 0:
            break
    if values[0] != 2 or np.any(values[1:] <= values[:-1]):
        raise InternalConsistencyError("scan produced a non-canonical value list")
    return RamanujanTable(values=values, scan_limit=top,
                          complete_below=int(values[-1]) + 1)


def compute_below(x: int, primes: PrimeTable) -> RamanujanTable:
    """All Ramanujan primes < x.

    Sizing: with n = ceil(pi(x)/2) + 1 the n-th Ramanujan prime already
    exceeds p_2n >= p_{pi(x)+2} > x, so computing the first n and keeping
    the values below x loses nothing.
    """
    if x < 2:
        raise ValueError(f"bound must be >= 2, got {x}")
    if x > primes.limit:
        raise CoverageError(f"bound {x} beyond table limit {primes.limit}")
    n = -(-primes.prime_count(x) // 2) + 1
    table = compute_first(n, primes)
    if int(table.values[-1]) < x:
        raise InternalConsistencyError("sizing bound failed to clear the cutoff")
    kept = table.values[: int(np.searchsorted(table.values, x))]
    return RamanujanTable(values=kept, scan_limit=table.scan_limit, complete_below=x)


def log_bound_failures(table: RamanujanTable, max_n: int, primes: PrimeTable) -> list[int]:
    """Every 1 < n <= max_n at which 2n log 2n < p_2n < R_n < 4n log 4n < p_4n fails.

    The real-valued bounds are evaluated in double precision; each
    comparison must clear a relative margin of 1e-6 so rounding cannot
    flip it, otherwise the check refuses to answer.
    """
    if max_n > table.count:
        raise ValueError(f"index {max_n} outside [1, {table.count}]")
    if primes.total_primes < 4 * max_n:
        raise CoverageError(f"needs p_{4 * max_n}; table covers only {primes.limit}")
    n = np.arange(2, max_n + 1, dtype=np.int64)
    r_n = table.values[n - 1]
    p2n, p4n = primes.nth_prime_batch(2 * n), primes.nth_prime_batch(4 * n)
    lo, hi = 2 * n * np.log(2 * n), 4 * n * np.log(4 * n)
    for a, b in ((lo, p2n), (r_n, hi), (hi, p4n)):
        close = np.flatnonzero(np.abs(b - a) <= 1e-6 * np.maximum(np.abs(a), np.abs(b)))
        if close.size:
            raise InternalConsistencyError(f"margin too small to compare {a[close[0]]} and "
                                           f"{b[close[0]]} in double precision")
    ok = (lo < p2n) & (p2n < r_n) & (r_n < hi) & (hi < p4n)
    return n[~ok].tolist()


def max_ratio(
    table: RamanujanTable,
    range_end: int,
    exclusions: set[int],
    primes: PrimeTable,
) -> BoundsReport:
    """Exact argmax of R_n/p_3n over 1 <= n <= range_end, n not excluded.

    A floating-point argmax only picks the first candidate; the answer is
    settled by cross-multiplication on integers. The maximum is unique
    because the p_3n are distinct primes exceeding R_n, making all the
    ratios distinct, so a tie at the maximum raises.
    """
    if range_end < 1 or range_end > table.count:
        raise ValueError(f"range_end {range_end} outside [1, {table.count}]")
    idx = np.arange(1, range_end + 1, dtype=np.int64)
    if exclusions:
        idx = idx[~np.isin(idx, np.fromiter(exclusions, dtype=np.int64))]
    if idx.size == 0:
        raise ValueError("no indices left after exclusions")
    r = table.values[idx - 1]
    p3 = primes.nth_prime_batch(3 * idx)
    if int(r[-1]) >= 3_000_000_000 or int(p3[-1]) >= 3_000_000_000:
        raise ValueError("values too large for exact 64-bit cross-multiplication")
    best = int(np.argmax(r / p3))  # a floating-point guess, refined exactly
    while True:
        lhs, rhs = r * int(p3[best]), int(r[best]) * p3  # r_j / p3_j against the best
        beats = np.flatnonzero(lhs > rhs)
        if beats.size == 0:
            break
        best = int(beats[np.argmax(r[beats] / p3[beats])])
    ties = np.flatnonzero(lhs == rhs)
    if ties.size > 1:
        j = int(ties[ties != best][0])
        raise InternalConsistencyError(f"ratio tie between n={int(idx[j])} and n={int(idx[best])}")
    n_best = int(idx[best])
    return BoundsReport(
        n=n_best,
        ratio=Fraction(int(r[best]), int(p3[best])),
        argmax_n=n_best,
    )


def verify_max_ratio_bound(table: RamanujanTable, primes: PrimeTable) -> bool:
    """Exhaustively confirm that R_5/p_15 = 41/47 is the unique maximum.

    True iff 15*R_n < 13*p_3n for every n <= LAISHRAM_LIMIT except n = 5,
    and R_5/p_15 equals 41/47 exactly. Beyond LAISHRAM_LIMIT the 13/15
    bound holds by theory, so this finite check settles the maximum.
    """
    if table.count < LAISHRAM_LIMIT:
        raise CoverageError(
            f"needs the first {LAISHRAM_LIMIT} Ramanujan primes, table has {table.count}"
        )
    n = np.arange(1, LAISHRAM_LIMIT + 1, dtype=np.int64)
    r = table.values[:LAISHRAM_LIMIT]
    p3 = primes.nth_prime_batch(3 * n)
    below = 15 * r < 13 * p3
    below[4] = True  # n = 5 is the one allowed exception
    return bool(below.all()) and 47 * table.value(5) == 41 * primes.nth_prime(15)


def _rank_scaling_failures(table, m, limit, primes) -> np.ndarray:
    """Ascending n >= 1 with R_mn < limit and pi(R_mn) > m*pi(R_n)."""
    table.coverage(primes, limit - 1)
    ranks = table.prime_ranks(primes)
    end = int(np.searchsorted(table.values, limit)) // m + 1  # R_mn < limit for n < end
    ns = np.arange(1, end, dtype=np.int64)
    return ns[ranks[m * ns - 1] > m * ranks[ns - 1]]


def rank_scaling_violations(
    table: RamanujanTable,
    m: int,
    limit: int,
    primes: PrimeTable,
) -> list[tuple[int, int]]:
    """Scan pi(R_mn) <= m*pi(R_n) for n >= N(m) with R_mn < limit.

    Returns every violating (m, n); an empty list means the conjectured
    inequality held throughout the scanned range.
    """
    start = rank_scaling_threshold(m)
    bad = _rank_scaling_failures(table, m, limit, primes)
    return [(m, int(n)) for n in bad[bad >= start]]


def last_violation_below_threshold(
    table: RamanujanTable,
    m: int,
    limit: int,
    primes: PrimeTable,
) -> int | None:
    """Largest n < N(m) with R_mn < limit violating pi(R_mn) <= m*pi(R_n), if any.

    N(m) - 1 means the threshold is sharp: no smaller one would do.
    """
    start = rank_scaling_threshold(m)
    bad = _rank_scaling_failures(table, m, limit, primes)
    bad = bad[bad < start]
    return int(bad[-1]) if bad.size else None
