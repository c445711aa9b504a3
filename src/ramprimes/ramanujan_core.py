"""Ramanujan primes: the interval-count scan, the prime-index map, and
verifiers for the bound results.

The n-th Ramanujan prime R_n is the smallest integer such that every
x >= R_n has at least n primes in (x/2, x]. Writing s(k) for the number
of primes in (k/2, k], R_n equals 1 plus the largest k with s(k) = n - 1,
and the scan only has to run to the (3n)-th prime because R_n is known to
stay below it. `compute_first` reads one value of s per prime, blockwise
from the right, skips undecoded each block that two exact counts show to
hold no R_n, and splits the blocks among parallel processes, as a suffix
minimum combines across parts. It also marks each R_n in a bit mask over
prime indices, the classification, which analytics read in place a `walk`
step (`mask_bits`) or a gather (`mask_at`) at a time and a cache file stores.

The values take the dtype that `prime_core.table_dtype` gives for the
scan's end p_3n, so they are ``uint32`` below 2**32, whether computed,
loaded or cut by `below`, and every search of them goes through
`prime_core.search`. The memoized ranks and twin positions take the dtype
`table_dtype` gives for the length of the classified list. Products of
values or ranks, as in the ratio and rank-scaling checks, are taken in
int64, because a ``uint32`` array times a Python int stays ``uint32``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import accumulate

import numpy as np

from . import prime_core, table_file
from .errors import CoverageError, InternalConsistencyError
from .prime_core import PrimeTable, search, table_dtype

# floor((10/3)**10). Above this index the ratio R_n/p_3n is provably below
# 13/15, so an exhaustive check up to here settles the maximum.
LAISHRAM_LIMIT = 169350

_MAGIC = b"RPRT"

_SCAN_BLOCK = 1 << 20  # integers per scan block; the block size bounds peak RSS
_WALK_CHUNK = 1 << 16  # prime indices per step of `walk`; bounds every analytic's temporaries


def walk(start: int, stop: int):
    """The steps (lo, hi), each at most `_WALK_CHUNK` long, that cover [start, stop)
    in order. An analytic carries its state from step to step, so that no
    temporary grows with the classified prime list."""
    return ((lo, min(lo + _WALK_CHUNK, stop)) for lo in range(start, stop, _WALK_CHUNK))


def mask_bits(mask: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo .. hi - 1 of the little-endian packed `mask`, unpacked from their bytes alone."""
    b0 = lo >> 3
    bits = np.unpackbits(mask[b0 : (hi + 7) >> 3], bitorder="little").view(bool)
    return bits[lo - 8 * b0 : hi - 8 * b0]


def mask_at(mask: np.ndarray, index: np.ndarray) -> np.ndarray:
    """The bits of the packed `mask` at each integer of the array `index`, as bools."""
    return (mask[index >> 3] >> (index & 7).astype(np.uint8) & 1).view(bool)


def _positions(limit: int, stop: int, hit, take=None) -> np.ndarray:
    """take(i), or i itself, for each i in [0, stop) where the bool step
    `hit(lo, hi)` is set, in `table_dtype(limit)`. The `walk` steps are read twice, to count
    the hits and then to fill one array of that size: no int64 array of
    every position is made, and the result is never held twice. The hits go
    through flatnonzero, as a boolean index branches on each bit, 3x slower."""
    steps = list(walk(0, stop))
    out = np.empty(sum(np.count_nonzero(hit(*s)) for s in steps), dtype=table_dtype(limit))
    at = 0
    for lo, hi in steps:
        i = np.flatnonzero(hit(lo, hi))
        i += lo
        out[at : at + i.size] = i if take is None else take(i)
        at += i.size
    return out


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

    `scan_limit` is the end p_3n - 1 of the scan that made the values, kept
    for the cache header; blocks of it past R_n are settled by two prime
    counts rather than decoded (see `compute_first`). Membership
    queries are decidable only for primes below `complete_below`: every
    Ramanujan prime under that bound is present, so absence means
    non-Ramanujan there and is unknown beyond it. The read-only `mask` is the
    classification: bit i is set for a Ramanujan (i + 1)-th prime; unread past `complete_below`.
    """

    values: np.ndarray
    scan_limit: int
    complete_below: int
    mask: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)  # see derived()

    def __post_init__(self):
        self.mask.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.values)

    def value(self, n: int) -> int:
        if not 1 <= n <= self.count:
            raise ValueError(f"index {n} outside [1, {self.count}]")
        return int(self.values[n - 1])

    def membership_mask(self, primes) -> np.ndarray:
        """Boolean Ramanujan mask over an ascending array of primes."""
        v = np.asarray(primes)
        if v.size and int(v[-1]) >= self.complete_below:
            raise ValueError(
                f"membership above {self.complete_below - 1} undecidable with this table"
            )
        if self.count == 0:
            return np.zeros(v.shape, dtype=bool)
        idx = np.clip(search(self.values, v), 0, self.count - 1)
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
        """What `build()` returns, kept under `key` for `primes`, with each
        array in it, alone or in a tuple, made read-only. The memo holds one
        prime table at a time, under "primes": passing another starts it afresh."""
        if self._derived.get("primes") is not primes:
            self._derived = {"primes": primes}
        if key not in self._derived:
            value = build()
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._derived[key] = value
        return self._derived[key]

    def classified_primes(self, primes: PrimeTable) -> np.ndarray:
        """Every prime both tables can classify: bit i of `mask` classifies the
        (i + 1)-th. The primes from 2 to any covered bound are a prefix of this
        list, so callers read a prefix of the mask instead of classifying again."""
        return primes.primes_upto(self.coverage(primes))

    def twin_index(self, primes: PrimeTable) -> np.ndarray:
        """Memoized, read-only positions i in the classified list with
        listed[i + 1] == listed[i] + 2: the lesser members of twin pairs, in
        the dtype `table_dtype` gives for the list's length."""
        listed = self.classified_primes(primes)
        return self.derived(primes, "twins", lambda: _positions(
            listed.size, listed.size - 1, lambda lo, hi: listed[lo + 1 : hi + 1] - listed[lo:hi] == 2))

    def classified_ranks(self, primes: PrimeTable) -> np.ndarray:
        """Memoized pi(R_n) of each R_n both tables classify: the n-th prime the
        mask marks, one more than its position, in the dtype `table_dtype` gives
        for the mask's length. Only rank scaling and `prime_ranks` read it."""
        n = self.classified_primes(primes).size
        return self.derived(primes, "ranks", lambda: _positions(
            n, n, lambda lo, hi: mask_bits(self.mask, lo, hi), lambda i: i + 1))

    def prime_ranks(self, primes: PrimeTable) -> np.ndarray:
        """pi(R_n) for every n; a CoverageError if some R_n lies past the tables."""
        if (ranks := self.classified_ranks(primes)).size < self.count:
            raise CoverageError(f"R_{ranks.size + 1} lies past the primes to {primes.limit}")
        return ranks

    def below(self, x: int) -> RamanujanTable:
        """What compute_below(x) gives, cut from this table; `scan_limit` stays its own."""
        if x > self.complete_below:
            raise CoverageError(f"asked for values below {x}; complete below {self.complete_below}")
        return replace(self, values=self.values[: int(search(self.values, x))], complete_below=x)

    def save(self, path) -> None:
        table_file.write(path, _MAGIC, [self.scan_limit, self.complete_below, self.count],
                         self.mask)


def load(path, primes: PrimeTable, below: int | None = None) -> RamanujanTable:
    """Read a table written by :meth:`RamanujanTable.save`, cut to x = min(below,
    complete_below, primes.limit + 1): its values, in the dtype `compute_first` gives,
    are the primes of the checksummed `primes` below x whose mask bit is set. A mask
    short of those primes, or whose set bits there miss its count, is a ValueError."""
    (scan_limit, complete_below, count), mask = table_file.read(path, _MAGIC, 3, np.uint8)
    if complete_below > scan_limit + 1:  # so the values fit the dtype of scan_limit + 1
        raise ValueError(f"{path}: complete below {complete_below}, past the scan to {scan_limit}")
    x = min(complete_below if below is None else below, complete_below, primes.limit + 1)
    listed = primes.primes_upto(max(x - 1, 0))
    if listed.size > 8 * mask.size:
        raise ValueError(f"{path}: {mask.size} mask bytes do not cover the primes below {x}")
    values = _positions(scan_limit + 1, listed.size, lambda lo, hi: mask_bits(mask, lo, hi),
                        listed.__getitem__)
    if values.size > count or (x == complete_below and values.size < count):
        raise ValueError(f"{path}: {values.size} set bits below {x} do not fit count {count}")
    return RamanujanTable(values, scan_limit, x, mask)


@dataclass
class BoundsReport:
    """Result of a bound check: the exact ratio R_n/p_3n at its argmax n."""

    n: int
    ratio: Fraction
    argmax_n: int | None = None


def compute_first(n: int, primes: PrimeTable) -> RamanujanTable:
    """Compute R_1..R_n by walking the primes through p_3n, one value of s each.

    s(k) = pi(k) - pi(k/2) rises only at primes, so on [p_i, p_{i+1} - 1] its
    least value is t_i = s(p_{i+1} - 1) = i - pi((p_{i+1} - 1)/2), with
    t_0 = s(1) = 0, and R_{v+1} = p_{j+1} for the largest j < 3n with t_j <= v.
    t rises by at most 1 per prime, so its suffix minimum is a staircase
    rising by exactly 1, and each step from v to v + 1 is read off at the
    prime p_{j+1}. The walk runs blockwise from the right, carrying the
    suffix minimum from block to block. Each block decodes its primes p once
    and reads pi((p - 1)/2) from a running popcount of the flag words of its
    half range (`PrimeTable.prime_count_batch`, in place), with no list of
    the doubled primes and no search. A block is skipped undecoded when its
    lb = a - pi((hi - 1)/2) >= carry, with a = pi(lo - 1): every t_j in it
    has j >= a and p_{j+1} <= hi, so t_j >= lb and the block holds no step.
    The test reads two exact counts, not a theorem on R_n, so the sizing to
    p_3n stands, and criterion 03's check of Theorem 4 does not assume what
    it checks.

    The blocks are split into contiguous parts with equal numbers of blocks
    left to decode, one per process (`prime_core._processes`); one process
    walks the one part from the carry n, by the same loop. Each part walks
    from an upper bound on the carry into it (see `_scan`): the least of n
    and s(hi - 1) = pi(hi - 1) - pi((hi - 1)/2) over the blocks right of it,
    as each t_j is the least s on [p_j, p_{j+1} - 1]. The merge then runs
    from right to left with the exact carry: it keeps each part's side
    entries below it and clears the mask bits of the rest.
    """
    if n < 1:
        raise ValueError(f"count must be >= 1, got {n}")
    if primes.total_primes < 3 * n:
        raise CoverageError(
            f"scan needs primes through p_{3 * n} (about {nth_prime_upper(3 * n)}); "
            f"table covers only {primes.limit}"
        )
    top = primes.nth_prime(3 * n)
    starts = range(1, top + 1, _SCAN_BLOCK)
    ends = [min(lo + _SCAN_BLOCK - 1, top) for lo in starts]
    a = [primes.prime_count(lo - 1) for lo in starts] + [3 * n]  # and pi(top) past the last block
    half = [primes.prime_count((hi - 1) >> 1) for hi in ends]
    lb = [x - y for x, y in zip(a, half)]  # each t_j of a block is >= its lb: j >= a, p_{j+1} <= hi
    edge = [x - int(q) - y for x, q, y in zip(a[1:], primes.is_prime_batch(ends), half)]  # s(hi-1)
    bound = list(accumulate(reversed(edge[1:] + [n]), min))[::-1]
    floor = list(accumulate(reversed(lb + [n]), min))[::-1]  # <= the carry into block i - 1
    busy = [i for i, (x, y) in enumerate(zip(lb, bound)) if x < y]
    nproc = prime_core._processes(len(busy))
    cuts = [0, *(busy[len(busy) * k // nproc] for k in range(1, nproc)), len(ends)]
    dtype = table_dtype(top)
    values = table_file.word_padded(n * dtype.itemsize).view(dtype)
    mask = table_file.word_padded(-(-3 * n // 8))  # bit i: p_{i+1} is Ramanujan
    parts = [(i0, i1, bound[i1 - 1], floor[i1], table_file.word_padded(
        8 * (2 + bound[i1 - 1] - floor[i1])).view(np.int64)) for i0, i1 in zip(cuts, cuts[1:])]
    prime_core._run_parts(parts, lambda part, parent: _scan(primes, (starts, ends, a, lb), *part,
                          values, mask, parent), "scan", "scanning blocks [{}, {})")
    carry = n  # the exact carry into each part, from the right
    for i0, _, _, cut, slot in parts[::-1]:
        mask[a[i0] >> 3] |= slot[1]
        low, side = int(slot[0]), slot[2:]
        values[max(low, cut) : carry] = side[max(low, cut) - cut : carry - cut]
        dropped = side[carry - cut :][side[carry - cut :] != 0]  # steps at or above the carry
        bit = primes.prime_count_batch(dropped) - 1
        np.bitwise_and.at(mask, bit >> 3, (~(1 << (bit & 7))).astype(np.uint8))
        carry = min(carry, low)
    if values[0] != 2 or any(np.any(values[lo + 1 : hi + 1] <= values[lo:hi])
                             for lo, hi in walk(0, n - 1)):
        raise InternalConsistencyError("scan produced a non-canonical value list")
    return RamanujanTable(values, top - 1, int(values[-1]) + 1, mask)


def _scan(primes, blocks, i0, i1, carry, cut, slot, values, mask, parent=None) -> None:
    """Walk blocks i1 - 1 down to i0 from `carry`, at least the exact carry.
    Values count up from each block's new carry, exact below the exact one,
    so a jump at the top of the part's first staircase is one step, exact or
    else dropped at the merge. A value v below `cut` goes to values[v], the
    rest to slot[2 + v - cut]; the final carry to slot[0], and the mask bits
    in the byte shared with the part on the left to slot[1]. A process forked
    by `parent` exits once that process is gone."""
    starts, ends, a, lb = blocks
    size = max(y - x for x, y in zip(a[i0:i1], a[i0 + 1 : i1 + 1]))  # primes in the largest block
    p_buf, t_buf, m_buf = (np.empty(size + 1, dtype=np.int64) for _ in range(3))
    steps = np.zeros(size + 8, dtype=bool)  # 8 clear bits before the steps align them to a byte
    index, own = np.arange(size, dtype=np.int64), -(-a[i0] // 8)  # own: no other part writes it
    for i in range(i1 - 1, i0 - 1, -1):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        if lb[i] >= carry:
            continue  # no t_j here falls below the carry: no step
        p = primes.primes_between(starts[i], ends[i], out=p_buf)  # p_{a+1} .. p_b
        t, m, step = t_buf[: p.size + 1], m_buf[: p.size + 1], steps[8 : 8 + p.size]
        primes.prime_count_batch(np.right_shift(p, 1, out=t[:-1]), out=t[:-1])  # pi((p - 1)/2)
        np.subtract(index[: p.size], t[:-1], out=t[:-1])
        t[:-1] += a[i]  # t_a .. t_{b-1}
        t[-1] = carry  # stands for the walk right of hi
        np.minimum.accumulate(t[::-1], out=m[::-1])
        np.not_equal(m[1:], m[:-1], out=step)  # each step of the staircase is +1
        carry = int(m[0])
        if not step.any():
            continue  # blocks past R_n have no step and touch no mask page
        k = 0  # R_{v+1} = p_{j+1}, after the last t_j = v: the stepping primes, into t_buf
        for s in range(0, p.size, prime_core._STEP):
            stepping = np.flatnonzero(step[s : s + prime_core._STEP])
            np.take(p[s:], stepping, out=t_buf[k : k + stepping.size])
            k += stepping.size
        j = min(max(cut - carry, 0), k)
        values[carry : carry + j] = t_buf[:j]
        slot[2 + carry + j - cut : 2 + carry + k - cut] = t_buf[j:k]
        bits = np.packbits(steps[8 - (a[i] & 7) : 8 + p.size], bitorder="little")  # from bit a
        byte, shared = a[i] >> 3, a[i] >> 3 < own  # a byte that the part on the left writes
        slot[1] |= bits[0] if shared else 0
        mask[byte + shared : byte + bits.size] |= bits[shared:]
    slot[0] = carry


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
    table.mask = table.mask[: -(-primes.prime_count(x - 1) // 8)]  # the bytes below x, as saved
    return table.below(x)


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
    r = table.values[idx - 1].astype(np.int64)  # the cross products below need 64 bits
    p3 = primes.nth_prime_batch(3 * idx).astype(np.int64)
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
    r = table.values[:LAISHRAM_LIMIT].astype(np.int64)  # 15 * r and 13 * p3 need 64 bits
    p3 = primes.nth_prime_batch(3 * n).astype(np.int64)
    below = 15 * r < 13 * p3
    below[4] = True  # n = 5 is the one allowed exception
    return bool(below.all()) and 47 * table.value(5) == 41 * primes.nth_prime(15)


def _rank_scaling_failures(table, m, limit, primes) -> np.ndarray:
    """Ascending n >= 1 with R_mn < limit and pi(R_mn) > m*pi(R_n), from strided
    views of the memoized ranks: ranks[m - 1::m][n - 1] is pi(R_mn). The products
    are taken in int64 a `walk` step at a time: uint32 ranks times m would wrap."""
    table.coverage(primes, limit - 1)
    ranks = table.classified_ranks(primes)
    scaled = ranks[m - 1 :: m]
    end = int(search(table.values, limit)) // m + 1  # R_mn < limit for n < end
    return np.concatenate([np.zeros(0, np.intp)] + [
        lo + 1 + np.flatnonzero(scaled[lo:hi] > m * ranks[lo:hi].astype(np.int64))
        for lo, hi in walk(0, end - 1)])


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
