"""Ramanujan primes: the interval-count scan, the prime-index map, and
verifiers for the bound results.

The n-th Ramanujan prime R_n is the smallest integer such that every
x >= R_n has at least n primes in (x/2, x]. Writing s(k) for the number
of primes in (k/2, k], R_n equals 1 plus the largest k with s(k) = n - 1,
and the scan only has to run to the (3n)-th prime because R_n is known to
stay below it. `compute_first` reads one value of s per prime, blockwise
from the right, from the prime's flag bit alone (`PrimeTable.half_counts`:
only `prime_core` reads the flag layout), skips undecoded each block that two
exact counts show to hold no R_n, and splits the blocks among parallel
processes, as a suffix minimum combines across parts. It also marks each R_n
in a bit mask over prime indices, the classification, which a cache file stores
and analytics read in place a `walk` step at a time (`mask_bits`), or, for twin
pairs, through the memoized twin table (`RamanujanTable.twin_pairs`). No prime
list is kept: an analytic that reads primes by position walks `steps`, decoded
from the flags into one workspace that each step reuses, and reads the Ramanujan
prime at mask bit i from the values at index `mask_count(mask, i)`, the count of
the set bits before it.

The values take the dtype that `prime_core.table_dtype` gives for the
scan's end p_3n, so they are ``uint32`` below 2**32, whether computed,
loaded or cut by `below`, and every search of them goes through
`prime_core.search`. Decoded primes, the twin table's lesser members among
them, take the prime table's dtype; no array of ranks is kept. Products of values
or ranks remain only in the 13/15 check of Theorem 4 and in rank scaling, and are
taken in int64: a ``uint32`` array times a Python int stays ``uint32``.
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
from .prime_core import PrimeTable, mask_bits, mask_count, mask_positions, search, table_dtype

# floor((10/3)**10). Above this index the ratio R_n/p_3n is provably below
# 13/15, so an exhaustive check up to here settles the maximum.
LAISHRAM_LIMIT = 169350

_MAGIC = b"RPRT"

_SCAN_BLOCK = 1 << 20  # integers per scan block; the block size bounds peak RSS
_WALK_CHUNK = 1 << 16  # prime indices per step of `walk`; bounds every analytic's temporaries


def walk(start: int, stop: int):
    """The steps (lo, hi), each at most `_WALK_CHUNK` long, that cover [start, stop)
    in order. An analytic carries its state from step to step, so that no
    temporary grows with the classified primes."""
    return ((lo, min(lo + _WALK_CHUNK, stop)) for lo in range(start, stop, _WALK_CHUNK))


def steps(primes: PrimeTable, start: int, stop: int):
    """For each `walk` step (lo, hi) of [start, stop): lo and the primes p_lo .. p_hi (the
    one before the step, p_0 = 0, then its own), decoded from the flags into one workspace
    that the next step overwrites."""
    room = np.empty(min(_WALK_CHUNK, max(stop - start, 0)) + 1, dtype=table_dtype(primes.limit))
    room[0] = primes.nth_prime(start) if start else 0
    for lo, hi in walk(start, stop):
        primes.primes_between(int(room[0]) + 1, top := primes.nth_prime(hi), out=room[1:])
        yield lo, room[: hi - lo + 1]
        room[0] = top


def _twin_table(rt: RamanujanTable, primes: PrimeTable):
    """The classified twin pairs (`PrimeTable.twins`) and their mask bits pi(p) - 1 and
    pi(p), read a `walk` step of pairs at a time."""
    lesser = primes.twins(rt.coverage(primes))
    ram_lo, ram_hi = np.empty(lesser.size, dtype=bool), np.empty(lesser.size, dtype=bool)
    for lo, hi in walk(0, lesser.size):
        bit = primes.prime_count_batch(lesser[lo:hi]) - 1  # p's, and p + 2's one on
        bits = mask_bits(rt.mask, int(bit[0]), int(bit[-1]) + 2)
        bit -= bit[0]
        ram_lo[lo:hi], ram_hi[lo:hi] = bits[bit], bits[bit + 1]
    return lesser, ram_lo, ram_hi


def nth_prime_upper(k: int) -> int:
    """An upper bound for the k-th prime, used to size sieves: Rosser's k(ln k + ln ln k),
    and from k = 39017 Dusart's k(ln k + ln ln k - 0.9484) (Math. Comp. 68 (1999) 411-415)."""
    if k < 6:
        return 14
    lk = math.log(k)
    return int(k * (lk + math.log(lk) - (0.9484 if k >= 39017 else 0))) + 1


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
    The constructor checks what every table from `compute_first`, `compute_below`, `load` or
    `below` holds: the mask starts a buffer of whole 8-byte words (`table_file.word_padded`),
    read as words in place, and a table complete past 2 has R_1 = 2 as values[0] and mask bit 0.
    """

    values: np.ndarray
    scan_limit: int
    complete_below: int
    mask: np.ndarray
    _derived: dict = field(default_factory=dict, init=False, repr=False)  # see derived()

    def __post_init__(self):
        prime_core._in_words(self.mask, "mask bytes")  # read as words in place, or a ValueError
        if self.complete_below > 2 and (self.values[:1].tolist() != [2] or not mask_count(self.mask, 1)):
            raise ValueError("the table leaves out R_1 = 2 from its values or its mask")
        self.mask.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.values)

    def value(self, n: int) -> int:
        if not 1 <= n <= self.count:
            raise ValueError(f"index {n} outside [1, {self.count}]")
        return int(self.values[n - 1])

    def membership_mask(self, primes) -> np.ndarray:
        """Boolean Ramanujan mask over an ascending array of primes below `complete_below`."""
        v = np.asarray(primes)
        if v.size and int(v[-1]) >= self.complete_below:
            raise ValueError(
                f"membership above {self.complete_below - 1} undecidable with this table"
            )
        idx = np.clip(search(self.values, v), 0, self.count - 1)
        return self.values[idx] == v

    def coverage(self, primes: PrimeTable, through: int | None = None) -> int:
        """The table's edge complete_below - 1, the largest integer it classifies: the one
        coverage rule, which builds nothing. An analytic reading the integers up to `through`
        passes it here, and gets a CoverageError if that lies past the edge or `primes` stops
        short of the edge."""
        edge = self.complete_below - 1
        if primes.limit < edge:
            raise CoverageError(f"needs primes classified through {edge}; the tables classify "
                                f"through {primes.limit}, where the prime table stops")
        if through is not None and through > edge:
            raise CoverageError(f"needs primes classified through {through}; "
                                f"the tables classify through {edge}")
        return edge

    def derived(self, primes: PrimeTable, key: str, build):
        """What `build(self, primes)` returns, kept under `key` in the table's one memo, with each
        array in it, alone or in a tuple, made read-only. An entry reads no prime past the edge,
        which every prime table that `coverage` accepts holds alike, whichever one built it."""
        if key not in self._derived:
            value = build(self, primes)
            for arr in value if isinstance(value, tuple) else (value,):
                if isinstance(arr, np.ndarray):
                    arr.setflags(write=False)
            self._derived[key] = value
        return self._derived[key]

    def classified_count(self, primes: PrimeTable) -> int:
        """How many primes the table classifies: bit i of `mask` classifies the (i + 1)-th."""
        return primes.prime_count(self.coverage(primes))

    def twin_pairs(self, primes: PrimeTable):
        """The memoized, read-only twin table (lesser, ram_lo, ram_hi): the lesser member p
        of every twin pair (p, p + 2) of classified primes, ascending, in their dtype, and
        the mask bits of p and p + 2, which the twin analytics slice by prefix, built from
        adjacent flag bits and one prime count a pair (`_twin_table`)."""
        return self.derived(primes, "twins", _twin_table)

    def rank_index(self, primes: PrimeTable):
        """The memoized `prime_core.mask_index` of the classified mask bits."""
        return self.derived(primes, "rank index",
                            lambda rt, pt: prime_core.mask_index(rt.mask, rt.classified_count(pt)))

    def prime_ranks(self, primes: PrimeTable) -> np.ndarray:
        """pi(R_n) for every n, as int64, one more than each set mask bit's position, decoded
        afresh (`mask_positions`) from the classified bits, which hold every R_n."""
        n = self.classified_count(primes)
        return np.concatenate([np.zeros(0, np.int64), *mask_positions(self.mask, 0, n)]) + 1

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
    are the primes of the checksummed `primes` below x whose mask bit is set. A mask short of
    those primes, whose set bits there miss its count, or clear at R_1 = 2 is a ValueError."""
    (scan_limit, complete_below, count), mask = table_file.read(path, _MAGIC, 3, np.uint8)
    if complete_below > scan_limit + 1:  # so the values fit the dtype of scan_limit + 1
        raise ValueError(f"{path}: complete below {complete_below}, past the scan to {scan_limit}")
    x = min(complete_below if below is None else below, complete_below, primes.limit + 1)
    size = primes.prime_count(max(x - 1, 0))
    if size > 8 * mask.size:
        raise ValueError(f"{path}: {mask.size} mask bytes do not cover the primes below {x}")
    values = np.empty(mask_count(mask, size), dtype=table_dtype(scan_limit + 1))
    at = 0
    for lo, p in steps(primes, 0, size):
        bits = mask_bits(mask, lo, lo + p.size - 1)
        at += np.compress(bits, p[1:], out=values[at : at + np.count_nonzero(bits)]).size
    if values.size > count or (x == complete_below and values.size < count):
        raise ValueError(f"{path}: {values.size} set bits below {x} do not fit count {count}")
    return RamanujanTable(values, scan_limit, x, mask)


@dataclass
class BoundsReport:
    """Result of a bound check: the exact ratio R_n/p_3n at its argmax n."""

    argmax_n: int
    ratio: Fraction


def compute_first(n: int, primes: PrimeTable) -> RamanujanTable:
    """Compute R_1..R_n by walking the primes through p_3n, one value of s each.

    s(k) = pi(k) - pi(k/2) rises only at primes, so on [p_i, p_{i+1} - 1] its
    least value is t_i = s(p_{i+1} - 1) = i - pi((p_{i+1} - 1)/2), with
    t_0 = s(1) = 0, and R_{v+1} = p_{j+1} for the largest j < 3n with t_j <= v.
    t rises by at most 1 per prime, so its suffix minimum is a staircase
    rising by exactly 1, and each step from v to v + 1 is read off at the
    prime p_{j+1}. The walk runs blockwise from the right, carrying the
    suffix minimum from block to block. Each block decodes its primes once,
    to flag bits, and counts pi((p - 1)/2) in flag-bit space (`half_counts`):
    a shift and a table take p's bit to that of (p - 1)/2, and a running
    popcount of the half range's flag words in place counts through it, with
    no division and no search. Only the stepping primes, about half, become
    integers. A block is skipped undecoded when its
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
    # scalar counts: prime_count_batch takes a step of its own for each key this sparse, 6x slower
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
    if any(np.any(values[lo + 1 : hi + 1] <= values[lo:hi]) for lo, hi in walk(0, n - 1)):
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
    # one allocation, which the allocator maps apart and unmaps whole when the walk ends
    b_buf, t_buf, m_buf, s_buf, index = np.empty((5, size + 1), dtype=np.int64)
    index[:] = np.arange(size + 1)
    steps = np.zeros(size + 8, dtype=bool)  # 8 clear bits before the steps align them to a byte
    own = -(-a[i0] // 8)  # the first mask byte that no other part writes
    for i in range(i1 - 1, i0 - 1, -1):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        if lb[i] >= carry:
            continue  # no t_j here falls below the carry: no step
        lo, hi, n = starts[i], ends[i], a[i + 1] - a[i]
        t, m, step = t_buf[: n + 1], m_buf[: n + 1], steps[8 : 8 + n]  # p_{a+1} .. p_b
        small = primes.half_counts(lo, hi, a[i], b_buf[:n], t[:n], m_buf[:n], s_buf[:n])
        np.subtract(index[:n], t[:n], out=t[:n])  # t_a .. t_{b-1}: t_j = j - pi((p_{j+1} - 1)/2)
        t[-1] = carry  # stands for the walk right of hi
        np.minimum.accumulate(t[::-1], out=m[::-1])
        np.not_equal(m[1:], m[:-1], out=step)  # each step of the staircase is +1
        carry = int(m[0])
        if not step.any():
            continue  # blocks past R_n have no step and touch no mask page
        k = 0  # R_{v+1} = p_{j+1}, after the last t_j = v: the stepping primes, into m_buf
        for s in range(0, n, prime_core._STEP):
            stepping = np.flatnonzero(step[s : s + prime_core._STEP])
            np.take(b_buf[s:], stepping, out=t_buf[k : k + stepping.size], mode="clip")
            primes.integers_of(t_buf[k : k + stepping.size], m_buf[k : k + stepping.size])
            k += stepping.size
        m_buf[: np.count_nonzero(step[: len(small)])] = np.compress(step[: len(small)], small)
        j = min(max(cut - carry, 0), k)
        values[carry : carry + j] = m_buf[:j]
        slot[2 + carry + j - cut : 2 + carry + k - cut] = m_buf[j:k]
        bits = np.packbits(steps[8 - (a[i] & 7) : 8 + n], bitorder="little")  # from bit a
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


def _every_kth_prime(primes: PrimeTable, k: int, count: int) -> np.ndarray:
    """p_k, p_2k, ..., p_(k * count), in the table's dtype, a stride of each `steps` step from
    its p_lo: those of ranks lo + k - lo % k, ...; a CoverageError if the table holds fewer."""
    if primes.total_primes < k * count:
        raise CoverageError(f"needs p_{k * count}; table covers only {primes.limit}")
    out = np.empty(count, dtype=table_dtype(primes.limit))
    for lo, p in steps(primes, 0, k * count):
        out[lo // k : (lo + p.size - 1) // k] = p[k - lo % k :: k]
    return out


def _p3n(table: RamanujanTable, primes: PrimeTable, count: int) -> np.ndarray:
    """p_3, p_6, ..., p_(3 * count), which the checks of Theorem 4 read more than once, memoized."""
    return table.derived(primes, ("p3n", count), lambda _, pt: _every_kth_prime(pt, 3, count))


def log_bound_failures(table: RamanujanTable, max_n: int, primes: PrimeTable) -> list[int]:
    """Every 1 < n <= max_n at which 2n log 2n < p_2n < R_n < 4n log 4n < p_4n fails.

    The real-valued bounds are evaluated in double precision; each
    comparison must clear a relative margin of 1e-6 so rounding cannot
    flip it, otherwise the check refuses to answer.
    """
    if max_n > table.count:
        raise ValueError(f"index {max_n} outside [1, {table.count}]")
    top = max(max_n, 1)
    p4n, p2n = (_every_kth_prime(primes, k, top)[1:] for k in (4, 2))  # p_4n's error first
    n = np.arange(2, top + 1, dtype=np.int64)
    r_n = table.values[1:top]
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

    The ratios are taken in double precision, -1 at each excluded n. R_n
    and p_3n below 2**53 convert exactly and the quotient rounds monotonically,
    so the exact maximum and any tie with it lie among the n at the largest
    double; those few are compared as Fractions. The maximum is unique
    because the p_3n are distinct primes exceeding R_n, making all the
    ratios distinct, so a tie at the maximum raises.
    """
    if range_end < 1 or range_end > table.count:
        raise ValueError(f"range_end {range_end} outside [1, {table.count}]")
    p3 = _p3n(table, primes, range_end)
    ratio = table.values[:range_end] / p3
    ratio[[n - 1 for n in exclusions if 1 <= n <= range_end]] = -1
    if ratio.max() < 0:
        raise ValueError("no indices left after exclusions")
    exact = {int(i) + 1: Fraction(int(table.values[i]), int(p3[i]))
             for i in np.flatnonzero(ratio == ratio.max())}
    best = max(exact.values())
    ties = [n for n, r in exact.items() if r == best]
    if len(ties) > 1:
        raise InternalConsistencyError(f"ratio tie between n={ties[1]} and n={ties[0]}")
    return BoundsReport(ties[0], best)


def verify_max_ratio_bound(table: RamanujanTable, primes: PrimeTable) -> bool:
    """Exhaustively confirm that R_5/p_15 = 41/47 is the unique maximum.

    True iff 15*R_n < 13*p_3n for every n <= LAISHRAM_LIMIT except n = 5,
    and R_5/p_15 equals 41/47 exactly. Beyond LAISHRAM_LIMIT the 13/15
    bound holds by theory, so this finite check settles the maximum.
    """
    if table.count < LAISHRAM_LIMIT:
        raise CoverageError(f"needs the first {LAISHRAM_LIMIT} Ramanujan primes, "
                            f"table has {table.count}")
    p3 = _p3n(table, primes, LAISHRAM_LIMIT)
    r15 = np.multiply(table.values[:LAISHRAM_LIMIT], 15, dtype=np.int64)  # uint32 would wrap
    below = r15 < np.multiply(p3, 13, dtype=np.int64)
    below[4] = True  # n = 5 is the one allowed exception
    return bool(below.all()) and 47 * table.value(5) == 41 * int(p3[4])


def _rank_scaling_failures(table, m, limit, primes) -> np.ndarray:
    """Ascending n >= 1 with R_mn < limit and r(mn) > m*r(n), r(n) = pi(R_n), by certified
    jumps. r rises and the C(K) set mask bits below bit K are the k with r(k) <= K, so each n
    in [a, C(m*r(a)) // m] has r(mn) <= m*r(a) <= m*r(n), and a fails iff C(m*r(a)) // m < a.
    Walkers start at about 64 points a doubling of n and step together, each jumping past what
    it certifies or stepping past a failure up to the next start; r and C are an int64 select
    and count over `rank_index`, and no array has an entry per Ramanujan prime."""
    table.coverage(primes, limit - 1)
    end = int(search(table.values, limit)) // m + 1  # R_mn < limit for n < end
    index = table.rank_index(primes)
    a = (2 ** (np.arange(64 * end.bit_length()) / 64)).astype(np.int64)
    a = a[(np.diff(a, prepend=0) > 0) & (a < end) & (m > 1)]  # at m = 1 an identity: no walk
    stop, bad = np.append(a[1:], end), [np.zeros(0, np.int64)]
    while a.size:
        reach = prime_core.mask_rank(index, m * (prime_core.mask_select(index, a) + 1)) // m + 1
        bad.append(a[reach <= a])
        a = np.where(reach <= a, a + 1, reach)
        a, stop = a[a < stop], stop[a < stop]
    return np.sort(np.concatenate(bad))


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
