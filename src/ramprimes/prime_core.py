"""Segmented sieve of Eratosthenes with packed mod-30 wheel flag storage,
sieved one wheel residue at a time, its flag bytes split across forked
processes that write one shared flag buffer. No prime list is kept: primes
are decoded from the flags a step at a time, into a caller's workspace
(`PrimeTable.primes_between`).

A :class:`PrimeTable` answers primality, prime counting, and n-th prime
queries for every integer in [2, limit]. Flags are kept one bit per integer
prime to 30: byte j covers [30j, 30j + 30), and its bit k, little-endian,
stands for 30j + `_WHEEL`[k]. The primes 2, 3 and 5 are held out of band, and
the bit of 1 is clear. This module alone reads that layout. :func:`_last_bit`
and :func:`_integers` are the one mapping between integers and bits, with the
tables `_LAST`, `_SHIFTS` and `_HALF_SHIFTS` (a prime's bit to that of
(p - 1)/2), which other modules reach through `PrimeTable.integers_of`.
:func:`mask_bits` is the one reader of packed bits, the flags' and the Ramanujan mask's:
:func:`mask_positions` decodes ranges on it, :func:`mask_count` counts them, and so do
:func:`mask_select` and :func:`mask_rank`; `nth_prime` and `twins` unpack their own words.

A table views its flags in place as little-endian uint64 words, so they must
start a buffer of whole words, as `build` and `load` allocate them
(`table_file.word_padded`), and every prime count reads words. The bits stay
in integer order, so the one prime-count index is an int64 count of the
flagged primes before each superblock of `1 << _SUPER_SHIFT` flag words
(4096 bytes), made from one popcount of the words: a scalar count is one
superblock lookup plus a popcount of at most one superblock's words. Prime
counts over arrays of ascending keys, the one vectorized pi, keep no index:
for a step of keys, the scalar count before the step's first word, a running
popcount of the words up to each key's word, and the popcount of that word up
to the key's bit (`PrimeTable._through`, which `half_counts`, the Ramanujan
scan's counts, shares).

Tables of integers up to a limit, here decoded primes and in
:mod:`ramanujan_core` the Ramanujan values, take their dtype from
:func:`table_dtype`: ``uint32`` while the limit stays 16 below 2**32, so
that sums such as ``p + 5`` cannot wrap, and ``int64`` past it. Every
search of such a table goes through :func:`search`, which casts its keys
to the table's dtype: under NumPy 2, searching a ``uint32`` table with a
Python int or an ``int64`` array would convert the whole table to
``int64`` on each call.
"""

from __future__ import annotations

import bisect
import math
import os
import signal
import sys
import threading
import traceback

import numpy as np

from . import table_file
from .errors import InternalConsistencyError, ResourceLimitError

_MAGIC = b"RPPT"

_SEGMENT_ROWS = 1 << 20  # flag bytes per sieve segment: one bool each in 8 columns of 1 MiB
_PART_BYTES = 1 << 16  # flag bytes per unit of sieve work: parts of the flags start on whole units
_MEMORY_CEILING = 4 << 30  # bytes that build() may allocate
_NARROW = np.uint32  # the dtype of tables whose limit leaves it 16 of headroom
_SUPER_SHIFT = 9  # 512 flag words per superblock of the prime-count index
_PRESIEVE = (7, 11, 13, 17)  # primes sieved by copying one pattern, ascending (2, 3, 5: the wheel)
_UNIT_WRITES = 3000  # a unit's copy, packing and small-prime writes cost as many large primes' writes
_PART_SEGMENTS = 8  # least sieve units or scan blocks per process: below twice this many, no fork
_STEP = 1 << 13  # int64 elements per step of a decode, count or compaction: 64 KiB, so that its
# temporaries stay below glibc's least mmap threshold and come from the heap, whatever came before


_WHEEL = np.array([1, 7, 11, 13, 17, 19, 23, 29], dtype=np.uint8)  # the residues prime to 30
_LAST = (np.searchsorted(_WHEEL, np.arange(30), side="right") - 1).tolist()  # r -> the last k, _WHEEL[k] <= r
_MASKS = np.zeros(30, dtype=np.uint8)  # r -> the bit of residue r in its byte, 0 off the wheel
_MASKS[_WHEEL] = 1 << np.arange(8)
_OUT_OF_BAND = (2, 3, 5)  # the primes with no flag bit
_PAIRS = np.uint64(0x9494949494949494)  # bits 2, 4 and 7 of each flag byte: 11, 17 and 29 mod 30


def _last_bit(x: int) -> int:
    """Integer to flag bit: the bit of the largest integer <= x prime to 30, -1 for x = 0."""
    return 8 * (x // 30) + _LAST[x % 30]


# s -> the left shift that drops the bits of a flag word past its integer 1 + s, s in [0, 240)
_SHIFTS = 63 - np.array([_last_bit(s) for s in range(1, 241)])
# j -> the left shift that drops the bits of flag word i >> 7 past the last bit of (p - 1)/2, for
# p the integer of a flag bit i with i & 127 = j; 64, dropping them all, at j = 0, where that bit
# is the last of the word before
_HALF_SHIFTS = np.array([63 - _last_bit((30 * (j >> 3) + int(_WHEEL[j & 7])) // 2)
                         for j in range(128)], dtype=np.uint64)


def _integers(bits: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Flag bit to integer: 30 * (i >> 3) + `_WHEEL`[i & 7] for each bit i of
    the int64 `bits`, written into `out`, int64 or the table's dtype, which
    must not share memory with `bits`."""
    np.right_shift(bits, 3, out=out, casting="unsafe")
    out *= 30
    out += np.take(_WHEEL, bits & 7)
    return out


def mask_bits(packed: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Bits lo .. hi - 1 of the little-endian `packed` bytes, unpacked from their bytes
    alone: the one reader of packed bits, the flags' and the Ramanujan mask's."""
    b0 = lo >> 3
    bits = np.unpackbits(packed[b0 : (hi + 7) >> 3], bitorder="little").view(bool)
    return bits[lo - 8 * b0 : hi - 8 * b0]


def mask_positions(packed: np.ndarray, lo: int, hi: int):
    """The set bits in [lo, hi) of the little-endian `packed` bytes, ascending, as
    int64 arrays, one for each `8 * _STEP` bits unpacked: the one decoder of packed
    bits, so that no temporary grows with the range. The hits go through
    flatnonzero, as a boolean index branches on each bit, 3x slower."""
    for b0 in range(lo, hi, 8 * _STEP):
        found = np.flatnonzero(mask_bits(packed, b0, min(b0 + 8 * _STEP, hi)))
        found += b0
        yield found


def mask_count(packed: np.ndarray, stop: int) -> int:
    """The set bits below bit `stop` of the little-endian `packed` bytes: for the Ramanujan
    mask, the index in the values of the first Ramanujan prime at bit `stop` or past it."""
    return int(np.bitwise_count(packed[: stop >> 3]).sum() + mask_bits(packed, stop & ~7, stop).sum())


def _in_words(packed: np.ndarray, what: str) -> np.ndarray:
    """`packed` as little-endian uint64 words in place through its last byte, else a ValueError."""
    nwords, base = -(-packed.size // 8), packed.base
    if base is None or base.nbytes < 8 * nwords or base.ctypes.data != packed.ctypes.data:
        raise ValueError(f"{what} do not start a buffer of whole 8-byte words")
    return base.view(np.uint8)[: 8 * nwords].view("<u8")


def mask_index(packed: np.ndarray, stop: int) -> tuple[np.ndarray, np.ndarray, int]:
    """(words, before, stop): the little-endian `packed` bytes, which start a buffer of whole
    words as a `RamanujanTable`'s mask does, as words in place through bit `stop`, and the
    int64 count of their set bits before each word."""
    words = _in_words(packed, "mask bytes")
    words = words[: -(-stop // 64)] if stop else np.zeros(1, "<u8")  # one for `mask_rank`
    before = np.zeros(words.size + 1, dtype=np.int64)
    before[1:] = np.bitwise_count(words)
    np.cumsum(before, out=before)
    return words, before, stop


def mask_rank(index, k: np.ndarray) -> np.ndarray:
    """The set bits of a `mask_index` below each bit k >= 0, cut at its stop, as int64: the count
    before k's word and the popcount of that word shifted left past bit k (none at k & 63 = 0)."""
    words, before, stop = index
    k = np.minimum(k, stop)
    word = np.take(words, k >> 6, mode="clip") << (64 - (k & 63)).astype(np.uint64)
    return before[k >> 6] + np.bitwise_count(word)


def mask_select(index, k: np.ndarray) -> np.ndarray:
    """The position of each k-th set bit of a `mask_index`, 1 <= k <= its count, as int64: in
    the word w with before[w] < k <= before[w + 1], unpacked, the (k - before[w])-th set bit."""
    words, before, _ = index
    w = np.searchsorted(before, k) - 1
    bits = mask_bits(words[w].view(np.uint8), 0, 64 * w.size).reshape(-1, 64)
    through = np.cumsum(bits, axis=1, dtype=np.uint8) >= (k - before[w])[:, None]
    return 64 * w + np.argmax(through, axis=1)


def table_dtype(limit: int) -> np.dtype:
    """The dtype of an array of integers in [0, limit]: `_NARROW` while
    `limit` stays 16 below its range, so that adding a small constant to an
    element cannot wrap, and int64 past that."""
    return np.dtype(_NARROW if limit < np.iinfo(_NARROW).max - 15 else np.int64)


def search(table: np.ndarray, keys, side: str = "left"):
    """np.searchsorted over an ascending `table` of positive integers below
    its dtype's maximum, with `keys` clipped to [0, that maximum] and cast to
    the table's dtype, which changes no answer. Searching without the cast
    would convert the whole table to the keys' wider dtype on every call."""
    dtype = table.dtype
    if np.ndim(keys) == 0:
        keys = dtype.type(min(max(int(keys), 0), np.iinfo(dtype).max))
    else:
        keys = np.asarray(keys)
        if not np.can_cast(keys.dtype, dtype):
            keys = np.clip(keys, 0, np.iinfo(dtype).max).astype(dtype)
    return np.searchsorted(table, keys, side=side)


def simple_sieve_flags(limit: int) -> np.ndarray:
    """Plain one-shot sieve returning flags over [0, limit].

    Kept as the non-segmented reference that the segmented build is
    validated against.
    """
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return flags


class PrimeTable:
    """Queryable primality/count/index structure over [2, limit].

    Instances are immutable after construction and safe to share between
    readers. Use :func:`build` rather than calling the constructor with
    hand-made flag bytes.
    """

    def __init__(self, limit: int, packed: np.ndarray):
        words = _in_words(packed, "flag bytes")  # the flags in place
        if words.view(np.uint8)[packed.size :].any():  # counted as flags
            raise ValueError("flag bytes do not start a buffer of whole 8-byte words, "
                             "clear past them")
        self.limit = limit
        self._packed = packed
        self._words = words
        self._supers = _superblock_counts(self._words)
        self._last_prime = self.nth_prime(self.total_primes)  # the last key of `neighbours`

    @property
    def total_primes(self) -> int:
        return int(self._supers[-1]) + bisect.bisect_right(_OUT_OF_BAND, self.limit)

    # -- scalar queries ----------------------------------------------------

    def is_prime(self, k: int) -> bool:
        """True iff k is prime. k outside [0, limit] is rejected."""
        return bool(self.is_prime_batch(k))

    def prime_count(self, x: int) -> int:
        """pi(x): the number of primes not exceeding x."""
        if not 0 <= x <= self.limit:
            raise ValueError(f"prime_count argument {x} outside [0, {self.limit}]")
        return self._flagged(_last_bit(x) + 1) + bisect.bisect_right(_OUT_OF_BAND, x)

    def _flagged(self, nbits: int) -> int:
        """The primes flagged in the first `nbits` flag bits."""
        word, rem = divmod(nbits, 64)
        blk = word >> _SUPER_SHIFT
        cnt = int(self._supers[blk])
        cnt += int(np.bitwise_count(self._words[blk << _SUPER_SHIFT : word]).sum())
        if rem:
            cnt += (int(self._words[word]) & ((1 << rem) - 1)).bit_count()
        return cnt

    def nth_prime(self, n: int) -> int:
        """The n-th prime in increasing order; nth_prime(1) = 2."""
        if n < 1 or n > self.total_primes:
            raise ValueError(f"nth_prime argument {n} outside [1, {self.total_primes}] "
                             f"(table limit {self.limit})")
        if n <= len(_OUT_OF_BAND):
            return _OUT_OF_BAND[n - 1]
        m = n - len(_OUT_OF_BAND)  # rank among the flagged primes
        blk = int(np.searchsorted(self._supers, m, side="left")) - 1
        first, m = blk << _SUPER_SHIFT, m - int(self._supers[blk])  # rank in the superblock
        through = np.cumsum(np.bitwise_count(self._words[first : first + (1 << _SUPER_SHIFT)]))
        w = int(np.searchsorted(through, m))  # the word of the m-th, and its place there
        bit = 64 * (first + w) + int(np.flatnonzero(mask_bits(
            self._packed, 64 * (first + w), 64 * (first + w + 1)))[m - 1 - (int(through[w - 1]) if w else 0)])
        return 30 * (bit >> 3) + int(_WHEEL[bit & 7])

    # -- vectorized queries ------------------------------------------------

    def is_prime_batch(self, values) -> np.ndarray:
        """Vectorized is_prime over an integer array of any shape, read in its
        own dtype: each key's flag byte by a gather, and in it the bit of the
        key's residue mod 30 (`_MASKS`, none off the wheel), with 2, 3 and 5 set
        apart when a key is that small. Keys go through in steps of `_STEP`, so
        no temporary grows with their number."""
        v = np.asarray(values)  # an empty list is float64: it reaches no bit operation
        least = int(v.min()) if v.size else 0
        if v.size and (least < 0 or int(v.max()) > self.limit):
            raise ValueError(f"is_prime_batch arguments outside [0, {self.limit}]")
        out = np.empty(v.shape, dtype=bool)
        keys, flags = v.reshape(-1), out.reshape(-1)
        for s in range(0, keys.size, _STEP):
            x = keys[s : s + _STEP]
            byte = x // 30  # a limit that is a multiple of 30 has its byte past the flags,
            flag = np.take(self._packed, byte, mode="clip")  # clipped: its mask is 0
            flag &= np.take(_MASKS, x - 30 * byte, mode="clip")
            flags[s : s + _STEP] = flag
            if least <= 5:
                flags[s : s + _STEP] |= (x == 2) | (x == 3) | (x == 5)
        return out

    def prime_count_batch(self, values) -> np.ndarray:
        """Vectorized pi over ascending integer keys of any shape, as int64 of
        that shape. In steps of at most `_STEP` keys, each count adds the primes
        flagged before the step's first flag word, a running popcount of the words
        from there to the key's word, the popcount of the key's word shifted left
        past the key's bit (`_through`, shared with `half_counts`), and the primes
        2, 3 and 5 up to the key. A step ends at the first key `_STEP` or more
        words on, so its temporaries stay within `_STEP` keys and words, and no
        prime is decoded. Keys that do not ascend are a ValueError."""
        v = np.asarray(values)
        out = np.empty(v.shape, dtype=np.int64)
        keys, counts = v.reshape(-1), out.reshape(-1)
        if keys.size and (int(keys[0]) < 0 or int(keys[-1]) > self.limit):
            raise ValueError(f"prime_count_batch arguments outside [0, {self.limit}]")
        last = s = 0
        while s < keys.size:
            x = keys[s : s + _STEP]
            if int(x[0]) < last or np.any(x[1:] < x[:-1]):
                raise ValueError("prime_count_batch arguments do not ascend")
            first = (max(int(x[0]), 1) - 1) // 240  # the flag word of the step's first key
            if (int(x[-1]) - 1) // 240 >= first + _STEP:  # end at the first key _STEP words on
                x = x[: int(np.searchsorted(x, 240 * (first + _STEP) + 1))]
            count, s = counts[s : s + x.size], s + x.size
            last, small = int(x[-1]), np.searchsorted(x, np.array(_OUT_OF_BAND, x.dtype)).tolist()
            # the largest integer <= max(x, 1) prime to 30 lies in the word y // 240,
            # 240 integers a word, where its bit is the last bit of 1 + y % 240
            y = np.maximum(x, 1, out=count)
            y -= 1
            w = y // 240
            y -= 240 * w
            self._through(w, np.take(_SHIFTS, y, mode="clip").view(np.uint64), count, 3)
            for i in small:
                count[:i] -= 1  # 2, 3 and 5, each counted only from the first key at least it
        return out

    def _through(self, words, shifts, out, plus: int) -> np.ndarray:
        """`plus` and the primes flagged before each of the ascending int64 `words`,
        and in it after a left shift by the uint64 `shifts` (none at 64), into the
        int64 `out`, by a running popcount over the words in place: the one vectorized
        count. `words` and `shifts` are overwritten, so no temporary is as long."""
        first = int(words[0])
        window = self._words[first : int(words[-1]) + 1]
        words -= first  # each key's word, counted from the window's start
        before = np.empty(window.size + 1, dtype=np.int64)
        before[0] = self._flagged(64 * first) + plus  # the primes flagged before the window
        before[1:] = np.bitwise_count(window)
        np.cumsum(before, out=before)  # and before each word of it
        word = out.view(np.uint64)
        np.take(window, words, out=word, mode="clip")  # "raise" would copy through a buffer
        word <<= shifts
        np.bitwise_count(word, out=shifts)
        np.take(before, words, out=out, mode="clip")
        out += shifts.view(np.int64)
        return out

    def neighbours(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(p_c, p_{c + 1}), c = pi(key - 1), as int64, for the 1-D integer `keys` in [6, the last
        prime], else a ValueError: the nearest set flag bits at or below key - 1's bit and past it,
        in the key's word, masked, or a word at a time outward; for keys 6 and 7, p_c is 5."""
        x, top = np.asarray(keys), self._last_prime
        if x.size and (int(x.min()) < 6 or int(x.max()) > top):
            raise ValueError(f"neighbours arguments outside [6, {top}], the table's last prime")
        bits = x.astype(np.int64) - 2  # key - 1 = 240 * (bits // 240) + 1 + bits % 240
        word = self._words[bits // 240]
        low = word & np.right_shift(~np.uint64(0), np.take(_SHIFTS, bits % 240).view(np.uint64))
        word ^= low  # the bits past key - 1's, and in `low` those at or below it
        for out, step in ((low, -1), (word, 1)):
            np.floor_divide(x - 2, 240, out=bits)  # the key's word, moved on while no bit is set
            miss = np.flatnonzero((out == 0) & (x > 7))  # 7 has the first flag bit
            while miss.size:  # no key passes the last prime, and none past 7 steps below 7
                bits[miss] += step
                out[miss] = self._words[bits[miss]]
                miss = miss[out[miss] == 0]
            if step < 0:
                for s in (1, 2, 4, 8, 16, 32):
                    out |= out >> s  # smeared down: the bits through the highest set bit
            else:
                out ^= out - 1  # the bits through the lowest set bit
            bits *= 64  # the word's first bit, and the place of the set bit in it:
            bits += np.bitwise_count(out) - 1  # the bits through it, less one
            _integers(bits, out.view(np.int64))
        return np.where(x < 8, 5, low.view(np.int64)), word.view(np.int64)

    def primes_upto(self, x: int) -> np.ndarray:
        """All primes <= x, ascending, in the dtype of the table's limit: one decode of
        the flags, which the table does not keep."""
        if not 0 <= x <= self.limit:
            raise ValueError(f"primes_upto argument {x} outside [0, {self.limit}]")
        return self.primes_between(0, x, out=np.empty(self.prime_count(x), table_dtype(self.limit)))

    def primes_between(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """All primes in [lo, hi], ascending, read from the flags:
        the prefix of `out` they fill (it must hold them all, in int64 or the table's
        dtype), or a new int64 array. Each step of flag bits that `_flag_bits` yields
        becomes integers in `out`."""
        if lo < 0 or hi > self.limit:
            raise ValueError(f"primes_between [{lo}, {hi}] outside [0, {self.limit}]")
        if out is None:
            count = self.prime_count(max(hi, 0)) - self.prime_count(max(lo - 1, 0))
            out = np.empty(max(count, 0), dtype=np.int64)
        small = [p for p in _OUT_OF_BAND if lo <= p <= hi]
        out[: len(small)] = small
        at = len(small)
        for bits in self._flag_bits(lo, hi):
            _integers(bits, out[at : at + bits.size])
            at += bits.size
        return out[:at]

    def integers_of(self, bits: np.ndarray, out: np.ndarray) -> np.ndarray:
        """The integers of flag `bits` that `half_counts` gives, into an `out` apart from them."""
        return _integers(bits, out)

    def _flag_bits(self, lo: int, hi: int):
        """The flag bits of the flagged primes in [lo, hi], ascending, as the int64
        arrays that `mask_positions` yields."""
        return mask_positions(self._packed, _last_bit(lo - 1) + 1, _last_bit(hi) + 1)

    def twins(self, hi: int) -> np.ndarray:
        """The lesser members p of the twin pairs (p, p + 2) with p + 2 <= hi, ascending, in
        the table's dtype. Past 5/7 a pair is a set flag bit 2, 4 or 7 of a byte (`_PAIRS`:
        11, 17, 29 mod 30) and the set bit after it, found in steps of `_STEP` words ANDed
        with themselves shifted a bit down, counted, then unpacked from the bytes holding any."""
        last = _last_bit(hi)
        nwords = (last >> 6) + 1

        def pairs(s):
            w = self._words[s : min(s + _STEP, nwords) + 1]  # and the word after, if any
            pair = w[: min(_STEP, nwords - s)] >> np.uint64(1)
            pair[: w.size - 1] |= w[1:] << np.uint64(63)
            pair &= w[: pair.size] & _PAIRS
            if s + pair.size == nwords:
                pair[-1] &= np.uint64((1 << (last & 63)) - 1)  # the lesser bits below `last`
            return pair.view(np.uint8)

        small = [p for p in (3, 5) if p + 2 <= hi]
        count = sum(int(np.bitwise_count(pairs(s)).sum()) for s in range(0, nwords, _STEP))
        out, at = np.empty(len(small) + count, dtype=table_dtype(self.limit)), len(small)
        out[:at] = small
        for s in range(0, nwords, _STEP):
            pair = pairs(s)
            byte = np.flatnonzero(pair != 0)
            bits = np.flatnonzero(mask_bits(pair[byte], 0, 8 * byte.size))
            bits = 8 * (byte[bits >> 3] + 8 * s) + (bits & 7)
            at += _integers(bits, out[at : at + bits.size]).size
        return out

    def half_counts(self, lo: int, hi: int, a: int, bits, out, words, shifts) -> list[int]:
        """pi((p - 1)/2) - a for each prime p in [lo, hi], ascending, into `out`, and p's
        flag bit i into `bits` (0 for 2, 3 and 5, which come first and are returned): the
        last flag bit of (p - 1)/2 lies in word i >> 7, which a left shift by
        `_HALF_SHIFTS[i & 127]` cuts after it, and `_through` counts through it. The four
        int64 arrays hold one entry a prime; `words` and `shifts` are scratch."""
        small = [p for p in _OUT_OF_BAND if lo <= p <= hi]
        bits[: len(small)] = 0
        out[: len(small)] = [self.prime_count(p >> 1) - a for p in small]
        rest = slice(len(small), out.size)
        at = rest.start
        for found in self._flag_bits(lo, hi):
            bits[at : at + found.size] = found
            at += found.size
        if at > rest.start:
            shifts = shifts[rest].view(np.uint64)
            np.right_shift(bits[rest], 7, out=words[rest])
            np.bitwise_and(bits[rest], 127, out=out[rest])
            np.take(_HALF_SHIFTS, out[rest], out=shifts, mode="clip")
            self._through(words[rest], shifts, out[rest], 3 - a)  # and 2, 3 and 5, below (p - 1)/2
            if lo <= 7 <= hi:
                out[len(small)] -= 1  # but for 7: (7 - 1)/2 = 3 lies below 5
        return small

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the packed flags in the cache layout of :mod:`table_file`."""
        table_file.write(path, _MAGIC, [self.limit], self._packed)


def load(path) -> PrimeTable:
    """Read a table written by :meth:`PrimeTable.save`."""
    (limit,), packed = table_file.read(path, _MAGIC, 1, np.uint8)
    if limit < 2 or packed.size != (_last_bit(limit) >> 3) + 1:
        raise ValueError(f"{path}: {packed.size} flag bytes do not fit limit {limit}")
    return PrimeTable(limit, packed)


def build(limit: int) -> PrimeTable:
    """Sieve [2, limit] segment by segment and return the finished table.

    A segment is up to `_SEGMENT_ROWS` flag bytes, held as 8 columns of one
    bool a byte, column k for the integers 30j + `_WHEEL`[k]. It starts as a
    copy of one pattern, the integers prime to the `_PRESIEVE` primes, which
    repeats every 17,017 flag bytes. Each larger base prime p then clears its
    multiples p * m, m >= p, in each column, whose m lie in one residue class
    mod 30 and whose bytes step by p: one strided write a column, from that
    column's next byte, carried from segment to segment. Column k, viewed as
    words and shifted left by k, is ORed into column 0, which holds the
    segment's flag bytes; the bits past `limit` are cleared last.

    The flag bytes are split into contiguous parts, one per process (see
    :func:`_processes`), sieved into the same shared flag bytes by
    :func:`_run_parts`; the table is built once every child has exited.

    Peak memory is what is allocated here, and `_MEMORY_CEILING` bounds its
    sum: the packed flags (8 bits per 30 integers, in one shared mapping that
    the forked processes write, padded to whole 8-byte words so that the
    table views them as words) and the superblock counts, written once at
    their final size, and the popcount of the words, one byte a word, plus in
    each process the pattern (8 columns of one period, or of the flag bytes if
    fewer), the segment's 8 columns (a segment's flag bytes, padded to whole
    words, 8 times) and 8 int64 next bytes a base prime. The base primes are
    sieved only once the rest fits, so that a vast limit fails at once.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    nbytes = (_last_bit(limit) >> 3) + 1
    nwords = -(-nbytes // 8)
    nproc = _processes(-(-nbytes // _PART_BYTES))
    period = math.prod(_PRESIEVE)  # flag bytes, of 30 integers each
    needed = (9 * nwords + 8 * (-(-nwords >> _SUPER_SHIFT) + 1)  # words, popcounts, superblocks
              + 8 * nproc * (min(period, nbytes) + 8 * -(-min(_SEGMENT_ROWS, nbytes) // 8)))
    base = np.flatnonzero(simple_sieve_flags(math.isqrt(limit) if needed <= _MEMORY_CEILING else 1))
    base = base[base > _PRESIEVE[-1]]
    needed += 64 * nproc * base.size
    if needed > _MEMORY_CEILING:
        raise ResourceLimitError(f"limit {limit} needs about {needed} bytes to sieve, "
                                 f"over the {_MEMORY_CEILING}-byte ceiling")

    # the integers prime to every pre-sieved prime, clear at the primes themselves
    # too, so that the pattern repeats exactly every `period` flag bytes
    pattern = np.ones((8, min(period, nbytes)), dtype=bool)
    for p in _PRESIEVE:
        for k, w in enumerate(_WHEEL.tolist()):  # 30j + w = 0 mod p from j = -w / 30 mod p
            pattern[k, -w * pow(30, -1, p) % p :: p] = False
    packed = table_file.word_padded(nbytes)
    _run_parts(_parts(nbytes, base, nproc), lambda part, parent: _sieve(
        packed, pattern, base, *part, parent), "sieve", "sieving flag bytes [{}, {})")
    packed[-1] &= (2 << (_last_bit(limit) & 7)) - 1  # the last byte's bits past the limit
    return PrimeTable(limit, packed)


def _run_parts(parts, run, kind: str, doing: str) -> None:
    """Call `run(parts[0], None)` here and `run(part, pid)` in a child forked
    from this process, of pid `pid`, for each later part; return once all have
    exited. A failed child is an InternalConsistencyError, a refused fork a
    ResourceLimitError; on any exception every child is killed and reaped."""
    parent, children = os.getpid(), {}
    try:
        for part in parts[1:]:
            try:
                pid = os.fork()
            except OSError as exc:
                raise ResourceLimitError(f"cannot start a {kind} process: {exc}") from exc
            if pid == 0:  # the child runs its part and ends here, unwinding nothing
                code = 1
                try:
                    run(part, parent)
                    code = 0
                except BaseException:
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            children[pid] = part
        run(parts[0], None)
        for pid, part in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                raise InternalConsistencyError(
                    f"the process {doing.format(*part)} ended with status "
                    f"{os.waitstatus_to_exitcode(status)}")
    finally:
        for pid in children:  # left only by an exception
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _processes(units: int) -> int:
    """How many processes share `units` sieve segments or scan blocks: one per
    CPU this process may run on, with at least `_PART_SEGMENTS` units each, or
    just this one. It is also just this one where forking is unsafe or would
    warn: while another Python thread runs, and from Python 3.12, which warns
    on a fork in a process with more than one OS thread (numpy's OpenBLAS pool
    is one unless OPENBLAS_NUM_THREADS=1), while this process has another."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    if sys.version_info >= (3, 12):
        try:
            if len(os.listdir("/proc/self/task")) > 1:
                return 1
        except OSError:  # no per-thread listing: the Python threads were counted above
            pass
    return max(1, min(len(os.sched_getaffinity(0)), units // _PART_SEGMENTS))


def _parts(nbytes: int, base: np.ndarray, nproc: int) -> list[tuple[int, int]]:
    """`nproc` contiguous ranges [start, stop) of the flag bytes, each from a
    unit's first byte, of about equal work: a unit of `_PART_BYTES` costs about
    as much as the writes of `_UNIT_WRITES` large base primes into it, plus one
    for each base prime whose square lies below its end."""
    nunits = -(-nbytes // _PART_BYTES)
    ends = np.minimum(np.arange(1, nunits + 1) * _PART_BYTES, nbytes)
    work = np.cumsum(np.searchsorted(base, np.sqrt(30 * ends)) + _UNIT_WRITES)
    # part k starts after the last unit whose cumulative work stays within k / nproc of it all
    firsts = np.searchsorted(work, work[-1] * np.arange(1, nproc) // nproc, side="right")
    cuts = [0, *(firsts * _PART_BYTES).tolist(), nbytes]
    return list(zip(cuts, cuts[1:]))


def _sieve(packed, pattern, base, start: int, stop: int, parent: int | None = None) -> None:
    """Sieve flag bytes [start, stop) into `packed`, one segment of up to
    `_SEGMENT_ROWS` bytes at a time from `start`, in 8 bool columns that start
    whole words of one `table_file.word_padded` buffer. A process forked by
    `parent` exits once that process is gone."""
    period = pattern.shape[1]
    # the byte of each base prime's first multiple p * m in each column k, m >= p from
    # the residue m = _WHEEL[k] / p mod 30 (1 / p = p**7 mod 30), then from the part's first byte
    m = _WHEEL[:, None].astype(np.int64) * (base % 30) ** 7 % 30
    nxt = base * (base + (m - base) % 30) // 30
    nxt -= np.minimum(nxt - start, 0) // base * base
    width = -(-min(_SEGMENT_ROWS, stop - start) // 8) * 8
    columns = table_file.word_padded(8 * width).view(bool).reshape(8, width)
    for lo in range(start, stop, _SEGMENT_ROWS):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        hi = min(lo + _SEGMENT_ROWS, stop)
        seg = columns[:, : hi - lo]
        i, r = 0, lo % period  # r: the segment's offset into the pattern's period
        while i < hi - lo:
            n = min(period - r, hi - lo - i)
            seg[:, i : i + n] = pattern[:, r : r + n]
            i, r = i + n, 0
        if lo == 0:
            seg[:, 0] = _WHEEL > 1  # 1 is not prime, and 7..29 are
        for col, at in zip(seg, nxt):  # a column at a time, so that its writes stay in cache
            active = np.flatnonzero(at < hi)
            step, first = base[active], at[active]
            for i, p in zip((first - lo).tolist(), step.tolist()):
                col[i::p] = False
            at[active] = first + (hi - first + step - 1) // step * step
        words = columns.view(np.uint64)[:, : -(-(hi - lo) // 8)]  # each byte 0 or 1: no carry
        for k in range(1, 8):
            words[k] <<= k
            words[0] |= words[k]
        packed[lo:hi] = words[0].view(np.uint8)[: hi - lo]


def _superblock_counts(words: np.ndarray) -> np.ndarray:
    """The primes flagged before each superblock of `1 << _SUPER_SHIFT` flag words,
    and in all, as int64: one popcount of the words, one byte a word, summed over
    each whole superblock and then over the last, partial one. The sums are taken
    in int64 as they go, so no int64 copy of the popcounts is made."""
    per = 1 << _SUPER_SHIFT
    pops = np.bitwise_count(words)
    whole = pops.size // per
    counts = np.zeros(-(-pops.size // per) + 1, dtype=np.int64)
    counts[1 : whole + 1] = pops[: whole * per].reshape(whole, per).sum(axis=1, dtype=np.int64)
    counts[whole + 1 :] = pops[whole * per :].sum(dtype=np.int64)
    return np.cumsum(counts, out=counts)
