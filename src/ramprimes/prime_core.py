"""Segmented sieve of Eratosthenes with packed odd-only flag storage.

A :class:`PrimeTable` answers primality, prime counting, and n-th prime
queries for every integer in [2, limit]. Flags are kept one bit per odd
number (the prime 2 is handled out of band), and cumulative prime counts
are checkpointed at a fixed stride so a counting query is one checkpoint
lookup plus a short popcount.
"""

from __future__ import annotations

import math

import numpy as np

from . import table_file
from .errors import ResourceLimitError

_MAGIC = b"RPPT"

_SEGMENT_FLAGS = 1 << 20  # odd numbers per sieve segment; a multiple of 8: whole bytes
_COUNT_STRIDE = 1 << 16  # integers per count checkpoint; a multiple of 16: whole bytes
_MEMORY_CEILING = 4 << 30  # bytes that build() may allocate
_EXTRACT_CHUNK = 1 << 25  # integers per step when the prime list is extracted
_POPCOUNT_SLICE = _EXTRACT_CHUNK // 16  # flag bytes popcounted per step while checkpointing


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
        self.limit = limit
        self._packed = packed
        self._bytes_per_block = _COUNT_STRIDE // 16
        self._checkpoints = self._build_checkpoints()
        self._prime_cache: np.ndarray | None = None
        self._prime_cache_limit = -1

    def _build_checkpoints(self) -> np.ndarray:
        # One popcount buffer of whole blocks is reused slice by slice and summed
        # per block by a buffered reduction: no full-size copy of the flags exists.
        bpb, packed = self._bytes_per_block, self._packed
        step, nblocks = _popcount_slice(bpb, len(packed))
        pops = np.empty(step, dtype=np.uint8)
        sums = np.zeros(nblocks + 1, dtype=np.int64)
        for s in range(0, len(packed), step):
            n = min(step, len(packed) - s)
            k = -(-n // bpb)  # blocks in this slice; a final partial block is zero-padded
            pops[n : k * bpb] = 0
            np.bitwise_count(packed[s : s + n], out=pops[:n])
            sums[s // bpb + 1 :][:k] = pops[: k * bpb].reshape(k, bpb).sum(axis=1, dtype=np.int64)
        return np.cumsum(sums, out=sums)

    @property
    def total_primes(self) -> int:
        return int(self._checkpoints[-1]) + 1  # +1 for the prime 2

    # -- scalar queries ----------------------------------------------------

    def is_prime(self, k: int) -> bool:
        """True iff k is prime. k outside [0, limit] is rejected."""
        if not 0 <= k <= self.limit:
            raise ValueError(f"is_prime argument {k} outside [0, {self.limit}]")
        if k < 2:
            return False
        if k == 2:
            return True
        if k % 2 == 0:
            return False
        b = k >> 1
        return bool(self._packed[b >> 3] >> (b & 7) & 1)

    def prime_count(self, x: int) -> int:
        """pi(x): the number of primes not exceeding x."""
        if not 0 <= x <= self.limit:
            raise ValueError(f"prime_count argument {x} outside [0, {self.limit}]")
        if x < 2:
            return 0
        if x == 2:
            return 1
        b = (x if x & 1 else x - 1) >> 1  # inclusive bit index of last odd <= x
        full_bytes, rem_bits = divmod(b + 1, 8)
        blk = full_bytes // self._bytes_per_block
        cnt = int(self._checkpoints[blk])
        start = blk * self._bytes_per_block
        if full_bytes > start:
            cnt += int(np.bitwise_count(self._packed[start:full_bytes]).sum())
        if rem_bits:
            cnt += (int(self._packed[full_bytes]) & ((1 << rem_bits) - 1)).bit_count()
        return cnt + 1

    def nth_prime(self, n: int) -> int:
        """The n-th prime in increasing order; nth_prime(1) = 2."""
        if n < 1 or n > self.total_primes:
            raise ValueError(f"nth_prime argument {n} outside [1, {self.total_primes}] "
                             f"(table limit {self.limit})")
        if n == 1:
            return 2
        m = n - 1  # rank among odd primes
        blk = int(np.searchsorted(self._checkpoints, m, side="left")) - 1
        stride = 16 * self._bytes_per_block  # block blk: the odds in [blk*stride, (blk+1)*stride)
        odd = self.primes_between(max(blk * stride, 3), min((blk + 1) * stride - 1, self.limit))
        return int(odd[m - int(self._checkpoints[blk]) - 1])

    # -- vectorized queries ------------------------------------------------

    def is_prime_batch(self, values) -> np.ndarray:
        """Vectorized is_prime over an integer array."""
        v = np.asarray(values, dtype=np.int64)
        if v.size and (int(v.min()) < 0 or int(v.max()) > self.limit):
            raise ValueError(f"is_prime_batch arguments outside [0, {self.limit}]")
        out = np.zeros(v.shape, dtype=bool)
        odd = (v & 1).astype(bool) & (v > 2)
        b = v[odd] >> 1
        out[odd] = ((self._packed[b >> 3] >> (b & 7)) & 1).astype(bool)
        out[v == 2] = True
        return out

    def prime_count_batch(self, values) -> np.ndarray:
        """Vectorized pi over an integer array (need not be sorted)."""
        v = np.asarray(values, dtype=np.int64)
        if v.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(v.min()) < 0 or int(v.max()) > self.limit:
            raise ValueError(f"prime_count_batch arguments outside [0, {self.limit}]")
        primes = self._primes_through(int(v.max()))
        return np.searchsorted(primes, v, side="right")

    def nth_prime_batch(self, ns) -> np.ndarray:
        """Vectorized nth_prime over an integer array."""
        n = np.asarray(ns, dtype=np.int64)
        if n.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(n.min()) < 1 or int(n.max()) > self.total_primes:
            raise ValueError(f"nth_prime_batch arguments outside [1, {self.total_primes}]")
        return self._primes_through(self.nth_prime(int(n.max())))[n - 1]

    def primes_upto(self, x: int) -> np.ndarray:
        """All primes <= x, ascending. The returned array is read-only."""
        if not 0 <= x <= self.limit:
            raise ValueError(f"primes_upto argument {x} outside [0, {self.limit}]")
        primes = self._primes_through(x)
        return primes[: int(np.searchsorted(primes, x, side="right"))]

    def primes_between(self, lo: int, hi: int) -> np.ndarray:
        """All primes in [lo, hi], ascending, read from the flags, not the prime list."""
        if lo < 0 or hi > self.limit:
            raise ValueError(f"primes_between [{lo}, {hi}] outside [0, {self.limit}]")
        b0, b1 = lo >> 1, (hi - 1) >> 1  # bits of the first and last odd in range
        if b1 < b0:
            return np.array([2] if lo <= 2 <= hi else [], dtype=np.int64)
        byte0 = b0 >> 3
        bits = np.unpackbits(self._packed[byte0 : (b1 >> 3) + 1], bitorder="little").view(bool)
        odd = 2 * (b0 + np.flatnonzero(bits[b0 - (byte0 << 3) : b1 + 1 - (byte0 << 3)])) + 1
        return np.concatenate([[2], odd]) if lo <= 2 <= hi else odd

    def _primes_through(self, x: int) -> np.ndarray:
        """Cached ascending array of all primes <= max(x, previous requests)."""
        if self._prime_cache_limit < x:
            x = min(max(x, 2), self.limit)
            cache = np.empty(self.prime_count(x), dtype=np.int64)
            cache[0] = 2
            for lo in range(0, x + 1, _EXTRACT_CHUNK):
                lo, hi = max(lo, 3), min(lo + _EXTRACT_CHUNK - 1, x)
                cache[self.prime_count(lo - 1) : self.prime_count(hi)] = self.primes_between(lo, hi)
            cache.setflags(write=False)
            self._prime_cache, self._prime_cache_limit = cache, x
        return self._prime_cache

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the packed flags in the cache layout of :mod:`table_file`."""
        table_file.write(path, _MAGIC, [self.limit], self._packed)


def load(path) -> PrimeTable:
    """Read a table written by :meth:`PrimeTable.save`."""
    (limit,), packed = table_file.read(path, _MAGIC, 1, np.uint8)
    if limit < 2 or packed.size != ((limit + 1) // 2 + 7) // 8:
        raise ValueError(f"{path}: {packed.size} flag bytes do not fit limit {limit}")
    return PrimeTable(limit, packed)


def build(limit: int) -> PrimeTable:
    """Sieve [2, limit] segment by segment and return the finished table.

    Peak memory is what is allocated here, and `_MEMORY_CEILING` bounds its
    sum: the packed flags (one bit per odd number) and the checkpoints,
    written once at their final size, plus one segment's bool flags, their
    packed bytes and one popcount slice while checkpointing.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    nbits = (limit + 1) // 2
    nbytes = (nbits + 7) // 8
    popcount_bytes, nblocks = _popcount_slice(_COUNT_STRIDE // 16, nbytes)
    seg_bits = min(_SEGMENT_FLAGS, nbits)
    needed = nbytes + 8 * (nblocks + 1) + seg_bits + (seg_bits + 7) // 8 + popcount_bytes
    if needed > _MEMORY_CEILING:
        raise ResourceLimitError(f"limit {limit} needs about {needed} bytes to sieve, "
                                 f"over the {_MEMORY_CEILING}-byte ceiling")

    base_odd = np.flatnonzero(simple_sieve_flags(math.isqrt(limit)))[1:].tolist()

    packed = np.empty(nbytes, dtype=np.uint8)
    for lo_bit in range(0, nbits, _SEGMENT_FLAGS):
        hi_bit = min(lo_bit + _SEGMENT_FLAGS, nbits)
        seg = np.ones(hi_bit - lo_bit, dtype=bool)
        if lo_bit == 0:
            seg[0] = False  # the number 1
        lo_val, hi_val = 2 * lo_bit + 1, 2 * hi_bit - 1
        for p in base_odd:
            if p * p > hi_val:
                break
            start = max(p * p, (lo_val + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            if start > hi_val:
                continue
            seg[(start >> 1) - lo_bit :: p] = False
        packed[lo_bit >> 3 : (hi_bit + 7) >> 3] = np.packbits(seg, bitorder="little")
    return PrimeTable(limit, packed)


def _popcount_slice(bytes_per_block: int, nbytes: int) -> tuple[int, int]:
    """(bytes popcounted per checkpointing step, number of checkpoint blocks)."""
    nblocks = -(-nbytes // bytes_per_block)
    step = bytes_per_block * max(1, _POPCOUNT_SLICE // bytes_per_block)
    return min(step, nblocks * bytes_per_block), nblocks
