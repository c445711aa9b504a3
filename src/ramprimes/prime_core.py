"""Segmented sieve of Eratosthenes with packed odd-only flag storage.

A :class:`PrimeTable` answers primality, prime counting, and n-th prime
queries for every integer in [2, limit]. Flags are kept one bit per odd
number (the prime 2 is handled out of band), and cumulative prime counts
are checkpointed at a fixed stride so a counting query is one checkpoint
lookup plus a short popcount.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import ResourceLimitError

DEFAULT_SEGMENT_FLAGS = 1 << 20
DEFAULT_COUNT_STRIDE = 1 << 16
DEFAULT_MEMORY_CEILING = 4 << 30

_MAGIC = b"RPPT"
_VERSION = 1
_HEADER = struct.Struct("<4sIQQQ")

_EXTRACT_CHUNK = 1 << 25  # integers per step when the prime list is extracted


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

    def __init__(self, limit: int, packed: np.ndarray, count_stride: int):
        self.limit = limit
        self.count_stride = count_stride
        self._packed = packed
        self._bytes_per_block = count_stride // 16
        self._checkpoints = self._build_checkpoints()
        self._prime_cache: np.ndarray | None = None
        self._prime_cache_limit = -1

    def _build_checkpoints(self) -> np.ndarray:
        # The uint8 popcounts are summed per block by a buffered reduction;
        # casting them to int64 first would take eight times the table's size.
        pops = np.bitwise_count(self._packed)
        full = len(pops) - len(pops) % self._bytes_per_block
        sums = pops[:full].reshape(-1, self._bytes_per_block).sum(axis=1, dtype=np.int64)
        if full < len(pops):
            sums = np.append(sums, pops[full:].sum(dtype=np.int64))
        return np.concatenate([[0], np.cumsum(sums)])

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
            raise ValueError(
                f"nth_prime argument {n} outside [1, {self.total_primes}] "
                f"(table limit {self.limit})"
            )
        if n == 1:
            return 2
        m = n - 1  # rank among odd primes
        blk = int(np.searchsorted(self._checkpoints, m, side="left")) - 1
        need = m - int(self._checkpoints[blk])
        s = blk * self._bytes_per_block
        e = min(s + self._bytes_per_block, len(self._packed))
        pops = np.cumsum(np.bitwise_count(self._packed[s:e]).astype(np.int64))
        bi = int(np.searchsorted(pops, need, side="left"))
        need -= int(pops[bi - 1]) if bi else 0
        byte = int(self._packed[s + bi])
        for bit in range(8):
            if byte >> bit & 1:
                need -= 1
                if need == 0:
                    return (((s + bi) << 3) + bit) * 2 + 1
        raise AssertionError("checkpoint table inconsistent")

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
        top = self.nth_prime(int(n.max()))
        primes = self._primes_through(top)
        return primes[n - 1]

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

    def flags_range(self, lo: int, hi: int) -> np.ndarray:
        """Primality flags for every integer in [lo, hi] as a bool array."""
        if not 0 <= lo <= hi <= self.limit:
            raise ValueError(f"flags_range [{lo}, {hi}] outside [0, {self.limit}]")
        out = np.zeros(hi - lo + 1, dtype=bool)
        first_odd = lo | 1
        if first_odd <= hi:
            last_odd = hi if hi & 1 else hi - 1
            b0, b1 = first_odd >> 1, last_odd >> 1
            byte0 = b0 >> 3
            bits = np.unpackbits(self._packed[byte0 : (b1 >> 3) + 1], bitorder="little")
            out[first_odd - lo :: 2] = bits[b0 - (byte0 << 3) : b1 + 1 - (byte0 << 3)].view(bool)
        if lo <= 2 <= hi:
            out[2 - lo] = True
        return out

    def _primes_through(self, x: int) -> np.ndarray:
        """Cached ascending array of all primes <= max(x, previous requests)."""
        if self._prime_cache is None or self._prime_cache_limit < x:
            x = min(max(x, 2), self.limit)
            # 2 goes in apart: prepending it would copy the first chunk and raise peak RSS
            chunks = (self.primes_between(max(lo, 3), min(lo + _EXTRACT_CHUNK - 1, x))
                      for lo in range(0, x + 1, _EXTRACT_CHUNK))
            cache = np.concatenate([np.array([2], dtype=np.int64), *chunks])
            cache.setflags(write=False)
            self._prime_cache = cache
            self._prime_cache_limit = x
        return self._prime_cache

    # -- persistence ---------------------------------------------------------

    def save(self, path) -> None:
        """Write the packed flags with a self-describing header."""
        path = Path(path)
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, self.limit, self.count_stride,
                                  len(self._packed)))
            self._packed.tofile(fh)


def load(path) -> PrimeTable:
    """Read a table written by :meth:`PrimeTable.save`."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, version, limit, stride, nbytes = _HEADER.unpack(header)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a prime table cache")
        if version != _VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        if limit < 2 or nbytes != ((limit + 1) // 2 + 7) // 8 or stride < 16 or stride % 16:
            raise ValueError(f"{path}: inconsistent header (limit {limit}, "
                             f"stride {stride}, {nbytes} flag bytes)")
        packed = np.fromfile(fh, dtype=np.uint8, count=nbytes)
    if len(packed) != nbytes:
        raise ValueError(f"{path}: truncated flag data")
    return PrimeTable(int(limit), packed, int(stride))


def build(
    limit: int,
    *,
    segment_flags: int = DEFAULT_SEGMENT_FLAGS,
    count_stride: int = DEFAULT_COUNT_STRIDE,
    memory_ceiling: int = DEFAULT_MEMORY_CEILING,
) -> PrimeTable:
    """Sieve [2, limit] segment by segment and return the finished table.

    Peak working memory is one segment of flags plus the packed output;
    `segment_flags` counts odd numbers per segment. `count_stride` is the
    number of integers covered by one cumulative-count checkpoint and must
    be a multiple of 16 so checkpoints align with packed bytes.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    if count_stride < 16 or count_stride % 16:
        raise ValueError("count_stride must be a positive multiple of 16")
    if segment_flags < 8 or segment_flags % 8:
        # packed segments are concatenated, so all but the last must fill whole bytes
        raise ValueError("segment_flags must be a positive multiple of 8")
    nbits = (limit + 1) // 2
    nbytes = (nbits + 7) // 8
    checkpoint_bytes = 8 * (nbytes // (count_stride // 16) + 2)
    needed = 2 * nbytes + checkpoint_bytes  # the flags, their uint8 popcounts, checkpoints
    if needed > memory_ceiling:
        raise ResourceLimitError(
            f"limit {limit} needs about {needed} bytes of flag "
            f"storage, over the {memory_ceiling}-byte ceiling"
        )

    base = np.flatnonzero(simple_sieve_flags(math.isqrt(limit)))
    base_odd = [int(p) for p in base[1:]]  # odd base primes only

    chunks = []
    for lo_bit in range(0, nbits, segment_flags):
        hi_bit = min(lo_bit + segment_flags, nbits)
        seg = np.ones(hi_bit - lo_bit, dtype=bool)
        if lo_bit == 0:
            seg[0] = False  # the number 1
        lo_val = 2 * lo_bit + 1
        hi_val = 2 * hi_bit - 1
        for p in base_odd:
            if p * p > hi_val:
                break
            start = max(p * p, (lo_val + p - 1) // p * p)
            if start % 2 == 0:
                start += p
            if start > hi_val:
                continue
            seg[(start >> 1) - lo_bit :: p] = False
        chunks.append(np.packbits(seg, bitorder="little"))
    packed = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.uint8)
    return PrimeTable(limit, packed, count_stride)
