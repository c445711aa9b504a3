"""Segmented sieve of Eratosthenes with packed odd-only flag storage, its
segments split across forked processes that write one shared flag buffer.

A :class:`PrimeTable` answers primality, prime counting, and n-th prime
queries for every integer in [2, limit]. Flags are kept one bit per odd
number (the prime 2 is handled out of band). The one prime-count index is
an int64 count of the odd primes before each superblock of
`1 << _SUPER_SHIFT` flag words (4096 bytes), made with the table in one
popcount pass: a scalar count is one superblock lookup plus a popcount of
at most one superblock's bytes.

Prime counts over arrays add a rank directory over the same flags, viewed in
place as uint64 words (Jacobson's rank; Vigna's broadword layout): the odd
primes before each word inside its superblock, as uint16. A count is then
three gathers and a popcount. The directory takes a quarter of the flag
bytes and is built on the first batch count, never by `build`, `load` or the
Ramanujan scan. For the in-place view, `build` and `load` allocate the flag
bytes padded to whole words (`table_file.word_padded`).

Tables of integers up to a limit, here the prime list and in
:mod:`ramanujan_core` the Ramanujan values, take their dtype from
:func:`table_dtype`: ``uint32`` while the limit stays 16 below 2**32, so
that sums such as ``p + 5`` cannot wrap, and ``int64`` past it. Every
search of such a table goes through :func:`search`, which casts its keys
to the table's dtype: under NumPy 2, searching a ``uint32`` table with a
Python int or an ``int64`` array would convert the whole table to
``int64`` on each call.
"""

from __future__ import annotations

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

_SEGMENT_FLAGS = 1 << 20  # odd numbers per sieve segment; a multiple of 8: whole bytes
_MEMORY_CEILING = 4 << 30  # bytes that build() may allocate
_EXTRACT_CHUNK = 1 << 20  # integers per step of the prime list's extraction
_COUNT_CHUNK = 1 << 25  # integers per step of the superblock-count pass: 2 MiB of flags
_NARROW = np.uint32  # the dtype of tables whose limit leaves it 16 of headroom
_SUPER_SHIFT = 9  # 512 flag words per rank superblock: 511 * 64 bits fit a uint16 offset
_RANK_CHUNK = 1 << 14  # keys per step of prime_count_batch, and words per directory step
_PRESIEVE = (3, 5, 7, 11, 13, 17)  # primes sieved by copying one pattern, ascending
_SEGMENT_WRITES = 1200  # a segment's copy and packing cost as much as this many strided writes
_PART_SEGMENTS = 8  # least segments per sieving process: below twice this many, none is forked


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
        self.limit = limit
        self._packed = packed
        self._supers = _superblock_counts(packed)
        self._prime_cache: np.ndarray | None = None
        self._prime_cache_limit = -1
        self._rank: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def total_primes(self) -> int:
        return int(self._supers[-1]) + 1  # +1 for the prime 2

    # -- scalar queries ----------------------------------------------------

    def is_prime(self, k: int) -> bool:
        """True iff k is prime. k outside [0, limit] is rejected."""
        return bool(self.is_prime_batch(k))

    def prime_count(self, x: int) -> int:
        """pi(x): the number of primes not exceeding x."""
        if not 0 <= x <= self.limit:
            raise ValueError(f"prime_count argument {x} outside [0, {self.limit}]")
        if x < 2:
            return 0
        b = (x - 1) >> 1  # the flag bit of the largest odd number <= x
        full_bytes, rem_bits = divmod(b + 1, 8)
        blk = full_bytes >> _SUPER_SHIFT + 3  # 8 << _SUPER_SHIFT flag bytes per superblock
        start = blk << _SUPER_SHIFT + 3
        cnt = int(self._supers[blk]) + int(np.bitwise_count(self._packed[start:full_bytes]).sum())
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
        blk = int(np.searchsorted(self._supers, m, side="left")) - 1
        lo = blk << _SUPER_SHIFT + 7  # superblock blk: the odds in [lo, lo + 128 << _SUPER_SHIFT)
        odd = self.primes_between(max(lo, 3), min(lo + (128 << _SUPER_SHIFT) - 1, self.limit))
        return int(odd[m - int(self._supers[blk]) - 1])

    # -- vectorized queries ------------------------------------------------

    def is_prime_batch(self, values) -> np.ndarray:
        """Vectorized is_prime over an integer array of any shape, read in its
        own dtype: each key's flag bit by a gather, zeroed for even keys by
        `x & 1`, with the key 2 set apart. The flag bit of 1 is clear. Keys go
        through in steps of `_RANK_CHUNK`, so no temporary grows with their number."""
        v = np.asarray(values)  # an empty list is float64: it reaches no bit operation
        if v.size and (int(v.min()) < 0 or int(v.max()) > self.limit):
            raise ValueError(f"is_prime_batch arguments outside [0, {self.limit}]")
        out = np.empty(v.shape, dtype=bool)
        keys, flags = v.reshape(-1), out.reshape(-1)
        for s in range(0, keys.size, _RANK_CHUNK):
            x = keys[s : s + _RANK_CHUNK]
            b = x >> 1  # an even limit's own bit can lie past the flags: its byte is clipped
            flag = np.take(self._packed, b >> 3, mode="clip") >> (b & 7)
            flags[s : s + _RANK_CHUNK] = (flag & x & 1).astype(bool) | (x == 2)
        return out

    def prime_count_batch(self, values) -> np.ndarray:
        """Vectorized pi over an integer array of any shape, sorted or not, as
        int64 of that shape. Each count is read in O(1) from the rank
        directory (built on the first call): the odd primes before the key's
        superblock, plus those before its word, plus the popcount of the word
        shifted left to drop the bits past the key. Keys go through in steps
        of `_RANK_CHUNK`, so no temporary grows with their number, and no
        prime list is extracted."""
        v = np.asarray(values)
        if v.size == 0:
            return np.zeros(v.shape, dtype=np.int64)
        if int(v.min()) < 0 or int(v.max()) > self.limit:
            raise ValueError(f"prime_count_batch arguments outside [0, {self.limit}]")
        # the kept directory is made before the output, so it does not sit above
        # the freed output in the heap, where it would keep that memory resident
        words, offsets = self._rank_directory()
        out = np.empty(v.shape, dtype=np.int64)
        keys, counts = v.reshape(-1), out.reshape(-1)
        for s in range(0, keys.size, _RANK_CHUNK):
            x, count = keys[s : s + _RANK_CHUNK], counts[s : s + _RANK_CHUNK]
            bit = x.astype(np.int64)
            np.maximum(bit, 1, out=bit)
            bit -= 1
            bit >>= 1  # the flag bit of the largest odd number <= max(x, 1)
            w = bit >> 6
            np.take(self._supers, w >> _SUPER_SHIFT, out=count)
            count += offsets[w]
            np.invert(bit, out=bit)
            bit &= 63  # 63 - bit % 64: the left shift that drops the word's bits past the key
            word = words[w]
            word <<= bit.view(np.uint64)
            count += np.bitwise_count(word)
            count += x >= 2  # the prime 2
        return out

    def prime_count_ascending(self, values) -> np.ndarray:
        """Vectorized pi over an ascending integer array, read from the flag
        bytes between its ends: a running popcount from the scalar count at
        the first byte, plus each value's partial byte. Its memory follows the
        span of `values`, not the table, so it suits short windows."""
        y = np.asarray(values, dtype=np.int64)
        if y.size == 0:
            return np.zeros(0, dtype=np.int64)
        if int(y[0]) < 0 or int(y[-1]) > self.limit:
            raise ValueError(f"prime_count_ascending arguments outside [0, {self.limit}]")
        # arrays of the input's size are reused in place: the scan calls this
        # once per block, and each extra one raises its peak memory
        bit = y - 1
        np.maximum(bit, 0, out=bit)
        bit >>= 1  # the flag bit of the largest odd number <= max(y, 1)
        first = int(bit[0]) >> 3
        window = self._packed[first : (int(bit[-1]) >> 3) + 1]
        pops = np.bitwise_count(window)
        before = np.cumsum(pops, dtype=np.int64) - pops  # bits set in the window before each byte
        if first:
            before += self.prime_count(16 * first - 1) - 1  # and in the bytes before the window
        mask = ((2 << (bit & 7)) - 1).astype(np.uint8)  # built in int64: 2 << 7 must not wrap
        k = np.right_shift(bit, 3, out=bit)  # each value's byte, counted from the window's start
        k -= first
        counts = before[k]
        counts += np.bitwise_count(window[k] & mask)
        counts[np.searchsorted(y, 2) :] += 1  # the prime 2
        return counts

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
        return primes[: int(search(primes, x, side="right"))]

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

    def _rank_directory(self) -> tuple[np.ndarray, np.ndarray]:
        """(words, offsets), built once: the flags as little-endian uint64
        words, in place, and the odd primes before each word inside its
        superblock of `1 << _SUPER_SHIFT` words."""
        if self._rank is None:
            packed, nwords = self._packed, -(-self._packed.size // 8)
            base = packed.base
            if base is None or base.nbytes < 8 * nwords or base.ctypes.data != packed.ctypes.data:
                raise ValueError("flag bytes are not padded to whole 8-byte words")
            words = base.view(np.uint8)[: 8 * nwords].view("<u8")
            per = 1 << _SUPER_SHIFT
            offsets = np.zeros(-(-nwords // per) * per, dtype=np.uint16)
            np.bitwise_count(words, out=offsets[:nwords])
            blocks = offsets.reshape(-1, per)
            step = max(1, _RANK_CHUNK >> _SUPER_SHIFT)
            for s in range(0, len(blocks), step):  # in steps: the inclusive sums are a temporary
                inclusive = np.cumsum(blocks[s : s + step], axis=1, dtype=np.uint16)
                np.subtract(inclusive, blocks[s : s + step], out=blocks[s : s + step])
            self._rank = words, offsets
        return self._rank

    def _primes_through(self, x: int) -> np.ndarray:
        """Cached ascending array of all primes <= max(x, previous requests),
        in the dtype of the table's limit."""
        if self._prime_cache_limit < x:
            x = min(max(x, 2), self.limit)
            cache = np.empty(self.prime_count(x), dtype=table_dtype(self.limit))
            cache[0], at = 2, 1
            for lo in range(3, x + 1, _EXTRACT_CHUNK):  # each step's primes straight into the list
                odd = self.primes_between(lo, min(lo + _EXTRACT_CHUNK - 1, x))
                cache[at : at + odd.size] = odd
                at += odd.size
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

    Each segment starts as a copy of one pattern, the odd numbers coprime to
    the `_PRESIEVE` primes, which repeats every 255,255 flag bits. Each larger
    base prime then clears its odd multiples with one strided write, from the
    flag bit of its next odd multiple, carried from segment to segment.

    The segments are split into contiguous parts, one per process (see
    :func:`_processes`). The parts past the first are sieved by forked
    processes into the same shared flag bytes while this process sieves the
    first; the table is built once every one of them has exited.

    Peak memory is what is allocated here, and `_MEMORY_CEILING` bounds its
    sum: the packed flags (one bit per odd number, padded to whole 8-byte
    words for the rank directory) and the superblock counts, written once at
    their final size, and the popcounts of one counting step, plus in each
    process the pattern (one period, or fewer bits if the flags are fewer),
    the one reused segment buffer of bool flags and a segment's packed bytes.
    The base primes and their offsets, O(sqrt(limit)), are left out. The rank
    directory is not built here.
    """
    if limit < 2:
        raise ValueError(f"limit must be >= 2, got {limit}")
    nbits = (limit + 1) // 2
    nbytes = (nbits + 7) // 8
    nsuper = -(-nbytes // (8 << _SUPER_SHIFT))
    nseg = -(-nbits // _SEGMENT_FLAGS)
    nproc = _processes(nseg)
    seg_bits = min(_SEGMENT_FLAGS, nbits)
    period = math.prod(_PRESIEVE)  # flag bits: odd numbers, so 2 * period integers
    needed = (8 * -(-nbytes // 8) + 8 * (nsuper + 1)
              + nproc * (min(period, nbits) + seg_bits + (seg_bits + 7) // 8)
              + min(_COUNT_CHUNK // 16, nsuper << _SUPER_SHIFT + 3))
    if needed > _MEMORY_CEILING:
        raise ResourceLimitError(f"limit {limit} needs about {needed} bytes to sieve, "
                                 f"over the {_MEMORY_CEILING}-byte ceiling")

    # the odd numbers coprime to every pre-sieved prime, clear at the primes
    # themselves too, so that the pattern repeats exactly every `period` bits
    pattern = np.ones(min(period, nbits), dtype=bool)
    for p in _PRESIEVE:
        pattern[p >> 1 :: p] = False
    base = np.flatnonzero(simple_sieve_flags(math.isqrt(limit)))
    base = base[base > _PRESIEVE[-1]]
    packed = table_file.word_padded(nbytes)
    parts = _parts(nbits, base, nproc)
    parent, children = os.getpid(), {}
    try:
        for start, stop in parts[1:]:
            try:
                pid = os.fork()
            except OSError as exc:
                raise ResourceLimitError(f"cannot start a sieve process: {exc}") from exc
            if pid == 0:  # the child sieves its part and ends here, unwinding nothing
                code = 1
                try:
                    _sieve(packed, pattern, base, start, stop, parent)
                    code = 0
                except BaseException:
                    os.write(2, traceback.format_exc().encode())
                finally:
                    os._exit(code)
            children[pid] = start, stop
        _sieve(packed, pattern, base, *parts[0])
        for pid, (start, stop) in list(children.items()):
            status = os.waitpid(pid, 0)[1]
            del children[pid]
            if status:
                raise InternalConsistencyError(
                    f"the process sieving flag bits [{start}, {stop}) ended with status "
                    f"{os.waitstatus_to_exitcode(status)}")
    finally:
        for pid in children:  # left only by an exception: no process outlives build
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return PrimeTable(limit, packed)


def _processes(nseg: int) -> int:
    """How many processes sieve `nseg` segments: one per CPU this process may
    run on, with at least `_PART_SEGMENTS` segments each, or just this one.
    It is also just this one where forking is unsafe or would warn: while
    another Python thread runs, and from Python 3.12, which warns on a fork in
    a process with more than one OS thread (numpy's OpenBLAS pool is one
    unless OPENBLAS_NUM_THREADS=1), while this process has another."""
    if not hasattr(os, "sched_getaffinity") or threading.active_count() > 1:
        return 1
    if sys.version_info >= (3, 12):
        try:
            if len(os.listdir("/proc/self/task")) > 1:
                return 1
        except OSError:  # no per-thread listing: the Python threads were counted above
            pass
    return max(1, min(len(os.sched_getaffinity(0)), nseg // _PART_SEGMENTS))


def _parts(nbits: int, base: np.ndarray, nproc: int) -> list[tuple[int, int]]:
    """`nproc` contiguous ranges [start, stop) of the flag bits, each from a
    segment's first bit, of about equal work: a segment costs about as much
    as `_SEGMENT_WRITES` strided writes, plus one for each base prime whose
    square lies below its end."""
    nseg = -(-nbits // _SEGMENT_FLAGS)
    ends = np.minimum(np.arange(1, nseg + 1) * _SEGMENT_FLAGS, nbits)
    work = np.cumsum(np.searchsorted(base, np.sqrt(2 * ends)) + _SEGMENT_WRITES)
    # part k starts after the last segment whose cumulative work stays within k / nproc of it all
    firsts = np.searchsorted(work, work[-1] * np.arange(1, nproc) // nproc, side="right")
    cuts = [0, *(firsts * _SEGMENT_FLAGS).tolist(), nbits]
    return list(zip(cuts, cuts[1:]))


def _sieve(packed, pattern, base, start: int, stop: int, parent: int | None = None) -> None:
    """Sieve flag bits [start, stop) into `packed`, one segment of
    `_SEGMENT_FLAGS` bits at a time from `start`, a segment's first bit. A
    process forked by `parent` exits once that process is gone."""
    period = math.prod(_PRESIEVE)
    # the flag bit of each base prime's first odd multiple from max(its square, start)
    nxt = np.maximum(base * base >> 1, start + ((base >> 1) - start) % base)
    buf = np.empty(min(_SEGMENT_FLAGS, stop - start), dtype=bool)
    for lo_bit in range(start, stop, _SEGMENT_FLAGS):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        hi_bit = min(lo_bit + _SEGMENT_FLAGS, stop)
        seg = buf[: hi_bit - lo_bit]
        i, r = 0, lo_bit % period  # r: the segment's offset into the pattern's period
        while i < seg.size:
            n = min(period - r, seg.size - i)
            seg[i : i + n] = pattern[r : r + n]
            i, r = i + n, 0
        for p in _PRESIEVE:
            if lo_bit <= p >> 1 < hi_bit:
                seg[(p >> 1) - lo_bit] = True
        if lo_bit == 0:
            seg[0] = False  # the number 1
        # the base primes whose square is below the segment's end, then those with a multiple in it
        reach = np.searchsorted(base, math.isqrt(2 * hi_bit - 1), side="right")
        active = np.flatnonzero(nxt[:reach] < hi_bit)
        step, at = base[active], nxt[active]
        for i, p in zip((at - lo_bit).tolist(), step.tolist()):
            seg[i::p] = False
        nxt[active] = at + (hi_bit - at + step - 1) // step * step
        packed[lo_bit >> 3 : (hi_bit + 7) >> 3] = np.packbits(seg, bitorder="little")


def _superblock_counts(packed: np.ndarray) -> np.ndarray:
    """The odd primes flagged before each superblock of `8 << _SUPER_SHIFT`
    bytes, and in all, as int64: one popcount pass in steps of `_COUNT_CHUNK`
    integers (2 MiB of flags) through one buffer, with no full-size copy."""
    # Freeing that buffer lets glibc serve blocks up to 2 MiB from the heap, not
    # fresh mmaps: at 128 KiB steps, compute_below(3e8) faulted in 8 times the
    # pages and ran about 15% slower. That is why this step has its own constant
    # and stays at 2 MiB while the prime list is extracted in smaller steps.
    per = 8 << _SUPER_SHIFT  # flag bytes per superblock
    step = per * max(1, _COUNT_CHUNK // 16 // per)
    nsuper = -(-packed.size // per)
    pops = np.empty(min(step, nsuper * per), dtype=np.uint8)
    counts = np.zeros(nsuper + 1, dtype=np.int64)
    for s in range(0, packed.size, step):
        n = min(step, packed.size - s)
        pops[n:] = 0  # a final partial superblock is zero-padded
        np.bitwise_count(packed[s : s + n], out=pops[:n])
        k = -(-n // per)
        counts[1 + s // per :][:k] = pops[: k * per].reshape(k, per).sum(axis=1, dtype=np.int64)
    return np.cumsum(counts, out=counts)
