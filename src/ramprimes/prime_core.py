"""Segmented sieve of Eratosthenes with packed odd-only flag storage, its
segments split across forked processes that write one shared flag buffer,
as they write the one prime list extracted from it.

A :class:`PrimeTable` answers primality, prime counting, and n-th prime
queries for every integer in [2, limit]. Flags are kept one bit per odd
number (the prime 2 is handled out of band). The one prime-count index is
an int64 count of the odd primes before each superblock of
`1 << _SUPER_SHIFT` flag words (4096 bytes), made with the table in one
popcount pass: a scalar count is one superblock lookup plus a popcount of
at most one superblock's bytes.

Prime counts over arrays of ascending keys, the one vectorized pi, read the
same flags viewed in place as uint64 words: for a step of keys, the scalar
count before the step's first word, a running popcount of the words up to
each key's word, and the popcount of that word up to the key's bit. No index
is kept for them. For the in-place view, `build` and `load` allocate the
flag bytes padded to whole words (`table_file.word_padded`).

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
_COUNT_CHUNK = 1 << 25  # integers per step of the superblock-count pass: 2 MiB of flags
_NARROW = np.uint32  # the dtype of tables whose limit leaves it 16 of headroom
_SUPER_SHIFT = 9  # 512 flag words per superblock of the prime-count index
_PRESIEVE = (3, 5, 7, 11, 13, 17)  # primes sieved by copying one pattern, ascending
_SEGMENT_WRITES = 1200  # a segment's copy and packing cost as much as this many strided writes
_PART_SEGMENTS = 8  # least segments or scan blocks per process: below twice this many, no fork
_STEP = 1 << 13  # int64 elements per step of a decode, count or compaction: 64 KiB, so that its
# temporaries stay below glibc's least mmap threshold and come from the heap, whatever came before


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
        self._words = _words_in_place(packed)
        self._prime_cache: np.ndarray | None = None
        self._prime_cache_limit = -1

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
        through in steps of `_STEP`, so no temporary grows with their number."""
        v = np.asarray(values)  # an empty list is float64: it reaches no bit operation
        if v.size and (int(v.min()) < 0 or int(v.max()) > self.limit):
            raise ValueError(f"is_prime_batch arguments outside [0, {self.limit}]")
        out = np.empty(v.shape, dtype=bool)
        keys, flags = v.reshape(-1), out.reshape(-1)
        for s in range(0, keys.size, _STEP):
            x = keys[s : s + _STEP]
            b = x >> 1  # an even limit's own bit can lie past the flags: its byte is clipped
            flag = np.take(self._packed, b >> 3, mode="clip") >> (b & 7)
            flags[s : s + _STEP] = (flag & x & 1).astype(bool) | (x == 2)
        return out

    def prime_count_batch(self, values, out: np.ndarray | None = None) -> np.ndarray:
        """Vectorized pi over ascending integer keys of any shape, as int64 of
        that shape, written into `out` when given (it may be `values` itself).
        In steps of at most `_STEP` keys, each count adds the scalar count before
        the step's first flag word, a running popcount of the words from there to
        the key's word (the flags viewed in place as little-endian uint64), and
        the popcount of the key's word shifted left past the key's bit. A step ends
        at the first key `_STEP` or more words on, so its temporaries stay within
        `_STEP` keys and words, and no prime list is extracted. Keys that do not
        ascend are a ValueError."""
        v = np.asarray(values)
        out = np.empty(v.shape, dtype=np.int64) if out is None else out
        keys, counts = v.reshape(-1), out.reshape(-1)
        if keys.size and (int(keys[0]) < 0 or int(keys[-1]) > self.limit):
            raise ValueError(f"prime_count_batch arguments outside [0, {self.limit}]")
        if self._words is None:
            raise ValueError("flag bytes are not padded to whole 8-byte words")
        last = s = 0
        while s < keys.size:
            x = keys[s : s + _STEP]
            # `x` is read before `count`, which may share its memory, overwrites it
            if int(x[0]) < last or np.any(x[1:] < x[:-1]):
                raise ValueError("prime_count_batch arguments do not ascend")
            first = (max(int(x[0]), 1) - 1) >> 7  # the flag word of the step's first key
            if (int(x[-1]) - 1) >> 7 >= first + _STEP:  # end at the first key _STEP words on
                x = x[: int(np.searchsorted(x, 128 * (first + _STEP) + 1))]
            count, s = counts[s : s + x.size], s + x.size
            last, two = int(x[-1]), int(np.searchsorted(x, 2))
            bit = np.maximum(x, 1, out=count)
            bit -= 1
            bit >>= 1  # the flag bit of the largest odd number <= max(x, 1)
            window = self._words[first : (int(bit[-1]) >> 6) + 1]
            w = bit >> 6
            w -= first  # each key's word, counted from the window's start
            word = window[w]
            np.invert(bit, out=bit)
            bit &= 63  # 63 - bit % 64: the left shift that drops the word's bits past the key
            word <<= bit.view(np.uint64)
            before = np.empty(window.size + 1, dtype=np.int64)
            before[0] = 0
            np.cumsum(np.bitwise_count(window), out=before[1:])  # bits set before each word
            np.take(before, w, out=count)
            count += np.bitwise_count(word)
            count[two:] += 1  # the prime 2
            if first:  # and the odd primes in the words before the window
                count += self.prime_count(128 * first - 1) - 1
        return out

    def primes_upto(self, x: int) -> np.ndarray:
        """All primes <= x, ascending. The returned array is read-only."""
        if not 0 <= x <= self.limit:
            raise ValueError(f"primes_upto argument {x} outside [0, {self.limit}]")
        primes = self._primes_through(x)
        return primes[: int(search(primes, x, side="right"))]

    def primes_between(self, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
        """All primes in [lo, hi], ascending, read from the flags, not the prime list:
        the prefix of `out` they fill (it must hold them all, in int64 or the table's
        dtype), or a new int64 array. The flags are unpacked `8 * _STEP` bits at a time."""
        if lo < 0 or hi > self.limit:
            raise ValueError(f"primes_between [{lo}, {hi}] outside [0, {self.limit}]")
        if out is None:
            count = self.prime_count(max(hi, 0)) - self.prime_count(max(lo - 1, 0))
            out = np.empty(max(count, 0), dtype=np.int64)
        at = int(lo <= 2 <= hi)
        out[:at] = 2
        end = ((hi - 1) >> 1) + 1  # past the bit of the last odd number in range
        for b0 in range(lo >> 1, end, 8 * _STEP):
            byte0, b1 = b0 >> 3, min(b0 + 8 * _STEP, end)
            bits = np.unpackbits(self._packed[byte0 : (b1 + 7) >> 3], bitorder="little").view(bool)
            odd = np.flatnonzero(bits[b0 - 8 * byte0 : b1 - 8 * byte0])
            step = np.left_shift(odd, 1, out=out[at : at + odd.size], casting="unsafe")
            step += 2 * b0 + 1  # the odd number 2 * bit + 1
            at += odd.size
        return out[:at]

    def _primes_through(self, x: int) -> np.ndarray:
        """Cached ascending array of all primes <= max(x, previous requests), in
        the dtype of the table's limit: one shared mapping that :func:`_extract`
        fills in parts of whole sieve segments, one per process (`_processes`)."""
        if self._prime_cache_limit < x:
            x = min(max(x, 2), self.limit)
            dtype = table_dtype(self.limit)
            cache = table_file.word_padded(self.prime_count(x) * dtype.itemsize).view(dtype)
            nseg = -(-((x + 1) // 2) // _SEGMENT_FLAGS)
            nproc = _processes(nseg)
            cuts = [2, *(2 * _SEGMENT_FLAGS * (nseg * k // nproc) for k in range(1, nproc)), x + 1]
            _run_parts(list(zip(cuts, cuts[1:])), lambda part, parent: _extract(
                self, cache, *part, parent), "prime list", "extracting the primes in [{}, {})")
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
    :func:`_processes`), sieved into the same shared flag bytes by
    :func:`_run_parts`; the table is built once every child has exited.

    Peak memory is what is allocated here, and `_MEMORY_CEILING` bounds its
    sum: the packed flags (one bit per odd number, in one shared mapping that
    the forked processes write, padded to whole 8-byte words so that the
    batch counts view them as words) and the superblock counts, written once at
    their final size, and the popcounts of one counting step, plus in each
    process the pattern (one period, or fewer bits if the flags are fewer),
    the one reused segment buffer of bool flags and a segment's packed bytes.
    The base primes and their offsets, O(sqrt(limit)), are left out.
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
    _run_parts(_parts(nbits, base, nproc), lambda part, parent: _sieve(
        packed, pattern, base, *part, parent), "sieve", "sieving flag bits [{}, {})")
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


def _extract(pt: PrimeTable, out, lo: int, hi: int, parent: int | None = None) -> None:
    """Write the primes in [lo, hi) into `out` from index pi(lo - 1), a sieve
    segment's integers at a time, so that parts fill one list with no merge. A
    process forked by `parent` exits once that process is gone."""
    at = pt.prime_count(lo - 1)
    for s in range(lo, hi, 2 * _SEGMENT_FLAGS):
        if parent is not None and os.getppid() != parent:
            os._exit(1)
        at += pt.primes_between(s, min(s + 2 * _SEGMENT_FLAGS, hi) - 1, out=out[at:]).size


def _words_in_place(packed: np.ndarray) -> np.ndarray | None:
    """The flag bytes as little-endian uint64 words, viewed in place, or None
    unless they start a buffer of whole words, as `build` and `load` allocate."""
    nwords, base = -(-packed.size // 8), packed.base
    if base is None or base.nbytes < 8 * nwords or base.ctypes.data != packed.ctypes.data:
        return None
    return base.view(np.uint8)[: 8 * nwords].view("<u8")


def _superblock_counts(packed: np.ndarray) -> np.ndarray:
    """The odd primes flagged before each superblock of `8 << _SUPER_SHIFT`
    bytes, and in all, as int64: one popcount pass in steps of `_COUNT_CHUNK`
    integers (2 MiB of flags) through one buffer, with no full-size copy."""
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
