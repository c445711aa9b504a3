"""Longest runs of Ramanujan / non-Ramanujan primes and coin-toss expectations.

Walking the primes in order and marking each one Ramanujan or not gives a
two-letter sequence; this module measures its longest runs below decade
bounds and compares them with the expected longest run of heads for a
biased coin flipped once per prime. Every run query walks the blocks of the
shared classified mask a fixed step of prime indices at a time
(`walk_blocks`), carrying only the open block, running maxima or the first
hit from step to step, so its memory does not grow with the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, NotFoundBelowBound
from .prime_core import PrimeTable, mask_bits, search
from .ramanujan_core import RamanujanTable, walk

EULER_MASCHERONI = 0.5772156649

RAMANUJAN = "ramanujan"
NON_RAMANUJAN = "non_ramanujan"


@dataclass
class RunReport:
    """One decade row: observed longest runs and the coin-toss model values."""

    bound: int
    ram_count: int
    trials: int
    longest_ram: int
    longest_nonram: int
    expected_ram: float
    expected_nonram: float


def expected_run_length(trials: int, p: float) -> float:
    """Approximate expected length of the longest success run in `trials` flips."""
    if not 0 < p < 1:
        raise ValueError(f"success probability must be in (0, 1), got {p}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    log_inv = math.log(1 / p)
    return math.log(trials) / log_inv - (
        0.5 - (math.log(1 - p) + EULER_MASCHERONI) / log_inv
    )


def run_variance(p: float) -> float:
    """Approximate variance of the longest run length; independent of trials."""
    if not 0 < p < 1:
        raise ValueError(f"success probability must be in (0, 1), got {p}")
    return math.pi ** 2 / (6 * math.log(1 / p) ** 2) + 1 / 12


def walk_blocks(mask: np.ndarray, first: int, stop: int):
    """Maximal one-class blocks of the bits first .. stop - 1 of the packed
    `mask`, a `walk` step at a time: for each step, the (starts, lengths,
    values) of the blocks it closes, with starts counted from bit 0. The last
    block reaches `stop` and is still open there; it comes with the last step.
    Only the start of the block in progress is carried from step to step."""
    start = first
    for lo, hi in walk(first, stop):
        i = max(lo, first + 1)
        bits = mask_bits(mask, i - 1, hi)
        ends = np.flatnonzero(bits[1:] != bits[:-1]) + i
        if hi == stop:
            ends = np.append(ends, hi)
        if ends.size:
            starts = np.concatenate(([start], ends[:-1]))
            yield starts, ends - starts, bits[ends - i]  # the last bit of each block
            start = int(ends[-1])


def _open_edge(pt: PrimeTable, size: int) -> CoverageError:
    return CoverageError(f"run at coverage edge unresolved; extend tables past {pt.nth_prime(size)}")


def blocks_below(n: int, rt: RamanujanTable, pt: PrimeTable, first: int = 0):
    """The blocks of the classified mask from index `first` that start below index
    `n`, step by step as `walk_blocks` gives them, stopping at the first step past
    `n`. If the last block, still open at the coverage edge, is among them, its
    length is unknown: a CoverageError."""
    size = rt.classified_count(pt)
    for starts, lengths, values in walk_blocks(rt.mask, first, size):
        k = int(np.searchsorted(starts, n))
        if k and starts[k - 1] + lengths[k - 1] == size:
            raise _open_edge(pt, size)
        yield starts[:k], lengths[:k], values[:k]
        if k < starts.size:
            return


def _longest_runs(bounds: list[int], rt: RamanujanTable, pt: PrimeTable) -> list[tuple[int, int]]:
    """Longest Ramanujan and non-Ramanujan runs below each of the ascending
    `bounds`, from one walk: each block is credited with its full length to
    the first bound above its first prime, as the reference run-length tables
    index runs (the run of 13 from 9901 counts for 10^4), and the maxima are
    carried upward. A step's starts ascend, so its bounds' blocks are
    contiguous: one grouped maximum per step. The bounds' indices are prime counts."""
    rt.coverage(pt, bounds[-1] - 1)
    ns = pt.prime_count_batch(np.array(bounds, dtype=np.int64) - 1)
    best = np.zeros((2, ns.size), dtype=np.int64)  # rows: non-Ramanujan, Ramanujan
    rows = np.array([[False], [True]])
    for starts, lengths, values in blocks_below(int(ns[-1]), rt, pt):
        bucket = np.searchsorted(ns, starts, side="right")
        first = np.flatnonzero(np.diff(bucket, prepend=-1))  # each bucket's first block
        # each row holds its class's lengths and 0 for the other, which no maximum takes
        peaks = np.maximum.reduceat(np.where(values == rows, lengths, 0), first, axis=1)
        b = bucket[first]
        best[:, b] = np.maximum(best[:, b], peaks)
    ram, nonram = np.maximum.accumulate(best, axis=1)[::-1].tolist()
    return list(zip(ram, nonram))


def first_run_start(length: int, kind: str, rt: RamanujanTable, pt: PrimeTable) -> int:
    """Smallest prime starting `length` consecutive primes of one class.

    The first window of `length` lies at the start of the first block of
    that class holding `length` or more primes, so a longer block answers
    every shorter length too; the walk stops at that block. With no such
    block, a last block of that class is still open at the coverage edge
    and may yet reach `length`: a CoverageError, not "not found".
    """
    if length < 1:
        raise ValueError(f"run length must be >= 1, got {length}")
    if kind not in (RAMANUJAN, NON_RAMANUJAN):
        raise ValueError(f"kind must be {RAMANUJAN!r} or {NON_RAMANUJAN!r}")
    size = rt.classified_count(pt)
    for starts, lengths, values in walk_blocks(rt.mask, 0, size):
        hits = np.flatnonzero((values == (kind == RAMANUJAN)) & (lengths >= length))
        if hits.size:
            return pt.nth_prime(int(starts[hits[0]]) + 1)
    if size and mask_bits(rt.mask, size - 1, size)[0] == (kind == RAMANUJAN):
        raise _open_edge(pt, size)
    raise NotFoundBelowBound(pt.nth_prime(size) if size else 0)


def decade_reports(max_decade: int, rt: RamanujanTable, pt: PrimeTable) -> list[RunReport]:
    """Run-statistics rows for the bounds 10**1 .. 10**max_decade; one walk
    of the classified mask answers every row."""
    if max_decade < 1:
        raise ValueError(f"max_decade must be >= 1, got {max_decade}")
    bounds = [10 ** decade for decade in range(1, max_decade + 1)]
    reports = []
    for bound, (lr, ln) in zip(bounds, _longest_runs(bounds, rt, pt)):
        frac_count = int(search(rt.values, bound))
        trials = pt.prime_count(bound - 1)
        p = frac_count / trials
        reports.append(RunReport(
            bound=bound,
            ram_count=frac_count,
            trials=trials,
            longest_ram=lr,
            longest_nonram=ln,
            expected_ram=expected_run_length(trials, p),
            expected_nonram=expected_run_length(trials, 1 - p),
        ))
    return reports
