"""Longest runs of Ramanujan / non-Ramanujan primes and coin-toss expectations.

Walking the primes in order and marking each one Ramanujan or not gives a
two-letter sequence; this module measures its longest runs below decade
bounds and compares them with the expected longest run of heads for a
biased coin flipped once per prime. Every run query reads one run-length
encoding of the shared classified mask (`run_blocks`), built per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, NotFoundBelowBound
from .prime_core import PrimeTable
from .ramanujan_core import RamanujanTable

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


def run_blocks(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RLE of a boolean sequence: (start indices, lengths, block values)."""
    starts = np.flatnonzero(np.diff(mask, prepend=~mask[:1]))  # index 0 always starts a block
    lengths = np.diff(starts, append=len(mask))
    return starts, lengths, mask[starts]


def _classified_runs(rt: RamanujanTable, pt: PrimeTable):
    """The classified primes and the RLE of their mask:
    (primes, block start indices, lengths, values)."""
    primes, mask = rt.classified_primes(pt)
    return primes, *run_blocks(mask)


def blocks_below(bound: int, primes: np.ndarray, starts: np.ndarray) -> int:
    """How many blocks, given by their start indices into the classified
    `primes`, start below `bound`. If the last block is among them it is
    still open at the coverage edge, its full length unknown, and the
    answer is a CoverageError."""
    n = int(np.searchsorted(starts, np.searchsorted(primes, bound)))
    if n == starts.size > 0:
        raise CoverageError(f"run at coverage edge unresolved; extend tables past {primes[-1]}")
    return n


def _longest_runs(bound: int, runs) -> tuple[int, int]:
    primes, starts, lengths, values = runs
    n = blocks_below(bound, primes, starts)
    ram = lengths[:n][values[:n]]
    nonram = lengths[:n][~values[:n]]
    return int(ram.max(initial=0)), int(nonram.max(initial=0))


def longest_runs(bound: int, rt: RamanujanTable, pt: PrimeTable) -> tuple[int, int]:
    """Longest run of Ramanujan primes and of non-Ramanujan primes below `bound`.

    A run belongs to the decade its starting prime falls in and counts with
    its full length even when it ends past the bound; this is how the
    reference run-length tables are indexed (a run of 13 starting at 9901
    is credited to 10^4).
    """
    if bound < 10:
        raise ValueError(f"bound must be >= 10, got {bound}")
    rt.coverage(pt, bound - 1)
    return _longest_runs(bound, _classified_runs(rt, pt))


def first_run_start(length: int, kind: str, rt: RamanujanTable, pt: PrimeTable) -> int:
    """Smallest prime starting `length` consecutive primes of one class.

    The first window of `length` lies at the start of the first block of
    that class holding `length` or more primes, so a longer block answers
    every shorter length too.
    """
    if length < 1:
        raise ValueError(f"run length must be >= 1, got {length}")
    if kind not in (RAMANUJAN, NON_RAMANUJAN):
        raise ValueError(f"kind must be {RAMANUJAN!r} or {NON_RAMANUJAN!r}")
    primes, mask = rt.classified_primes(pt)
    starts, lengths, values = run_blocks(mask)
    hits = np.flatnonzero((values == (kind == RAMANUJAN)) & (lengths >= length))
    if hits.size == 0:
        raise NotFoundBelowBound(int(primes[-1]) if primes.size else 0)
    return int(primes[starts[hits[0]]])


def decade_reports(max_decade: int, rt: RamanujanTable, pt: PrimeTable) -> list[RunReport]:
    """Run-statistics rows for the bounds 10**1 .. 10**max_decade; one RLE
    of the classified mask answers every row."""
    if max_decade < 1:
        raise ValueError(f"max_decade must be >= 1, got {max_decade}")
    rt.coverage(pt, 10 ** max_decade - 1)
    runs = _classified_runs(rt, pt)
    reports = []
    for decade in range(1, max_decade + 1):
        bound = 10 ** decade
        frac_count = int(np.searchsorted(rt.values, bound))
        trials = pt.prime_count(bound - 1)
        p = frac_count / trials
        lr, ln = _longest_runs(bound, runs)
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
