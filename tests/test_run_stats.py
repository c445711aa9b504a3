import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramprimes import gap_analysis, ramanujan_core, run_stats
from ramprimes.errors import CoverageError, NotFoundBelowBound
from ramprimes.formatting import ratio_display, round_half_up
from ramprimes.ramanujan_core import mask_bits
from ramprimes.run_stats import (
    NON_RAMANUJAN,
    RAMANUJAN,
    decade_reports,
    expected_run_length,
    _longest_runs,
    first_run_start,
    run_variance,
)

# first run of n Ramanujan primes starts at... (OEIS A174602)
RAM_RUN_STARTS = [2, 67, 227, 227, 227, 2657, 2657, 2657, 2657, 2657, 2657,
                  2657, 2657, 562871, 793487]
# ...and of n non-Ramanujan primes (OEIS A174641)
NONRAM_RUN_STARTS = [3, 3, 3, 73, 191, 191, 509, 2539, 2539, 5279, 9901,
                     9901, 9901, 11593, 11593, 55343, 55343]

# decade reference rows (OEIS A189993 / A189994 for the observed runs)
DECADE_ROWS = {
    1: (0.250, 1, 1, 2, 3),
    2: (0.400, 3, 2, 5, 4),
    3: (0.429, 6, 5, 8, 7),
    4: (0.455, 8, 13, 11, 13),
    5: (0.465, 11, 13, 14, 20),
    6: (0.471, 14, 20, 17, 36),
    7: (0.476, 17, 21, 20, 47),
}


def rle_reference(mask):
    """Whole-list run-length encoding by np.diff: (starts, lengths, values)."""
    starts = np.flatnonzero(np.diff(mask, prepend=~mask[:1]))  # index 0 always starts a block
    return starts, np.diff(starts, append=len(mask)), mask[starts]


def walked(mask, first):
    """The blocks of `walk_blocks` over the bits from `first` of the bool `mask`,
    packed, joined into whole-list arrays."""
    steps = list(run_stats.walk_blocks(np.packbits(mask, bitorder="little"), first, mask.size))
    empty = np.zeros(0, np.intp), np.zeros(0, np.intp), np.zeros(0, bool)
    return tuple(np.concatenate(column) for column in zip(empty, *steps))


def run_starts(mask, length):
    """Reference window search: ascending indices i with mask[i : i + length] all True."""
    cs = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    return np.flatnonzero(cs[length:] - cs[:-length] == length)


def classified(rt, pt):
    """The classified primes and their mask, unpacked whole: the reference."""
    primes = rt.classified_primes(pt)
    return primes, mask_bits(rt.mask, 0, primes.size)


def first_run_start_reference(length, kind, rt, pt):
    primes, mask = classified(rt, pt)
    hits = run_starts(mask if kind == RAMANUJAN else ~mask, length)
    if hits.size == 0:
        raise NotFoundBelowBound(int(primes[-1]))
    return int(primes[hits[0]])


def first_sharp_run_reference(r, rt, pt, search_bound):
    primes, mask = classified(rt, pt)
    for i in (run_starts(mask[1:], r) + 1).tolist():  # past the even prime 2
        p, q = int(primes[i]), int(primes[i + r - 1])
        if p >= search_bound:
            break
        if pt.is_prime((p + 1) // 2 - 1) and pt.is_prime((q + 1) // 2 + 1):
            return p
    raise NotFoundBelowBound(search_bound)


def outcome(fn, *args):
    """The value `fn` returns, or the bound of the NotFoundBelowBound it raises."""
    try:
        return fn(*args)
    except NotFoundBelowBound as exc:
        return ("not found", exc.bound)


def test_fraction_small_decades(rt_wide, pt_wide):
    tens, hundreds = decade_reports(2, rt_wide, pt_wide)
    assert tens.ram_count / tens.trials == 0.25
    assert hundreds.ram_count / hundreds.trials == 0.4


def test_fraction_rounds_to_reference(rt_wide, pt_wide):
    count = int(np.searchsorted(rt_wide.values, 10 ** 5))
    trials = pt_wide.prime_count(10 ** 5 - 1)
    assert ratio_display(count, trials) == 0.465
    report = decade_reports(5, rt_wide, pt_wide)[-1]
    assert (report.ram_count, report.trials) == (count, trials)


def test_longest_runs_reference_rows(rt_wide, pt_wide):
    assert _longest_runs([10 ** 2], rt_wide, pt_wide) == [(2, 4)]
    assert _longest_runs([10 ** 4], rt_wide, pt_wide) == [(13, 13)]


def test_longest_runs_count_full_length_from_start_decade(rt_wide, pt_wide):
    # the run of 13 non-Ramanujan primes starting at 9901 runs past 10^4 and
    # still belongs to the 10^4 row
    assert first_run_start(13, NON_RAMANUJAN, rt_wide, pt_wide) == 9901
    assert _longest_runs([10 ** 4], rt_wide, pt_wide)[0][1] == 13


def test_longest_runs_monotone_in_bound(rt_wide, pt_wide):
    rows = [_longest_runs([10 ** d], rt_wide, pt_wide)[0] for d in range(1, 8)]
    for (r1, n1), (r2, n2) in zip(rows, rows[1:]):
        assert r2 >= r1 and n2 >= n1


def test_expected_run_length_fair_coin_offset():
    # log N / log 2 minus a constant offset of 0.667
    for trials in (100, 10 ** 4, 10 ** 9):
        offset = math.log(trials) / math.log(2) - expected_run_length(trials, 0.5)
        assert abs(offset - 0.667) < 5e-4


def test_expected_run_length_reference_decade():
    trials = 50847534  # number of primes below 10^9
    assert round_half_up(expected_run_length(trials, 0.482)) == 24
    assert round_half_up(expected_run_length(trials, 1 - 0.482)) == 26


def test_expected_run_length_validation():
    with pytest.raises(ValueError):
        expected_run_length(100, 0.0)
    with pytest.raises(ValueError):
        expected_run_length(100, 1.0)
    with pytest.raises(ValueError):
        expected_run_length(0, 0.5)


def test_run_variance_fair_coin():
    assert abs(run_variance(0.5) - 3.507) < 5e-4
    assert abs(math.sqrt(run_variance(0.5)) - 1.873) < 5e-4


def test_run_variance_monotone_with_floor():
    grid = [run_variance(p) for p in np.linspace(0.01, 0.99, 50)]
    assert all(b > a for a, b in zip(grid, grid[1:]))
    assert all(v > 1 / 12 for v in grid)


def test_run_variance_validation():
    with pytest.raises(ValueError):
        run_variance(0.0)
    with pytest.raises(ValueError):
        run_variance(1.0)


def test_first_run_start_reference_sequences(rt_wide, pt_wide):
    for n, start in enumerate(RAM_RUN_STARTS, start=1):
        assert first_run_start(n, RAMANUJAN, rt_wide, pt_wide) == start
    for n, start in enumerate(NONRAM_RUN_STARTS, start=1):
        assert first_run_start(n, NON_RAMANUJAN, rt_wide, pt_wide) == start


def test_first_run_start_nondecreasing(rt_wide, pt_wide):
    starts = [first_run_start(n, RAMANUJAN, rt_wide, pt_wide) for n in range(1, 14)]
    assert all(b >= a for a, b in zip(starts, starts[1:]))


@pytest.mark.parametrize("kind", [RAMANUJAN, NON_RAMANUJAN])
def test_first_run_start_matches_the_window_search(kind, rt_wide, pt_wide):
    _, mask = classified(rt_wide, pt_wide)
    _, lengths, values = rle_reference(mask)
    longest = int(lengths[values == (kind == RAMANUJAN)].max())
    for length in range(1, longest + 1):
        assert outcome(first_run_start, length, kind, rt_wide, pt_wide) == outcome(
            first_run_start_reference, length, kind, rt_wide, pt_wide)
    # no block is longer: the open last block may still grow, the other class is settled
    if values[-1] == (kind == RAMANUJAN):
        with pytest.raises(CoverageError, match="coverage edge"):
            first_run_start(longest + 1, kind, rt_wide, pt_wide)
    else:
        assert outcome(first_run_start, longest + 1, kind, rt_wide, pt_wide)[0] == "not found"


def test_first_run_start_does_not_settle_an_open_last_block(pt1m):
    rt = ramanujan_core.compute_below(10 ** 5, pt1m)
    # 10007, the 10th of the 13 non-Ramanujan primes from 9901, is the last one
    # classified, so that run is open at the edge and may reach 13
    with pytest.raises(CoverageError, match="coverage edge"):
        first_run_start(13, NON_RAMANUJAN, rt.below(10008), pt1m)
    # through its 13th prime, 10039, the still open last block answers
    assert first_run_start(13, NON_RAMANUJAN, rt.below(10040), pt1m) == 9901


def test_first_sharp_run_matches_the_window_search(rt_wide, pt_wide):
    for r in range(1, 15):
        found = outcome(gap_analysis.first_sharp_run, r, rt_wide, pt_wide, 10 ** 6)
        assert found == outcome(first_sharp_run_reference, r, rt_wide, pt_wide, 10 ** 6)
        if isinstance(found, int):  # a window from the last prime below the bound counts
            assert gap_analysis.first_sharp_run(r, rt_wide, pt_wide, found + 1) == found


def test_first_run_start_not_found(rt_wide, pt_wide):
    with pytest.raises(NotFoundBelowBound) as exc:
        first_run_start(10 ** 5, RAMANUJAN, rt_wide, pt_wide)
    assert exc.value.bound > 10 ** 6


def test_first_run_start_validation(rt_wide, pt_wide):
    with pytest.raises(ValueError):
        first_run_start(0, RAMANUJAN, rt_wide, pt_wide)
    with pytest.raises(ValueError):
        first_run_start(1, "heads", rt_wide, pt_wide)


def test_runs_partition_the_primes(rt_wide, pt_wide, monkeypatch):
    # within a bound, maximal one-class blocks tile the prime sequence
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", 1000)
    bound = 10 ** 5
    primes = pt_wide.primes_upto(bound - 1)
    steps = list(run_stats.walk_blocks(rt_wide.mask, 0, primes.size))
    assert len(steps) > 1  # the blocks come in more than one step
    starts, lengths, values = (np.concatenate(column) for column in zip(*steps))
    assert int(lengths.sum()) == pt_wide.prime_count(bound - 1)
    assert int(lengths.sum()) == len(primes)
    assert np.array_equal(starts[1:], (starts + lengths)[:-1])  # each starts where one ends
    assert np.all(values[1:] != values[:-1])  # and is maximal


def test_decade_reports_match_reference(rt_wide, pt_wide):
    reports = decade_reports(7, rt_wide, pt_wide)
    for report, decade in zip(reports, range(1, 8)):
        p_disp, e_ram, a_ram, e_non, a_non = DECADE_ROWS[decade]
        assert ratio_display(report.ram_count, report.trials) == p_disp
        assert round_half_up(report.expected_ram) == e_ram
        assert report.longest_ram == a_ram
        assert round_half_up(report.expected_nonram) == e_non
        assert report.longest_nonram == a_non


def test_longest_runs_requires_coverage(rt_wide, pt_wide):
    with pytest.raises(CoverageError):
        _longest_runs([10 ** 8], rt_wide, pt_wide)


def test_decade_reports_encode_the_mask_once(rt_wide, pt_wide, monkeypatch):
    walks, steps = [], []
    walk_blocks = run_stats.walk_blocks

    def spy(mask, first, stop):
        walks.append(stop)
        for step in walk_blocks(mask, first, stop):
            steps.append(step[0])
            yield step

    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", 1 << 16)
    monkeypatch.setattr(run_stats, "walk_blocks", spy)
    decade_reports(7, rt_wide, pt_wide)
    assert len(walks) == 1  # one walk answers every row
    # and it stops in the step holding the first block from 10^7
    n = pt_wide.prime_count(10 ** 7)
    assert steps[-2][-1] < n <= steps[-1][-1]
    assert len(steps) < -(-walks[0] // (1 << 16))


def test_decade_row_with_a_run_open_at_coverage_edge(pt1m):
    # classification stops at 10007, inside the non-Ramanujan block from 9931
    rt = ramanujan_core.compute_below(10_008, pt1m)
    with pytest.raises(CoverageError, match="unresolved"):
        decade_reports(4, rt, pt1m)
    with pytest.raises(CoverageError, match="unresolved"):
        _longest_runs([10_008], rt, pt1m)
    rows = decade_reports(3, rt, pt1m)
    assert [(r.longest_ram, r.longest_nonram) for r in rows] == [
        DECADE_ROWS[d][2::2] for d in (1, 2, 3)]


def test_a_block_counts_from_its_first_prime(rt_wide, pt_wide):
    start = first_run_start(47, NON_RAMANUJAN, rt_wide, pt_wide)  # the 47-long run of row 7
    assert _longest_runs([start], rt_wide, pt_wide)[0][1] < 47
    assert _longest_runs([start + 1], rt_wide, pt_wide)[0][1] == 47


@given(bits=st.lists(st.booleans(), max_size=200), runs=st.booleans(), chunk=st.integers(1, 9),
       first=st.integers(0, 11))
@settings(max_examples=300, deadline=None)
def test_walked_blocks_equal_the_whole_list_encoding(bits, runs, chunk, first):
    mask = np.array(bits, dtype=bool)
    if runs:  # long blocks as well as short ones: each bit repeated a drawn number of times
        mask = np.repeat(mask, np.arange(mask.size) % 13 + 1)[:200]
    first = min(first, mask.size)  # the walk may start inside a byte of the packed mask
    with pytest.MonkeyPatch.context() as m:
        m.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
        got = walked(mask, first)
        steps = list(run_stats.walk_blocks(np.packbits(mask, bitorder="little"), first, mask.size))
    starts, lengths, values = rle_reference(mask[first:])
    for g, want in zip(got, (starts + first, lengths, values)):
        assert np.array_equal(g, want)
    # a step holds the blocks closed by one chunk, the open last block those of the last one
    for starts, lengths, _ in steps:
        ends = starts + lengths - first
        assert np.unique(np.where(ends == mask.size - first, (mask.size - first - 1) // chunk,
                                  ends // chunk)).size == 1
    assert [int(s[-1] + n[-1]) for s, n, _ in steps[-1:]] == [mask.size][: len(steps)]
