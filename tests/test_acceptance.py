"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Default scale covers every check through the 10^7 decade. Set
RAMPRIMES_EXTENDED=1 to also reproduce the 10^8 and 10^9 decade rows
(several extra minutes and about 1 GB of memory).
"""

import math
import os
import resource
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from ramprimes import gap_analysis, prime_core, ramanujan_core, run_stats, twin_stats
from ramprimes.cli import cli
from ramprimes.formatting import ratio_display, round_half_up
from test_ramanujan_core import FIRST_21, FIRST_RANKS, oracle_tables

EXTENDED = os.environ.get("RAMPRIMES_EXTENDED") == "1"
EXTENDED_BOUND = 10 ** 9

RUN_ROWS = {  # decade: (P display, expected ram, actual ram, expected non, actual non)
    1: (0.250, 1, 1, 2, 3),
    2: (0.400, 3, 2, 5, 4),
    3: (0.429, 6, 5, 8, 7),
    4: (0.455, 8, 13, 11, 13),
    5: (0.465, 11, 13, 14, 20),
    6: (0.471, 14, 20, 17, 36),
    7: (0.476, 17, 21, 20, 47),
    8: (0.479, 21, 26, 23, 47),
    9: (0.482, 24, 31, 26, 65),
}

TWIN_ROWS = {  # decade: (pi2, pi21, pi22); 10^5 middle count fixed from its ratios
    1: (2, 0, 0),
    2: (8, 6, 0),
    3: (35, 28, 10),
    4: (205, 167, 73),
    5: (1224, 964, 508),
    6: (8169, 6305, 3468),
    7: (58980, 45082, 25629),
    8: (440312, 335919, 194614),
    9: (3424506, 2605867, 1537504),
}

TWIN_RATIO_ROWS = {  # decade: displayed (pi21/pi2, pi22/pi2, pi22/pi21)
    2: (0.750, 0.0, 0.0),
    3: (0.800, 0.286, 0.357),
    4: (0.815, 0.356, 0.437),
    5: (0.788, 0.415, 0.527),
    6: (0.772, 0.425, 0.550),
    # the reference table prints .434 in the middle cell, one ulp below the
    # half-up rounding of its own counts (25629/58980 = 0.43454); half-up is
    # applied uniformly here and the cell difference is documented, not hidden
    7: (0.764, 0.435, 0.568),
    8: (0.763, 0.442, 0.579),
    9: (0.761, 0.449, 0.590),
}

SHARP_STARTS = [11, 4919, 1439, 7187, 37547, 210143, 3376943, 663563,
                4429739, 17939627, 12034427]


@contextmanager
def criterion(number, name, budget=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {name}: FAIL "
              f"({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    assert budget is None or elapsed < budget, f"over budget: {elapsed:.1f}s >= {budget}s"
    print(f"ACCEPTANCE {number:02d} {name}: PASS ({elapsed:.1f}s)")


@pytest.fixture(scope="session")
def extended_tables():
    if not EXTENDED:
        pytest.skip("extended decades disabled (set RAMPRIMES_EXTENDED=1)")
    start = time.perf_counter()
    margin = 100_000  # room to resolve runs that straddle the top decade bound
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(EXTENDED_BOUND + margin))
    rt = ramanujan_core.compute_below(EXTENDED_BOUND + margin, pt)
    return pt, rt, time.perf_counter() - start


def teardown_module():
    if EXTENDED:  # the peak memory of the whole run, ru_maxrss in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"ACCEPTANCE peak_rss {peak:.0f} MB")


def test_criterion_01_golden_sequence():
    with criterion(1, "golden sequence via CLI", budget=1.0):
        result = CliRunner().invoke(cli, ["compute", "--count", "21"])
        assert result.exit_code == 0
        values = [int(line.split()[1]) for line in result.output.splitlines()[1:]]
        assert values == FIRST_21


def test_criterion_02_oracle_equivalence():
    with criterion(2, "direct-definition oracle, n <= 1000", budget=10.0):
        expected, _, _ = oracle_tables(1000)
        pt = prime_core.build(ramanujan_core.prime_limit_for_count(1000))
        assert ramanujan_core.compute_first(1000, pt).values.tolist() == expected


def test_criterion_03_max_ratio_reproduction():
    with criterion(3, "exact maximum of R_n/p_3n over 169350 values", budget=60.0):
        top = ramanujan_core.LAISHRAM_LIMIT
        pt = prime_core.build(ramanujan_core.prime_limit_for_count(top))
        rt = ramanujan_core.compute_first(top, pt)
        assert ramanujan_core.verify_max_ratio_bound(rt, pt)
        best = ramanujan_core.max_ratio(rt, top, set(), pt)
        assert (best.argmax_n, best.ratio) == (5, Fraction(41, 47))
        second = ramanujan_core.max_ratio(rt, top, {5}, pt)
        assert (second.argmax_n, second.ratio) == (10, Fraction(97, 113))
        third = ramanujan_core.max_ratio(rt, top, {5, 10}, pt)
        assert (third.argmax_n, third.ratio) == (2, Fraction(11, 13))


def test_criterion_04_rank_sequence(rt_laishram, pt_wide):
    with criterion(4, "prime-rank sequence and 2n < rank < 3n"):
        ranks = rt_laishram.prime_ranks(pt_wide)
        assert ranks[:23].tolist() == FIRST_RANKS
        n = np.arange(2, rt_laishram.count + 1, dtype=np.int64)
        assert np.all(2 * n < ranks[1:])
        assert np.all(ranks[1:] < 3 * n)


def test_criterion_05_run_table_to_1e7(wide_tables):
    pt, rt, warmup = wide_tables
    with criterion(5, "run-length table rows 1..7", budget=120.0 - warmup):
        reports = run_stats.decade_reports(7, rt, pt)
        for decade, report in zip(range(1, 8), reports):
            p_disp, e_ram, a_ram, e_non, a_non = RUN_ROWS[decade]
            assert ratio_display(report.ram_count, report.trials) == p_disp
            assert round_half_up(report.expected_ram) == e_ram
            assert report.longest_ram == a_ram
            assert round_half_up(report.expected_nonram) == e_non
            assert report.longest_nonram == a_non


def test_criterion_05x_run_table_extended(extended_tables):
    pt, rt, warmup = extended_tables
    with criterion(5, "run-length table rows 8..9 (extended)", budget=900.0 - warmup):
        for decade, report in zip((8, 9), run_stats.decade_reports(9, rt, pt)[7:]):
            p_disp, e_ram, a_ram, e_non, a_non = RUN_ROWS[decade]
            assert ratio_display(report.ram_count, report.trials) == p_disp
            assert round_half_up(report.expected_ram) == e_ram
            assert report.longest_ram == a_ram
            assert round_half_up(report.expected_nonram) == e_non
            assert report.longest_nonram == a_non


def _check_twin_row(decade, census):
    assert (census.pi2, census.pi21, census.pi22) == TWIN_ROWS[decade]
    if decade == 1:
        assert census.pi21 == 0
        return
    r21, r22, r2221 = TWIN_RATIO_ROWS[decade]
    assert ratio_display(census.pi21, census.pi2) == r21
    assert ratio_display(census.pi22, census.pi2) == r22
    assert ratio_display(census.pi22, census.pi21) == r2221


def test_criterion_06_twin_table_to_1e7(wide_tables):
    pt, rt, warmup = wide_tables
    with criterion(6, "twin census rows 1..7", budget=120.0 - warmup):
        for decade in range(1, 8):
            _check_twin_row(decade, twin_stats.twin_census(10 ** decade, rt, pt))
            assert twin_stats.check_one_sided_counts(10 ** decade, rt, pt)


def test_criterion_06x_twin_table_extended(extended_tables):
    pt, rt, warmup = extended_tables
    with criterion(6, "twin census rows 8..9 (extended)", budget=900.0 - warmup):
        for decade in (8, 9):
            _check_twin_row(decade, twin_stats.twin_census(10 ** decade, rt, pt))
            assert twin_stats.check_one_sided_counts(10 ** decade, rt, pt)


def test_criterion_07_zero_counterexample_scans(wide_tables):
    pt, rt, _ = wide_tables
    bound = 10 ** 7
    with criterion(7, "proved properties scanned to 1e7"):
        assert twin_stats.twin_condition_violations(bound, pt) == []
        assert twin_stats.lower_membership_violations(bound, rt, pt) == []
        assert gap_analysis.half_point_violations(rt, pt, bound) == []
        assert gap_analysis.run_interval_violations(rt, pt, bound) == []
        lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(bound, rt, pt)
        for p in lesser[ram_lo & ram_hi]:
            a, b = gap_analysis.twin_gap_check(int(p), int(p) + 2, rt, pt)
            assert b - a + 1 >= 5


def test_criterion_08_sharp_run_sequence(wide_tables):
    pt, rt, warmup = wide_tables
    with criterion(8, "first sharp run of length 1..11", budget=300.0 - warmup):
        found = [gap_analysis.first_sharp_run(r, rt, pt) for r in range(1, 12)]
        assert found == SHARP_STARTS


def test_criterion_09_rank_scaling_scan(wide_tables):
    pt, rt, _ = wide_tables
    with criterion(9, "rank scaling clean from N(m) on, and N(m) sharp, m = 2..20 below 1e7"):
        for m in range(2, 21):
            assert ramanujan_core.rank_scaling_violations(rt, m, 10 ** 7, pt) == []
            assert ramanujan_core.last_violation_below_threshold(rt, m, 10 ** 7, pt) == \
                ramanujan_core.rank_scaling_threshold(m) - 1


def test_criterion_10_ratio_inequalities(wide_tables):
    pt, rt, _ = wide_tables
    with criterion(10, "twin ratio inequalities, snapshots and strict"):
        for decade in range(5, 10):
            pi2, pi21, pi22 = TWIN_ROWS[decade]
            census = twin_stats.TwinCensus(bound=10 ** decade, pi2=pi2,
                                           pi21=pi21, pi22=pi22)
            assert twin_stats.ratio_inequalities_hold(10 ** decade, census)
        assert twin_stats.ratio_inequalities_strict(10 ** 7, rt, pt)


def test_criterion_11_reciprocal_sums(wide_tables):
    pt, rt, _ = wide_tables
    with criterion(11, "twin reciprocal partial sums"):
        full = twin_stats.brun_partial(10, twin_stats.KIND_ALL, rt, pt)
        assert full.sum == math.fsum([1 / 3, 1 / 5, 1 / 5, 1 / 7])
        one = twin_stats.brun_partial(12, twin_stats.KIND_AT_LEAST_ONE, rt, pt)
        assert one.sum == math.fsum([1 / 11, 1 / 13])
        both = twin_stats.brun_partial(150, twin_stats.KIND_BOTH, rt, pt)
        assert both.sum == math.fsum([1 / 149, 1 / 151])
        previous = {twin_stats.KIND_ALL: 0.0, twin_stats.KIND_AT_LEAST_ONE: 0.0,
                    twin_stats.KIND_BOTH: 0.0}
        for decade in range(1, 8):
            sums = {kind: twin_stats.brun_partial(10 ** decade, kind, rt, pt).sum
                    for kind in previous}
            assert sums[twin_stats.KIND_BOTH] <= sums[twin_stats.KIND_AT_LEAST_ONE]
            assert sums[twin_stats.KIND_AT_LEAST_ONE] <= sums[twin_stats.KIND_ALL]
            for kind in previous:
                assert sums[kind] >= previous[kind]
            previous = sums
        assert previous[twin_stats.KIND_ALL] < 1.9022


def test_criterion_11x_reciprocal_sums_extended(extended_tables):
    pt, rt, _ = extended_tables
    with criterion(11, "twin reciprocal partial sums at 1e9 (extended)"):
        full = twin_stats.brun_partial(EXTENDED_BOUND, twin_stats.KIND_ALL, rt, pt)
        one = twin_stats.brun_partial(EXTENDED_BOUND, twin_stats.KIND_AT_LEAST_ONE, rt, pt)
        both = twin_stats.brun_partial(EXTENDED_BOUND, twin_stats.KIND_BOTH, rt, pt)
        assert full.terms == TWIN_ROWS[9][0]
        assert both.sum < one.sum < full.sum < 1.9022
        print(f"  partial sums at 1e9: all={full.sum:.10g} "
              f"one={one.sum:.10g} both={both.sum:.10g}")


def test_criterion_12_coin_toss_formulas():
    with criterion(12, "fair-coin expectation offset and variance"):
        for trials in (10 ** 3, 10 ** 6, 10 ** 9):
            offset = math.log(trials) / math.log(2) - run_stats.expected_run_length(
                trials, 0.5)
            assert abs(offset - 0.667) < 5e-4
        assert abs(run_stats.run_variance(0.5) - 3.507) < 5e-4
