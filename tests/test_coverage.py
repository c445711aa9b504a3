"""The one coverage rule: an analytic answers only for integers that the
Ramanujan table classifies, up to its edge complete_below - 1, with a prime
table that reaches that edge, and otherwise raises CoverageError instead of
answering "none found"."""

import pytest

from ramprimes import gap_analysis, prime_core, ramanujan_core, run_stats, twin_stats
from ramprimes.errors import CoverageError
from conftest import odd_runs

THROUGH = 10 ** 6 - 1

# every analytic that takes a bound, called so that it reads the integers up
# to `t`, and whether it reads runs. A run analytic cannot answer at exact
# coverage: every listed prime lies below its bound, so the last run is open
ANALYTICS = {
    "twin_pair_arrays": (lambda t, rt, pt: twin_stats.twin_pair_arrays(t - 2, rt, pt), False),
    "twin_census": (lambda t, rt, pt: twin_stats.twin_census(t - 2, rt, pt), False),
    "check_one_sided_counts":
        (lambda t, rt, pt: twin_stats.check_one_sided_counts(t - 2, rt, pt), False),
    "ratio_inequalities_strict":
        (lambda t, rt, pt: twin_stats.ratio_inequalities_strict(t - 2, rt, pt), False),
    "brun_partial":
        (lambda t, rt, pt: twin_stats.brun_partial(t - 2, twin_stats.KIND_ALL, rt, pt), False),
    "lower_membership_violations":
        (lambda t, rt, pt: twin_stats.lower_membership_violations(t, rt, pt), False),
    "half_point_violations":
        (lambda t, rt, pt: gap_analysis.half_point_violations(rt, pt, t + 1), False),
    "first_sharp_run":
        (lambda t, rt, pt: gap_analysis.first_sharp_run(1, rt, pt, search_bound=t + 1), False),
    "rank_scaling_violations":
        (lambda t, rt, pt: ramanujan_core.rank_scaling_violations(rt, 2, t + 1, pt), False),
    "last_violation_below_threshold":
        (lambda t, rt, pt: ramanujan_core.last_violation_below_threshold(rt, 2, t + 1, pt), False),
    "longest_runs": (lambda t, rt, pt: run_stats._longest_runs([t + 1], rt, pt), True),
    "decade_reports": (lambda t, rt, pt: run_stats.decade_reports(len(str(t)), rt, pt), True),
    "odd_ramanujan_runs": (lambda t, rt, pt: odd_runs(rt, pt, t + 1), True),
    "run_interval_violations":
        (lambda t, rt, pt: gap_analysis.run_interval_violations(rt, pt, t + 1), True),
}


@pytest.fixture(scope="module")
def rt_edge(pt_wide):
    """With pt1m, classifies exactly through THROUGH."""
    return ramanujan_core.compute_below(THROUGH + 1, pt_wide)


@pytest.fixture(scope="module")
def pt_short():
    """A prime table that stops one short of rt_edge's edge."""
    return prime_core.build(THROUGH - 1)


@pytest.fixture(scope="module")
def one_short(rt_edge, pt1m, pt_wide, pt_short):
    """Tables classifying through THROUGH - 1, cut on either side."""
    return {"primes": (rt_edge, pt_short),
            "ramanujan": (ramanujan_core.compute_below(THROUGH, pt_wide), pt1m)}


@pytest.fixture(scope="module")
def rt1e5(pt1m):
    return ramanujan_core.compute_below(10 ** 5, pt1m)


def test_coverage_is_the_ramanujan_table_edge(rt_edge, pt1m, pt_wide, pt_short):
    assert rt_edge.coverage(pt1m) == rt_edge.coverage(pt_wide) == THROUGH
    assert rt_edge.below(THROUGH).coverage(pt_short) == THROUGH - 1  # cut, not paired short
    assert rt_edge.coverage(pt1m, THROUGH) == THROUGH
    with pytest.raises(CoverageError, match=f"through {THROUGH + 1}; the tables classify "
                                            f"through {THROUGH}"):
        rt_edge.coverage(pt1m, THROUGH + 1)
    # a prime table that stops short of the edge is refused, whatever the bound
    for through in (None, 10, THROUGH - 1):
        with pytest.raises(CoverageError, match=f"through {THROUGH}; the tables classify "
                                                f"through {THROUGH - 1}, where the prime table"):
            rt_edge.coverage(pt_short, through)


@pytest.mark.parametrize("short_side", ["primes", "ramanujan"])
@pytest.mark.parametrize("name", sorted(ANALYTICS))
def test_every_bound_taking_analytic_obeys_the_coverage_rule(name, short_side, rt_edge, pt1m,
                                                             one_short):
    call, reads_runs = ANALYTICS[name]
    if reads_runs:
        with pytest.raises(CoverageError, match="unresolved"):
            call(THROUGH, rt_edge, pt1m)
    else:
        call(THROUGH, rt_edge, pt1m)
    with pytest.raises(CoverageError, match=f"through {THROUGH}; the tables classify "
                                            f"through {THROUGH - 1}"):
        call(THROUGH, *one_short[short_side])


@pytest.mark.parametrize("name", sorted(ANALYTICS))
def test_every_bound_taking_analytic_refuses_a_prime_table_short_of_the_edge(name, rt_edge,
                                                                            pt_short):
    # even at a small bound, which both tables classify; the strict ratios start at 10^5
    call, _ = ANALYTICS[name]
    with pytest.raises(CoverageError, match="where the prime table stops"):
        call(10 ** 5 + 2 if name == "ratio_inequalities_strict" else 12, rt_edge, pt_short)


def test_lower_membership_reads_the_prime_table_edge_too(rt_wide):
    with pytest.raises(CoverageError):
        twin_stats.lower_membership_violations(10 ** 6, rt_wide, prime_core.build(10 ** 5))


def test_first_sharp_run_past_the_prime_table(rt_wide, pt_wide):
    assert gap_analysis.first_sharp_run(6, rt_wide, pt_wide, search_bound=2 * 10 ** 6) == 210143
    with pytest.raises(CoverageError):
        gap_analysis.first_sharp_run(6, rt_wide, prime_core.build(10 ** 5),
                                     search_bound=2 * 10 ** 6)


def test_first_sharp_run_window_open_at_the_coverage_edge(rt1e5, pt1m):
    # 4919 is Ramanujan and the last prime below 4926; its window of two needs 4931
    assert gap_analysis.first_sharp_run(2, rt1e5, pt1m, search_bound=4920) == 4919
    with pytest.raises(CoverageError, match="open at the coverage edge"):
        gap_analysis.first_sharp_run(2, rt1e5.below(4926), pt1m, search_bound=4920)


@pytest.mark.parametrize("call", [
    lambda rt, pt: gap_analysis.half_point_violations(rt, pt, 2 * 10 ** 6),
    lambda rt, pt: ramanujan_core.rank_scaling_violations(rt, 2, 2 * 10 ** 6, pt),
    lambda rt, pt: ramanujan_core.last_violation_below_threshold(rt, 2, 2 * 10 ** 6, pt),
])
def test_scans_past_the_ramanujan_table_raise(call, rt1e5, pt1m):
    with pytest.raises(CoverageError):
        call(rt1e5, pt1m)


def test_odd_run_open_at_the_coverage_edge_is_unresolved(rt1e5, pt1m):
    # the odd Ramanujan run from 50077 holds 4 primes; a table cut at 50088
    # classifies only 2 of them
    _, start_p, _, lengths = odd_runs(rt1e5, pt1m, 50080)
    assert lengths[start_p == 50077].tolist() == [4]
    cut = rt1e5.below(50088)
    for call in (odd_runs, gap_analysis.run_interval_violations):
        with pytest.raises(CoverageError, match="unresolved"):
            call(cut, pt1m, 50080)
