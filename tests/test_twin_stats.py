import math

import numpy as np
import pytest

from ramprimes import gap_analysis, prime_core, ramanujan_core, twin_stats
from ramprimes.errors import CoverageError
from ramprimes.formatting import ratio_display
from ramprimes.twin_stats import (
    KIND_ALL,
    KIND_AT_LEAST_ONE,
    KIND_BOTH,
    brun_partial,
    check_one_sided_counts,
    lower_membership_violations,
    ratio_inequalities_hold,
    ratio_inequalities_strict,
    twin_census,
    twin_condition_violations,
)
from conftest import table_of

# decade census rows: (pi2, pi21, pi22) with the published 694 at 10^5
# corrected to 964, the value its own ratio columns imply
CENSUS_ROWS = {
    10: (2, 0, 0),
    10 ** 2: (8, 6, 0),
    10 ** 3: (35, 28, 10),
    10 ** 4: (205, 167, 73),
    10 ** 5: (1224, 964, 508),
    10 ** 6: (8169, 6305, 3468),
    10 ** 7: (58980, 45082, 25629),
}

# consecutive-prime pairs that meet the necessary condition yet are not
# twin Ramanujan pairs
NEAR_MISS_PAIRS = [(11, 13), (47, 53), (67, 71), (109, 113), (137, 139)]


def test_census_small_rows(rt_wide, pt_wide):
    for bound in (10, 10 ** 2, 10 ** 3, 10 ** 4):
        census = twin_census(bound, rt_wide, pt_wide)
        assert (census.pi2, census.pi21, census.pi22) == CENSUS_ROWS[bound]


def test_census_validation(rt_wide, pt_wide):
    with pytest.raises(ValueError):
        twin_census(2, rt_wide, pt_wide)
    with pytest.raises(CoverageError):
        twin_census(10 ** 9, rt_wide, pt_wide)


def test_census_containment_and_ratios(rt_wide, pt_wide):
    for bound in CENSUS_ROWS:
        census = twin_census(bound, rt_wide, pt_wide)
        assert 0 <= census.pi22 <= census.pi21 <= census.pi2


def test_census_ratio_none_at_ten(rt_wide, pt_wide):
    # pi22/pi21 has no value at 10 and pi21/pi2 is 0
    census = twin_census(10, rt_wide, pt_wide)
    assert census.pi21 == 0 and census.pi2 > 0


def twin_necessary_condition(p, q, pt):
    """Reference form of the condition pi(p) - pi(p/2) + 1 == pi(q) - pi(q/2)
    for primes p < q, halves floored (a half-integer is never prime)."""
    lhs = pt.prime_count(p) - pt.prime_count(p // 2) + 1
    return lhs == pt.prime_count(q) - pt.prime_count(q // 2)


def test_necessary_condition_examples(rt_wide, pt_wide):
    for p, q in NEAR_MISS_PAIRS:
        assert twin_necessary_condition(p, q, pt_wide)
    # the condition does not force membership: 13 follows 11 but is not Ramanujan
    assert rt_wide.membership_mask([11, 13, 67, 71]).tolist() == [True, False, True, True]


def test_necessary_condition_spot_check(pt_wide):
    # pi(11) - pi(5) + 1 = 5 - 3 + 1 = 3 and pi(13) - pi(6) = 6 - 3 = 3
    assert pt_wide.prime_count(11) - pt_wide.prime_count(5) + 1 == 3
    assert pt_wide.prime_count(13) - pt_wide.prime_count(6) == 3
    assert twin_necessary_condition(11, 13, pt_wide)


def test_twin_condition_holds_for_all_pairs(pt_wide):
    assert twin_condition_violations(10 ** 5, pt_wide) == []


def test_lower_membership_no_violations(rt_wide, pt_wide):
    assert lower_membership_violations(10 ** 5, rt_wide, pt_wide) == []


def test_smallest_twin_ramanujan_pair(rt_wide):
    assert rt_wide.membership_mask([149, 151]).all()
    assert rt_wide.values[13] == 149 and rt_wide.values[14] == 151


def test_one_sided_counts(rt_wide, pt_wide):
    assert check_one_sided_counts(10, rt_wide, pt_wide)  # vacuous: no members yet
    assert check_one_sided_counts(10 ** 3, rt_wide, pt_wide)
    census = twin_census(10 ** 3, rt_wide, pt_wide)
    assert (census.pi21, census.pi22) == (28, 10)
    assert check_one_sided_counts(10 ** 6, rt_wide, pt_wide)


def test_ratio_inequalities_at_reference_rows(rt_wide, pt_wide):
    for bound in (10 ** 5, 10 ** 6, 10 ** 7):
        census = twin_census(bound, rt_wide, pt_wide)
        assert ratio_inequalities_hold(bound, census)


def test_ratio_inequalities_reference_displays(rt_wide, pt_wide):
    census = twin_census(10 ** 5, rt_wide, pt_wide)
    assert ratio_display(census.pi21, census.pi2) == 0.788
    assert ratio_display(census.pi22, census.pi2) == 0.415
    assert ratio_display(census.pi22, census.pi21) == 0.527


def test_ratio_inequalities_scope(rt_wide, pt_wide):
    census = twin_census(10 ** 4, rt_wide, pt_wide)
    with pytest.raises(ValueError):
        ratio_inequalities_hold(10 ** 4, census)
    with pytest.raises(ValueError):
        ratio_inequalities_strict(10 ** 4, rt_wide, pt_wide)


def test_ratio_inequalities_strict_below_one_million(rt_wide, pt_wide):
    assert ratio_inequalities_strict(10 ** 6, rt_wide, pt_wide)


@pytest.mark.parametrize("chunk", [1, 7, 1000, 1 << 16])
def test_strict_ratios_check_every_count_state_at_any_step(rt_wide, pt_wide, monkeypatch, chunk):
    bound = 10 ** 6
    lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(bound, rt_wide, pt_wide)
    start = int(prime_core.search(lesser, 10 ** 5, side="right")) - 1
    want = np.stack([np.arange(1, lesser.size + 1), np.cumsum(ram_lo | ram_hi),
                     np.cumsum(ram_lo & ram_hi)])[:, start:]  # the one-shot running counts
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
    seen, fail_at = [], 0

    def recorded(pi2, pi21, pi22):
        seen.append(np.stack([pi2, pi21, pi22]))
        return pi2 != fail_at

    monkeypatch.setattr(twin_stats, "_ratios_hold", recorded)
    assert ratio_inequalities_strict(bound, rt_wide, pt_wide)
    assert np.array_equal(np.concatenate(seen, axis=1), want)
    for fail_at in want[0, [0, want.shape[1] // 2, -1]].tolist():  # one state fails
        assert not ratio_inequalities_strict(bound, rt_wide, pt_wide)


def test_brun_first_terms_all(rt_wide, pt_wide):
    partial = brun_partial(10, KIND_ALL, rt_wide, pt_wide)
    assert partial.terms == 2
    assert partial.sum == math.fsum([1 / 3, 1 / 5, 1 / 5, 1 / 7])


def test_brun_first_terms_restricted(rt_wide, pt_wide):
    one = brun_partial(11, KIND_AT_LEAST_ONE, rt_wide, pt_wide)
    assert one.terms == 1
    assert one.sum == math.fsum([1 / 11, 1 / 13])
    both = brun_partial(150, KIND_BOTH, rt_wide, pt_wide)
    assert both.terms == 1
    assert both.sum == math.fsum([1 / 149, 1 / 151])


def test_brun_restricted_lesser_members(rt_wide, pt_wide):
    lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(300, rt_wide, pt_wide)
    assert lesser[ram_lo | ram_hi][:4].tolist() == [11, 17, 29, 41]
    assert lesser[ram_lo & ram_hi][:4].tolist() == [149, 179, 227, 239]


def test_brun_ordering_and_monotonicity(rt_wide, pt_wide):
    previous = {KIND_ALL: 0.0, KIND_AT_LEAST_ONE: 0.0, KIND_BOTH: 0.0}
    for decade in range(1, 8):
        bound = 10 ** decade
        sums = {k: brun_partial(bound, k, rt_wide, pt_wide).sum for k in previous}
        assert sums[KIND_BOTH] <= sums[KIND_AT_LEAST_ONE] <= sums[KIND_ALL]
        for kind, value in sums.items():
            assert value >= previous[kind]
        previous = sums


@pytest.mark.parametrize("chunk", [1, 2, 3, 7])
def test_brun_sum_is_one_fsum_over_every_step(rt_wide, pt_wide, monkeypatch, chunk):
    lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(10 ** 6, rt_wide, pt_wide)
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
    for kind, keep in ((KIND_ALL, slice(None)), (KIND_AT_LEAST_ONE, ram_lo | ram_hi),
                       (KIND_BOTH, ram_lo & ram_hi)):
        ps = lesser[keep].tolist()
        want = math.fsum([t for p in ps for t in (1 / p, 1 / (p + 2))])  # one-shot, in Python
        got = brun_partial(10 ** 6, kind, rt_wide, pt_wide)
        assert (got.sum.hex(), got.terms) == (want.hex(), len(ps))


def test_brun_kind_validation(rt_wide, pt_wide):
    with pytest.raises(ValueError):
        brun_partial(100, "some", rt_wide, pt_wide)


def test_brun_sum_stays_under_heuristic_limit(rt_wide, pt_wide):
    assert brun_partial(10 ** 7, KIND_ALL, rt_wide, pt_wide).sum < 1.9022


@pytest.mark.parametrize("scan", [
    twin_stats.lower_membership_violations,
    twin_stats.twin_pair_arrays,
    lambda bound, rt, pt: gap_analysis.twin_gap_table(rt, pt),
    lambda bound, rt, pt: gap_analysis.first_sharp_run(1, rt, pt, search_bound=bound),
], ids=["lower_membership_violations", "twin_pair_arrays", "twin_gap_table", "first_sharp_run"])
def test_scans_slice_the_one_classified_prime_list(scan, monkeypatch):
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 5))
    rt = ramanujan_core.compute_below(10 ** 5, pt)
    built = []  # every prime list the table makes
    through = pt._primes_through

    def spy(x):
        cache = through(x)
        if not built or cache is not built[-1]:
            built.append(cache)
        return cache

    monkeypatch.setattr(pt, "_primes_through", spy)
    scan(10 ** 4, rt, pt)
    listed, _ = rt.classified_primes(pt)
    assert len(built) == 1 and pt._prime_cache is built[0]
    assert np.shares_memory(listed, built[0])


def test_twin_scans_share_one_twin_index(monkeypatch):
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 5))
    rt = ramanujan_core.compute_below(10 ** 5, pt)
    seen = []
    twin_index = rt.twin_index
    monkeypatch.setattr(rt, "twin_index",
                        lambda primes: seen.append(twin_index(primes)) or seen[-1])
    for bound in (10, 30, 100, 300, 1000, 3000, 10 ** 4, 3 * 10 ** 4):
        twin_census(bound, rt, pt)
    for kind in (KIND_ALL, KIND_AT_LEAST_ONE, KIND_BOTH):
        brun_partial(10 ** 4, kind, rt, pt)
    gap_analysis.twin_gap_table(rt, pt)
    assert len(seen) == 12 and all(x is seen[0] for x in seen)


def test_lower_membership_violation_is_reported(pt1m):
    # with 149 dropped, 151 is Ramanujan after a non-Ramanujan 149 and
    # pi(149/2) = pi(151/2), so the scan must flag the pair
    true = ramanujan_core.compute_below(1000, pt1m)
    fake = table_of(true.values[true.values != 149], true.scan_limit, 1000)
    assert lower_membership_violations(999, fake, pt1m) == [(149, 151)]
