import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramprimes import gap_analysis, prime_core, ramanujan_core, table_file, twin_stats
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


def reference_twin_condition_violations(bound, pt):
    """`twin_condition_violations` by four prime counts a pair: the twin pairs
    (p, p + 2), 5 < p <= bound, failing `twin_necessary_condition`, taken whole."""
    primes = pt.primes_upto(bound + 2)
    p = primes[:-1][np.diff(primes) == 2]
    p = p[(p <= bound) & (p > 5)]
    lhs = pt.prime_count_batch(p) - pt.prime_count_batch(p // 2) + 1
    rhs = pt.prime_count_batch(p + 2) - pt.prime_count_batch((p + 2) // 2)
    return [(x, x + 2) for x in p[lhs != rhs].tolist()]


def reference_lower_membership_violations(bound, rt, pt):
    """`lower_membership_violations` by two prime counts a pair: consecutive
    primes p < q <= bound, q Ramanujan and p not, with pi(p/2) == pi(q/2)."""
    listed = pt.primes_upto(rt.coverage(pt))
    bits = prime_core.mask_bits(rt.mask, 0, int(prime_core.search(listed, bound, side="right")))
    i = np.flatnonzero(~bits[:-1] & bits[1:])
    p, q = listed[i], listed[i + 1]
    bad = pt.prime_count_batch(p // 2) == pt.prime_count_batch(q // 2)
    return list(zip(p[bad].tolist(), q[bad].tolist()))


def test_twin_condition_holds_for_all_pairs(pt_wide):
    assert twin_condition_violations(10 ** 5, pt_wide) == []


def test_lower_membership_no_violations(rt_wide, pt_wide):
    assert lower_membership_violations(10 ** 5, rt_wide, pt_wide) == []


def test_one_count_routes_match_their_references_on_the_wide_tables(rt_wide, pt_wide):
    bound = rt_wide.coverage(pt_wide) - 2
    assert twin_condition_violations(bound, pt_wide) == []
    assert reference_twin_condition_violations(bound, pt_wide) == []
    assert lower_membership_violations(bound, rt_wide, pt_wide) == []
    assert reference_lower_membership_violations(bound, rt_wide, pt_wide) == []


def with_flag_set(pt, k):
    """A copy of the prime table `pt` whose flags also mark `k`, an integer prime
    to 30, prime: bit k % 30 of the wheel's residues in flag byte k // 30."""
    packed = table_file.word_padded(pt._packed.size)
    packed[:] = pt._packed
    packed[k // 30] |= 1 << (1, 7, 11, 13, 17, 19, 23, 29).index(k % 30)
    return prime_core.PrimeTable(pt.limit, packed)


class NineListed(prime_core.PrimeTable):
    """A prime table that also lists the odd 9 as a prime, in its prime list, its
    twin pairs (7, 9) and (9, 11), its counts and its flag reads. No flag bit stands
    for 9, a multiple of 3, so the change is made to the table's answers."""

    def primes_upto(self, x):
        primes = super().primes_upto(x)
        return np.insert(primes, 4, 9) if x >= 9 else primes

    def twins(self, hi):
        lesser = super().twins(hi)
        return np.insert(lesser, 2, [p for p in (7, 9) if p + 2 <= hi])

    def is_prime_batch(self, values):
        return super().is_prime_batch(values) | (np.asarray(values) == 9)

    def prime_count_batch(self, values):
        counts = super().prime_count_batch(values)
        counts += np.asarray(values) >= 9
        return counts


@pytest.mark.parametrize("narrow", [np.uint32, np.int64])
def test_one_count_routes_report_what_their_references_report(pt1m, monkeypatch, narrow):
    monkeypatch.setattr(prime_core, "_NARROW", narrow)  # int64 stands in for tables past 2**32
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 5))
    rt = ramanujan_core.compute_below(10 ** 5, pt)
    assert pt.primes_upto(10).dtype == narrow
    for bound in (6, 11, 1000, rt.coverage(pt) - 2):
        assert twin_condition_violations(bound, pt) == reference_twin_condition_violations(bound, pt)
        assert (lower_membership_violations(bound, rt, pt)
                == reference_lower_membership_violations(bound, rt, pt))
    # 49 = 7**2 flagged prime makes (47, 49) a twin pair, yet no flags can fail the
    # twin condition: every flagged integer past 5 is prime to 3, so for a pair
    # (p, p + 2) the integer (p + 1)/2 between the halves is a multiple of 3
    bad = with_flag_set(pt, 49)
    assert bad.primes_upto(60).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                            43, 47, 49, 53, 59]
    for bound in (47, 10 ** 4):
        assert twin_condition_violations(bound, bad) == reference_twin_condition_violations(bound, bad) == []
    # the odd 9 listed as a prime: (9 + 1)/2 = 5 and (17 + 1)/2 = 9 are then primes between
    # the halves of a twin pair, so (9, 11) and (17, 19) fail the twin condition
    bad = NineListed(pt.limit, pt._packed)
    assert bad.primes_upto(20).tolist() == [2, 3, 5, 7, 9, 11, 13, 17, 19]
    assert bad.prime_count_batch(np.arange(8, 12)).tolist() == [4, 5, 5, 6]
    for bound in (17, 10 ** 4):
        want = reference_twin_condition_violations(bound, bad)
        assert twin_condition_violations(bound, bad) == want == [(9, 11), (17, 19)]
    assert twin_condition_violations(16, bad) == reference_twin_condition_violations(16, bad) == [(9, 11)]
    # Ramanujan primes dropped from the table, each after a non-Ramanujan prime:
    # the pairs they end rise from a non-Ramanujan p to a Ramanujan q
    true = ramanujan_core.compute_below(1000, pt1m)
    fake = table_of(true.values[~np.isin(true.values, [149, 227, 233])], true.scan_limit, 1000)
    for bound in (240, 999):
        want = reference_lower_membership_violations(bound, fake, pt1m)
        assert lower_membership_violations(bound, fake, pt1m) == want == [
            (149, 151), (227, 229), (233, 239)]


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


# finite floats of either sign, subnormals included; -0.0 becomes 0.0, as a sum
# of negative zeros alone is the one case where the exact sum's sign differs
finite = st.floats(min_value=-1e300, max_value=1e300).map(lambda x: x + 0.0)


@settings(max_examples=300, deadline=None)
@given(terms=st.lists(finite, max_size=40), repeat=st.sampled_from([1, 2, 3, 3000]),
       cuts=st.lists(st.integers(0, 10 ** 6), max_size=6))
@example(terms=[], repeat=1, cuts=[])
@example(terms=[1 / 3], repeat=1, cuts=[])
@example(terms=[1 / 3], repeat=1, cuts=[0, 1])  # empty steps on both sides
# thousands of terms share one exponent, with all 53 mantissa bits set: both
# halves' sums pass 26 bits, so they carry into each other
@example(terms=[1 - 2 ** -53], repeat=3000, cuts=[1500])
@example(terms=[1e300, -1e300, 2 ** -1074, 1.0], repeat=1, cuts=[2])
@example(terms=[1e300, 1e-300, 5e-324, 1.0], repeat=1, cuts=[])  # one step over ~2100 exponents
@example(terms=[2 ** -1022, 3 * 2 ** -1074], repeat=1, cuts=[])  # subnormals: no implicit bit
def test_exact_sum_is_fsum_bit_for_bit(terms, repeat, cuts):
    x = np.repeat(np.array(terms, dtype=np.float64), repeat)
    steps = np.split(x, sorted(c % (x.size + 1) for c in cuts))  # any split into steps
    assert twin_stats._exact_sum(steps).hex() == math.fsum(x.tolist()).hex()


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
    want = scan(10 ** 4, rt, pt)
    rt = ramanujan_core.compute_below(10 ** 5, pt)  # a fresh memo
    sizes = []  # the primes of each decode, one walk step or less

    def spy(lo, hi, out=None):
        sizes.append((found := decode(lo, hi, out)).size)
        return found

    decode = pt.primes_between
    monkeypatch.setattr(pt, "primes_between", spy)
    monkeypatch.setattr(pt, "primes_upto", None)  # the classification is read with no list
    got = scan(10 ** 4, rt, pt)
    assert all(np.array_equal(x, y) for x, y in zip(got, want)) if isinstance(want, tuple) else got == want
    assert max(sizes, default=0) <= ramanujan_core._WALK_CHUNK
    assert all(a.size < rt.classified_count(pt) for v in rt._derived.values()
               for a in (v if isinstance(v, tuple) else (v,)) if isinstance(a, np.ndarray))


def test_twin_scans_share_one_twin_table(monkeypatch):
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 5))
    rt = ramanujan_core.compute_below(10 ** 5, pt)
    seen = []
    twin_pairs = rt.twin_pairs
    monkeypatch.setattr(rt, "twin_pairs",
                        lambda primes: seen.append(twin_pairs(primes)) or seen[-1])
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
    assert reference_lower_membership_violations(999, fake, pt1m) == [(149, 151)]


@pytest.mark.parametrize("narrow", [np.uint32, np.int64])
def test_twin_pair_arrays_slice_the_whole_list_route(monkeypatch, narrow):
    monkeypatch.setattr(prime_core, "_NARROW", narrow)  # int64 stands in for tables past 2**32
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 5))
    rt = ramanujan_core.compute_below(10 ** 5, pt)
    listed, cov = pt.primes_upto(rt.coverage(pt)), rt.coverage(pt)
    i = np.flatnonzero(np.diff(listed) == 2)
    bits = prime_core.mask_bits(rt.mask, 0, listed.size)
    ends = listed[i].tolist()  # bounds on, and next to, lesser members, up to the coverage edge
    bounds = {2, *ends[:40], *(p + d for p in ends[::29] + ends[-2:] for d in (-1, 0, 1)), cov - 2}
    table = rt.twin_pairs(pt)
    for bound in sorted(bounds):
        j = i[listed[i] <= bound]
        got = twin_stats.twin_pair_arrays(bound, rt, pt)
        for x, want, whole in zip(got, (listed[j], bits[j], bits[j + 1]), table):
            assert x.dtype == want.dtype and np.array_equal(x, want)
            assert not x.flags.writeable and x.base is whole  # a view, not a copy
    assert table[0].dtype == narrow
    for bound in (cov - 1, cov):
        with pytest.raises(CoverageError, match=f"needs primes classified through {bound + 2}; "
                                                 f"the tables classify through {cov}$"):
            twin_stats.twin_pair_arrays(bound, rt, pt)


def test_twin_analytics_read_no_mask_once_the_twin_table_exists(pt1m, monkeypatch):
    rt = ramanujan_core.compute_below(2 * 10 ** 5, pt1m)
    bound = 10 ** 5 + 1000

    def answers(rt):
        return [twin_census(bound, rt, pt1m), brun_partial(bound, KIND_BOTH, rt, pt1m),
                check_one_sided_counts(bound, rt, pt1m), ratio_inequalities_strict(bound, rt, pt1m)]

    want = answers(rt)
    rt = ramanujan_core.compute_below(2 * 10 ** 5, pt1m)  # a fresh memo
    rt.twin_pairs(pt1m)
    monkeypatch.setattr(rt, "mask", None)  # any read of the mask from here on fails
    assert answers(rt) == want
    assert gap_analysis.twin_gap_check(149, 151, rt, pt1m) == (74, 78)  # the gap table reads none


def test_twin_classes_read_both_bits_of_a_pair(pt1m):
    # with 149 dropped, (149, 151) has only its greater member Ramanujan: still one
    # or both, no longer both, so the one-sided counts disagree and the gap table drops it
    true = ramanujan_core.compute_below(1000, pt1m)
    fake = table_of(true.values[true.values != 149], true.scan_limit, 1000)
    want, got = twin_census(150, true, pt1m), twin_census(150, fake, pt1m)
    assert (got.pi2, got.pi21, got.pi22) == (want.pi2, want.pi21, want.pi22 - 1)
    assert check_one_sided_counts(150, true, pt1m) and not check_one_sided_counts(150, fake, pt1m)
    assert 149 in gap_analysis.twin_gap_table(true, pt1m)[0].tolist()
    assert 149 not in gap_analysis.twin_gap_table(fake, pt1m)[0].tolist()
