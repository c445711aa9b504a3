"""Analytics that walk the classified primes in fixed steps: the answers do
not depend on the step size, and the memory does not grow with the list."""

import tracemalloc

import numpy as np
import pytest

from ramprimes import gap_analysis, prime_core, ramanujan_core, run_stats, twin_stats
from ramprimes.errors import CoverageError, NotFoundBelowBound
from ramprimes.run_stats import NON_RAMANUJAN, RAMANUJAN
from conftest import odd_runs, table_of


@pytest.fixture(scope="module")
def tables_1e6():
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(10 ** 6))
    return pt, ramanujan_core.compute_below(10 ** 6, pt)


def answer(call):
    """What `call` returns, as plain lists, or the type and message of the
    coverage or not-found error it raises."""
    try:
        value = call()
    except (CoverageError, NotFoundBelowBound) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, tuple):
        return [answer(lambda v=v: v) for v in value]
    return value.tolist() if isinstance(value, np.ndarray) else value


def walked_answers(pt, rt, edges):
    """Every walked analytic on fresh copies of `rt` cut at each of `edges`,
    so that nothing memoized under another step size is read back."""
    out = {}
    for edge in edges:
        t = rt.below(edge)
        top = edge - 1
        out[edge] = {
            "decade_reports": [answer(lambda d=d: run_stats.decade_reports(d, t, pt))
                               for d in range(1, len(str(edge)))],
            "longest_runs": [answer(lambda b=b: run_stats._longest_runs([b], t, pt)[0])
                             for b in (10, 100, 9901, 9902, 10_008, 10 ** 5, edge)
                             if b <= edge],
            "first_run_start": [answer(lambda n=n, k=k: run_stats.first_run_start(n, k, t, pt))
                                for k in (RAMANUJAN, NON_RAMANUJAN)
                                for n in (1, 2, 13, 14, 20, 21, 36, 37)],
            "odd_ramanujan_runs": [answer(lambda b=b: odd_runs(t, pt, b))
                                   for b in (3, 1000, edge)],
            "first_sharp_run": [answer(lambda r=r: gap_analysis.first_sharp_run(r, t, pt, edge))
                                for r in (1, 2, 3, 4, 5, 6, 7, 12, 13, 14)],
            "run_interval_violations": answer(
                lambda: gap_analysis.run_interval_violations(t, pt, edge)),
            "half_point_violations":
                answer(lambda: gap_analysis.half_point_violations(t, pt, edge)),
            "twin_index": answer(lambda: t.twin_index(pt)),
            "twin_census": answer(lambda: twin_stats.twin_census(top - 2, t, pt)),
            "brun_partial": [answer(lambda k=k: twin_stats.brun_partial(top - 2, k, t, pt).sum)
                             for k in twin_stats._KINDS],
            "lower_membership_violations":
                answer(lambda: twin_stats.lower_membership_violations(top, t, pt)),
            "twin_condition_violations":
                answer(lambda: twin_stats.twin_condition_violations(top, pt)),
        }
    true = rt.below(1000)
    fakes = {  # tables with violations for the scans to find, at any step
        "lower": table_of(true.values[true.values != 149], true.scan_limit, 1000),
        "half": table_of([2, 5, 11, 13], scan_limit=0, complete_below=14),
        "run": table_of([2, 11, 13], scan_limit=0, complete_below=18),
    }
    out["fakes"] = [twin_stats.lower_membership_violations(999, fakes["lower"], pt),
                    gap_analysis.half_point_violations(fakes["half"], pt, 14),
                    gap_analysis.run_interval_violations(fakes["run"], pt, 14)]
    return out


# the whole 1e6 tables in steps of 64; in steps of 1 and 7, cut where the
# 13-long block from 9901 is open (10008) and where it has closed (10040)
@pytest.mark.parametrize("chunk, edges", [(1, (10_008, 10_040)), (7, (10_008, 10_040)),
                                          (64, (10 ** 6, 10_008, 10_040))])
def test_the_step_size_changes_no_answer(tables_1e6, monkeypatch, chunk, edges):
    pt, rt = tables_1e6
    default = walked_answers(pt, rt, edges)
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
    assert walked_answers(pt, rt, edges) == default
    # the answers are not all empty, and the block open at 10008 is unresolved
    assert default["fakes"] == [[(149, 151)], [5, 13], [(11, 13)]]
    for name in ("decade_reports", "longest_runs", "first_run_start"):  # 13 from 9901, in turn
        assert default[10_008][name][-1 if name != "first_run_start" else -6][0] == "CoverageError"
    assert default[10_040]["first_run_start"][-6] == 9901
    # the first sharp runs of 1..4 lie below 10008, those of 5 and more do not
    assert default[10_008]["first_sharp_run"][:4] == [11, 4919, 1439, 7187]
    assert default[10_008]["first_sharp_run"][4][0] == "NotFoundBelowBound"
    for edge in edges:  # the twin index, filled step by step, equals one whole-list diff
        listed = rt.below(edge).classified_primes(pt)
        assert default[edge]["twin_index"] == np.flatnonzero(np.diff(listed) == 2).tolist()


def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walked_analytics_peak_far_below_one_list_sized_array(rt_wide, pt_wide, monkeypatch):
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", 1 << 10)
    rt = rt_wide.below(10 ** 7 + 10 ** 5)  # a fresh memo, so twin_index is built below
    listed = rt.classified_primes(pt_wide)
    list_int64 = listed.size * 8
    calls = {
        "decade_reports": lambda: run_stats.decade_reports(7, rt, pt_wide),
        "run_interval_violations": lambda: gap_analysis.run_interval_violations(rt, pt_wide,
                                                                                10 ** 7),
        "twin_index": lambda: rt.twin_index(pt_wide),  # holds its output and one step's positions
        "half_point_violations": lambda: gap_analysis.half_point_violations(rt, pt_wide, 10 ** 7),
    }
    peaks = {name: peak_bytes(call) for name, call in calls.items()}
    assert all(peak < list_int64 // 4 for peak in peaks.values()), (peaks, list_int64)


def memo_bytes(rt) -> int:
    return sum(a.nbytes for v in rt._derived.values() for a in (v if isinstance(v, tuple) else (v,))
               if isinstance(a, np.ndarray))


def test_no_memo_holds_or_builds_a_byte_per_classified_prime(rt_wide, pt_wide, monkeypatch):
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", 1 << 10)
    rt = rt_wide.below(rt_wide.complete_below)  # a fresh memo
    n = rt.classified_primes(pt_wide).size  # the prime list, which the prime table keeps
    pairs = rt.twin_index(pt_wide).size
    del rt._derived["twins"]  # rebuilt below, traced
    builds = {  # each with its bound on what it allocates beside what it keeps
        "twin_index": (lambda: rt.twin_index(pt_wide), n // 2),
        "classified_ranks": (lambda: rt.classified_ranks(pt_wide), n // 2),
        # int64 temporaries over the twin pairs, 16 bytes a pair here; one byte
        # per classified prime would add 12 more
        "twin_gap_table": (lambda: gap_analysis.twin_gap_table(rt, pt_wide), 24 * pairs),
        "twin_gap_check": (lambda: gap_analysis.twin_gap_check(149, 151, rt, pt_wide), n // 2),
    }
    for name, (build, bound) in builds.items():
        before = memo_bytes(rt)
        peak = peak_bytes(build)
        assert peak - (memo_bytes(rt) - before) < bound, (name, peak)
    assert len(rt._derived) == 5  # "primes" and the four memos
    assert memo_bytes(rt) > 0 and all(
        a.size < n for v in rt._derived.values() for a in (v if isinstance(v, tuple) else (v,))
        if isinstance(a, np.ndarray))


def test_first_sharp_run_peak_follows_the_step_not_the_list(rt_wide, pt_wide, monkeypatch):
    chunk = 1 << 10
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
    rt = rt_wide.below(rt_wide.complete_below)  # a fresh memo
    rt.classified_primes(pt_wide)
    rt.classified_ranks(pt_wide)  # every memo exists before the calls are traced
    for r, start in ((1, 11), (4, 7187), (11, 12034427)):  # the last walks 12e6 integers
        found = []
        peak = peak_bytes(lambda: found.append(gap_analysis.first_sharp_run(r, rt, pt_wide)))
        # 10-22 bytes per step position; a rank-sized int64 array here is 5 MB
        assert found == [start] and peak < 64 * chunk, (r, peak)


def test_strict_ratios_peak_follows_the_step_not_the_pairs(rt_wide, pt_wide, monkeypatch):
    chunk = 1 << 10
    monkeypatch.setattr(ramanujan_core, "_WALK_CHUNK", chunk)
    rt = rt_wide.below(rt_wide.complete_below)  # a fresh memo
    rt.twin_index(pt_wide)  # every memo exists before the call is traced
    bound = rt.coverage(pt_wide, rt.complete_below - 1) - 2
    pairs = twin_stats.twin_pair_arrays(bound, rt, pt_wide)[0].size
    found = []
    peak = peak_bytes(lambda: found.append(twin_stats.ratio_inequalities_strict(bound, rt, pt_wide)))
    # about 50 bytes per step position; the bound is below one byte per pair (112,103
    # here), while the running counts over all pairs were five int64 arrays of them
    assert found == [True] and peak < 64 * chunk < pairs, (peak, pairs)
