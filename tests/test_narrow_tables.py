"""Tables in the narrow dtype: the dtype rule, the search helper, no widened
copies, and answers equal to those from int64 tables."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from ramprimes import gap_analysis, prime_core, ramanujan_core, run_stats, twin_stats
from ramprimes.errors import CoverageError, InternalConsistencyError, NotFoundBelowBound
from ramprimes.prime_core import search, table_dtype
from conftest import odd_runs


def test_dtype_rule_keeps_sixteen_of_headroom():
    assert table_dtype(0) == table_dtype(2 ** 32 - 17) == np.uint32
    assert table_dtype(2 ** 32 - 16) == table_dtype(10 ** 18) == np.int64


@pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.int64])
@pytest.mark.parametrize("side", ["left", "right"])
def test_search_matches_a_search_in_python_ints(dtype, side):
    table = np.array([2, 3, 5, 7, 11, 13, 65521], dtype=dtype)
    keys = [-(2 ** 40), -1, 0, 1, 2, 6, 7, 65521, 65535, 65536, 2 ** 32, 2 ** 40]
    want = np.searchsorted(np.array(table, dtype=object), keys, side=side).tolist()
    assert [int(search(table, k, side)) for k in keys] == want
    assert search(table, np.array(keys, dtype=np.int64), side).tolist() == want
    assert search(table, keys, side).tolist() == want
    narrow = [k for k in keys if 0 <= k < 2 ** 16]
    assert search(table, np.array(narrow, dtype=np.uint16), side).tolist() == \
        np.searchsorted(np.array(table, dtype=object), narrow, side=side).tolist()


def test_batch_queries_read_narrow_keys(pt1m):
    keys = np.array([0, 1, 2, 3, 4, 97, 99, 10 ** 6], dtype=np.uint32)
    assert pt1m.is_prime_batch(keys).tolist() == [False, False, True, True,
                                                   False, True, False, False]
    assert pt1m.prime_count_batch(keys).tolist() == [pt1m.prime_count(int(k)) for k in keys]
    assert pt1m.prime_count_batch(keys).dtype == np.int64


# -- no call copies the narrow table it searches ------------------------------

def peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_call_allocates_a_copy_of_its_table(rt_wide, pt_wide, pt1m):
    values = rt_wide.values
    primes = pt_wide.primes_upto(pt_wide.limit)  # the prime list, decoded whole
    lesser, _, _ = gap_analysis.twin_gap_table(rt_wide, pt_wide)
    assert values.dtype == primes.dtype == lesser.dtype == np.uint32
    p = int(lesser[lesser.size // 2])
    # the bucket directory, built once: its build holds at most a walk step of
    # int64 beside the directory, and a hit after it reads the memo
    first = rt_wide.derived(pt_wide, "twin_gap_lookup", gap_analysis._gap_lookup)[3]
    build = peak_bytes(lambda: gap_analysis._gap_lookup(rt_wide, pt_wide))
    assert build < first.nbytes + 8 * ramanujan_core._WALK_CHUNK
    calls = [
        ("below", values, lambda: rt_wide.below(10 ** 7)),
        ("primes_upto", primes, lambda: pt_wide.primes_upto(10 ** 7)),
        ("prime_count_batch", primes,
         lambda: pt_wide.prime_count_batch(np.arange(3, 10 ** 7, 10 ** 4, dtype=np.int64))),
        ("membership_mask", values, lambda: rt_wide.membership_mask([p, p + 2])),
        ("twin_gap_check", lesser, lambda: gap_analysis.twin_gap_check(p, p + 2, rt_wide, pt_wide)),
    ]
    # classification by a table whose values run past the prime table reads its
    # packed mask in place: no array of one entry per listed prime
    listed = pt1m.primes_upto(pt1m.limit)
    past = dataclasses.replace(rt_wide)  # a memo of its own
    calls += [("classified mask", listed, lambda: past.classified_count(pt1m))]
    for name, table, call in calls:
        assert peak_bytes(call) < table.nbytes, name


# -- a stand-in narrow dtype gives every analytic's answer unchanged ----------

STAND_IN_LIMIT = 65_000  # under the uint16 stand-in, tables to 65519 are narrow
BOUND = 40_000  # compute_below(BOUND) scans to p_3n, about 63000
TOP = 39_000  # analytics read the integers up to here, inside the coverage


def plain(value):
    """Python data equal on both dtypes: arrays as lists, records as dicts."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    if dataclasses.is_dataclass(value):
        return plain(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {k: plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    return value


def answer(call):
    try:
        return plain(call())
    except (CoverageError, InternalConsistencyError, NotFoundBelowBound) as exc:
        return [type(exc).__name__, str(exc)]


def analytics(rt, pt):
    runs = odd_runs(rt, pt, TOP)
    lesser = gap_analysis.twin_gap_table(rt, pt)[0]
    return {
        "decade_reports": answer(lambda: run_stats.decade_reports(4, rt, pt)),
        "twin_census": [answer(lambda b=b: twin_stats.twin_census(b, rt, pt))
                        for b in (10, 100, 1000, 10 ** 4, TOP)],
        "brun_partial": [answer(lambda k=k: twin_stats.brun_partial(TOP, k, rt, pt))
                         for k in (twin_stats.KIND_ALL, twin_stats.KIND_AT_LEAST_ONE,
                                   twin_stats.KIND_BOTH)],
        "ratio_inequalities_strict":
            answer(lambda: twin_stats.ratio_inequalities_strict(TOP, rt, pt)),
        "twin_condition_violations":
            answer(lambda: twin_stats.twin_condition_violations(STAND_IN_LIMIT - 2, pt)),
        "lower_membership_violations":
            answer(lambda: twin_stats.lower_membership_violations(TOP, rt, pt)),
        "half_point_violations": answer(lambda: gap_analysis.half_point_violations(rt, pt, TOP)),
        "run_interval_violations":
            answer(lambda: gap_analysis.run_interval_violations(rt, pt, TOP)),
        "first_sharp_run": [answer(lambda r=r: gap_analysis.first_sharp_run(r, rt, pt, TOP))
                            for r in range(1, 8)],
        "odd_ramanujan_runs": plain(runs),
        "gap_for_run": [answer(lambda s=s, n=n: gap_analysis.gap_for_run(s, n, rt, pt))
                        for s, n in zip(runs[0].tolist(), runs[3].tolist())],
        "twin_gap_table": answer(lambda: gap_analysis.twin_gap_table(rt, pt)),
        "twin_gap_check": [gap_analysis.twin_gap_check(p, p + 2, rt, pt) for p in lesser.tolist()],
        "rank_scaling_violations":
            [answer(lambda m=m: ramanujan_core.rank_scaling_violations(rt, m, TOP, pt))
             for m in range(2, 21)],
        "last_violation_below_threshold":
            [answer(lambda m=m: ramanujan_core.last_violation_below_threshold(rt, m, TOP, pt))
             for m in range(2, 21)],
        "log_bound_failures": answer(lambda: ramanujan_core.log_bound_failures(rt, 1600, pt)),
        "max_ratio": answer(lambda: ramanujan_core.max_ratio(rt, rt.count, {5}, pt)),
    }


def stand_in_run(monkeypatch, tmp_path, narrow):
    """(dtypes of every table, every analytic's answer) with `narrow` as the
    narrow dtype; the ratio checks start at 1000 to fit under the limit."""
    with monkeypatch.context() as m:
        m.setattr(prime_core, "_NARROW", narrow)
        m.setattr(twin_stats, "RATIO_CONJECTURE_MIN_BOUND", 1000)
        pt = prime_core.build(STAND_IN_LIMIT)
        first = ramanujan_core.compute_first(-(-pt.prime_count(BOUND) // 2) + 1, pt)
        first.save(tmp_path / f"{np.dtype(narrow)}.rprt")
        loaded = ramanujan_core.load(tmp_path / f"{np.dtype(narrow)}.rprt", pt)
        rt = ramanujan_core.compute_below(BOUND, pt)
        dtypes = {first.values.dtype, loaded.values.dtype, first.below(BOUND).values.dtype,
                  rt.values.dtype, pt.primes_upto(STAND_IN_LIMIT).dtype,
                  rt.twin_pairs(pt)[0].dtype}
        return dtypes, analytics(rt, pt)


def test_a_narrow_stand_in_changes_no_answer(monkeypatch, tmp_path):
    narrow_dtypes, narrow = stand_in_run(monkeypatch, tmp_path, np.uint16)
    wide_dtypes, wide = stand_in_run(monkeypatch, tmp_path, np.int64)
    assert narrow_dtypes == {np.dtype(np.uint16)}
    assert wide_dtypes == {np.dtype(np.int64)}
    assert narrow["twin_gap_check"] and narrow["gap_for_run"]  # the answers are not all empty
    for name in wide:
        assert narrow[name] == wide[name], name


def test_rank_scaling_products_do_not_wrap(pt1m, monkeypatch):
    rt = ramanujan_core.compute_below(10 ** 5, pt1m)
    ms = (2, 3, 7, 20)
    want = {m: ramanujan_core._rank_scaling_failures(rt, m, 10 ** 5, pt1m).tolist() for m in ms}
    assert all(want.values())  # some n below each threshold violates
    # scaling every rank by s, and the bit below which each count is taken down by s, keeps
    # each comparison; the scaled ranks fit uint32, but m times them pass 2**32, where a
    # uint32 product would wrap
    top = int(rt.prime_ranks(pt1m)[-1])
    s, asked = 2 ** 32 // (top + 1), []
    select, rank = prime_core.mask_select, prime_core.mask_rank
    monkeypatch.setattr(prime_core, "mask_select",
                        lambda index, k: s * (select(index, k) + 1) - 1)
    monkeypatch.setattr(prime_core, "mask_rank",
                        lambda index, k: asked.append(int(k.max())) or rank(index, k // s))
    for m in ms:
        assert ramanujan_core._rank_scaling_failures(rt, m, 10 ** 5, pt1m).tolist() == want[m]
    assert s * top < 2 ** 32 <= max(asked)
