"""Tests of the benchmark's own machinery: span arithmetic, wrapper
installation, the metric lists, and how failed checks are counted."""

import copy
import json
import sys
import types

import pytest

import expected
import run
import tracer as tracing
import worker

sys.path.insert(0, str(worker.ROOT / "src"))


def test_self_times_of_a_nested_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a1", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("b1", 5.0, 7.0, 3),
        ("b2", 6.0, 8.0, 3),   # overlaps b1: together they cover [5, 8]
        ("b3", 8.5, 9.5, 3),   # runs past its parent: only [8.5, 9] counts
        ("other", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 0.5, 2.0, 2.0, 1.0, 1.0])


def test_layer_metrics_sum_self_times_and_counters_by_name():
    dump = {"names": ["cli.main", "cli.twins", "twin_stats.twin_census"],
            "spans": [[0, 0.0, 5.0, -1], [1, 1.0, 4.0, 0], [2, 1.5, 3.5, 1], [2, 3.5, 3.75, 1]],
            "counters": {"prime_core.is_prime.calls": 7,
                         "ramanujan_core.membership_mask.elems": 10,
                         "ramanujan_core.membership_mask.distinct": 4}}
    m = {k: v["value"] for k, v in tracing.layer_metrics([dump, dump]).items()}
    assert m["twin_stats.twin_census.s"] == pytest.approx(2 * 2.25)
    assert m["cli.twins.s"] == pytest.approx(2 * 0.75)
    assert m["cli.self.s"] == pytest.approx(2 * (2.0 + 0.75))
    assert m["prime_core.is_prime.calls"] == 14
    assert m["ramanujan_core.membership_mask.useful_ratio"] == pytest.approx(0.4)
    assert m["prime_core.build.s"] == 0.0


def test_tracing_off_leaves_every_target_original():
    import ramprimes.cli
    resolved = (tracing.resolve(tracing.LIBRARY_TARGETS)
                + tracing.cli_targets(ramprimes.cli.cli))
    originals = [getattr(owner, attr) for owner, attr, *_ in resolved]
    assert tracing.wrapped_attributes(resolved) == []
    t = tracing.Tracer()
    t.install(resolved)
    try:
        assert len(tracing.wrapped_attributes(resolved)) == len(resolved)
        assert all(getattr(owner, attr) is not orig
                   for (owner, attr, *_), orig in zip(resolved, originals))
    finally:
        t.uninstall()
    assert all(getattr(owner, attr) is orig
               for (owner, attr, *_), orig in zip(resolved, originals))


def test_traced_calls_record_spans_and_counts():
    from ramprimes import prime_core, ramanujan_core
    t = tracing.Tracer()
    t.install(tracing.resolve(tracing.LIBRARY_TARGETS))
    try:
        pt = prime_core.build(10 ** 5)
        rt = ramanujan_core.compute_below(10 ** 4, pt)
        primes = pt.primes_upto(9_000)
        rt.membership_mask(primes)
        rt.membership_mask(primes[:100])
        pt.is_prime(97)
    finally:
        t.uninstall()
    m = {k: v["value"] for k, v in tracing.layer_metrics([t.dump()]).items()}
    assert m["prime_core.primes_upto.calls"] == 1
    assert m["prime_core.primes_upto.elems"] == primes.size
    assert m["ramanujan_core.membership_mask.calls"] == 2
    assert m["ramanujan_core.membership_mask.useful_ratio"] == pytest.approx(
        primes.size / (primes.size + 100))
    assert m["prime_core.is_prime.calls"] == 1
    assert m["ramanujan_core.compute_first.s"] > 0


def test_metric_lists_match_benchmark_json():
    spec = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
    assert [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]] == [
        list(row) for row in tracing.PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)


def _copy_expected():
    return types.SimpleNamespace(**{k: copy.deepcopy(v) for k, v in vars(expected).items()
                                    if k.isupper()})


def test_a_corrupted_expected_value_fails_exactly_one_op():
    top = 7
    pt, rt = worker.paper_setup(top)
    pins = expected.load_pins()
    ops = worker.paper_ops(top, rt, pt, expected, pins)
    observed = {name: worker.observe(thunk) for name, thunk, _ in ops}
    assert worker.failed_ops([(n, observed[n], want) for n, _, want in ops]) == []

    def corrupted(edit):
        exp, p = _copy_expected(), copy.deepcopy(pins)
        edit(exp, p)
        wants = worker.paper_ops(top, rt, pt, exp, p)
        return worker.failed_ops([(n, observed[n], want) for n, _, want in wants])

    def run_row(e, p):
        e.RUN_ROWS[4] = (0.455, 8, 14, 11, 13)

    def twin_row(e, p):
        e.TWIN_ROWS[6] = (8169, 6305, 3469)

    def sharp(e, p):
        e.SHARP_STARTS[9] += 2

    def brun(e, p):
        p["brun"]["7"]["all"][1] += 1e-12

    assert corrupted(run_row) == ["decade_reports"]
    assert corrupted(twin_row) == ["twin_census 1e6"]
    assert corrupted(sharp) == ["first_sharp_run 10"]
    assert corrupted(brun) == ["brun_partial all"]


def test_cache_written_tells_hits_from_misses(tmp_path):
    cache = tmp_path / "cache"
    before = run.cache_listing(cache)
    cache.mkdir()
    (cache / "primes_100.rppt").write_bytes(b"x" * 40)
    after = run.cache_listing(cache)
    assert run.cache_written(before, after) == 40
    assert run.cache_written(after, run.cache_listing(cache)) == 0


def test_session_inputs_depend_only_on_the_seed():
    pins = expected.load_pins()
    args = [[c[1] for c in run.session_commands(seed, pins)] for seed in (3, 3, 4)]
    assert args[0] == args[1]
    assert args[0] != args[2]
