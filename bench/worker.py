"""One process of a library workload (paper-1e8 or scan-3e8).

Usage: worker.py WORKLOAD ROLE TRACE OUT_JSON

ROLE "setup" imports the library and builds the tables, then stops; ROLE
"full" also runs one timed pass and checks its outputs. With TRACE 1 the
tracer wraps the library before set-up. The result goes to OUT_JSON.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PAPER_TOP = 8
SCAN_BOUND = 3 * 10 ** 8
MARGIN = 10 ** 5  # lets runs straddling the top decade bound resolve, as the acceptance suite does
SHARP_SEARCH = 20_000_000  # default search bound of first_sharp_run


def normalize(value):
    """Plain JSON data, so observations and expectations compare by value."""
    return json.loads(json.dumps(value, default=lambda v: v.item() if hasattr(v, "item") else str(v)))


def failed_ops(ops):
    """Names of the (name, observed, expected) ops whose observation differs."""
    return [name for name, observed, expected in ops if normalize(observed) != normalize(expected)]


def observe(thunk):
    try:
        return thunk()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        return {"error": f"{type(exc).__name__}: {exc}"}


def paper_bound(top):
    return max(10 ** top, SHARP_SEARCH) + MARGIN


def paper_setup(top):
    from ramprimes import prime_core, ramanujan_core
    bound = paper_bound(top)
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(bound))
    return pt, ramanujan_core.compute_below(bound, pt)


def _census_row(c):
    from ramprimes.formatting import ratio_display
    ratio = [ratio_display(n, d) if d else None for n, d in ((c.pi21, c.pi2), (c.pi22, c.pi2),
                                                              (c.pi22, c.pi21))]
    return [c.pi2, c.pi21, c.pi22, *ratio]


def _twin_gaps(bound, rt, pt):
    from ramprimes import gap_analysis, twin_stats
    lesser, ram_lo, ram_hi = twin_stats.twin_pair_arrays(bound, rt, pt)
    shortest = None
    pairs = lesser[ram_lo & ram_hi]
    for p in pairs:
        a, b = gap_analysis.twin_gap_check(int(p), int(p) + 2, rt, pt)
        shortest = b - a + 1 if shortest is None else min(shortest, b - a + 1)
    return [int(pairs.size), shortest]


def _theorem4(rt, pt):
    from ramprimes import ramanujan_core
    top, out, excluded = ramanujan_core.LAISHRAM_LIMIT, [], set()
    out.append(ramanujan_core.verify_max_ratio_bound(rt, pt))
    for _ in range(3):
        best = ramanujan_core.max_ratio(rt, top, excluded, pt)
        out.append([best.argmax_n, str(best.ratio)])
        excluded.add(best.argmax_n)
    return out


def paper_ops(top, rt, pt, expected, pins):
    """(name, thunk, expected observation) for every row and check of the
    paper through 10**top."""
    from ramprimes import gap_analysis, ramanujan_core, run_stats, twin_stats
    from ramprimes.formatting import ratio_display, round_half_up
    bound = 10 ** top
    ops = [("decade_reports",
            lambda: [[ratio_display(r.ram_count, r.trials), round_half_up(r.expected_ram),
                      r.longest_ram, round_half_up(r.expected_nonram), r.longest_nonram]
                     for r in run_stats.decade_reports(top, rt, pt)],
            [list(expected.RUN_ROWS[d]) for d in range(1, top + 1)])]
    for d in range(1, top + 1):
        ops.append((f"twin_census 1e{d}",
                    lambda d=d: _census_row(twin_stats.twin_census(10 ** d, rt, pt)),
                    [*expected.TWIN_ROWS[d], *expected.TWIN_RATIO_ROWS[d]]))
    for kind, (terms, total) in pins["brun"][str(top)].items():
        ops.append((f"brun_partial {kind}",
                    lambda kind=kind: (lambda b: [b.terms, b.sum])(
                        twin_stats.brun_partial(bound, kind, rt, pt)),
                    [terms, total]))
    ops += [
        ("ratio_inequalities_strict",
         lambda: twin_stats.ratio_inequalities_strict(bound, rt, pt), True),
        ("twin_condition_violations",
         lambda: twin_stats.twin_condition_violations(bound, pt), []),
        ("lower_membership_violations",
         lambda: twin_stats.lower_membership_violations(bound, rt, pt), []),
        ("half_point_violations",
         lambda: gap_analysis.half_point_violations(rt, pt, bound), []),
        ("run_interval_violations",
         lambda: gap_analysis.run_interval_violations(rt, pt, bound), []),
        ("twin_gap_check", lambda: _twin_gaps(bound, rt, pt),
         [expected.TWIN_ROWS[top][2], expected.MIN_TWIN_GAP]),
    ]
    for r, start in enumerate(expected.SHARP_STARTS, 1):
        ops.append((f"first_sharp_run {r}",
                    lambda r=r: gap_analysis.first_sharp_run(r, rt, pt), start))
    for m in range(2, 21):
        ops.append((f"rank_scaling m={m}",
                    lambda m=m: ramanujan_core.rank_scaling_violations(rt, m, bound, pt), []))
    ops.append(("theorem4", lambda: _theorem4(rt, pt), [True, *expected.MAX_RATIOS]))
    return ops


def digest(values):
    import numpy as np
    return hashlib.sha256(np.asarray(values, dtype="<i8").tobytes()).hexdigest()


def scan_observation(values, pt):
    """Count, first values, strict increase, 2n < pi(R_n) < 3n, digest."""
    import numpy as np
    n = np.arange(1, values.size + 1, dtype=np.int64)
    ranks = np.searchsorted(pt.primes_upto(int(values[-1])), values) + 1
    return {"count": int(values.size),
            "first_21": values[:21].tolist(),
            "increasing": bool(np.all(values[1:] > values[:-1])),
            "rank_bounds": bool(np.all(2 * n[1:] < ranks[1:]) and np.all(ranks[1:] < 3 * n[1:])),
            "digest": digest(values)}


def main(workload, role, trace, out_path):
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import ramprimes
    from ramprimes import prime_core, ramanujan_core
    if not Path(ramprimes.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"ramprimes imported from {ramprimes.__file__}, not from {ROOT / 'src'}")
    import expected
    import tracer as tracing

    resolved = tracing.resolve(tracing.LIBRARY_TARGETS)
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install(resolved)
    elif tracing.wrapped_attributes(resolved):
        sys.exit(f"wrappers installed with tracing off: {tracing.wrapped_attributes(resolved)}")

    if workload == "paper-1e8":
        pt, rt = paper_setup(PAPER_TOP)
    else:
        pt = prime_core.build(ramanujan_core.prime_limit_for_below(SCAN_BOUND))
    result = {"setup_s": time.perf_counter() - start}

    if role == "full":
        pins = expected.load_pins()
        begin = time.perf_counter()
        if workload == "paper-1e8":
            ops = [(name, observe(thunk), want)
                   for name, thunk, want in paper_ops(PAPER_TOP, rt, pt, expected, pins)]
        else:
            values = observe(lambda: ramanujan_core.compute_below(SCAN_BOUND, pt).values)
        result["wall_s"] = time.perf_counter() - begin
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # before checks allocate
        if tracer is not None:
            tracer.uninstall()  # the checks below are not part of the traced work
        if workload == "scan-3e8":
            want = {"count": pins["scan"]["count"], "first_21": expected.FIRST_21,
                    "increasing": True, "rank_bounds": True, "digest": pins["scan"]["digest"]}
            ops = [("compute_below 3e8", observe(lambda: scan_observation(values, pt)), want)]
        result["ops"] = [name for name, _, _ in ops]
        result["failed"] = failed_ops(ops)
        result["failures"] = {name: {"observed": normalize(obs), "expected": normalize(want)}
                              for name, obs, want in ops if name in result["failed"]}
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.dump()
    Path(out_path).write_text(json.dumps(result))


if __name__ == "__main__":
    name, role, trace, out = sys.argv[1:5]
    main(name, role, trace == "1", out)
