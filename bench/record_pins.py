"""Record the expected values that no acceptance test pins, into pins.json.

Run once on a trusted commit: python3 bench/record_pins.py

The CLI pool values come from one table below 1e8 + 1e5, so a benchmark
run checks each CLI command, which builds its own smaller table, against a
second route. The values that the acceptance tables also pin are asserted
here before anything is written.
"""

import json
import sys

import expected
from worker import MARGIN, ROOT, SCAN_BOUND, digest

sys.path.insert(0, str(ROOT / "src"))

from ramprimes import prime_core, ramanujan_core, twin_stats  # noqa: E402
from ramprimes.formatting import ratio_display  # noqa: E402

# Bounds the CLI session draws its cache-missing commands from: close
# together, so the seed changes which keys miss but hardly the work.
POOL = [50_000_000 + 7_919 * j for j in range(1, 33)]
KINDS = {"all": twin_stats.KIND_ALL, "one": twin_stats.KIND_AT_LEAST_ONE,
         "both": twin_stats.KIND_BOTH}


def cell(num, den):
    return "" if den == 0 else f"{ratio_display(num, den):.3f}"


def main():
    bound = 10 ** 8 + MARGIN
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(bound))
    rt = ramanujan_core.compute_below(bound, pt)
    pins = {"brun": {}, "pool": []}
    for top in (7, 8):
        sums = {k: twin_stats.brun_partial(10 ** top, kind, rt, pt) for k, kind in KINDS.items()}
        assert [sums[k].terms for k in KINDS] == list(expected.TWIN_ROWS[top])
        pins["brun"][str(top)] = {kind: [sums[k].terms, sums[k].sum] for k, kind in KINDS.items()}
    below = rt.values[rt.values < 10 ** 7]
    assert below[:21].tolist() == expected.FIRST_21
    pins["compute_below_1e7"] = {"count": int(below.size), "digest": digest(below)}
    for b in POOL:
        c = twin_stats.twin_census(b, rt, pt)
        one = twin_stats.brun_partial(b, twin_stats.KIND_AT_LEAST_ONE, rt, pt)
        pins["pool"].append({
            "bound": b,
            "twins": [str(b), str(c.pi2), str(c.pi21), str(c.pi22), cell(c.pi21, c.pi2),
                      cell(c.pi22, c.pi2), cell(c.pi22, c.pi21)],
            "brun_one": f"sum = {one.sum:.10g} over {one.terms} pairs (bound {b})",
        })
    del pt, rt
    pt = prime_core.build(ramanujan_core.prime_limit_for_below(SCAN_BOUND))
    values = ramanujan_core.compute_below(SCAN_BOUND, pt).values
    assert values[:21].tolist() == expected.FIRST_21
    pins["scan"] = {"count": int(values.size), "digest": digest(values)}
    expected.PINS_PATH.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {expected.PINS_PATH}")


if __name__ == "__main__":
    main()
