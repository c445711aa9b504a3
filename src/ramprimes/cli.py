"""Command-line frontend: compute Ramanujan primes, verify the bound
results, and emit the run/twin/gap reports as table, CSV, or JSON.

Exit codes: 0 success, 1 a verification failed, 2 bad arguments, 3 resource
limit hit, 4 internal fault (a proved property failed, tables the command
built itself fell short of its request, or a library call rejected its input).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import sys
from pathlib import Path

import click

from . import gap_analysis, prime_core, ramanujan_core, run_stats, twin_stats
from .errors import InternalConsistencyError, NotFoundBelowBound, ResourceLimitError
from .formatting import ratio_display, round_half_up

EXIT_VERIFICATION_FAILED = 1
EXIT_USAGE = 2  # click's own code for bad arguments
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# Tables for a report reach this far past its bound, so that runs and gaps
# straddling the bound can still close.
COVERAGE_MARGIN = 100_000


class BoundType(click.ParamType):
    """Integer bounds from `min` to MAX, plain or in scientific notation (1e6, 2.5e7)."""

    name = "bound"
    MAX = 10 ** 18  # far past any table that fits in memory; keeps the float sizing finite

    def __init__(self, min: int = 1):
        self.min = min

    def convert(self, value, param, ctx):
        try:
            bound = int(value)
        except ValueError:
            try:
                as_float = float(value)
            except ValueError:
                self.fail(f"{value!r} is not an integer bound", param, ctx)
            if not as_float.is_integer():  # also rejects inf, -inf and nan
                self.fail(f"{value!r} is not an integer bound", param, ctx)
            bound = int(as_float)
        if bound < 1:
            self.fail(f"{value!r} is not a positive bound", param, ctx)
        if bound < self.min:
            self.fail(f"{value!r} is below the least bound {self.min}", param, ctx)
        if bound > self.MAX:
            self.fail(f"{value!r} is above the largest bound {self.MAX}", param, ctx)
        return bound


BOUND = BoundType()


def guarded(fn):
    """Map library errors onto the documented exit codes."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ResourceLimitError as exc:
            click.echo(f"resource limit: {exc}", err=True)
            sys.exit(EXIT_RESOURCE)
        except (ValueError, InternalConsistencyError) as exc:  # option types check arguments
            click.echo(f"internal fault: {exc}", err=True)
            sys.exit(EXIT_INTERNAL)

    return wrapper


def _cached(cache_dir, name, load, covers, build):
    """The table cached as `name` if `load` accepts it and it `covers` the
    request; otherwise a new one from `build`, written to the cache through
    a temporary file, so that `name` never holds a partly written table.
    Caches affect speed only: a file that cannot be read is rebuilt, and one
    that cannot be written is left out, each with a note on stderr."""
    path = None if cache_dir is None else Path(cache_dir) / name
    if path is not None and os.path.exists(path):  # False, not a raise, on any OSError
        try:
            table = load(path)
        except (OSError, ValueError) as exc:
            click.echo(f"note: rebuilding rejected cache file: {exc}", err=True)
        else:
            if covers(table):
                return table
    table = build()
    if path is not None:
        temp = path.with_name(f"{name}.{os.getpid()}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                table.save(temp)
                os.replace(temp, path)
            finally:
                temp.unlink(missing_ok=True)  # gone already once the replace succeeded
        except OSError as exc:
            click.echo(f"note: cache file not written: {exc}", err=True)
    return table


def _prime_table(limit, cache_dir):
    return _cached(cache_dir, "primes.rppt", prime_core.load,
                   lambda t: t.limit >= limit, lambda: prime_core.build(limit))


def _tables_below(x, cache_dir):
    """The prime table for `x`, and the Ramanujan table cut to `x`, decoded from it on a hit."""
    primes = _prime_table(ramanujan_core.prime_limit_for_below(x), cache_dir)
    return primes, _cached(cache_dir, "ramanujan.rprt",
                           lambda path: ramanujan_core.load(path, primes, below=x),
                           lambda t: t.complete_below >= x,
                           lambda: ramanujan_core.compute_below(x, primes))


def _tables_covering(bound, cache_dir):
    """Tables for a report up to `bound`, COVERAGE_MARGIN past it."""
    return _tables_below(bound + COVERAGE_MARGIN, cache_dir)


def _write(text, output):
    if output is None:
        click.echo(text, nl=False)
        return
    try:
        Path(output).write_text(text)
    except OSError as exc:  # bad usage, as click's own check of --output
        click.echo(f"error: cannot write --output: {exc}", err=True)
        sys.exit(EXIT_USAGE)


def _emit(rows, columns, fmt, output):
    """Write a report as an aligned table, CSV with header, or one JSON doc."""
    if fmt == "json":
        text = json.dumps([dict(zip(columns, row)) for row in rows], indent=2) + "\n"
    elif fmt == "csv":  # CSV as Python's csv module writes it: no cell needs quoting
        line = ",".join(["%s"] * len(columns)) + "\r\n"
        text = line % tuple(columns) + "".join([line % row for row in rows])
    else:
        widths = [
            max(len(str(c)), *(len(str(r[i])) for r in rows)) if rows else len(str(c))
            for i, c in enumerate(columns)
        ]
        lines = ["  ".join(str(c).rjust(w) for c, w in zip(columns, widths))]
        lines += ["  ".join(str(v).rjust(w) for v, w in zip(row, widths)) for row in rows]
        text = "\n".join(lines) + "\n"
    _write(text, output)


def _ratio_cell(num, den):
    return "" if den == 0 else f"{ratio_display(num, den):.3f}"


format_option = click.option(
    "--format", "fmt", type=click.Choice(["table", "csv", "json"]), default="table",
    help="Output format.",
)
output_option = click.option(
    "--output", type=click.Path(dir_okay=False, writable=True), default=None,
    help="Write the report to a file instead of stdout.",
)


@click.group()
@click.option(
    "--cache-dir", envvar="RAMPRIMES_CACHE_DIR",
    type=click.Path(file_okay=False), default=None,
    help="Directory for sieve/table caches (env: RAMPRIMES_CACHE_DIR).",
)
@click.pass_context
def cli(ctx, cache_dir):
    """Ramanujan primes: computation, verification, and statistics."""
    ctx.obj = {"cache_dir": cache_dir}


@cli.command()
@click.option("--count", type=BOUND, default=None, help="Compute the first N values.")
@click.option("--below", type=BoundType(2), default=None, help="Compute all values below X.")
@format_option
@output_option
@click.pass_context
@guarded
def compute(ctx, count, below, fmt, output):
    """Compute Ramanujan primes by count or by bound."""
    if (count is None) == (below is None):
        raise click.UsageError("exactly one of --count or --below is required")
    cache_dir = ctx.obj["cache_dir"]
    if count is not None:
        pt = _prime_table(ramanujan_core.prime_limit_for_count(count), cache_dir)
        table = ramanujan_core.compute_first(count, pt)
    else:
        _, table = _tables_below(below, cache_dir)
    rows = list(enumerate(table.values.tolist(), 1))
    _emit(rows, ["n", "value"], fmt, output)


@cli.command()
@click.argument(
    "target",
    type=click.Choice(["theorem2", "theorem4", "conjecture1", "proposition2"]),
)
@click.option("--max-n", type=BoundType(2), default=1000, help="theorem2: largest index checked.")
@click.option("--m", "multiplier", type=click.IntRange(1, BoundType.MAX), default=2,
              help="conjecture1: the multiplier m.")
@click.option("--limit", type=BoundType(2), default=10_000_000, help="conjecture1: bound on R_mn.")
@click.option("--bound", type=BOUND, default=1_000_000, help="proposition2: scan bound.")
@click.pass_context
@guarded
def verify(ctx, target, max_n, multiplier, limit, bound):
    """Run one of the named checks; exits 1 if the property fails to hold.

    \b
    theorem2      log-weighted bracketing of each value by nearby primes
    theorem4      exact maximum of R_n/p_3n is 41/47, uniquely at n = 5
    conjecture1   rank scaling pi(R_mn) <= m*pi(R_n) from its threshold on
    proposition2  membership implication for consecutive-prime pairs
    """
    cache_dir = ctx.obj["cache_dir"]
    if target == "theorem2":
        pt = _prime_table(ramanujan_core.nth_prime_upper(4 * max_n), cache_dir)
        table = ramanujan_core.compute_first(max_n, pt)
        bad = ramanujan_core.log_bound_failures(table, max_n, pt)
        if bad:
            click.echo(f"inequality chain FAILED at n = {bad[:10]}")
            ctx.exit(EXIT_VERIFICATION_FAILED)
        click.echo(f"inequality chain holds for 1 < n <= {max_n}")
    elif target == "theorem4":
        n = ramanujan_core.LAISHRAM_LIMIT
        pt = _prime_table(ramanujan_core.prime_limit_for_count(n), cache_dir)
        table = ramanujan_core.compute_first(n, pt)
        if not ramanujan_core.verify_max_ratio_bound(table, pt):
            click.echo("maximum-ratio check FAILED")
            ctx.exit(EXIT_VERIFICATION_FAILED)
        best = ramanujan_core.max_ratio(table, n, set(), pt)
        click.echo(f"max = {best.ratio} at n={best.argmax_n}; all other n <= {n} below 13/15")
    elif target == "conjecture1":
        primes, table = _tables_below(limit, cache_dir)
        violations = ramanujan_core.rank_scaling_violations(table, multiplier, limit, primes)
        threshold = ramanujan_core.rank_scaling_threshold(multiplier)
        last = ramanujan_core.last_violation_below_threshold(table, multiplier, limit, primes)
        if last is not None:
            sharpness = ("so the threshold is sharp" if last == threshold - 1 else
                         f"and none of n = {last + 1}..{threshold - 1} with R_mn < {limit}")
            click.echo(f"note: the last violating n below N({multiplier}) = {threshold} "
                       f"is {last}, {sharpness}", err=True)
        if violations:
            click.echo(f"VIOLATIONS: {violations[:10]}")
            ctx.exit(EXIT_VERIFICATION_FAILED)
        click.echo(f"no violation for m={multiplier}, n >= {threshold}, R_mn < {limit}")
    else:
        pt, table = _tables_covering(bound, cache_dir)
        counterexamples = twin_stats.lower_membership_violations(bound, table, pt)
        if counterexamples:
            click.echo(f"COUNTEREXAMPLES: {counterexamples[:10]}")
            ctx.exit(EXIT_VERIFICATION_FAILED)
        click.echo(f"no counterexample below {bound}")


@cli.command()
@click.option("--max-decade", type=click.IntRange(1, 18), default=5,
              help="Report decades 10^1..10^D.")
@format_option
@output_option
@click.pass_context
@guarded
def runs(ctx, max_decade, fmt, output):
    """Longest-run statistics per decade, with coin-toss expectations."""
    pt, rt = _tables_covering(10 ** max_decade, ctx.obj["cache_dir"])
    reports = run_stats.decade_reports(max_decade, rt, pt)
    rows = [
        (
            d + 1,
            f"{ratio_display(r.ram_count, r.trials):.3f}",
            round_half_up(r.expected_ram),
            r.longest_ram,
            round_half_up(r.expected_nonram),
            r.longest_nonram,
        )
        for d, r in enumerate(reports)
    ]
    _emit(
        rows,
        ["n", "p_ram", "expected_ram", "actual_ram", "expected_nonram", "actual_nonram"],
        fmt, output,
    )


@cli.command()
@click.option("--bound", type=BoundType(3), required=True, help="Census bound (lesser member).")
@click.option("--strict", is_flag=True, help="Also check the ratio inequalities at every pair.")
@format_option
@output_option
@click.pass_context
@guarded
def twins(ctx, bound, strict, fmt, output):
    """Twin-pair census split by Ramanujan membership."""
    if strict and bound < twin_stats.RATIO_CONJECTURE_MIN_BOUND:
        raise click.UsageError(
            f"--strict applies from {twin_stats.RATIO_CONJECTURE_MIN_BOUND} up"
        )
    pt, rt = _tables_covering(bound, ctx.obj["cache_dir"])
    census = twin_stats.twin_census(bound, rt, pt)
    rows = [(
        bound, census.pi2, census.pi21, census.pi22,
        _ratio_cell(census.pi21, census.pi2),
        _ratio_cell(census.pi22, census.pi2),
        _ratio_cell(census.pi22, census.pi21),
    )]
    _emit(rows, ["bound", "pi2", "pi21", "pi22", "ratio21", "ratio22", "ratio2221"],
          fmt, output)
    if strict:
        ok = twin_stats.ratio_inequalities_strict(bound, rt, pt)
        click.echo(f"strict ratio inequalities above 1e5: {'hold' if ok else 'FAIL'}",
                   err=True)
        if not ok:
            ctx.exit(EXIT_VERIFICATION_FAILED)


@cli.command()
@click.option("--kind", type=click.Choice(["all", "one", "both"]), default="all",
              help="Which twin pairs to sum over.")
@click.option("--bound", type=BOUND, required=True)
@click.pass_context
@guarded
def brun(ctx, kind, bound):
    """Partial sum of twin-prime reciprocals for one membership class."""
    kind_name = {
        "all": twin_stats.KIND_ALL,
        "one": twin_stats.KIND_AT_LEAST_ONE,
        "both": twin_stats.KIND_BOTH,
    }[kind]
    pt, rt = _tables_covering(bound, ctx.obj["cache_dir"])
    partial = twin_stats.brun_partial(bound, kind_name, rt, pt)
    click.echo(f"sum = {partial.sum:.10g} over {partial.terms} pairs (bound {bound})")


@cli.group()
def gaps():
    """Prime gaps associated with runs of odd Ramanujan primes."""


@gaps.command()
@click.option("--max-run", type=click.IntRange(1), default=11, help="Largest run length searched.")
@click.option("--bound", type=BOUND, default=gap_analysis.DEFAULT_SHARP_SEARCH_BOUND,
              help="Search for run starts below this bound.")
@output_option
@click.pass_context
@guarded
def sharp(ctx, max_run, bound, output):
    """First sharp run of each length, as JSON lines of gap records."""
    pt, rt = _tables_covering(bound, ctx.obj["cache_dir"])
    lines = []
    for r in range(1, max_run + 1):
        try:
            start = gap_analysis.first_sharp_run(r, rt, pt, search_bound=bound)
        except NotFoundBelowBound as exc:
            lines.append(json.dumps({"run_length": r, "not_found_below": exc.bound}))
            continue
        record = gap_analysis.gap_for_run(pt.prime_count(start), r, rt, pt)
        lines.append(json.dumps(dataclasses.asdict(record)))  # fields in GapRecord order
    _write("\n".join(lines) + "\n", output)


@gaps.command("twin-check")
@click.option("--bound", type=BOUND, default=1_000_000,
              help="Check all twin Ramanujan pairs with lesser member below this.")
@click.pass_context
@guarded
def twin_check(ctx, bound):
    """Verify every twin Ramanujan pair sits in a composite stretch of 5+."""
    pt, rt = _tables_covering(bound, ctx.obj["cache_dir"])
    lesser, a, b = gap_analysis.twin_gap_table(rt, pt)
    n = int(prime_core.search(lesser, bound))
    shortest = (f"smallest enclosing gap length {int((b[:n] - a[:n]).min()) + 1}" if n
                else "no enclosing gap measured")
    click.echo(f"{n} twin Ramanujan pairs below {bound}; {shortest}")


def main():
    cli(prog_name="ramprimes")


if __name__ == "__main__":
    main()
