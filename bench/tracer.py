"""Outside-in span tracer for the benchmark.

The tracer wraps public functions of the ramprimes modules before the
benchmark calls them. A wrapped call either records a span (name, start,
end, parent) or only bumps counters. Spans stay in memory until the process
writes them out. Nothing is wrapped until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` puts every original attribute back.

Self time is a span's duration minus the part of it that its child spans
cover. Per-layer metrics are sums of self times and counters over all spans
of one name.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import os
import time
from collections import defaultdict

_perf = time.perf_counter


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _build_hook(tracer, args, kwargs, result):
    tracer.counters["prime_core.build.ints"] += int(_arg(args, kwargs, 0, "limit"))


def _primes_upto_hook(tracer, args, kwargs, result):
    tracer.counters["prime_core.primes_upto.elems"] += len(result)


def _membership_hook(tracer, args, kwargs, result):
    tracer.mark_classified(_arg(args, kwargs, 1, "primes"))


def _compute_first_hook(tracer, args, kwargs, result):
    tracer.counters["ramanujan_core.compute_first.ints"] += int(result.scan_limit)


def _load_hook(module):
    def hook(tracer, args, kwargs, result):
        tracer.counters[f"{module}.load.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
    return hook


def _save_hook(module):
    def hook(tracer, args, kwargs, result):
        tracer.counters[f"{module}.save.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))
    return hook


def _count_batch_hook(tracer, args, kwargs, result):
    import numpy as np
    tracer.counters["prime_core.prime_count_batch.elems"] += int(
        np.size(_arg(args, kwargs, 1, "values")))


SPAN, COUNT = "span", "count"

# (module, attribute path, layer name, kind, hook). Several functions may
# share one layer name; their self times add up.
LIBRARY_TARGETS = [
    ("prime_core", "build", "prime_core.build", SPAN, _build_hook),
    ("prime_core", "PrimeTable.primes_upto", "prime_core.primes_upto", SPAN, _primes_upto_hook),
    ("prime_core", "PrimeTable.is_prime", "prime_core.is_prime", COUNT, None),
    ("prime_core", "PrimeTable.prime_count_batch", "prime_core.prime_count_batch", COUNT,
     _count_batch_hook),
    ("prime_core", "load", "prime_core.load", SPAN, _load_hook("prime_core")),
    ("prime_core", "PrimeTable.save", "prime_core.save", SPAN, _save_hook("prime_core")),
    ("ramanujan_core", "RamanujanTable.membership_mask", "ramanujan_core.membership_mask", SPAN,
     _membership_hook),
    ("ramanujan_core", "compute_first", "ramanujan_core.compute_first", SPAN, _compute_first_hook),
    ("ramanujan_core", "verify_max_ratio_bound", "ramanujan_core.verify", SPAN, None),
    ("ramanujan_core", "max_ratio", "ramanujan_core.verify", SPAN, None),
    ("ramanujan_core", "rank_scaling_violations", "ramanujan_core.verify", SPAN, None),
    ("ramanujan_core", "load", "ramanujan_core.load", SPAN, _load_hook("ramanujan_core")),
    ("ramanujan_core", "RamanujanTable.save", "ramanujan_core.save", SPAN,
     _save_hook("ramanujan_core")),
    ("run_stats", "decade_reports", "run_stats.decade_reports", SPAN, None),
    ("twin_stats", "twin_census", "twin_stats.twin_census", SPAN, None),
    ("twin_stats", "brun_partial", "twin_stats.brun_partial", SPAN, None),
    ("twin_stats", "ratio_inequalities_strict", "twin_stats.ratio_inequalities_strict", SPAN, None),
    ("twin_stats", "twin_condition_violations", "twin_stats.scans", SPAN, None),
    ("twin_stats", "lower_membership_violations", "twin_stats.scans", SPAN, None),
    ("twin_stats", "twin_pair_arrays", "twin_stats.twin_pair_arrays", COUNT, None),
    ("gap_analysis", "twin_gap_check", "gap_analysis.twin_gap_check", SPAN, None),
    ("gap_analysis", "first_sharp_run", "gap_analysis.first_sharp_run", SPAN, None),
    ("gap_analysis", "half_point_violations", "gap_analysis.scans", SPAN, None),
    ("gap_analysis", "run_interval_violations", "gap_analysis.scans", SPAN, None),
]

CLI_COMMANDS = ["compute", "verify", "runs", "twins", "brun", "gaps.sharp", "gaps.twin-check"]

# Per-layer metrics in the order BENCHMARK.json lists them: (name, unit, better).
PER_LAYER = [
    ("prime_core.build.s", "s", "lower"),
    ("prime_core.build.ns_per_int", "ns", "lower"),
    ("prime_core.primes_upto.s", "s", "lower"),
    ("prime_core.primes_upto.calls", "count", "lower"),
    ("prime_core.primes_upto.elems", "count", "lower"),
    ("ramanujan_core.membership_mask.s", "s", "lower"),
    ("ramanujan_core.membership_mask.calls", "count", "lower"),
    ("ramanujan_core.membership_mask.elems", "count", "lower"),
    ("ramanujan_core.membership_mask.useful_ratio", "ratio", "higher"),
    ("prime_core.is_prime.calls", "count", "lower"),
    ("prime_core.prime_count_batch.elems", "count", "lower"),
    ("ramanujan_core.compute_first.s", "s", "lower"),
    ("ramanujan_core.compute_first.ns_per_int", "ns", "lower"),
    ("ramanujan_core.verify.s", "s", "lower"),
    ("run_stats.decade_reports.s", "s", "lower"),
    ("twin_stats.twin_census.s", "s", "lower"),
    ("twin_stats.brun_partial.s", "s", "lower"),
    ("twin_stats.ratio_inequalities_strict.s", "s", "lower"),
    ("twin_stats.scans.s", "s", "lower"),
    ("twin_stats.twin_pair_arrays.calls", "count", "lower"),
    ("gap_analysis.twin_gap_check.s", "s", "lower"),
    ("gap_analysis.twin_gap_check.calls", "count", "lower"),
    ("gap_analysis.first_sharp_run.s", "s", "lower"),
    ("gap_analysis.scans.s", "s", "lower"),
    ("prime_core.load.s", "s", "lower"),
    ("prime_core.load.bytes", "bytes", "lower"),
    ("prime_core.save.s", "s", "lower"),
    ("prime_core.save.bytes", "bytes", "lower"),
    ("ramanujan_core.load.s", "s", "lower"),
    ("ramanujan_core.load.bytes", "bytes", "lower"),
    ("ramanujan_core.save.s", "s", "lower"),
    ("ramanujan_core.save.bytes", "bytes", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("cli.cache.bytes_written", "bytes", "lower"),
    *((f"cli.{c}.s", "s", "lower") for c in CLI_COMMANDS),
    ("cli.self.s", "s", "lower"),
    ("cli.import.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def resolve(targets):
    """Turn (module, path, ...) rows into (owner, attribute, ...) rows."""
    out = []
    for module, path, name, kind, hook in targets:
        owner = importlib.import_module(f"ramprimes.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out.append((owner, attr, name, kind, hook))
    return out


def cli_targets(group):
    """Span targets for the callback of every CLI command in CLI_COMMANDS."""
    out = []
    for command in CLI_COMMANDS:
        owner = group
        for part in command.split("."):
            owner = owner.commands[part]
        out.append((owner, "callback", f"cli.{command}", SPAN, None))
    return out


def wrapped_attributes(resolved):
    """Names of the resolved targets that currently hold a tracer wrapper."""
    return [f"{name}:{attr}" for owner, attr, name, _, _ in resolved
            if hasattr(getattr(owner, attr), "_bench_original")]


class Tracer:
    """Collects spans and counters for one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = defaultdict(int)
        self._stack = []
        self._installed = []  # (owner, attribute, original)
        self._ticks = {}  # call counters of COUNT targets
        self._classified = None  # bitmap over (p >> 1) of primes passed to membership_mask

    def record(self, name, start, end):
        """Add a finished span under the currently open one."""
        self.spans.append([name, start, end, self._stack[-1] if self._stack else -1])

    @contextlib.contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        rec[1] = _perf()
        try:
            yield
        finally:
            rec[2] = _perf()
            self._stack.pop()

    def mark_classified(self, primes):
        import numpy as np
        v = np.asarray(primes, dtype=np.int64)
        self.counters["ramanujan_core.membership_mask.elems"] += int(v.size)
        if v.size == 0:
            return
        idx = v >> 1  # unique for odd p; 2 takes slot 0, which no prime uses
        idx[v == 2] = 0
        seen = self._classified
        if seen is None or seen.size <= int(idx.max()):
            self._classified = np.zeros(max(int(idx.max()) + 1, 0 if seen is None else 2 * seen.size),
                                        dtype=bool)
            if seen is not None:
                self._classified[: seen.size] = seen
        self._classified[idx] = True

    def install(self, resolved):
        for owner, attr, name, kind, hook in resolved:
            original = getattr(owner, attr)
            wrapper = (self._spanned if kind == SPAN else self._counted)(original, name, hook)
            wrapper._bench_original = original
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def uninstall(self):
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _spanned(self, fn, name, hook):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()
            if hook is not None:
                # bookkeeping gets its own span so it is not charged to the caller
                with self.span("trace.bookkeeping"):
                    hook(self, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name, hook):
        tick = self._ticks[name] = itertools.count()
        code = getattr(fn, "__code__", None)
        if hook is None and code is not None and code.co_argcount == 2 and not code.co_flags & 0x0C:
            # fixed two-argument fast path: is_prime runs millions of times a
            # pass, and packing *args/**kwargs would triple the wrapper's cost
            def wrapper(a, b):
                next(tick)
                return fn(a, b)
            return wrapper

        def wrapper(*args, **kwargs):
            next(tick)
            if hook is not None:
                hook(self, args, kwargs, None)
            return fn(*args, **kwargs)

        return wrapper

    def dump(self):
        """The process's spans and counters as plain JSON-ready data; call once, at the end."""
        for name, tick in self._ticks.items():
            self.counters[f"{name}.calls"] = next(tick)  # yields how often it was advanced
        if self._classified is not None:
            self.counters["ramanujan_core.membership_mask.distinct"] = int(self._classified.sum())
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
                "counters": dict(self.counters)}


def self_times(spans):
    """Self time of each span: duration minus the union of its children's
    intervals, clipped to the span. Spans are (name, start, end, parent)."""
    children = defaultdict(list)
    for i, (_, start, end, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered, run_lo, run_hi = 0.0, None, None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append(end - start - covered)
    return out


def layer_metrics(dumps, extra=None):
    """Every PER_LAYER value from the dumps of one or more processes.

    `extra` supplies the metrics measured outside the traced processes
    (cache observer, traced wall time, tracing overhead). Layers that did
    not run report 0.
    """
    self_s, calls = defaultdict(float), defaultdict(int)
    counters = defaultdict(int)
    for dump in dumps:
        names = dump["names"]
        spans = [(names[i], s, e, p) for i, s, e, p in dump["spans"]]
        for (name, start, end, _), own in zip(spans, self_times(spans)):
            self_s[name] += own
            calls[name] += 1
        for key, value in dump["counters"].items():
            counters[key] += value

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    values = {}
    for name, _, _ in PER_LAYER:
        stem, _, leaf = name.rpartition(".")
        if leaf == "s":
            values[name] = self_s[stem]
        elif leaf == "calls":
            values[name] = calls[stem] + counters[name]
        elif leaf in ("elems", "bytes"):
            values[name] = counters[name]
    values["prime_core.build.ns_per_int"] = ratio(
        self_s["prime_core.build"], counters["prime_core.build.ints"], 1e9)
    values["ramanujan_core.compute_first.ns_per_int"] = ratio(
        self_s["ramanujan_core.compute_first"], counters["ramanujan_core.compute_first.ints"], 1e9)
    values["ramanujan_core.membership_mask.useful_ratio"] = ratio(
        counters["ramanujan_core.membership_mask.distinct"],
        counters["ramanujan_core.membership_mask.elems"])
    values["cli.self.s"] = self_s["cli.main"] + sum(self_s[f"cli.{c}"] for c in CLI_COMMANDS)
    values.update(extra or {})
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": values.get(name, 0.0), "unit": units[name]} for name in units}
