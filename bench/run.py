"""The ramprimes benchmark.

Usage: python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (why each was chosen is in BENCHMARK.json and bench/README.md):
  paper-1e8        every row and check of the paper through 10^8, as library calls
  scan-3e8         the Ramanujan scan alone, compute_below(3e8)
  cli-session-1e8  `ramprimes` commands in fresh processes sharing one cache directory

Every run happens in child processes, one at a time, so peak memory is the
child's own. A run repeats set-up at least SETUP_SAMPLES times and until the
set-ups add up to SETUP_SECONDS, and timed passes until they add up to
--seconds, and reports medians. With --trace 0
it prints the end-to-end metrics; with --trace 1 it runs the workload once
untraced and once traced, prints the per-layer metrics, and writes the spans
to .bench_out/. The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import expected  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_SAMPLES, SETUP_SECONDS = 3, 8.0  # short set-ups are noisier, so they get more samples
DEADLINE_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The run cannot produce a result (missing program, crash, timeout)."""


class Runner:
    """Starts child processes one at a time under a shared deadline."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = {k: v for k, v in os.environ.items() if k != "RAMPRIMES_CACHE_DIR"}
        self.env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        self._n = 0

    def run(self, args):
        """Run a child to completion; return (exit code, seconds, stdout path, stderr path)."""
        self._n += 1
        out, err = self.tmp / f"{self._n}.out", self.tmp / f"{self._n}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], stdout=fo, stderr=fe, cwd=ROOT,
                                    env=self.env)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"timed out: {' '.join(args)}") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            return code, time.perf_counter() - start, out, err

    def worker(self, workload, role, trace):
        result = self.tmp / f"worker{self._n + 1}.json"
        code, _, _, err = self.run([str(HERE / "worker.py"), workload, role,
                                    "1" if trace else "0", str(result)])
        if code != 0:
            raise BenchError(f"{workload} worker exited {code}: {err.read_text()[-2000:]}")
        return json.loads(result.read_text())


# -- library workloads ------------------------------------------------------

def library_workload(runner, seed, seconds, trace, report, *, workload):
    ops, failed = [], []
    if trace:
        plain = runner.worker(workload, "full", False)
        traced = runner.worker(workload, "full", True)
        for r in (plain, traced):
            ops += r["ops"]
            failed += r["failed"]
        report(f"untraced pass {plain['wall_s']:.3f} s, traced pass {traced['wall_s']:.3f} s")
        metrics = tracing.layer_metrics([traced["trace"]], {
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
        })
        return ops, failed, metrics, [("worker", traced["trace"])]
    setups, walls, peaks = [], [], []
    while (len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS
           or not walls or sum(walls) < seconds):
        role = "full" if not walls or sum(walls) < seconds else "setup"
        r = runner.worker(workload, role, False)
        setups.append(r["setup_s"])
        if role == "full":
            walls.append(r["wall_s"])
            peaks.append(r["maxrss_kb"])
            ops += r["ops"]
            failed += r["failed"]
            for name, detail in r["failures"].items():
                report(f"FAILED {name}: {json.dumps(detail)[:400]}")
        report(f"{role}: set-up {r['setup_s']:.3f} s"
               + (f", pass {r['wall_s']:.3f} s, peak {r['maxrss_kb'] / 1024:.1f} MB"
                  if role == "full" else ""))
    return ops, failed, {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(peaks) / 1024,
    }, []


# -- CLI session --------------------------------------------------------------

def _tokens(text):
    return [line.split() for line in text.splitlines()]


def _line(text):
    return text.strip()


def _csv_summary(text):
    lines = text.splitlines()
    rows = [line.split(",") for line in lines[1:]]
    values = array("q", (int(v) for _, v in rows))
    if sys.byteorder == "big":
        values.byteswap()
    return {"header": lines[0],
            "numbered": all(int(n) == i for i, (n, _) in enumerate(rows, 1)),
            "count": len(values),
            "first_21": values[:21].tolist(),
            "digest": hashlib.sha256(values.tobytes()).hexdigest()}


def _sharp_summary(text):
    out = []
    for line in text.splitlines():
        g = json.loads(line)
        out.append([g["run_start"], g["run_length"], g["sharp"],
                    g["gap_lo"] == (g["run_start"] + 1) // 2,
                    g["gap_hi"] == (g["run_end"] + 1) // 2,
                    g["enclosing_gap"] == [g["gap_lo"], g["gap_hi"]]])  # sharp: flanked by primes
    return out


TWINS_HEADER = ["bound", "pi2", "pi21", "pi22", "ratio21", "ratio22", "ratio2221"]


def _twins_row(decade):
    cells = ["" if r is None else f"{r:.3f}" for r in expected.TWIN_RATIO_ROWS[decade]]
    return [TWINS_HEADER, [str(10 ** decade), *map(str, expected.TWIN_ROWS[decade]), *cells]]


SETUP_COMMAND = ("twins 1e8 (cold)", ["twins", "--bound", "1e8"], _tokens, _twins_row(8))


def session_commands(seed, pins):
    """The warm pass: (label, CLI args, stdout parser, expected parse).

    The first four repeat the set-up's cache key; the next three use bounds
    drawn from the seed, whose keys are not cached yet; the last three use
    other fixed keys.
    """
    rng = random.Random(seed)
    b_twins, b_brun, b_conj = rng.sample(pins["pool"], 3)
    m = rng.randint(2, 20)
    limit = b_conj["bound"]
    brun_all = pins["brun"]["8"]["all"]
    below = pins["compute_below_1e7"]
    runs = [["n", "p_ram", "expected_ram", "actual_ram", "expected_nonram", "actual_nonram"]]
    runs += [[str(d), f"{p:.3f}", *map(str, rest)]
             for d, (p, *rest) in sorted(expected.RUN_ROWS.items())]
    return [
        ("runs 8", ["runs", "--max-decade", "8"], _tokens, runs),
        ("twins 1e8 strict", ["twins", "--bound", "1e8", "--strict"], _tokens, _twins_row(8)),
        ("brun 1e8", ["brun", "--bound", "1e8"], _line,
         f"sum = {brun_all[1]:.10g} over {brun_all[0]} pairs (bound {10 ** 8})"),
        ("proposition2 1e8", ["verify", "proposition2", "--bound", "1e8"], _line,
         f"no counterexample below {10 ** 8}"),
        (f"twins {b_twins['bound']}", ["twins", "--bound", str(b_twins["bound"])], _tokens,
         [TWINS_HEADER, b_twins["twins"]]),
        (f"brun one {b_brun['bound']}",
         ["brun", "--kind", "one", "--bound", str(b_brun["bound"])], _line, b_brun["brun_one"]),
        (f"conjecture1 m={m} {limit}",
         ["verify", "conjecture1", "--m", str(m), "--limit", str(limit)], _line,
         f"no violation for m={m}, n >= {expected.RANK_THRESHOLDS[m]}, R_mn < {limit}"),
        ("compute 1e7 csv", ["compute", "--below", "1e7", "--format", "csv"], _csv_summary,
         {"header": "n,value", "numbered": True, "count": below["count"],
          "first_21": expected.FIRST_21, "digest": below["digest"]}),
        ("gaps sharp", ["gaps", "sharp"], _sharp_summary,
         [[s, r, True, True, True, True] for r, s in enumerate(expected.SHARP_STARTS, 1)]),
        ("gaps twin-check 1e7", ["gaps", "twin-check", "--bound", "1e7"], _line,
         f"{expected.TWIN_ROWS[7][2]} twin Ramanujan pairs below {10 ** 7}; "
         f"smallest enclosing gap length {expected.MIN_TWIN_GAP}"),
    ]


def cache_listing(directory):
    """{file name: (size, mtime)} of a cache directory; empty if absent."""
    if not directory.is_dir():
        return {}
    return {e.name: (e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(directory)}


def cache_written(before, after):
    """Bytes in files the command created or rewrote; 0 means a cache hit."""
    return sum(after[n][0] for n in after if before.get(n) != after[n])


class Session:
    """Runs CLI commands against one cache directory and checks each one."""

    def __init__(self, runner, cache_dir, trace, report):
        self.runner, self.cache_dir, self.trace, self.report = runner, cache_dir, trace, report
        self.ops, self.failed, self.dumps = [], [], []
        self.hits = self.commands = self.bytes_written = 0

    def run(self, command):
        label, args, parse, want = command
        trace_out = self.cache_dir.with_name(f"{self.cache_dir.name}-spans{len(self.ops)}.json")
        before = cache_listing(self.cache_dir)
        code, seconds, out, _ = self.runner.run(
            [str(HERE / "launcher.py"), str(trace_out) if self.trace else "-",
             "--cache-dir", str(self.cache_dir), *args])
        written = cache_written(before, cache_listing(self.cache_dir))
        try:
            observed = {"exit": code, "stdout": parse(out.read_text())}
        except (ValueError, KeyError, IndexError) as exc:
            observed = {"exit": code, "stdout": f"unparsable: {exc}"}
        self.ops.append(label)
        if observed != {"exit": 0, "stdout": want}:
            self.failed.append(label)
            self.report(f"FAILED {label}: {json.dumps(observed)[:400]}")
        if self.trace:
            self.dumps.append((label, json.loads(trace_out.read_text())))
        self.report(f"{label}: {seconds:.3f} s, {'hit' if not written else 'miss'}, "
                    f"{written} bytes written")
        return seconds, written

    def warm_pass(self, commands):
        total = 0.0
        for command in commands:
            seconds, written = self.run(command)
            total += seconds
            self.commands += 1
            self.hits += not written
            self.bytes_written += written
        return total


def cli_workload(runner, seed, seconds, trace, report):
    pins = expected.load_pins()
    commands = session_commands(seed, pins)
    if trace:
        walls, sessions = [], []
        for traced in (False, True):
            s = Session(runner, Path(tempfile.mkdtemp(dir=runner.tmp)), traced, report)
            s.run(SETUP_COMMAND)
            walls.append(s.warm_pass(commands))
            sessions.append(s)
        s = sessions[1]
        metrics = tracing.layer_metrics([d for _, d in s.dumps], {
            "cli.cache.hit_ratio": s.hits / s.commands,
            "cli.cache.bytes_written": s.bytes_written,
            "trace.wall_s": walls[1],
            "trace.overhead_s": walls[1] - walls[0],
        })
        return ([op for x in sessions for op in x.ops], [f for x in sessions for f in x.failed],
                metrics, s.dumps)
    setups, walls, ops, failed = [], [], [], []
    while (len(setups) < SETUP_SAMPLES or sum(setups) < SETUP_SECONDS
           or not walls or sum(walls) < seconds):
        s = Session(runner, Path(tempfile.mkdtemp(dir=runner.tmp)), False, report)
        setups.append(s.run(SETUP_COMMAND)[0])
        if not walls or sum(walls) < seconds:
            walls.append(s.warm_pass(commands))
            report(f"warm pass {walls[-1]:.3f} s, {s.hits}/{s.commands} cache hits")
        shutil.rmtree(s.cache_dir)
        ops += s.ops
        failed += s.failed
    return ops, failed, {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        # ru_maxrss of waited-for children is the largest peak of any one of them
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
    }, []


# -- entry point ----------------------------------------------------------------

WORKLOADS = {
    "paper-1e8": functools.partial(library_workload, workload="paper-1e8"),
    "scan-3e8": functools.partial(library_workload, workload="scan-3e8"),
    "cli-session-1e8": cli_workload,
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into SystemExit so Runner.run kills and reaps the running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ramprimes" / "cli.py").is_file():
        print(f"bench: no ramprimes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    def report(line):
        print(f"[{args.workload}] {line}", flush=True)

    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=ROOT / ".bench_tmp"))
    try:
        ops, failed, metrics, dumps = WORKLOADS[args.workload](
            Runner(tmp), args.seed, args.seconds, bool(args.trace), report)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if dumps:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"processes": [{"label": label, **dump}
                                                  for label, dump in dumps]}))
        report(f"spans written to {path.relative_to(ROOT)}")
    if not args.trace:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    report(f"error_rate {len(failed)}/{len(ops)} = {len(failed) / len(ops):.4f}")
    for name, m in metrics.items():
        report(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
