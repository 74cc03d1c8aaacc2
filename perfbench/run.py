"""Closed-loop solve benchmark for membercover.

    python3 perfbench/run.py --workload squares-membership --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the library is imported from its
`src/` directory.  One process, one thread, one client: the next solve
starts only when the previous one has returned.  The run

1. sets up several times (fresh import of the library, generation of the
   seeded instance pool, serialize -> parse round trip) and reports the
   median as `setup_s`;
2. solves the pool in order, wrapping around, for `--seconds`;
3. solves, untimed, any pool instance the timed phase did not reach, so
   `value_sum` always covers the whole pool;
4. checks every output against the oracles, outside every timed region.

With `--trace 0` it reports the end-to-end metrics.  With `--trace 1` it
alternates untraced and traced solves of each instance and reports the
per-layer metrics of `tracing.py`, plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # every run compiles the same sources: steady setup_s

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import threading
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, layer_metrics
from workloads import WORKLOADS, generate_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("instances", "geometry", "covers", "lp", "squares", "ply", "halfplanes", "oracle")
SETUP_REPEATS = 5
# One calibration loop at the reference speed: the fastest reading on a
# quiet 2-vCPU Intel Xeon VM under CPython 3.11.7.  A reading is the median
# of a few back-to-back loops, which tracked the solve times more closely
# than their minimum did.
CALIBRATION_REF_S = 1.4e-3
CALIBRATION_READS = 5
TAIL_BEYOND = 10  # samples that must lie beyond the solve_s_tail percentile


@dataclass
class Timing:
    wall: float = 0.0  # seconds on this host, now
    ref: float = 0.0   # seconds at the reference speed


def _calibration_loop() -> Fraction:
    """Fixed interpreter-bound work, exact Fraction arithmetic like the solvers'."""
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 2)
    return acc


class Clock:
    """Times calls in wall seconds and in seconds at the reference speed.

    A shared host's speed drifts: the same solve has taken anywhere from 1x
    to 2x its best time, in spells of seconds to minutes, and the fixed
    calibration loop slows by the same factor at the same moments.  Every
    measured call is bracketed by two calibration readings, and its wall
    time divided by their mean slowness is the time the call would take at
    the speed where the loop runs in CALIBRATION_REF_S.  The loop is part of
    the benchmark, so a change to the library cannot move it.
    """

    def __init__(self):
        self.slowness = self._read()

    @staticmethod
    def _read() -> float:
        enabled = gc.isenabled()
        gc.disable()  # collecting the solver's garbage is the solver's cost
        try:
            reads = []
            for _ in range(CALIBRATION_READS):
                t0 = time.perf_counter()
                _calibration_loop()
                reads.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        return statistics.median(reads) / CALIBRATION_REF_S

    @contextmanager
    def measure(self):
        timing = Timing()
        before = self.slowness
        t0 = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall = time.perf_counter() - t0
            self.slowness = self._read()
            timing.ref = timing.wall * 2 / (before + self.slowness)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def import_library() -> SimpleNamespace:
    """Import membercover afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n == "membercover" or n.startswith("membercover.")]:
        del sys.modules[name]
    pkg = importlib.import_module("membercover")
    if Path(pkg.__file__).resolve().parent != SRC / "membercover":
        fail(f"imported membercover from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"membercover.{m}") for m in MODULES})


def setup(workload, seed: int, clock: Clock):
    """Set up SETUP_REPEATS times; return the last library and pool with the
    median set-up and parse times, at reference speed."""
    totals, parses = [], []
    for _ in range(SETUP_REPEATS):
        with clock.measure() as timing:
            mc = import_library()
            texts = generate_pool(mc, workload, seed)
            t0 = time.perf_counter()
            docs = [mc.instances.parse_instance(text) for text in texts]
            parse_wall = time.perf_counter() - t0
        totals.append(timing.ref)
        parses.append(parse_wall * timing.ref / timing.wall)
    for text, doc in zip(texts, docs):
        if mc.instances.serialize_instance(doc) != text:
            fail("an instance does not survive the serialize -> parse round trip")
    return mc, docs, statistics.median(totals), statistics.median(parses)


def git_revision() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "membercover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least TAIL_BEYOND samples beyond
    it; the maximum (reported as p100) when there are too few samples.

    Samples are per pool instance, so their count is the pool size whenever
    the timed phase reaches the whole pool, and the percentile stays put.
    """
    pct = 100 * (len(samples) - TAIL_BEYOND) // len(samples)
    if pct < 1:
        return max(samples), 100
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1], pct


class Run:
    """One closed-loop client with the record of every solve it made."""

    def __init__(self, mc, workload, docs, clock):
        self.mc, self.workload, self.docs, self.clock = mc, workload, docs, clock
        self.results: list[tuple[int, object, str | None]] = []  # (instance, outcome, error)

    def solve(self, idx: int, solve=None) -> Timing:
        solve = solve or self.workload.solve
        with self.clock.measure() as timing:
            try:
                out, err = solve(self.mc, self.docs[idx]), None
            except Exception as exc:  # a failed solve is counted, never fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
                if not any(e for _, _, e in self.results):
                    traceback.print_exc(file=sys.stderr)
        self.results.append((idx, out, err))
        return timing

    def check(self) -> tuple[int, dict[int, int]]:
        """Check every solve; return the failure count and, per instance,
        the value of its first correct solve."""
        memo: dict[int, dict] = {}
        verdicts: dict[tuple, str | None] = {}
        first: dict[int, object] = {}
        values: dict[int, int] = {}
        failed = 0
        for idx, out, err in self.results:
            if err is None:
                if first.setdefault(idx, out) != out:
                    err = "output differs between solves of one instance"
                else:
                    key = (idx, out)
                    if key not in verdicts:
                        verdicts[key] = self.workload.check(
                            self.mc, self.docs[idx], out, memo.setdefault(idx, {}))
                    err = verdicts[key]
            if err is None:
                values.setdefault(idx, out.value)
            else:
                failed += 1
                print(f"# FAILED instance {idx}: {err}", file=sys.stderr)
        return failed, values


def timed_phase(run: Run, seconds: float) -> list[list[Timing]]:
    """Solve the pool in order, wrapping around, until the time is up."""
    timings: list[list[Timing]] = [[] for _ in run.docs]
    deadline = time.perf_counter() + seconds
    i = 0
    while True:
        idx = i % len(run.docs)
        timings[idx].append(run.solve(idx))
        i += 1
        if time.perf_counter() >= deadline:
            return timings


def end_to_end(run: Run, seconds: float, setup_s: float):
    timings = timed_phase(run, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    for idx, ts in enumerate(timings):
        if not ts:
            run.solve(idx)  # untimed: completes the pool for value_sum
    failed, values = run.check()
    timed = [t for ts in timings for t in ts]
    samples = [statistics.median(t.ref for t in ts) for ts in timings if ts]
    tail_s, pct = tail(samples)
    solving_s = sum(t.ref for t in timed)
    metrics = {
        "solve_s_p50": (statistics.median(samples), "s"),
        "solve_s_tail": (tail_s, "s"),
        "throughput_ops": (len(timed) / solving_s, "1/s"),
        "setup_s": (setup_s, "s"),
        "value_sum": (sum(values.values()), "count"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    wall_p50 = statistics.median(statistics.median(t.wall for t in ts) for ts in timings if ts)
    notes = {
        "solve_s_p50": f"median over {len(samples)} instances of each one's median solve;"
                       f" wall {wall_p50:.6g} s",
        "solve_s_tail": f"p{pct} of {len(samples)} samples, {len(timed)} timed solves",
        "throughput_ops": f"{len(timed)} solves in {sum(t.wall for t in timed):.3f} s wall,"
                          f" {solving_s:.3f} s at reference speed",
        "value_sum": f"over all {len(run.docs)} pool instances",
    }
    return metrics, notes, failed


def traced(run: Run, seconds: float, parse_s: float):
    """Alternate untraced and traced solves of each instance (which goes
    first alternates too) until the time is up."""
    tracer = Tracer(run.mc)
    root = tracer.wrap("solve", run.workload.solve)
    plain_s = traced_s = 0.0
    solves = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        idx = i % len(run.docs)
        for traced_turn in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.install()
                try:
                    timing = run.solve(idx, root)
                finally:
                    tracer.uninstall()
                tracer.end_solve(timing.ref / timing.wall)
                traced_s += timing.ref
                solves += 1
            else:
                plain_s += run.solve(idx).ref
        i += 1
    failed, _ = run.check()
    metrics = {"instances.parse_s": (parse_s, "s")}
    metrics.update(layer_metrics(tracer, solves))
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    notes = {"trace.overhead_frac": f"{solves} traced vs {solves} untraced solves of the same instances"}
    return metrics, notes, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: the solvers' assert self-checks would vanish")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    if not (SRC / "membercover" / "__init__.py").is_file():
        fail(f"no library sources at {SRC / 'membercover'}; run from a membercover checkout")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    clock = Clock()
    mc, docs, setup_s, parse_s = setup(workload, args.seed, clock)
    run = Run(mc, workload, docs, clock)
    if args.trace:
        metrics, notes, failed = traced(run, args.seconds, parse_s)
    else:
        metrics, notes, failed = end_to_end(run, args.seconds, setup_s)
    if threading.active_count() != 1:
        fail("the library started a thread; the benchmark measures one thread")

    attempted = len(run.results)
    env = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool": len(docs),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_revision(),
        "src_sha256": source_digest(),
    }
    print("# env " + json.dumps(env))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {value:14.6g} {unit}{note}")
    print(f"{'failed_frac':34s} {failed / attempted:14.6g} ratio  ({failed} of {attempted} solves)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
