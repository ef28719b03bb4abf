"""Measurement core: repeated set-up, timed passes over a fixed op list,
spans for the traced run, contract probes, and the metrics.

A workload is a fixed list of ops generated from the seed.  One pass
runs every op once, as one client in a closed loop; a run repeats passes
until the next one would overrun ``--seconds``.  Each op's latency is
its median over the untraced passes, so the sample count of the latency
metrics is the op count and does not depend on how fast the program is.
"""
from __future__ import annotations

import gc
import hashlib
import importlib
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace
from typing import Any, Callable

INF = math.inf
# JSON has no infinity; a failed op's latency is written as the largest double.
JSON_INF = sys.float_info.max
SETUP_REPS = 5
TAIL_BEYOND = 10

# Every library function the harness calls, and what one call counts as
# items: (module-qualified name, items(args, result)).
LIBRARY_FUNCTIONS = {
    "formats.parse_lhc": lambda a, r: len(r.table),
    "formats.emit_lhc": lambda a, r: len(a[0].table),
    "core.LatinOp": lambda a, r: len(r.table),
    "core.graph_of": lambda a, r: len(r.cells),
    "core.function_of": lambda a, r: len(r.table),
    "core.conjugate": lambda a, r: len(r.table),
    "enumeration.count_all": lambda a, r: r,
    "enumeration.enumerate_all": None,  # a generator: items are the tables yielded
    "enumeration.random_latin": lambda a, r: len(r.table),
    "enumeration.canonical_form": lambda a, r: len(r.cells),
    "enumeration.orbit_census": lambda a, r: sum(r.values()),
    "transversal.find_transversals": lambda a, r: len(r),
    "transversal.delta_check": lambda a, r: 1,
    "cellgraph.graph_stats": lambda a, r: r.edges,
    # n! candidate permutations: the size of the search space, which the
    # library scans in full today, not a count the harness can observe
    "morphisms.automorphisms": lambda a, r: math.factorial(a[0].n),
    "operad.compose_at": lambda a, r: len(r.table),
    "operad.act": lambda a, r: len(r.table),
    "operad.verify_operad_axioms": lambda a, r: sum(x.checks for x in r.results),
    "pullback.pullback_compose": lambda a, r: len(r.cells),
    "pullback.restrict": lambda a, r: len(r.cells),
}
# Spans the cli workload records around its child processes; one item is one run.
CLI_SPANS = ("cli.interpreter_start", "cli.import", "cli.command")
TRACED_NAMES = tuple(LIBRARY_FUNCTIONS) + CLI_SPANS
# Library names the ops use without a span.
UNTRACED_NAMES = ("SlotPermutation",)


class OpTimeout(Exception):
    """An op ran over its time limit."""


@contextmanager
def time_limit(seconds: float):
    """Raise OpTimeout in the main thread after ``seconds``."""
    def expire(signum, frame):
        raise OpTimeout(f"over its {seconds:.3g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, max(seconds, 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    """One timed operation: ``run`` makes only library calls, ``check``
    compares the output with a reference and returns None or a reason."""

    kind: str
    spec: Any  # the generated input, hashed into the input digest
    run: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    limit: float = 30.0
    # Short ops run this many times in a row and count their median, so
    # one sample's noise does not set the latency percentiles.
    repeat: int = 1


@dataclass
class Probe:
    """A known-defect input run in a child process under a time limit.

    ``judge`` gets the finished process and returns None when the outcome
    is the documented one, else what went wrong.
    """

    name: str
    expect: str
    argv: list
    judge: Callable[[subprocess.CompletedProcess], str | None]
    limit: float = 5.0
    env: dict | None = None


@dataclass
class Pass:
    traced: bool
    times: list = field(default_factory=list)  # seconds per op (median of its repeats), as measured
    speeds: list = field(default_factory=list)  # per op: scaled median over raw median
    errors: list = field(default_factory=list)  # None or a failure reason per op
    elapsed: float = 0.0  # the whole pass, checks included
    calibrate_speed: float = 1.0  # factor for the spans of a workload's calibrate step

    @property
    def wall(self) -> float:
        return sum(t * f for t, f in zip(self.times, self.speeds))

    @property
    def raw_wall(self) -> float:
        return sum(self.times)


# --- speed calibration ------------------------------------------------------
#
# On a virtual machine with 2 shared CPUs the speed of the same
# interpreter work was measured to swing by up to 2x over seconds to
# minutes (one op took 28 ms and 55 ms in consecutive 8 s windows), with
# the process's CPU time swinging alike.  Every time the benchmark
# reports is therefore scaled to a nominal machine speed: the harness
# times a fixed calibration unit of its own twice before each op, twice
# after it, and, from a SIGPROF handler, once per SAMPLE_EVERY_S of CPU
# time while the op runs; the op's time (less the time spent in the
# handler) is multiplied by CALIBRATION_UNIT_S over the median unit time.
# On that machine this cut the run-to-run spread of the timings from
# 10-35% to 2-10%.  The units run with the collector off, so they never
# collect the op's heap, but the units timed during an op share its
# caches, so the factor can still depend on the op; the median keeps one
# preempted unit from moving it.  Raw times are kept in the run record
# and ``--compare`` prints their ratios beside the scaled ones.

CALIBRATION_UNIT_S = 0.8e-3  # one unit at full speed on the reference machine
SAMPLE_EVERY_S = 0.1


def _queens(n, cols=0, d1=0, d2=0):
    full = (1 << n) - 1
    if cols == full:
        return 1
    count, avail = 0, full & ~(cols | d1 | d2)
    while avail:
        bit = avail & -avail
        avail ^= bit
        count += _queens(n, cols | bit, (d1 | bit) << 1 & full, (d2 | bit) >> 1)
    return count


def _nested(depth):
    if depth == 0:
        yield 1
        return
    for _ in range(2):
        yield from _nested(depth - 1)


def _calibration_unit():
    """Interpreter work of the kinds the library does: bitmask
    backtracking, nested generators, building and hashing tuples,
    sorting, grouping, formatting text."""
    solutions = _queens(6) + sum(_nested(7))
    cells = frozenset((x, y, (x * y + x) % 19) for x in range(19) for y in range(19))
    ordered = sorted(cells, key=lambda c: (c[2], c[0]))
    groups = {}
    for c in ordered:
        groups.setdefault(c[2], []).append(c)
    flat = tuple(v for c in ordered for v in c)
    text = "\n".join(" ".join(map(str, flat[i:i + 19])) for i in range(0, len(flat), 19))
    return solutions + len(groups) + len(text)


@dataclass
class Timing:
    out: Any
    error: Exception | None
    seconds: float  # as measured, without the time spent sampling
    speed: float  # CALIBRATION_UNIT_S over the median unit time around and during the call


def calibrated_call(fn, limit: float | None = None) -> Timing:
    """Call ``fn()``, under ``limit`` seconds if given, sampling the
    machine's speed around and during the call."""
    units = []
    inside = [0.0]

    def unit():
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter()
        _calibration_unit()
        units.append(perf_counter() - start)
        if collecting:
            gc.enable()
        return units[-1]

    def on_prof(signum, frame):
        inside[0] += unit()

    _calibration_unit()  # untimed: refills the caches the caller's gc.collect() emptied
    unit()
    unit()
    previous = signal.signal(signal.SIGPROF, on_prof)
    out, error = None, None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        if limit is None:
            out = fn()
        else:
            with time_limit(limit):
                out = fn()
    except Exception as exc:
        error = exc
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        seconds = perf_counter() - start - inside[0]
        signal.signal(signal.SIGPROF, previous)
    unit()
    unit()
    return Timing(out, error, seconds, CALIBRATION_UNIT_S / statistics.median(units))


def describe(exc: BaseException) -> str:
    text = str(exc).splitlines()[0] if str(exc) else ""
    return f"{type(exc).__name__}: {text[:200]}" if text else type(exc).__name__


class Tracer:
    """Keeps one span per library call in memory: (name, pass, op, start,
    end, busy seconds, items, failed).  Spans of one op share (pass, op)."""

    def __init__(self):
        self.spans = []
        self.pass_no = 0
        self.op = 0

    def record(self, name, start, end, busy, items, failed):
        self.spans.append((name, self.pass_no, self.op, start, end, busy, items, failed))

    def wrap(self, name, fn, items):
        if items is None:
            return self._wrap_generator(name, fn)

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                end = perf_counter()
                self.record(name, start, end, end - start, 0, True)
                raise
            end = perf_counter()
            self.record(name, start, end, end - start, items(args, out), False)
            return out

        return traced

    def span(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn, lambda a, r: 1)(*args, **kwargs)

    def _wrap_generator(self, name, fn):
        def traced(*args, **kwargs):
            start = perf_counter()
            busy, count, failed = 0.0, 0, False
            try:
                it = iter(fn(*args, **kwargs))
                busy = perf_counter() - start
                while True:
                    t = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        busy += perf_counter() - t
                        return
                    busy += perf_counter() - t
                    count += 1
                    yield item
            except Exception:
                failed = True
                raise
            finally:
                self.record(name, start, perf_counter(), busy, count, failed)

        return traced

    def write(self, path: Path):
        keys = ("name", "pass", "op", "start", "end", "busy_s", "items", "failed")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def import_library(src: Path):
    """Import ``latinop`` afresh from ``src`` and refuse any other copy."""
    for name in [m for m in sys.modules if m == "latinop" or m.startswith("latinop.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("latinop")
    if Path(pkg.__file__).resolve().parent != (src / "latinop").resolve():
        raise ImportError(f"latinop was imported from {pkg.__file__}, not from {src}")
    return pkg


def _call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def make_lib(pkg, tracer: Tracer | None):
    """The library functions the ops call, wrapped in spans when traced,
    and ``span(name, fn, *args)`` for a call that counts as one item of
    ``name`` (the cli workload's child processes).  ``pkg`` is None when
    the workload imports nothing in process."""
    lib = SimpleNamespace(span=_call if tracer is None else tracer.span)
    if pkg is None:
        return lib
    for name in UNTRACED_NAMES:
        setattr(lib, name, getattr(pkg, name))
    for name, items in LIBRARY_FUNCTIONS.items():
        attr = name.split(".", 1)[1]
        fn = getattr(pkg, attr)
        setattr(lib, attr, fn if tracer is None else tracer.wrap(name, fn, items))
    return lib


def run_pass(ops, lib, traced, tracer, pass_no, deadline) -> Pass:
    result = Pass(traced=traced)
    begin = perf_counter()
    for k, op in enumerate(ops):
        tracer.pass_no, tracer.op = pass_no, k
        raw, scaled, out, error = [], [], None, None
        for _ in range(op.repeat):
            remaining = deadline - perf_counter()
            if remaining <= 0:
                error = "not run: the run's deadline passed"
                break
            # Every op starts from an empty young generation, so no op pays
            # for collecting the garbage of the one before it, whatever the order.
            out = t = None
            gc.collect()
            t = calibrated_call(lambda: op.run(lib), min(op.limit, remaining))
            raw.append(t.seconds)
            scaled.append(t.seconds * t.speed)
            if t.error:
                error = describe(t.error)
                break
            out = t.out
        result.times.append(statistics.median(raw) if raw else 0.0)
        result.speeds.append(statistics.median(scaled) / result.times[-1] if raw and result.times[-1] else 1.0)
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {describe(exc)}"
        result.errors.append(error)
    result.elapsed = perf_counter() - begin
    return result


def measure(ops, pkg, seconds, trace, deadline, tracer, calibrate=None):
    """Passes until the next would overrun ``seconds``; with ``trace``
    they alternate untraced and traced, at least one of each, and
    ``calibrate(lib)`` runs untimed after each traced pass."""
    plain = make_lib(pkg, None)
    traced = make_lib(pkg, tracer) if trace else None
    passes = []
    start = perf_counter()
    while True:
        use_trace = trace and len(passes) % 2 == 1
        passes.append(run_pass(ops, traced if use_trace else plain, use_trace,
                               tracer, len(passes), deadline))
        if use_trace and calibrate:
            tracer.op = -1
            t = calibrated_call(lambda: calibrate(traced))
            if t.error:
                raise t.error
            passes[-1].calibrate_speed = t.speed
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p.elapsed for p in passes)
        if perf_counter() - start + typical > seconds or perf_counter() > deadline:
            return passes


def tail(values):
    """The value at the highest percentile with at least ten samples
    beyond it, and that percentile (share of samples at or below)."""
    ordered = sorted(values)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        raise ValueError(f"{len(ordered)} samples leave none with {TAIL_BEYOND} beyond")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def op_latencies(passes, n_ops, scaled=True):
    """Per-op median latency over the untraced passes, scaled to the
    nominal speed or as measured; an op that failed in any pass is +inf."""
    untraced = [p for p in passes if not p.traced]
    out = []
    for k in range(n_ops):
        if any(p.errors[k] for p in passes):
            out.append(INF)
        else:
            out.append(statistics.median(p.times[k] * (p.speeds[k] if scaled else 1) for p in untraced))
    return out


def end_to_end(passes, n_ops, setup_times, rss_mb, probe_results):
    lat = op_latencies(passes, n_ops)
    tail_value, tail_pct = tail(lat)
    failed_ops = sum(1 for x in lat if x == INF)
    failed_probes = sum(1 for r in probe_results if not r["ok"])
    attempted = n_ops + len(probe_results)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (statistics.median(p.wall for p in passes if not p.traced), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail_value * 1e3, "ms"),
        "ok_ratio": ((attempted - failed_ops - failed_probes) / attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    info = {
        "tail_percentile": round(tail_pct, 2),
        "latency_samples": n_ops,
        "failed_ratio": (failed_ops + failed_probes) / attempted,
        "failed_ops": failed_ops,
        "failed_probes": failed_probes,
    }
    return metrics, info


def per_layer(tracer: Tracer, passes):
    """Per traced pass, per function: calls, busy seconds, items per busy
    second, failed calls; each metric is the median over traced passes."""
    traced = [k for k, p in enumerate(passes) if p.traced]
    stats = {k: {name: [0, 0.0, 0, 0] for name in TRACED_NAMES} for k in traced}
    for name, pass_no, op, _start, _end, busy, items, failed in tracer.spans:
        p = passes[pass_no]
        row = stats[pass_no][name]
        row[0] += 1
        row[1] += busy * (p.calibrate_speed if op < 0 else p.speeds[op])
        row[2] += items
        row[3] += int(failed)
    metrics = {}
    for name in TRACED_NAMES:
        rows = [stats[k][name] for k in traced]
        metrics[f"{name}.calls"] = (statistics.median(r[0] for r in rows), "count")
        metrics[f"{name}.busy_s"] = (statistics.median(r[1] for r in rows), "s")
        metrics[f"{name}.items_per_s"] = (
            statistics.median(r[2] / r[1] if r[1] > 0 else 0.0 for r in rows), "1/s")
        metrics[f"{name}.failed"] = (statistics.median(r[3] for r in rows), "count")
    return metrics


def run_probe(probe: Probe, budget: float) -> dict:
    """Run one probe; over its limit it is killed and counted as failed."""
    limit = min(probe.limit, budget)
    out = {"name": probe.name, "expect": probe.expect, "limit_s": limit}
    if limit <= 0:
        return {**out, "ok": False, "outcome": "not run: the run's deadline passed"}
    start = perf_counter()
    try:
        proc = subprocess.run(probe.argv, env=probe.env, capture_output=True,
                              text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {**out, "ok": False, "outcome": f"killed after its {limit:g} s limit"}
    out["seconds"] = round(perf_counter() - start, 3)
    try:
        reason = probe.judge(proc)
    except Exception as exc:
        reason = f"judge raised {describe(exc)}"
    outcome = f"exit {proc.returncode}"
    if "Traceback (most recent call last)" in proc.stderr:
        outcome += ", traceback on stderr"
    return {**out, "ok": reason is None, "outcome": outcome if reason is None else f"{outcome}: {reason}"}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def input_digest(ops) -> str:
    h = hashlib.sha256()
    for op in ops:
        h.update(repr((op.kind, op.spec)).encode())
    return h.hexdigest()


def json_number(x: float):
    return JSON_INF if x == INF else x
