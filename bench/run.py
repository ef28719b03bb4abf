"""Benchmark for latinop: four seeded workloads, stdlib only.

Run one workload (the last stdout line is the JSON result):

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

    --trace 0  end-to-end metrics from untraced passes
    --trace 1  per-layer metrics from traced passes, alternating with
               untraced ones to state the tracing overhead; the spans are
               written to .bench_out/spans-<workload>-<seed>.jsonl
    --out F    also append the run's full record (metadata, per-probe
               outcomes, tail percentile) to the JSON-lines file F

Run every workload on seeds 1..runs, one process at a time, and print
each end-to-end metric's quartile spread against its bound:

    python3 bench/run.py --sweep --runs 10 --out results.jsonl

Compare two such files (medians, quartiles, verdicts, per-layer ratios):

    python3 bench/run.py --compare before.jsonl after.jsonl

Workloads, metrics and bounds are defined in BENCHMARK.json at the root
of the checkout; the library is imported from its src/ directory.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

PROCESS_START = perf_counter()
# Imports are timed as users meet them, from cached bytecode, whatever
# PYTHONDONTWRITEBYTECODE says (the cli workload's children likewise).
sys.dont_write_bytecode = False
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import harness as H  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Timed passes stop starting ops after this many seconds of the run, and
# probes get what is left of RUN_BUDGET, so a run ends within 180 s.
OPS_DEADLINE_S = 120.0
RUN_BUDGET_S = 170.0


def git_revision(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "latinop").rglob("*.py")))


def set_up(workload, seed, ctx):
    """Import the library afresh, generate the inputs, warm up.  A
    workload of child processes only generates and writes its inputs."""
    if not workload.in_process:
        return None, workload.build(seed, ctx)
    pkg = H.import_library(SRC)
    ops = workload.build(seed, ctx)
    workload.warm(H.make_lib(pkg, None), ctx)
    return pkg, ops


def run_workload(args) -> int:
    if not (SRC / "latinop" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'latinop'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    ctx = SimpleNamespace(src=SRC, workdir=workdir)
    try:
        if not workload.in_process:
            workload.warm(None, ctx)
        setup_times, raw_setup = [], []
        for _ in range(H.SETUP_REPS):
            t = H.calibrated_call(lambda: set_up(workload, args.seed, ctx))
            if t.error:
                raise t.error
            pkg, ops = t.out
            raw_setup.append(t.seconds)
            setup_times.append(t.seconds * t.speed)
        tracer = H.Tracer()
        calibrate = workload.calibrate and (lambda lib: workload.calibrate(lib, ctx))
        passes = H.measure(ops, pkg, args.seconds, bool(args.trace),
                           PROCESS_START + OPS_DEADLINE_S, tracer, calibrate)
        rss = H.peak_rss_mb(children=not workload.in_process)
        probes = []
        for probe in workload.probes(args.seed, ctx):
            budget = PROCESS_START + RUN_BUDGET_S - perf_counter()
            probes.append(H.run_probe(probe, budget))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it

    e2e, info = H.end_to_end(passes, len(ops), setup_times, rss, probes)
    layers = H.per_layer(tracer, passes) if args.trace else None
    executions = sum(len(p.errors) for p in passes)
    failures = sum(1 for p in passes for e in p.errors if e)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "meta": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "git_revision": git_revision(ROOT),
            "src_lines": src_lines(),
            "input_digest": H.input_digest(ops),
        },
        "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "end_to_end": {k: H.json_number(v) for k, (v, _unit) in e2e.items()},
        "raw": _raw_times(passes, len(ops), raw_setup),
        "info": info,
        "probes": probes,
        "failures": _failures(ops, passes),
        "slowest_kinds": _kinds(ops, passes)[:8],
    }
    if layers:
        record["per_layer"] = {k: v for k, (v, _unit) in layers.items()}
        record["tracing_overhead"] = _overhead(passes)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans)
        record["spans_file"] = str(spans)
    _print_report(record, e2e, layers)
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    metrics = layers if args.trace else e2e
    print(json.dumps({
        "correct": failures == 0,
        "attempted": executions,
        "failed": failures,
        "metrics": {k: {"value": H.json_number(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _raw_times(passes, n_ops, raw_setup):
    """The time metrics as measured, before scaling, and each op's latency."""
    lat = H.op_latencies(passes, n_ops, scaled=False)
    return {
        "setup_s": statistics.median(raw_setup),
        "wall_s": statistics.median(p.raw_wall for p in passes if not p.traced),
        "op_p50_ms": H.json_number(statistics.median(lat) * 1e3),
        "op_tail_ms": H.json_number(H.tail(lat)[0] * 1e3),
        "speed_factor": statistics.median(f for p in passes for f in p.speeds),
        "op_ms": [H.json_number(x * 1e3) for x in lat],
    }


def _failures(ops, passes):
    seen = {}
    for p in passes:
        for op, err in zip(ops, p.errors):
            if err and op.kind not in seen:
                seen[op.kind] = err
    return [{"kind": k, "reason": v} for k, v in seen.items()]


def _kinds(ops, passes):
    """Median latency and op count per kind, slowest first."""
    lat = H.op_latencies(passes, len(ops))
    by_kind = {}
    for op, x in zip(ops, lat):
        by_kind.setdefault(op.kind, []).append(x)
    rows = [{"kind": k, "ops": len(v), "median_ms": H.json_number(statistics.median(v) * 1e3)}
            for k, v in by_kind.items()]
    return sorted(rows, key=lambda r: -r["median_ms"])


def _overhead(passes):
    plain = statistics.median(p.wall for p in passes if not p.traced)
    traced = statistics.median(p.wall for p in passes if p.traced)
    return {"untraced_wall_s": plain, "traced_wall_s": traced, "overhead": traced / plain - 1}


def _print_report(record, e2e, layers):
    info = record["info"]
    print(f"workload {record['workload']}, seed {record['seed']}: {record['passes']} passes "
          f"({record['traced_passes']} traced), {info['latency_samples']} ops per pass, "
          f"{len(record['probes'])} probes; inputs {record['meta']['input_digest'][:16]}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<12} {value:12.6g} {unit}")
    raw = record["raw"]
    print(f"  times are scaled to the nominal machine speed; unscaled: setup_s {raw['setup_s']:.6g} s, "
          f"wall_s {raw['wall_s']:.6g} s (median speed factor {raw['speed_factor']:.3f})")
    print(f"  tail = p{info['tail_percentile']} of {info['latency_samples']} per-op median "
          f"latencies ({H.TAIL_BEYOND} beyond); failed_ratio {info['failed_ratio']:.4f} "
          f"({info['failed_ops']} ops, {info['failed_probes']} probes)")
    print("  slowest kinds: " + ", ".join(
        f"{r['kind']} x{r['ops']} {r['median_ms']:.1f} ms" for r in record["slowest_kinds"][:5]))
    for f in record["failures"]:
        print(f"  FAILED op {f['kind']}: {f['reason']}")
    for p in record["probes"]:
        print(f"  probe {'pass' if p['ok'] else 'FAIL'} {p['name']}: {p['outcome']} "
              f"(expected {p['expect']})")
    if layers:
        print(f"  {'per-layer (median per traced pass)':<34} {'calls':>8} {'busy_s':>10} "
              f"{'items/s':>12} {'failed':>6}")
        for name in H.TRACED_NAMES:
            row = [layers[f"{name}.{m}"][0] for m in ("calls", "busy_s", "items_per_s", "failed")]
            print(f"  {name:<34} {row[0]:8g} {row[1]:10.4f} {row[2]:12.5g} {row[3]:6g}")
        o = record["tracing_overhead"]
        print(f"  tracing overhead: {o['overhead']:+.2%} (traced pass {o['traced_wall_s']:.4f} s, "
              f"untraced {o['untraced_wall_s']:.4f} s); spans in {record['spans_file']}")


# --- sweep and compare -----------------------------------------------------

def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def load_records(path, trace):
    out = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == trace:
                out.setdefault(rec["workload"], []).append(rec)
    return out


def print_spreads(path):
    bench = load_benchmark()
    records = load_records(path, 0)
    print(f"{'workload':<9} {'metric':<12} {'runs':>4} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'spread':>7} {'bound':>6}")
    for w, recs in records.items():
        for m in bench["end_to_end"]:
            values = [r["end_to_end"][m["name"]] for r in recs]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if m["name"] == "setup_s" or spread <= m["bound"] / 3 else "  > bound/3"
            print(f"{w:<9} {m['name']:<12} {len(values):4d} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{spread:7.2%} {m['bound']:6.2f}{flag}")


def sweep(args) -> int:
    out = Path(args.out)
    for w in [w["name"] for w in load_benchmark()["workloads"]]:
        for seed in range(1, args.runs + 1):
            argv = [sys.executable, __file__, "--workload", w, "--seed", str(seed), "--seconds",
                    str(args.seconds), "--trace", str(args.trace), "--out", str(out)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=200)
            last = (proc.stdout.strip().splitlines() or ["<no output>"])[-1]
            print(f"{w} seed {seed}: exit {proc.returncode} {last[:150]}", flush=True)
            if proc.returncode != 0:
                print(proc.stderr[-2000:], file=sys.stderr)
                return 1
    if not args.trace:
        print_spreads(out)
    return 0


def compare(path_a, path_b) -> int:
    """Medians, quartiles and a verdict per end-to-end metric, by the
    benchmark's bounds, with the ratio of the unscaled medians beside
    each time; per-layer busy-time and throughput ratios."""
    bench = load_benchmark()
    for trace in (0, 1):
        a, b = load_records(path_a, trace), load_records(path_b, trace)
        for w in [w for w in a if w in b]:
            if trace == 0:
                print(f"== {w}: {len(a[w])} runs in A, {len(b[w])} in B")
                for m in bench["end_to_end"]:
                    va = [r["end_to_end"][m["name"]] for r in a[w]]
                    vb = [r["end_to_end"][m["name"]] for r in b[w]]
                    print("  " + _verdict(m, va, vb))
                    if all(m["name"] in r["raw"] for r in a[w] + b[w]):
                        ra = statistics.median(r["raw"][m["name"]] for r in a[w])
                        rb = statistics.median(r["raw"][m["name"]] for r in b[w])
                        print(f"  {'':<12} unscaled medians A {ra:.5g}  B {rb:.5g}  B/A x{_ratio(rb, ra)}")
            else:
                print(f"== {w} per layer (B/A of medians over traced runs)")
                for name in H.TRACED_NAMES:
                    ra, rb = _layer_medians(a[w], name), _layer_medians(b[w], name)
                    if ra[0] or rb[0]:
                        print(f"  {name:<34} calls {ra[0]:g} -> {rb[0]:g}  busy x{_ratio(rb[1], ra[1])}"
                              f"  items/s x{_ratio(rb[2], ra[2])}  failed {ra[3]:g} -> {rb[3]:g}")
    return 0


def _layer_medians(recs, name):
    return [statistics.median(r["per_layer"][f"{name}.{m}"] for r in recs)
            for m in ("calls", "busy_s", "items_per_s", "failed")]


def _ratio(x, y):
    return f"{x / y:.3f}" if y else "n/a"


def _verdict(metric, va, vb):
    a1, am, a3 = quartiles(va)
    b1, bm, b3 = quartiles(vb)
    sign = 1 if metric["better"] == "lower" else -1
    worse = sign * (bm - am) / am
    spread = max((a3 - a1) / am, (b3 - b1) / bm if bm else 0)
    better_everywhere = all(sign * (x - y) < 0 for x in vb for y in va)
    if worse > metric["bound"]:
        verdict = "WORSE than the bound"
    elif spread > metric["bound"] and not better_everywhere:
        verdict = "unresolved (spread wider than the bound)"
    elif -worse > spread:
        verdict = "better"
    else:
        verdict = "no change beyond the bound"
    direction = "worse" if worse > 0 else "better"
    return (f"{metric['name']:<12} A {am:.5g} [{a1:.5g}, {a3:.5g}]  B {bm:.5g} [{b1:.5g}, {b3:.5g}]  "
            f"{direction} by {abs(worse):.2%}, bound {metric['bound']:.2f}: {verdict}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, help="measuring time per run (default: BENCHMARK.json's run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append the run's record to this JSON-lines file")
    p.add_argument("--sweep", action="store_true", help="run workloads x seeds into --out")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.sweep:
        if not args.out:
            p.error("--sweep needs --out")
        args.seconds = args.seconds or load_benchmark()["run_seconds"]
        return sweep(args)
    if not args.workload:
        p.error("--workload is required")
    if args.seconds is None:
        args.seconds = load_benchmark()["run_seconds"]
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
