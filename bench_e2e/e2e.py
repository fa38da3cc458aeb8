#!/usr/bin/env python3
"""End-to-end benchmark runner (see README.md next to this file).

  e2e.py run [--workload W ...] [--seed N] [--trace 0|1] [--smoke]
             [--out results.json]
      Build bench_e2e if needed, run each workload in its own process with a
      timeout, print every metric as `workload metric value unit`, write the
      results as JSON, and print one summary JSON object as the last line.
      Every workload measures for BENCHMARK.json's run_seconds; `--seconds`
      is accepted only with that value. Exits non-zero when any rep fails
      its ground-truth check.

  e2e.py compare --base A.json ... --head B.json ...
      For each (workload, metric): both sides' median and quartiles, the
      fraction of (base, head) pairs the head wins, and a verdict against
      the metric's bound in BENCHMARK.json. Refuses runs made with
      different run_seconds, --trace or --smoke.

  e2e.py trace-summary TRACE.json
      Virtual self time per span name (max across ranks) of one trace, in
      seconds and as a share of the trace's makespan, and the dropped-event
      count. Exits non-zero when events were dropped.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "bench_e2e"
TIMEOUT_S = 170
# Span names the library records (src/obs); each becomes trace.<name>.self_s
# and trace.<name>.share.
SPANS = ["read", "parse", "partition", "comm", "round", "spill", "migrate",
         "checkpoint", "compaction", "recovery", "compute"]
# Per-rep samples bench_e2e prints; the query latencies come from
# index_skew only.
E2E_FROM_REPS = ["makespan_s", "wall_s", "cpu_s", "query_p50_us", "query_p99_us"]


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build bench_e2e under .bench_build."""
    steps = [["cmake", "--build", str(BUILD), "--target", "bench_e2e", "-j", str(os.cpu_count() or 1)]]
    if not (BUILD / "build.ninja").exists():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD), "-G", "Ninja"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise SystemExit("e2e.py: build failed: " + " ".join(cmd))


def unit_of(name, units):
    """A metric's unit: from BENCHMARK.json, else from its name's suffix."""
    if name in units:
        return units[name]
    name = name.removesuffix("_model").removesuffix("_measured")
    for suffix, unit in (("_mb_s", "MB/s"), ("_krec_s", "krec/s"), ("_us", "us"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def summarize(values):
    q1, med, q3 = quartiles(values)
    return {"value": med, "iqr": q3 - q1, "n": len(values)}


def trace_summary(path):
    """Per span name, the max across ranks of its virtual self time (span
    minus its child spans) on the rank's main lane, as trace.<span>.self_s
    in seconds and as trace.<span>.share of the trace's makespan (the
    latest span end on any main lane). Worker, prep and flush lanes run
    concurrently with the main lane and are left out, so the self times
    of one rank add up to at most its timeline. Also returns the trace's
    dropped-event count."""
    with open(path) as f:
        trace = json.load(f)
    self_us = {}
    stacks = {}
    makespan_us = 0.0
    for ev in trace["traceEvents"]:
        if ev.get("tid") != 0 or ev["ph"] not in ("B", "E"):
            continue
        stack = stacks.setdefault(ev["pid"], [])
        if ev["ph"] == "B":
            stack.append([ev["name"], ev["ts"], 0.0])
            continue
        if not stack:
            continue
        name, start, child = stack.pop()
        if ev["name"] == "(unclosed)":  # a killed rank's span: no end time
            continue
        makespan_us = max(makespan_us, ev["ts"])
        dur = ev["ts"] - start
        per_rank = self_us.setdefault(ev["pid"], {})
        per_rank[name] = per_rank.get(name, 0.0) + dur - child
        if stack:
            stack[-1][2] += dur
    out = {}
    for name in sorted({n for r in self_us.values() for n in r} | set(SPANS)):
        self_max = max((r.get(name, 0.0) for r in self_us.values()), default=0.0)
        out[f"trace.{name}.self_s"] = self_max / 1e6
        out[f"trace.{name}.share"] = self_max / makespan_us if makespan_us else 0.0
    dropped = int(trace.get("otherData", {}).get("droppedEvents", "0"))
    return out, dropped


def lost_run(stdout, why):
    """A process that hung or crashed: every rep it started counts as
    attempted and failed, since none of them reached its check."""
    if isinstance(stdout, bytes):
        stdout = stdout.decode(errors="replace")
    started = sum(1 for line in (stdout or "").splitlines() if line.startswith("started "))
    n = max(1, started)
    return {"correct": False, "attempted": n, "failed": n, "metrics": {},
            "errors": [f"{why}; {started} reps started"], "trace_files": []}


def run_workload(workload, args, spec, seconds, trace_dir):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(args.seed), "--seconds", str(seconds)]
    if args.smoke:
        cmd += ["--smoke", "true"]
    if trace_dir:
        trace_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-dir", str(trace_dir)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        return lost_run(e.stdout, f"timed out after {TIMEOUT_S}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return lost_run(proc.stdout, f"bench_e2e exited with {proc.returncode}")
    raw = json.loads(lines[-1])
    reps = raw["reps"]
    failed = [r for r in reps if r["error"]]
    errors = [f"{r['kind']} rep: {r['error']}" for r in failed]
    timed = [r for r in reps if r["kind"] == "timed" and not r["error"]]
    metrics = {}
    for name in E2E_FROM_REPS:
        values = [r[name] for r in timed if name in r]
        if values:
            metrics[name] = summarize(values)
    metrics["setup_s"] = summarize(raw["setup_s"])
    metrics["peak_rss_mb"] = {"value": raw["peak_rss_mb"]}
    missing = []
    if trace_dir:
        layers = dict(raw["layers"])
        per_span = {}
        layers["obs.dropped_events"] = 0
        for path in raw["trace_files"]:
            spans, drops = trace_summary(path)
            layers["obs.dropped_events"] = max(layers["obs.dropped_events"], drops)
            for k, v in spans.items():
                per_span.setdefault(k, []).append(v)
        layers.update({k: statistics.median(v) for k, v in per_span.items()})
        missing = [m["name"] for m in spec["per_layer"] if m["name"] not in layers]
        metrics.update({k: {"value": v} for k, v in layers.items()})
    if missing:
        errors.append("per-layer metrics not measured: " + ", ".join(missing))
    return {"correct": not errors, "attempted": len(reps), "failed": len(failed),
            "metrics": metrics, "errors": errors, "trace_files": raw["trace_files"]}


def cmd_run(args):
    spec = load_spec()
    seconds = spec["run_seconds"]
    if args.seconds is not None and args.seconds != seconds:
        raise SystemExit(f"e2e.py: --seconds must be BENCHMARK.json's run_seconds ({seconds}), "
                         f"got {args.seconds:g}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    build()
    results = {}
    for w in workloads:
        t0 = time.monotonic()
        trace_dir = BUILD / "traces" / f"{w}-seed{args.seed}" if args.trace else None
        res = run_workload(w, args, spec, seconds, trace_dir)
        results[w] = res
        # Also print the rows BENCHMARK.json does not track: index_skew's
        # query latencies and, traced, the calibration constants and
        # absolute span self times.
        extra = sorted(k for k in res["metrics"] if k not in units)
        for name in reported + extra:
            m = res["metrics"].get(name)
            if m is not None:
                spread = f"  (iqr {m['iqr']:.3g}, n {m['n']})" if "iqr" in m else ""
                print(f"{w} {name} {m['value']:.6g} {unit_of(name, units)}{spread}")
        if res.get("trace_files"):
            print(f"{w} traces: " + " ".join(res["trace_files"]))
        for e in res["errors"]:
            print(f"{w} FAILED: {e}")
        log(f"{w}: {time.monotonic() - t0:.1f}s")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"seed": args.seed, "run_seconds": seconds, "trace": args.trace,
                       "smoke": args.smoke, "workloads": results}, f, indent=1)
    correct = all(r["correct"] for r in results.values())
    summary = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {},
    }
    for w, r in results.items():
        for name in reported:
            if name in r["metrics"]:
                key = name if len(results) == 1 else f"{w}.{name}"
                summary["metrics"][key] = {"value": r["metrics"][name]["value"], "unit": units[name]}
    print(json.dumps(summary))
    return 0 if correct else 1


def cmd_compare(args):
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    # Per-rep samples BENCHMARK.json does not list (index_skew's query
    # latencies) are compared too, without a bound.
    for name in E2E_FROM_REPS:
        metrics.setdefault(name, {"better": "lower"})
    settings = set()

    def collect(paths):
        out = {}
        for p in paths:
            with open(p) as f:
                doc = json.load(f)
            settings.add((doc.get("run_seconds"), doc.get("trace"), doc.get("smoke")))
            for w, res in doc["workloads"].items():
                for name, m in res["metrics"].items():
                    if name in metrics:
                        out.setdefault((w, name), []).append(m["value"])
        return out

    base, head = collect(args.base), collect(args.head)
    if len(settings) > 1:
        raise SystemExit("e2e.py compare: the runs differ in (run_seconds, trace, smoke): "
                         + ", ".join(map(str, sorted(settings, key=str))))
    print(f"{'workload':<15} {'metric':<28} {'base q1/med/q3':>30} {'head q1/med/q3':>30} {'wins':>5}  verdict")
    worst = 0
    for key in sorted(base.keys() & head.keys()):
        w, name = key
        m = metrics[name]
        a, b = base[key], head[key]
        qa, qb = quartiles(a), quartiles(b)
        lower = m["better"] == "lower"
        pairs = list(zip(a, b))
        wins = sum((y < x) if lower else (y > x) for x, y in pairs) / len(pairs)
        bound = m.get("bound")
        if bound is None:
            verdict = "-"
        else:
            spread = max((qa[2] - qa[0]) / qa[1] if qa[1] else 0, (qb[2] - qb[0]) / qb[1] if qb[1] else 0)
            worse = (qb[1] - qa[1]) / qa[1] if qa[1] else 0.0
            if not lower:
                worse = -worse
            all_better = all((y < x) if lower else (y > x) for x in a for y in b)
            if spread > bound and not all_better:
                verdict, rank = f"unresolved (spread {spread:.1%} > bound {bound:.0%})", 1
            elif worse > bound:
                verdict, rank = f"regressed ({worse:+.1%} > bound {bound:.0%})", 2
            else:
                verdict, rank = f"ok ({worse:+.1%}, bound {bound:.0%})", 0
            worst = max(worst, rank)
        fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
        print(f"{w:<15} {name:<28} {fmt(qa):>30} {fmt(qb):>30} {wins:>5.0%}  {verdict}")
    return 1 if worst == 2 else 0


def cmd_trace_summary(args):
    spans, dropped = trace_summary(args.trace)
    for name, v in spans.items():
        print(f"{name} {v:.6g} {unit_of(name, {})}")
    print(f"obs.dropped_events {dropped} count")
    return 0 if dropped == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="build and run workloads")
    r.add_argument("--workload", "--workloads", nargs="+", dest="workload",
                   help="workloads to run (default: all in BENCHMARK.json)")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=None,
                   help="must equal BENCHMARK.json's run_seconds, which every run uses")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1 = traced run reporting the per-layer metrics")
    r.add_argument("--smoke", action="store_true", help="about 1/50 scale, 2 timed reps")
    r.add_argument("--out", help="write the results as JSON here")
    c = sub.add_parser("compare", help="compare two sets of run results")
    c.add_argument("--base", nargs="+", required=True)
    c.add_argument("--head", nargs="+", required=True)
    t = sub.add_parser("trace-summary", help="self time per span of one trace")
    t.add_argument("trace")
    args = p.parse_args()
    if args.cmd == "run":
        return cmd_run(args)
    if args.cmd == "compare":
        return cmd_compare(args)
    return cmd_trace_summary(args)


if __name__ == "__main__":
    sys.exit(main())
