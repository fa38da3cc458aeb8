#!/usr/bin/env python3
"""Validate and gate the observability artifacts (DESIGN.md 14).

Subcommands:
  validate-report REPORT.json        schema-check a mvio.run_report document
  validate-trace  TRACE.json         check a Chrome/Perfetto trace-event file:
                                     well-formed, balanced B/E per lane,
                                     timestamps nondecreasing per lane
  make-baseline   REPORT.json -o B   derive a gating baseline from a report
                                     (tolerances assigned by key policy)
  compare         REPORT.json BASELINE.json
                                     fail (exit 1) when a gated value drifts
                                     beyond its tolerance

Baselines are committed under bench/baselines/ and are plain JSON - edit a
"rel_tol"/"abs_tol" by hand to loosen a gate, or set "gate": false to make
a value informational.
"""

import argparse
import json
import math
import os
import re
import sys

REPORT_SCHEMA = "mvio.run_report"
BASELINE_SCHEMA = "mvio.bench_baseline"

# The report's `phases` object carries one key per core::kPhaseFields
# entry plus `total`; the C++ table is the one list both sides read.
PHASES_HPP = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "src", "core", "phases.hpp")

# Tolerance policy for make-baseline, first match wins. None -> not gated
# (tracked informationally). Deterministic outputs (join pairs, owned
# record counts, iteration counts, payload-copy bytes) gate exactly;
# modelled read times gate only against gross (>2x) regressions because
# measured CPU perturbs the queue model's arrival times; anything priced
# purely from measured CPU stays informational.
VALUE_POLICY = [
    (re.compile(r"^(pairs|owned_|iters_|rounds)"), (0.0, 0.0)),
    (re.compile(r"^read_seconds_"), (1.0, 0.01)),
    (re.compile(r"^bytes_copied_"), (0.0, 0.0)),
    (re.compile(r"^alloc_count_"), (0.5, 64.0)),
    (re.compile(r"seconds"), None),
]
PHASE_POLICY = [
    (re.compile(r"^rounds$"), (0.0, 0.0)),
    (re.compile(r"Bytes$|Epochs$|Rounds$"), (0.25, 1024.0)),
]


def fail(msg):
    print("check_bench: FAIL: %s" % msg, file=sys.stderr)
    sys.exit(1)


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("%s: %s" % (path, e))


def phase_keys():
    """Every key a report's non-empty `phases` object must carry."""
    try:
        with open(PHASES_HPP, "r", encoding="utf-8") as f:
            text = f.read()
    except OSError as e:
        fail("%s: %s" % (PHASES_HPP, e))
    table = re.search(r"kPhaseFields\[\] = \{(.*?)\n\};", text, re.S)
    keys = re.findall(r'\{"(\w+)",', table.group(1)) if table else []
    if not keys:
        fail("%s: no kPhaseFields table found" % PHASES_HPP)
    return keys + ["total"]


def is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)


# ---- validate-report ------------------------------------------------------

def check_report(doc, path):
    if doc.get("schema") != REPORT_SCHEMA:
        fail("%s: schema is %r, want %r" % (path, doc.get("schema"), REPORT_SCHEMA))
    if doc.get("version") != 1:
        fail("%s: unsupported report version %r" % (path, doc.get("version")))
    for key in ("name", "setup"):
        if not isinstance(doc.get(key), str) or not doc[key]:
            fail("%s: missing %r" % (path, key))
    phases = doc.get("phases")
    if not isinstance(phases, dict):
        fail("%s: 'phases' must be an object" % path)
    if phases:  # benches without a framework run emit an empty object
        for key in phase_keys():
            if key not in phases:
                fail("%s: phases missing %r" % (path, key))
            if not is_num(phases[key]) or phases[key] < 0:
                fail("%s: phases[%r] = %r is not a finite non-negative number"
                     % (path, key, phases[key]))
    values = doc.get("values")
    if not isinstance(values, dict):
        fail("%s: 'values' must be an object" % path)
    for key, v in values.items():
        if not is_num(v):
            fail("%s: values[%r] = %r is not a finite number" % (path, key, v))
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        fail("%s: 'metrics' must be an array" % path)
    for m in metrics:
        for key in ("name", "kind", "count", "min", "max", "sum", "mean", "p50", "p99"):
            if key not in m:
                fail("%s: metric %r missing %r" % (path, m.get("name"), key))
        if m["kind"] not in ("c", "g", "h"):
            fail("%s: metric %r has kind %r" % (path, m["name"], m["kind"]))
        if m["min"] > m["max"] + 1e-12:
            fail("%s: metric %r has min > max" % (path, m["name"]))
    return doc


def cmd_validate_report(args):
    doc = check_report(load(args.report), args.report)
    print("check_bench: OK: %s (%d values, %d metrics)"
          % (args.report, len(doc["values"]), len(doc["metrics"])))


# ---- validate-trace -------------------------------------------------------

def cmd_validate_trace(args):
    doc = load(args.trace)
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail("%s: 'traceEvents' must be an array" % args.trace)
    lanes = {}      # (pid, tid) -> last ts
    depth = {}      # (pid, tid) -> open span stack
    spans = 0
    instants = 0
    procs = set()
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        if ph not in ("B", "E", "i"):
            fail("%s: event %d has unsupported ph %r" % (args.trace, i, ph))
        key = (ev.get("pid"), ev.get("tid"))
        ts = ev.get("ts")
        if not is_num(ts):
            fail("%s: event %d has non-numeric ts" % (args.trace, i))
        procs.add(ev.get("pid"))
        if key in lanes and ts < lanes[key] - 1e-9:
            fail("%s: event %d (%r) steps back in time on lane %r: %r < %r"
                 % (args.trace, i, ev.get("name"), key, ts, lanes[key]))
        lanes[key] = ts
        stack = depth.setdefault(key, [])
        if ph == "B":
            stack.append(ev.get("name"))
            spans += 1
        elif ph == "E":
            if not stack:
                fail("%s: event %d ends a span that never began on lane %r"
                     % (args.trace, i, key))
            stack.pop()
        else:
            instants += 1
    open_spans = [(k, s) for k, s in depth.items() if s]
    if open_spans:
        fail("%s: unbalanced spans left open: %r" % (args.trace, open_spans[:4]))
    if args.min_spans and spans < args.min_spans:
        fail("%s: only %d spans, expected at least %d" % (args.trace, spans, args.min_spans))
    if args.expect_phases:
        names = {ev.get("name") for ev in events if ev.get("ph") == "B"}
        missing = [p for p in args.expect_phases.split(",") if p not in names]
        if missing:
            fail("%s: no span for phase(s): %s" % (args.trace, ",".join(missing)))
    print("check_bench: OK: %s (%d ranks, %d lanes, %d spans, %d instants)"
          % (args.trace, len(procs), len(lanes), spans, instants))


# ---- make-baseline / compare ----------------------------------------------

def policy_tolerance(policies, key):
    for pattern, tol in policies:
        if pattern.search(key):
            return tol
    return None


def cmd_make_baseline(args):
    report = check_report(load(args.report), args.report)
    baseline = {
        "schema": BASELINE_SCHEMA,
        "version": 1,
        "name": report["name"],
        "values": {},
        "phases": {},
    }
    for key, v in sorted(report["values"].items()):
        tol = policy_tolerance(VALUE_POLICY, key)
        entry = {"expect": v, "gate": tol is not None}
        if tol is not None:
            entry["rel_tol"], entry["abs_tol"] = tol
        baseline["values"][key] = entry
    for key, v in sorted(report.get("phases", {}).items()):
        tol = policy_tolerance(PHASE_POLICY, key)
        entry = {"expect": v, "gate": tol is not None}
        if tol is not None:
            entry["rel_tol"], entry["abs_tol"] = tol
        baseline["phases"][key] = entry
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(baseline, f, indent=2, sort_keys=True)
        f.write("\n")
    gated = sum(1 for s in ("values", "phases")
                for e in baseline[s].values() if e["gate"])
    print("check_bench: wrote %s (%d gated entries)" % (args.output, gated))


def compare_section(section, actual, expected, failures):
    for key, entry in expected.items():
        if key not in actual:
            failures.append("%s.%s: missing from report" % (section, key))
            continue
        if not entry.get("gate", False):
            continue
        want = entry["expect"]
        got = actual[key]
        tol = max(entry.get("abs_tol", 0.0), entry.get("rel_tol", 0.0) * abs(want))
        if abs(got - want) > tol:
            failures.append("%s.%s: %r drifted from %r (tolerance %r)"
                            % (section, key, got, want, tol))


def cmd_compare(args):
    report = check_report(load(args.report), args.report)
    baseline = load(args.baseline)
    if baseline.get("schema") != BASELINE_SCHEMA:
        fail("%s: schema is %r, want %r"
             % (args.baseline, baseline.get("schema"), BASELINE_SCHEMA))
    if baseline.get("name") != report["name"]:
        fail("report is %r but baseline is for %r" % (report["name"], baseline.get("name")))
    failures = []
    compare_section("values", report["values"], baseline.get("values", {}), failures)
    compare_section("phases", report.get("phases", {}), baseline.get("phases", {}), failures)
    if failures:
        for f in failures:
            print("check_bench: REGRESSION: %s" % f, file=sys.stderr)
        sys.exit(1)
    gated = sum(1 for s in ("values", "phases")
                for e in baseline.get(s, {}).values() if e.get("gate", False))
    print("check_bench: OK: %s within %s (%d gated entries)"
          % (args.report, args.baseline, gated))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("validate-report")
    p.add_argument("report")
    p.set_defaults(func=cmd_validate_report)

    p = sub.add_parser("validate-trace")
    p.add_argument("trace")
    p.add_argument("--min-spans", type=int, default=0)
    p.add_argument("--expect-phases", default="",
                   help="comma-separated span names that must appear")
    p.set_defaults(func=cmd_validate_trace)

    p = sub.add_parser("make-baseline")
    p.add_argument("report")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_make_baseline)

    p = sub.add_parser("compare")
    p.add_argument("report")
    p.add_argument("baseline")
    p.set_defaults(func=cmd_compare)

    args = ap.parse_args()
    args.func(args)


if __name__ == "__main__":
    main()
