#!/usr/bin/env python3
"""Append one commit's end-to-end results to the root BENCH_e2e.json.

  scripts/bench_trajectory.py --commit SHA --label TEXT --host TEXT RUN.json ...

Each RUN.json is one `bench_e2e/e2e.py run --seed N --out RUN.json` file
(untraced, not --smoke), one per seed. For every workload and every
end-to-end metric in BENCHMARK.json the entry records the quartiles over
the runs of each run's value (the median over that run's timed reps), with
the seeds and the commit. Quartiles are computed as `e2e.py compare`
computes them, so an entry reads the same as that comparison.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # leave nothing behind in bench_e2e/
sys.path.insert(0, str(ROOT / "bench_e2e"))
from e2e import quartiles  # noqa: E402

TRAJECTORY = ROOT / "BENCH_e2e.json"


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--commit", required=True, help="the measured commit")
    p.add_argument("--label", required=True, help="what the commit changed")
    p.add_argument("--host", required=True, help="the machine the runs were made on")
    p.add_argument("runs", nargs="+")
    args = p.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    docs = [json.loads(Path(r).read_text()) for r in args.runs]
    if any(d["trace"] or d["smoke"] or d["run_seconds"] != spec["run_seconds"] for d in docs):
        raise SystemExit("bench_trajectory.py: every run must be untraced, full scale and at "
                         "BENCHMARK.json's run_seconds")
    results = {}
    for w in (w["name"] for w in spec["workloads"]):
        results[w] = {"attempted": sum(d["workloads"][w]["attempted"] for d in docs),
                      "failed": sum(d["workloads"][w]["failed"] for d in docs)}
        for name in metrics:
            q1, med, q3 = quartiles([d["workloads"][w]["metrics"][name]["value"] for d in docs])
            results[w][name] = {"q1": q1, "median": med, "q3": q3}

    doc = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else {
        "benchmark": "python3 bench_e2e/e2e.py run --seed N --out RUN.json, one run per seed",
        "units": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "entries": [],
    }
    doc["entries"].append({"commit": args.commit, "label": args.label, "host": args.host,
                           "run_seconds": spec["run_seconds"],
                           "seeds": [d["seed"] for d in docs], "workloads": results})
    TRAJECTORY.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
