#!/usr/bin/env python3
"""Compare two sets of e2ebench runs, metric by metric, against BENCHMARK.json's bounds.

    python3 e2ebench/compare.py base.out new.out

Each file holds the standard output of one or more runs (run.py output
appended one after another). Runs are grouped by workload and trace mode; for
every metric the script prints both medians and the change, and for end-to-end
metrics flags a change worse than the metric's bound. It refuses to compare
runs recorded on hosts with different hardware thread counts, since thread
scaling makes such numbers incomparable, to compare when any run failed its
output check (a wrong answer has no speed), and to compare when one side lacks
a metric the other side has, or a baseline median is 0. Exit status: 0 no
regression, 1 a regression, 2 refused or unreadable input.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def read_runs(path):
    """[(host, result)] for every complete run in the file."""
    runs, host = [], None
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line.startswith("{"):
                continue
            doc = json.loads(line)
            if "host" in doc:
                host = doc["host"]
            elif "metrics" in doc and host is not None:
                runs.append((host, doc))
                host = None
    return runs


def main():
    if len(sys.argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    sides = [read_runs(p) for p in sys.argv[1:]]
    if not all(sides):
        print("compare.py: a file holds no complete run", file=sys.stderr)
        return 2
    threads = {h["hardware_threads"] for side in sides for h, _ in side}
    if len(threads) != 1:
        print(f"compare.py: refusing to compare runs from hosts with {sorted(threads)} hardware "
              "threads", file=sys.stderr)
        return 2

    wrong = [(path, h["workload"], h["seed"]) for path, side in zip(sys.argv[1:], sides)
             for h, r in side if not r["correct"]]
    if wrong:
        for path, workload, seed in wrong:
            print(f"compare.py: {path}: {workload} seed {seed} failed its output check",
                  file=sys.stderr)
        return 2

    regressed = False
    groups = sorted({(h["workload"], h["trace"]) for side in sides for h, _ in side})
    for workload, trace in groups:
        values, counts = [], []
        for side in sides:
            per, n = {}, 0
            for h, r in side:
                if (h["workload"], h["trace"]) == (workload, trace):
                    n += 1
                    for name, m in r["metrics"].items():
                        per.setdefault(name, []).append(m["value"])
            values.append(per)
            counts.append(n)
        print(f"{workload} ({'traced' if trace else 'end to end'}), runs {counts[0]} vs {counts[1]}")
        if not trace:
            missing = [name for name in bounds if (name in values[0]) != (name in values[1])]
            if missing:
                print(f"compare.py: {workload}: only one side has {', '.join(missing)}",
                      file=sys.stderr)
                return 2
        for name in sorted(set(values[0]) & set(values[1])):
            a, b = statistics.median(values[0][name]), statistics.median(values[1][name])
            gated = not trace and name in bounds
            if a == 0.0:
                if gated:
                    print(f"compare.py: {workload}: baseline median of {name} is 0, so no "
                          "share of it bounds a change", file=sys.stderr)
                    return 2
                print(f"  {name:32s} {a:14.6g} -> {b:14.6g}  (baseline 0)")
                continue
            worse = (b - a) if better.get(name) == "lower" else (a - b)
            share = worse / abs(a)
            flag = ""
            if gated and share > bounds[name]["bound"]:
                flag = f"  REGRESSION (bound {bounds[name]['bound']})"
                regressed = True
            print(f"  {name:32s} {a:14.6g} -> {b:14.6g}  worse by {share:+.3f}{flag}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
