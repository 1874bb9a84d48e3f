#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are across seeds.

Usage, from the repository root:

    python3 benchmark/steadiness.py --runs 10 --seconds 10 [--workloads a,b] \
        [--first-seed 1] [--trace 0] [--out FILE.json]

Runs `benchmark/run.py` once per seed and workload, interleaving the
workloads so that host drift spreads over all of them, and reports for
each metric the median, the quartiles (Python's statistics.quantiles,
n=4), the min and max, and the spread: the interquartile range as a share
of the median, which is what each metric's bound in BENCHMARK.json is
held to. With --out, also writes every run's metrics and the summary as
JSON.

    python3 benchmark/steadiness.py --compare BASE.json NEW.json

compares two such files metric by metric against the bounds in
BENCHMARK.json: how much worse NEW's median is than BASE's, and whether
both spreads and that change stay within the bound. Exits 1 if any does
not.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["trace-json", "trace-long", "catalog-wide", "serve"]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n"
                           f"{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["seconds_taken"] = time.time() - started
    result["report"] = lines[:-1]
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "spread": (q3 - q1) / q2,
            "values": values}


def compare(base_path, new_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = {m["name"]: m for m in json.load(f)["end_to_end"]}
    with open(base_path) as f:
        base = json.load(f)["summary"]
    with open(new_path) as f:
        new = json.load(f)["summary"]
    print("| workload | metric | base median | new median | worse by | bound "
          "| base spread | new spread | within |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok = True
    for w, metrics in base.items():
        for name, b in metrics.items():
            if name not in spec or name not in new.get(w, {}):
                continue
            n = new[w][name]
            change = (n["median"] - b["median"]) / b["median"]
            worse = change if spec[name]["better"] == "lower" else -change
            bound = spec[name]["bound"]
            spreads = max(b["spread"], n["spread"]) <= bound
            within = worse <= bound and spreads
            ok = ok and within
            print(f"| {w} | {name} | {b['median']:.6g} | {n['median']:.6g} | {worse * 100:+.1f}% "
                  f"| {bound * 100:.0f}% | {b['spread'] * 100:.1f}% | {n['spread'] * 100:.1f}% "
                  f"| {'yes' if within else 'NO'} |")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = ap.parse_args()
    if args.compare:
        return compare(*args.compare)
    workloads = args.workloads.split(",")

    runs = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for w in workloads:
            r = run_once(w, seed, args.seconds, args.trace)
            runs[w].append({"seed": seed, **r})
            print(f"{w:<13} seed {seed:<4} {r['seconds_taken']:5.1f} s  "
                  + "  ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()),
                  file=sys.stderr, flush=True)

    summary = {}
    print(f"| workload | metric | median | q1 | q3 | min | max | spread |")
    print(f"|---|---|---|---|---|---|---|---|")
    for w in workloads:
        summary[w] = {}
        for name in runs[w][0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in runs[w]])
            summary[w][name] = s
            print(f"| {w} | {name} | {s['median']:.6g} | {s['q1']:.6g} | {s['q3']:.6g} "
                  f"| {s['min']:.6g} | {s['max']:.6g} | {s['spread'] * 100:.1f}% |")
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
                       "first_seed": args.first_seed, "summary": summary, "raw": runs},
                      f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
