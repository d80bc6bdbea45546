#!/usr/bin/env python3
"""Steadiness check: runs one workload over several seeds and reports, per
end-to-end metric, the median and the interquartile range as a share of
the median (statistics.quantiles(values, n=4)), against the bounds in
BENCHMARK.json.

    python3 perfbench/spread.py --workload auth_mixed --seeds 1-10 --sets 2

A metric whose spread exceeds a third of its bound is marked "WIDE", one
whose spread exceeds the bound "OVER".  setup_s is marked the same way,
but its spread does not fail the check: each seed builds a different
fixture, so set-up times differ between seeds by more than noise.  With
--sets N the seed list is run N times, the sets alternating seed by seed,
and each later set's median is compared with the first set's: a change in
the metric's worse direction larger than its bound (setup_s included) is
marked "DRIFT".  Exits 1 when a run fails, a spread other than setup_s's
is over its bound, or a set drifts.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    if proc.returncode != 0 or not last.startswith("{"):
        print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout[-2000:]}"
              f"{proc.stderr[-2000:]}")
        return None
    return json.loads(last)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"]}
    values = [{} for _ in range(args.sets)]  # per set: metric -> values
    for seed in seed_list(args.seeds):
        for s in range(args.sets):
            result = run_once(args.workload, seed, bench["run_seconds"],
                              args.trace)
            if result is None:
                return 1
            row = {k: v["value"] for k, v in result["metrics"].items()}
            print(f"set {s + 1} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in row.items()),
                  flush=True)
            for k, v in row.items():
                values[s].setdefault(k, []).append(v)

    ok = True
    medians = []
    for s, by_metric in enumerate(values):
        medians.append({})
        for name, vals in by_metric.items():
            med = statistics.median(vals)
            medians[s][name] = med
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = spec.get(name, {}).get("bound")
            flag = ""
            if bound is not None and spread > bound:
                flag = "  OVER"
                ok = ok and name == "setup_s"
            elif bound is not None and spread > bound / 3:
                flag = "  WIDE"
            print(f"set {s + 1} {name:24s} median {med:14.6g}  "
                  f"iqr/median {spread:7.4f}  bound {bound}{flag}")
    for s in range(1, args.sets):
        for name, med in medians[s].items():
            first = medians[0].get(name)
            m = spec.get(name)
            if not first or m is None:
                continue
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (med - first) / first
            flag = ""
            if worse > m["bound"]:
                flag, ok = "  DRIFT", False
            print(f"set {s + 1} vs set 1 {name:24s} worse by {worse:+7.4f}  "
                  f"bound {m['bound']}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
