#!/usr/bin/env python3
"""Steadiness runs of one servebench workload.

Runs the benchmark N times on one workload, each run with another seed,
and prints for every metric the median, the quartiles, the spread
(interquartile distance as a share of the median) and the max/min ratio,
next to the bound BENCHMARK.json sets for it. With --sets 2 the runs
alternate between two sets and the script also prints how far the second
set's median lies from the first's, in the metric's worse direction.

Each run is the benchmark command of BENCHMARK.json. Run from the
repository root:

    python3 servebench/steady.py --workload prefix-burst --runs 5
    python3 servebench/steady.py --workload tight-pool --runs 10 --sets 2
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True)
    wall = time.monotonic() - t
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1]), wall


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    lo, hi = min(values), max(values)
    ratio = hi / lo if lo > 0 else float("inf")
    return med, q1, q3, spread, ratio


def worse_share(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    d = (second - first) / first
    return d if better == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10, help="runs per set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    cmd = spec["command"]
    seconds = a.seconds or spec["run_seconds"]
    by_name = {m["name"]: m for m in spec["end_to_end"]}

    sets = [[] for _ in range(a.sets)]
    walls = []
    seed = a.first_seed
    for i in range(a.runs):
        for s in range(a.sets):
            res, wall = run_once(cmd, a.workload, seed, seconds)
            walls.append(wall)
            sets[s].append(res)
            vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
            print(f"set {s} run {i} seed {seed}: {wall:.1f} s, correct {res['correct']}, "
                  f"attempted {res['attempted']}, failed {res['failed']} | {vals}", flush=True)
            seed += 1

    print(f"\n{a.workload}: {a.runs} runs x {a.sets} set(s), {seconds} s each, "
          f"wall per run median {statistics.median(walls):.1f} s, max {max(walls):.1f} s")
    for s, results in enumerate(sets):
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"set {s}: failed share(s) {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in results)}")
    header = f"{'metric':34} {'unit':8} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'max/min':>7} {'bound':>6}"
    if a.sets == 2:
        header += f" {'2nd worse':>9}"
    print(header)
    for name in results[0]["metrics"]:
        vals = [[r["metrics"][name]["value"] for r in results] for results in sets]
        unit = sets[0][0]["metrics"][name]["unit"]
        med, q1, q3, spread, ratio = summarize(vals[0])
        meta = by_name[name]
        bound = meta["bound"]
        flag = " OVER" if spread > bound else (" >1/3" if spread > bound / 3 else "")
        line = (f"{name:34} {unit:8} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f} "
                f"{ratio:7.3f} {bound:>6}")
        if a.sets == 2:
            med2 = statistics.median(vals[1])
            w = worse_share(med, med2, meta["better"])
            spread2 = summarize(vals[1])[3]
            line += f" {w:9.3f} (set 1 spread {spread2:.3f})"
            if w > bound:
                flag += " WORSE"
        print(line + flag)


if __name__ == "__main__":
    main()
