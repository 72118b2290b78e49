#!/usr/bin/env python3
"""Run the benchmark several times, one seed per run, and report how much
each end-to-end metric spreads: the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median, next to the bound BENCHMARK.json fixes for it.

Run from the repository root:

    python3 perfbench/steadiness.py --workload cpackd-mixed --runs 10
    python3 perfbench/steadiness.py --workload all --runs 10 --log a.jsonl
    python3 perfbench/steadiness.py --workload all --runs 10 --seed 42 --log b.jsonl
    python3 perfbench/steadiness.py --compare a.jsonl b.jsonl

Runs take seeds --first-seed, --first-seed + 1, ... unless --seed repeats
one seed in every run. A metric is marked steady when its spread is below
a third of its bound. Every raw result line is appended to --log when
given. --compare reads two such logs and reports, per workload and
metric, how far the second set's median moved from the first's, and
whether it moved against the metric's direction by more than its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]),
        "--trace", str(trace),
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["meta"] = json.loads(lines[-2])["meta"] if len(lines) > 1 else {}
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result {lines[-1]}")
    return result, elapsed


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2


def load_log(path):
    """Metric values per (workload, metric) from a --log file."""
    values = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            for name, m in rec["result"]["metrics"].items():
                values.setdefault((rec["workload"], name), []).append(m["value"])
    return values


def compare(spec, first, second):
    a, b = load_log(first), load_log(second)
    worst = 0.0
    print(f"{'workload':<17}{'metric':<18}{'median A':>13}{'median B':>13}"
          f"{'shift':>9}{'bound':>7}  within")
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in a or key not in b:
                continue
            ma, mb = statistics.median(a[key]), statistics.median(b[key])
            shift = mb / ma - 1
            worse = shift if m["better"] == "lower" else -shift
            worst = max(worst, worse / m["bound"])
            print(f"{w['name']:<17}{m['name']:<18}{ma:>13.4f}{mb:>13.4f}"
                  f"{shift:>+9.3f}{m['bound']:>7.2f}  "
                  f"{'yes' if worse <= m['bound'] else 'NO'}")
    print(f"largest move against a metric's direction, as a share of its "
          f"bound: {worst:.3f}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="a workload name, or 'all'")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seed", type=int,
                    help="use this seed in every run instead")
    ap.add_argument("--log", help="append every result line to this file")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"),
                    help="compare the medians of two --log files")
    args = ap.parse_args()

    spec = load_spec()
    if args.compare:
        compare(spec, *args.compare)
        return
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    names = [w["name"] for w in spec["workloads"]]
    workloads = names if args.workload == "all" else [args.workload]
    worst = 0.0
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        walls = []
        for i in range(args.runs):
            seed = args.seed if args.seed is not None else args.first_seed + i
            result, wall = run_once(spec, workload, seed, 0)
            walls.append(wall)
            if args.log:
                with open(args.log, "a") as f:
                    f.write(json.dumps({"workload": workload, "seed": seed,
                                        "wall_s": wall, "result": result}) + "\n")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        seeds = (f"seed {args.seed} each" if args.seed is not None else
                 f"seeds {args.first_seed}..{args.first_seed + args.runs - 1}")
        print(f"== {workload}: {args.runs} runs, {seeds}, "
              f"wall {min(walls):.1f}-{max(walls):.1f} s")
        print(f"{'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}"
              f"{'bound':>7}  steady")
        for m in spec["end_to_end"]:
            med, q1, q3, s = spread(values[m["name"]])
            ok = s < m["bound"] / 3
            if m["name"] != "setup_s":
                worst = max(worst, s / m["bound"])
            print(f"{m['name']:<18}{med:>14.4f}{q1:>14.4f}{q3:>14.4f}{s:>9.4f}"
                  f"{m['bound']:>7.2f}  {'yes' if ok else 'NO'}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")


if __name__ == "__main__":
    main()
