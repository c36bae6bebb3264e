#!/usr/bin/env python3
"""Runs one workload of the end-to-end benchmark N times and prints, for
each end-to-end metric, its median and quartiles next to its bound.

Usage, from the root of a source tree:

    python3 e2ebench/repeat.py --workload NAME [--runs 10] [--first-seed 1]
                               [--seconds S] [--overhead]

Run i uses seed first-seed + i. The spread is the distance between the first
and third quartile (statistics.quantiles(values, n=4)) as a share of the
median; "steady" means it is below a third of the bound (setup_s is exempt
from the spread rule). Each seed's line also gives the share of CPU time the
hypervisor took from this virtual machine while the run lasted (the steal
column of /proc/stat, where it exists): on a shared host, sub-millisecond
tails and throughput move with it. --overhead also makes a traced run on
every seed and reports how far each end-to-end median of the traced runs
lies from the untraced one: the tracing overhead. The share of failed operations must be
the same in every run.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def cpu_ticks():
    """(steal, total) ticks of all CPUs from /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         check=False)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stdout + out.stderr)
        sys.exit("run failed: seed %d trace %d (exit %d)"
                 % (seed, trace, out.returncode))
    result = json.loads(lines[-1])
    e2e = next(json.loads(l[4:]) for l in lines if l.startswith("E2E "))
    return result, e2e


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    plain, traced, shares, steals = {}, {}, [], []
    for i in range(args.runs):
        seed = args.first_seed + i
        before = cpu_ticks()
        result, e2e = run_once(args.workload, seed, seconds, 0)
        steal = steal_share(before, cpu_ticks())
        if steal is not None:
            steals.append(steal)
        if not result["correct"]:
            sys.exit("seed %d: a check failed" % seed)
        shares.append((result["failed"], result["attempted"]))
        for name, m in e2e.items():
            plain.setdefault(name, []).append(m["value"])
        if args.overhead:
            _, e2e_t = run_once(args.workload, seed, seconds, 1)
            for name, m in e2e_t.items():
                traced.setdefault(name, []).append(m["value"])
        print("seed %d: %s%s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in e2e.items()),
            "" if steal is None else " steal=%.4f" % steal), flush=True)

    print("\nworkload %s, %d runs, %g s each" % (args.workload, args.runs,
                                                 seconds))
    print("%-20s %12s %12s %12s %8s %6s  %s" % (
        "metric", "q1", "median", "q3", "spread", "bound", "verdict"))
    for name, values in plain.items():
        q1, med, q3 = summary(values)
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]["bound"] if name in bounds else float("nan")
        if name == "setup_s":
            verdict = "exempt"
        elif spread < bound / 3:
            verdict = "steady"
        elif spread <= bound:
            verdict = "within bound"
        else:
            verdict = "TOO WIDE"
        print("%-20s %12.6g %12.6g %12.6g %8.4f %6.2f  %s" % (
            name, q1, med, q3, spread, bound, verdict))
    if args.overhead:
        print("\ntracing overhead (traced median / untraced median - 1):")
        for name, values in traced.items():
            base = statistics.median(plain[name])
            print("  %-20s %+.4f" % (
                name, statistics.median(values) / base - 1 if base else 0.0))
    if steals:
        print("\nsteal share per run: min %.4f, median %.4f, max %.4f" % (
            min(steals), statistics.median(steals), max(steals)))
    ratios = {f / a for f, a in shares}
    print("\nfailed/attempted per run: %s -> %s" % (
        ", ".join("%d/%d" % s for s in shares),
        "same share in every run" if len(ratios) == 1 else "SHARE DIFFERS"))


if __name__ == "__main__":
    main()
