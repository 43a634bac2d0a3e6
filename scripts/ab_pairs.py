#!/usr/bin/env python3
"""Alternating pairs of the benchmark command on two checkouts.

usage: scripts/ab_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SEED]

Builds perfbench (release) in both checkouts, then runs the command of
PARENT_DIR's BENCHMARK.json with `--workload WORKLOAD --seed SEED
--seconds <run_seconds> --trace 0` from each checkout's root, PAIRS times
on each side (default 10, seed 1). Pair i runs the parent first when i is
even and the change first when it is odd.

Every run must print `"correct":true`, and every run of both sides the
same `verdicts_digest`; otherwise the script exits 1. For each end-to-end
metric of BENCHMARK.json it prints each side's runs, median and
quartiles, the pairs the change won (ties count for neither), the
change/parent ratio of the medians, whether the change's median is worse
than the parent's by more than the metric's bound, and whether a gain
holds: the change wins at least 9/10 of the pairs and the medians differ
by more than the parent's interquartile range.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path


def build(checkout):
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "perfbench/Cargo.toml"],
        cwd=checkout, check=True)


def run_once(checkout, command, label):
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    header = next((l for l in lines if l.startswith("workload=")), "")
    fields = dict(f.split("=", 1) for f in header.split() if "=" in f)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {}
    if proc.returncode != 0 or result.get("correct") is not True:
        sys.stderr.write(proc.stderr)
        sys.exit(f"{label}: run failed (exit {proc.returncode}): {lines[-1:]}")
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return fields.get("verdicts_digest"), metrics


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def report(metric, parent, change, better, bound):
    wins = sum(
        (c > p) if better == "higher" else (c < p) for p, c in zip(parent, change)
    )
    print(f"\n{metric} ({better} is better, bound {bound})")
    medians = {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, q3 = quartiles(runs)
        medians[side] = statistics.median(runs)
        shown = " ".join(f"{v:.4g}" for v in runs)
        print(f"  {side}: {shown}")
        print(f"    median {medians[side]:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  IQR {q3 - q1:.4g}")
    base, new = medians["parent"], medians["change"]
    q1, q3 = quartiles(parent)
    ratio = new / base if base else float("nan")
    # The share by which the change's median is worse; negative when better.
    sign = 1 if better == "lower" else -1
    worse = sign * (new - base) / base if base else 0.0
    gain = wins * 10 >= 9 * len(parent) and abs(new - base) > q3 - q1 and worse < 0
    print(f"  change won {wins}/{len(parent)} pairs; change/parent median {ratio:.3f}")
    print(f"  {'REGRESSION beyond bound' if worse > bound else 'within bound'}; "
          f"gain rule {'met' if gain else 'not met'}")


def main():
    if len(sys.argv) not in (4, 5, 6):
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = Path(sys.argv[1]).resolve(), Path(sys.argv[2]).resolve()
    workload = sys.argv[3]
    pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
    seed = sys.argv[5] if len(sys.argv) > 5 else "1"
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    command = bench["command"] + [
        "--workload", workload, "--seed", seed,
        "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    for checkout in (parent, change):
        build(checkout)
    runs = {"parent": [], "change": []}
    first = None
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            label = f"pair {i} {side}"
            digest, metrics = run_once(parent if side == "parent" else change, command, label)
            if first is not None and digest != first:
                sys.exit(f"{label}: verdicts_digest={digest}, the first run printed {first}")
            first = digest
            runs[side].append(metrics)
            shown = " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
            print(f"{label}: {shown}", flush=True)
    print(f"\n{workload} seed {seed}: {pairs} pairs, verdicts_digest={first}")
    for m in bench["end_to_end"]:
        name = m["name"]
        report(name, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
               m["better"], m["bound"])


if __name__ == "__main__":
    main()
