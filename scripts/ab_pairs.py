#!/usr/bin/env python3
"""Alternating pairs of the benchmark command on two checkouts.

usage: scripts/ab_pairs.py PARENT_DIR CHANGE_DIR WORKLOAD [PAIRS] [SEED] [--trace K]

Builds perfbench (release) in both checkouts, then runs the command of
PARENT_DIR's BENCHMARK.json with `--workload WORKLOAD --seed SEED
--seconds <run_seconds> --trace 0` from each checkout's root, PAIRS times
on each side (default 10, seed 1). Pair i runs the parent first when i is
even and the change first when it is odd.

Every run must print `"correct":true`, and every run of both sides the
same `verdicts_digest`; otherwise the script exits 1. For each end-to-end
metric of BENCHMARK.json it prints each side's runs, median and
quartiles, the pairs the change won (ties count for neither), the
change/parent ratio of the medians, and whether a gain holds: the change
wins at least 9/10 of the pairs and the medians differ by more than the
parent's interquartile range. It calls the metric `unresolved` when
either side's interquartile range exceeds the metric's bound times the
parent's median, unless every change run beats every parent run: runs
that spread that widely cannot tell a regression within the bound from
one beyond it. Otherwise it says whether the change's median is worse
than the parent's by more than the bound. Each side's IQR relative to
the parent's median is printed beside it.

With `--trace K`, K alternating pairs of traced runs (`--trace 1`) follow
the untraced ones (PAIRS may be 0). For every per-layer metric of
BENCHMARK.json that either side reports, it prints each side's median and
the median over the pairs of the change/parent ratio.
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
    medians, iqrs = {}, {}
    for side, runs in (("parent", parent), ("change", change)):
        q1, q3 = quartiles(runs)
        medians[side], iqrs[side] = statistics.median(runs), q3 - q1
        shown = " ".join(f"{v:.4g}" for v in runs)
        print(f"  {side}: {shown}")
        print(f"    median {medians[side]:.4g}  q1 {q1:.4g}  q3 {q3:.4g}  IQR {q3 - q1:.4g}")
    base, new = medians["parent"], medians["change"]
    ratio = new / base if base else float("nan")
    # The share by which the change's median is worse; negative when better.
    sign = 1 if better == "lower" else -1
    worse = sign * (new - base) / base if base else 0.0
    gain = wins * 10 >= 9 * len(parent) and abs(new - base) > iqrs["parent"] and worse < 0
    # Each side's spread relative to the parent's median.
    spread = {side: iqr / base if base else float("inf") for side, iqr in iqrs.items()}
    beats_all = (max(change) < min(parent)) if better == "lower" else (min(change) > max(parent))
    if max(spread.values()) > bound and not beats_all:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "REGRESSION beyond bound"
    else:
        verdict = "within bound"
    print(f"  change won {wins}/{len(parent)} pairs; change/parent median {ratio:.3f}")
    print(f"  {verdict} (relative IQR parent {spread['parent']:.3f}, "
          f"change {spread['change']:.3f}); gain rule {'met' if gain else 'not met'}")


def alternate(parent, change, command, pairs, kind, first):
    """`pairs` alternating pairs of `command`; returns each side's metrics
    and the verdicts digest every run printed."""
    runs = {"parent": [], "change": []}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            label = f"{kind} pair {i} {side}"
            digest, metrics = run_once(parent if side == "parent" else change, command, label)
            if first is not None and digest != first:
                sys.exit(f"{label}: verdicts_digest={digest}, the first run printed {first}")
            first = digest
            runs[side].append(metrics)
            shown = " ".join(f"{k}={v:.4g}" for k, v in metrics.items())
            print(f"{label}: {shown}", flush=True)
    return runs, first


def report_layers(metrics, runs):
    """Each side's median and the median per-pair change/parent ratio of
    every per-layer metric either side reported."""
    print(f"\nper-layer metrics over {len(runs['parent'])} traced pairs: "
          "parent median, change median, median of change/parent")
    for m in metrics:
        name = m["name"]
        parent = [r.get(name) for r in runs["parent"]]
        change = [r.get(name) for r in runs["change"]]
        if all(v is None for v in parent + change):
            continue
        ratios = [c / p for p, c in zip(parent, change) if p and c is not None]
        shown = [
            f"{statistics.median(v for v in side if v is not None):.4g}"
            if any(v is not None for v in side) else "-"
            for side in (parent, change)
        ]
        ratio = f"{statistics.median(ratios):.3f}" if ratios else "-"
        print(f"  {name:32} {shown[0]:>10} {shown[1]:>10} {ratio:>7}  ({m['unit']}, "
              f"{m['better']} is better)")


def main():
    args = sys.argv[1:]
    trace_pairs = 0
    if "--trace" in args:
        at = args.index("--trace")
        trace_pairs = int(args[at + 1])
        del args[at:at + 2]
    if len(args) not in (3, 4, 5):
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = Path(args[0]).resolve(), Path(args[1]).resolve()
    workload = args[2]
    pairs = int(args[3]) if len(args) > 3 else 10
    seed = args[4] if len(args) > 4 else "1"
    bench = json.loads((parent / "BENCHMARK.json").read_text())
    command = bench["command"] + [
        "--workload", workload, "--seed", seed, "--seconds", str(bench["run_seconds"])]
    for checkout in (parent, change):
        build(checkout)
    runs, first = alternate(parent, change, command + ["--trace", "0"], pairs, "untraced", None)
    traced, first = alternate(parent, change, command + ["--trace", "1"], trace_pairs, "traced",
                              first)
    print(f"\n{workload} seed {seed}: {pairs} pairs, {trace_pairs} traced pairs, "
          f"verdicts_digest={first}")
    if pairs:
        for m in bench["end_to_end"]:
            name = m["name"]
            report(name, [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                   m["better"], m["bound"])
    if trace_pairs:
        report_layers(bench["per_layer"], traced)


if __name__ == "__main__":
    main()
