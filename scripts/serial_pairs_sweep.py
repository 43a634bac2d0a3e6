#!/usr/bin/env python3
"""Where does the owner-partitioned engine start to pay on two threads?

Writes two families of `[T=` products at sizes from 2k to 128k pairs and
runs `autocsp check --stats-json` on each at `--threads 1` and
`--threads 2`, alternating, reporting the median `explore_us` of each:

* ring products: 6 interleaved 3-cycles against an m-node cyclic spec that
  accepts any event (`ring_script` in tests/crash_matrix.rs);
* X.1373 dialogue-shaped products: interleaved VMG || ECU update
  dialogues of 2 to 9 messages, some relayed through an intruder on a
  hidden channel, against RUN over the dialogue channels (the shape of
  perfbench's explore_parallel models).

`--threads 2` times the partitioned engine from the root only in a build
with `SERIAL_PAIRS = 0` in crates/fdrlite/src/store.rs; the table in
EXPERIMENTS.md ("Where two threads start to pay") was made that way.

usage: scripts/serial_pairs_sweep.py AUTOCSP_BINARY [RUNS]
"""

import itertools
import json
import os
import statistics
import subprocess
import sys
import tempfile

TARGETS = [2048 << i for i in range(7)]


def ring_script(k, m):
    names = [chr(ord("a") + i) for i in range(k)]
    lines = ["datatype T = t1 | t2 | t3", "channel %s : T" % ", ".join(names)]
    for n in names:
        lines.append(f"P{n.upper()} = {n}.t1 -> {n}.t2 -> {n}.t3 -> P{n.upper()}")
    for i in range(m):
        choices = " [] ".join(f"{n}?x -> SPEC{(i + 1) % m}" for n in names)
        lines.append(f"SPEC{i} = {choices}")
    system = " ||| ".join(f"P{n.upper()}" for n in names)
    lines += [f"SYS = {system}", "assert SPEC0 [T= SYS"]
    return "\n".join(lines) + "\n"


def ring_near(target):
    # 3^6 implementation states; m divisible by 3 gives 3^6 * m / 3 pairs.
    m = max(3, round(3 * target / 729 / 3) * 3)
    return ring_script(6, m)


def dialogue_script(comps):
    lines = []
    for i, (length, relayed) in enumerate(comps):
        lines.append(f"channel c{i} : {{0..{length - 1}}}")
        if relayed:
            lines.append(f"channel u{i} : {{0..{length - 1}}}")
    parts = []
    for i, (length, relayed) in enumerate(comps):
        lines.append(f"V{i}(j) = c{i}.j -> V{i}((j+1)%{length})")
        lines.append(f"E{i}(j) = c{i}.j -> E{i}((j+1)%{length})")
        if relayed:
            lines.append(f"W{i}(j) = u{i}.j -> W{i}((j+1)%{length})")
            lines.append(f"N{i}(j) = u{i}.j -> c{i}.j -> N{i}((j+1)%{length})")
            lines.append(
                f"D{i} = ((W{i}(0) [| {{| u{i} |}} |] N{i}(0)) [| {{| c{i} |}} |] E{i}(0))"
                f" \\ {{| u{i} |}}"
            )
        else:
            lines.append(f"D{i} = V{i}(0) [| {{| c{i} |}} |] E{i}(0)")
        parts.append(f"D{i}")
    offers = " [] ".join(f"c{i}?j -> RUN" for i in range(len(comps)))
    lines += [f"SYSTEM = {' ||| '.join(parts)}", f"RUN = {offers}", "assert RUN [T= SYSTEM"]
    return "\n".join(lines) + "\n"


def dialogues_near(target):
    # Dialogue states: one per message plus the unfolded initial term, two
    # per message when relayed. At least one relayed dialogue.
    kinds = [(n, False) for n in range(2, 10)] + [(n, True) for n in range(2, 10)]
    best = None
    for k in range(3, 6):
        for comps in itertools.combinations_with_replacement(kinds, k):
            if not any(relayed for _, relayed in comps):
                continue
            size = 1
            for n, relayed in comps:
                size *= (2 * n if relayed else n) + 1
            miss = abs(size - target) / target
            if best is None or miss < best[0]:
                best = (miss, comps)
    return dialogue_script(best[1])


def explore(binary, path, threads):
    with tempfile.NamedTemporaryFile(suffix=".json") as out:
        subprocess.run(
            [binary, "check", path, "--threads", str(threads), "--stats-json", out.name],
            check=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        stats = json.load(open(out.name))[0]["stats"]
    return stats["pairs_discovered"], stats["explore_us"] / 1000.0


def main():
    binary, runs = sys.argv[1], int(sys.argv[2]) if len(sys.argv) > 2 else 5
    print("| family | pairs | 1 thread (ms) | 2 threads (ms) | 2 / 1 |")
    print("|---|---:|---:|---:|---:|")
    with tempfile.TemporaryDirectory() as tmp:
        for family, make in [("ring", ring_near), ("X.1373 dialogues", dialogues_near)]:
            for target in TARGETS:
                path = os.path.join(tmp, "model.csp")
                with open(path, "w") as f:
                    f.write(make(target))
                times = {1: [], 2: []}
                for _ in range(runs):
                    for threads in (1, 2):
                        pairs, ms = explore(binary, path, threads)
                        times[threads].append(ms)
                one, two = statistics.median(times[1]), statistics.median(times[2])
                print(f"| {family} | {pairs} | {one:.2f} | {two:.2f} | {two / one:.2f} |")


if __name__ == "__main__":
    main()
