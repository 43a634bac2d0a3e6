#!/usr/bin/env python3
"""Non-test lines of Rust source, per directory.

usage: scripts/loc.py DIR...

For each DIR, counts the lines of every `.rs` file under it that come
before the file's first `#[cfg(test)]` (the whole file when it has none),
and prints two totals: all those lines, and those that are neither blank
nor comments (a line whose first non-blank characters are `//`). With
more than one DIR it also prints the sum.
"""

import sys
from pathlib import Path


def count(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    total = code = 0
    for line in lines:
        text = line.strip()
        if text.startswith("#[cfg(test)]"):
            break
        total += 1
        if text and not text.startswith("//"):
            code += 1
    return total, code


def main(dirs):
    if not dirs:
        sys.exit(__doc__.strip())
    sums = [0, 0]
    for d in dirs:
        files = sorted(Path(d).rglob("*.rs"))
        if not files:
            sys.exit(f"{d}: no .rs files")
        total = code = 0
        for f in files:
            t, c = count(f)
            total += t
            code += c
        sums[0] += total
        sums[1] += code
        print(f"{d}: {total} lines, {code} without blank and comment lines")
    if len(dirs) > 1:
        print(f"total: {sums[0]} lines, {sums[1]} without blank and comment lines")


if __name__ == "__main__":
    main(sys.argv[1:])
