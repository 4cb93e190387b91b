"""Compare two output trees column by column.

    python3 tools/compare_outputs.py OUT_A OUT_B

reads two directories as ``tools/canonical_outputs.py`` writes them and
prints, for every file under either tree (by relative path, sorted):
- a file found in only one tree;
- for a CSV file, its row counts, the columns found in only one tree, and
  for each shared column, matched by name, either ``identical`` (every
  cell the same text) or the largest absolute difference of its cells;
- for any other file, such as a ``stdout.txt`` summary, ``identical`` or
  ``differs`` as bytes.

An empty cell is an unmeasured value: it equals only an empty cell, and
against a number it counts as an infinite difference, as do NaN against a
number and two different cells that are not numbers.  Exits 1 when a
shared column or file differs, the row counts of a file differ, or a
column or file of OUT_A is missing from OUT_B; columns and files that only
OUT_B has are reported but do not fail.  Standard library only.
"""

from __future__ import annotations

import csv
import math
import os
import sys


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(here, name), root)
            for here, _, names in os.walk(root) for name in names}


def _columns(path: str) -> tuple[dict[str, list[str]], int]:
    """The cells of each column of a CSV file by name, and its row count."""
    with open(path, newline="", encoding="utf-8") as handle:
        header, *rows = list(csv.reader(handle))
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}, len(rows)


def _cell_gap(a: str, b: str) -> float:
    if a == b:
        return 0.0
    if not a or not b:
        return math.inf
    try:
        x, y = float(a), float(b)
    except ValueError:  # text that is no number: the two differ, by no measure
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    gap = abs(x - y)
    return math.inf if math.isnan(gap) else gap


def compare_csv(path_a: str, path_b: str) -> tuple[list[str], bool]:
    """Report lines for one CSV file present in both trees, and whether it
    fails the comparison."""
    cols_a, rows_a = _columns(path_a)
    cols_b, rows_b = _columns(path_b)
    failed = rows_a != rows_b
    lines = [f"  rows: {rows_a}" if not failed else f"  rows: {rows_a} -> {rows_b}"]
    gone = [name for name in cols_a if name not in cols_b]
    new = [name for name in cols_b if name not in cols_a]
    if gone:
        failed = True
        lines.append(f"  only in A: {', '.join(gone)}")
    if new:
        lines.append(f"  only in B: {', '.join(new)}")
    width = max((len(name) for name in cols_a), default=0)
    for name, cells_a in cols_a.items():
        if name not in cols_b:
            continue
        cells_b = cols_b[name]
        if cells_a == cells_b:
            lines.append(f"  {name:<{width}}  identical")
            continue
        failed = True
        gap = max((_cell_gap(a, b) for a, b in zip(cells_a, cells_b)), default=0.0)
        lines.append(f"  {name:<{width}}  max |difference| {gap:.3e}")
    return lines, failed


def compare_trees(out_a: str, out_b: str) -> tuple[list[str], bool]:
    """Report lines for two output trees, and whether they fail the comparison."""
    files_a, files_b = _files(out_a), _files(out_b)
    lines: list[str] = []
    failed = False
    for rel in sorted(files_a | files_b):
        if rel not in files_b:
            failed = True
            lines.append(f"{rel}: only in A")
            continue
        if rel not in files_a:
            lines.append(f"{rel}: only in B")
            continue
        path_a, path_b = os.path.join(out_a, rel), os.path.join(out_b, rel)
        if rel.endswith(".csv"):
            report, differs = compare_csv(path_a, path_b)
            lines += [f"{rel}:"] + report
        else:
            with open(path_a, "rb") as a, open(path_b, "rb") as b:
                differs = a.read() != b.read()
            lines.append(f"{rel}: {'differs' if differs else 'identical'}")
        failed = failed or differs
    return lines, failed


if __name__ == "__main__":
    if len(sys.argv) != 3 or not all(os.path.isdir(arg) for arg in sys.argv[1:]):
        print("usage: python3 tools/compare_outputs.py OUT_A OUT_B (two directories)",
              file=sys.stderr)
        sys.exit(2)
    report, failed = compare_trees(sys.argv[1], sys.argv[2])
    print("\n".join(report))
    sys.exit(1 if failed else 0)
