"""tools/compare_outputs.py: the column-by-column report of two output trees."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def _tree(root: Path, files: dict[str, str]) -> Path:
    for rel, text in files.items():
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text(text, encoding="utf-8")
    return root


def _compare(a: Path, b: Path) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, str(TOOL), str(a), str(b)],
                          capture_output=True, text=True)
    return done.returncode, done.stdout.splitlines()


def test_added_columns_pass_and_each_shared_column_is_reported(tmp_path):
    a = _tree(tmp_path / "a", {"w/out.csv": "t,x\r\n0.0,\r\n1.0,nan\r\n",
                               "w/stdout.txt": "ok\n"})
    b = _tree(tmp_path / "b", {"w/out.csv": "t,y,x\r\n0.0,5,\r\n1.0,6,nan\r\n",
                               "w/stdout.txt": "ok\n", "w/new.csv": "t\r\n"})
    status, lines = _compare(a, b)
    assert status == 0
    assert lines == ["w/new.csv: only in B", "w/out.csv:", "  rows: 2", "  only in B: y",
                     "  t  identical", "  x  identical", "w/stdout.txt: identical"]


def test_a_moved_value_or_a_lost_column_fails(tmp_path):
    a = _tree(tmp_path / "a", {"out.csv": "t,x,z\r\n1.0,2.0,3\r\n2.0,,4\r\n",
                               "stdout.txt": "ok\n"})
    b = _tree(tmp_path / "b", {"out.csv": "t,x\r\n1.0000000000000002,2.0\r\n2.0,1.0\r\n",
                               "stdout.txt": "changed\n"})
    status, lines = _compare(a, b)
    assert status == 1
    assert lines == ["out.csv:", "  rows: 2", "  only in A: z",
                     "  t  max |difference| 2.220e-16", "  x  max |difference| inf",
                     "stdout.txt: differs"]
