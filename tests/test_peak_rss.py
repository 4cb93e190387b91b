"""tools/peak_rss.py: exit code and peak RSS of one `cchlab run` child per config."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "peak_rss.py"


def _peak_rss(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd,
                          capture_output=True, text=True)


def test_each_config_reports_its_exit_code_and_peak(tmp_path):
    (tmp_path / "ok.cfg").write_text(
        "kind = peakon\nq = 0\nm_amps = 2\nr = 1\nn_amps = 1\nt_end = 0.01\nout = ok.csv\n")
    (tmp_path / "bad.cfg").write_text(
        "kind = peakon\nq = 0\nm_amps = 2\nr = 1\nn_amps = 1\nt_end = 0.01\n"
        "out = no_dir/bad.csv\n")
    done = _peak_rss(tmp_path, str(ROOT), "ok.cfg", "bad.cfg")
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert len(lines) == 2, done.stdout
    found = [re.fullmatch(r"(\S+)  exit (\d+)  peak_rss_mb (\d+\.\d)", line) for line in lines]
    assert [(m[1], int(m[2])) for m in found] == [("ok.cfg", 0), ("bad.cfg", 1)]
    assert all(0.0 < float(m[3]) < 1000.0 for m in found)
    # The children's summaries go to stderr; the run wrote its CSV here.
    assert "samples: 11" in done.stderr and "CONFIG ERROR" in done.stderr
    assert (tmp_path / "ok.csv").exists()


def test_a_tree_without_sources_is_refused(tmp_path):
    done = _peak_rss(tmp_path, str(tmp_path), "any.cfg")
    assert done.returncode == 2 and done.stdout == ""
    assert "usage" in done.stderr
