"""Write the canonical seed-0 outputs of one source tree, for byte comparison.

    python3 tools/canonical_outputs.py SRC_TREE OUT_DIR

runs the four benchmark workloads (bump_pair_tracked, complex_reduction,
peakon_waltz, peakon_scan) with the seed-0 configs of
``bench/workloads.make_inputs`` through ``python -m cchlab.cli``, importing
cchlab from ``SRC_TREE/src``.  Each workload runs in ``OUT_DIR/<workload>/``
with the relative ``out`` path ``out.csv``, so it writes its CSVs (and the
tracked run its ``_fields.csv``) there, and its stdout, the run summary, goes
to ``stdout.txt`` beside them.  The configs stay in a temporary directory,
so that two trees can be compared, summaries included, with

    diff -r --brief OUT_A OUT_B

or column by column, by name, with ``tools/compare_outputs.py OUT_A OUT_B``.

The configs are used as they are; only their ``out`` path is chosen here.
OUT_DIR must be new or empty: a file left there by an earlier run would
survive and hide a file that this tree no longer writes.  Exits 1 if
OUT_DIR is anything but a missing or empty directory, a run fails or the
tree holds no cchlab sources.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import WORKLOADS, make_inputs  # noqa: E402


def write_outputs(src_tree: str, out_dir: str) -> int:
    src = os.path.join(os.path.abspath(src_tree), "src")
    if not os.path.isfile(os.path.join(src, "cchlab", "__init__.py")):
        print(f"no cchlab sources under {src}", file=sys.stderr)
        return 1
    if os.path.exists(out_dir) and (not os.path.isdir(out_dir) or os.listdir(out_dir)):
        print(f"{out_dir} exists and is not an empty directory", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONPATH=src, CCCH_THREADS="1")
    with tempfile.TemporaryDirectory() as work:
        for name in WORKLOADS:
            target = os.path.join(os.path.abspath(out_dir), name)
            os.makedirs(target, exist_ok=True)
            inputs = make_inputs(name, 0, "out.csv")
            config = os.path.join(work, f"{name}.cfg")
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(inputs.config)
            verb = ["run", config] if inputs.vary is None else [
                "sweep", config, "--vary", inputs.vary]
            done = subprocess.run([sys.executable, "-m", "cchlab.cli"] + verb, env=env,
                                  cwd=target, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{name}: exit {done.returncode}\n{done.stdout}{done.stderr}",
                      file=sys.stderr)
                return 1
            with open(os.path.join(target, "stdout.txt"), "w", encoding="utf-8") as handle:
                handle.write(done.stdout)
            print(f"{name}: wrote {', '.join(sorted(os.listdir(target)))}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print("usage: python3 tools/canonical_outputs.py SRC_TREE OUT_DIR", file=sys.stderr)
        sys.exit(2)
    sys.exit(write_outputs(sys.argv[1], sys.argv[2]))
