"""cchlab benchmark: closed-loop runs of the real `cchlab` command.

    python3 bench/run_bench.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ``src/``.
One driver process spawns one child at a time (a sweep child uses at most
two pool workers, the machine's core count), waits for it, checks the CSVs
it wrote against the acceptance gates and only then records its timings.
A run that exits nonzero or fails a gate counts as failed and contributes
no timing.

--trace 0 measures the end-to-end metrics: child runs repeat until their
summed wall time reaches --seconds, and set-up is measured by separate
set-up-only children.  Each metric is the median over the run's samples.

--trace 1 measures the per-layer metrics: unit costs of single public calls
(micro.py), a fresh-interpreter import, one child run with spans around
each module boundary (spans.py) next to untraced runs of the same command,
whose difference is the tracing overhead, and one peakon_scan sweep on two
pool workers for the process pool's parallel efficiency.  The peakon_scan trace is of a
serial run (CCCH_THREADS=1), since pool workers would not report spans.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Earlier lines give each metric's median, its highest percentile with at
least ten samples beyond it, the sample counts, check notes and provenance.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Optional

import checks
import spans
from program import ROOT, SRC, WORK, ProgramMissing, import_cchlab
from workloads import WORKLOADS, Workload, make_inputs

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 150.0
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Single-run spread measured when the benchmark was defined: IQR/median of
# 6 repeated runs per workload on a 2-vCPU sandbox, CPU time tracking wall
# time.  It is why every figure here is a median over many runs.
SEED_SPREAD_NOTE = "6-27% IQR/median over 6 runs at the seed revision, cpu time tracking wall"

# Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "solver.evolve": "solver.march_self_s",
    "characteristics.advance_with_stages": "characteristics.advance_self_s",
    "diagnostics.compute_record": "diagnostics.records_self_s",
    "peakons.evolve_peakons": "peakons.evolve_self_s",
    "runner.execute": "runner.self_s",
}
# The diagnostics layer is predicted to move no end-to-end metric on these
# workloads while its traced self time stays below this share of wall time.
DIAGNOSTICS_SHARE_LIMIT = 0.01


class ChildFailed(RuntimeError):
    """A helper child (set-up, import, micro) did not finish cleanly."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    status: int
    stdout: str


def spawn(argv: list[str], env: dict[str, str]) -> Sample:
    """Run one child to completion; times spawn to exit and reads its rusage.

    The child gets its own session so that a timeout can stop its pool
    workers too.  It is waited for without reaping first, so the kill timer
    can never signal a recycled pid.
    """
    log_path = os.path.join(WORK, f"child-{os.getpid()}.log")
    with open(log_path, "w+b") as log:
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT, start_new_session=True)
        lock, exited = threading.Lock(), [False]

        def kill() -> None:
            with lock:
                if not exited[0]:
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.monotonic() - start
            with lock:
                exited[0] = True
        finally:
            timer.cancel()
            timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        log.seek(0)
        stdout = log.read().decode(errors="replace")
    os.remove(log_path)
    # wait4 reports the child together with the descendants it reaped (the
    # sweep's pool workers): summed CPU time and the largest resident set.
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode, stdout)


def child_env(threads: int) -> dict[str, str]:
    env = dict(os.environ)
    env["CCCH_THREADS"] = str(threads)
    env.pop("PYTHONPATH", None)
    return env


def helper(args: list[str], env: dict[str, str]) -> Sample:
    sample = spawn([sys.executable, CHILD] + args, env)
    if sample.status != 0:
        raise ChildFailed(f"child {args[0]} exited {sample.status}:\n{sample.stdout}")
    return sample


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


@dataclass
class Run:
    """One workload invocation: its inputs, output paths and tallies."""

    workload: Workload
    seed: int
    attempted: int = 0
    failed: int = 0

    def __post_init__(self) -> None:
        self.dir = os.path.join(WORK, self.workload.name)
        os.makedirs(self.dir, exist_ok=True)
        self.out = os.path.join(self.dir, "out.csv")
        self.inputs = make_inputs(self.workload.name, self.seed, self.out)
        self.config_path = os.path.join(self.dir, "scenario.cfg")
        with open(self.config_path, "w", encoding="utf-8") as handle:
            handle.write(self.inputs.config)
        self.notes: list[str] = []

    def cli_args(self) -> list[str]:
        if self.inputs.vary is None:
            return ["run", self.config_path]
        return ["sweep", self.config_path, "--vary", self.inputs.vary]

    def clear_outputs(self) -> None:
        for path in glob.glob(os.path.join(self.dir, "out*.csv")):
            os.remove(path)

    def output_bytes(self) -> int:
        return sum(os.path.getsize(p) for p in glob.glob(os.path.join(self.dir, "out*.csv")))

    def execute(self, threads: int, trace_path: str = "-") -> tuple[Sample, bool]:
        """One child run and its output check; the flag says whether it passed."""
        self.clear_outputs()
        sample = spawn([sys.executable, CHILD, "cli", trace_path] + self.cli_args(),
                       child_env(threads))
        self.attempted += 1
        if sample.status != 0:
            self.failed += 1
            print(f"run failed: exit status {sample.status}\n{sample.stdout}")
            return sample, False
        verdict = checks.check(self.workload.name, self.out, self.inputs.config,
                               self.inputs.canonical)
        if not verdict.ok:
            self.failed += 1
            print("output check failed: " + "; ".join(verdict.failures))
            return sample, False
        self.notes = verdict.notes
        return sample, True

    def setup_seconds(self) -> float:
        start = time.monotonic()
        sample = helper(["setup", self.config_path], child_env(1))
        return float(last_line(sample.stdout)) - start


def percentile_report(name: str, unit: str, values: list[float]) -> str:
    """Median, plus the highest of p90/p99/p99.9 with >= 10 samples beyond it."""
    text = f"{name}: median {statistics.median(values):.6g} {unit} (n={len(values)})"
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (1.0 - pct / 100.0) >= 10.0:
            q = statistics.quantiles(values, n=1000, method="inclusive")
            return text + f", p{pct:g} {q[int(round(pct * 10)) - 1]:.6g} {unit}"
    return text + ", no percentile has 10 samples beyond it"


def spread(values: list[float]) -> Optional[float]:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def provenance(numpy_version: str) -> dict:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    revision = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                      capture_output=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_revision": revision,
        "src_sha256": digest.hexdigest(),
        "thread_vars": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "seed_single_run_spread": SEED_SPREAD_NOTE,
    }


def declared(section: str) -> dict[str, str]:
    """{metric: unit} for one section of BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def measure_end_to_end(run: Run, seconds: float, units: dict[str, str]) -> dict[str, float]:
    wl = run.workload
    run.setup_seconds()  # warm-up: bytecode cache and page cache, not timed
    # Set-up samples are spread over the run, so that they see the same
    # machine conditions as the timed runs.
    setups: list[float] = []
    samples: list[Sample] = []
    busy = 0.0
    while busy < seconds:
        setups.append(run.setup_seconds())
        sample, ok = run.execute(wl.workers)
        busy += sample.wall_s
        if ok:
            samples.append(sample)
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.setup_seconds())
    if not samples:
        return {}
    walls = [s.wall_s for s in samples]
    cpus = [s.cpu_s for s in samples]
    series = {"wall_s": walls, "setup_s": setups, "cpu_s": cpus,
              "peak_rss_mb": [s.rss_mb for s in samples]}
    for name, values in series.items():
        print(percentile_report(name, units[name], values))
    wall, setup = statistics.median(walls), statistics.median(setups)
    within = spread(walls)
    print(f"single-run spread this run: wall IQR/median "
          f"{'n/a' if within is None else f'{within:.3f}'}, cpu/wall median "
          f"{statistics.median(c / w for c, w in zip(cpus, walls)):.3f}")
    return {"wall_s": wall, "setup_s": setup,
            "steps_per_s": wl.steps / (wall - setup),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": statistics.median(series["peak_rss_mb"])}


def measure_per_layer(run: Run) -> dict[str, float]:
    wl = run.workload
    env = child_env(1)
    metrics = json.loads(last_line(helper(["micro"], env).stdout))
    metrics["cli.import_s"] = statistics.median(
        float(last_line(helper(["import"], env).stdout)) for _ in range(IMPORT_SAMPLES))

    # The traced run is serial, and so are the untraced runs before and after
    # it, which bracket it in time so that slow drifts in machine speed
    # cancel out of the overhead.
    trace_path = os.path.join(run.dir, "spans.json")
    before = run.execute(1)
    traced = run.execute(1, trace_path)
    metrics["runner.csv_bytes"] = float(run.output_bytes())
    after = run.execute(1)
    # The process pool runs only in a sweep, so every traced run measures it
    # on the peakon_scan sweep of the same seed.
    scan = run if wl.workers > 1 else Run(WORKLOADS["peakon_scan"], run.seed)
    parallel = scan.execute(scan.workload.workers)
    if scan is not run:
        run.attempted += scan.attempted
        run.failed += scan.failed
    if not all(ok for _, ok in (before, traced, after, parallel)):
        return {}
    metrics["cli.parallel_efficiency"] = parallel[0].cpu_s / (
        parallel[0].wall_s * scan.workload.workers)
    traced_wall = traced[0].wall_s
    untraced_wall = statistics.median([before[0].wall_s, after[0].wall_s])
    metrics["trace.overhead_s"] = traced_wall - untraced_wall

    summary = spans.summarize(spans.load(trace_path))
    for span_name, metric in SELF_TIME_METRICS.items():
        metrics[metric] = summary.get(span_name, {}).get("self_s", 0.0)
    metrics["diagnostics.records"] = float(
        summary.get("diagnostics.compute_record", {}).get("count", 0))
    # The march's fixed-dt step count, on workloads whose trace shows it ran.
    metrics["solver.steps"] = float(wl.steps if "solver.evolve" in summary else 0)
    label = " (serial run, CCCH_THREADS=1)" if wl.workers > 1 else ""
    print(f"trace{label}: traced wall {traced_wall:.4f} s, untraced median "
          f"{untraced_wall:.4f} s over the runs before and after it")
    for name, entry in sorted(summary.items()):
        print(f"  span {name}: {entry['count']} calls, total {entry['total_s']:.4f} s, "
              f"self {entry['self_s']:.4f} s")
    share = metrics["diagnostics.records_self_s"] / traced_wall
    verdict = "predicted to move no end-to-end metric" if share <= DIAGNOSTICS_SHARE_LIMIT \
        else "large enough to move wall_s"
    print(f"diagnostics self time is {100 * share:.2f}% of traced wall_s: {verdict}")
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        import_cchlab()
    except ProgramMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    import numpy

    os.makedirs(WORK, exist_ok=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload} seed {args.seed}")
    print("provenance: " + json.dumps(provenance(numpy.__version__), sort_keys=True))
    try:
        if args.trace:
            units = declared("per_layer")
            values = measure_per_layer(run)
        else:
            units = declared("end_to_end")
            values = measure_end_to_end(run, args.seconds, units)
    except ChildFailed as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for note in run.notes:
        print(f"check note: {note}")
    failed = run.failed
    if values:
        failed_ratio = failed / run.attempted
        print(f"failed_ratio: {failed_ratio:.4g} ({failed} of {run.attempted} runs)")
        for name, unit in units.items():
            print(f"metric {name}: {values[name]!r} {unit}")
    result = {"correct": failed == 0 and bool(values), "attempted": run.attempted,
              "failed": failed,
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()} if values else {}}
    print(json.dumps(result))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
