"""The four canonical cchlab workloads and their seeded inputs.

Seed 0 gives the canonical configs, which reproduce the acceptance-test
scenarios and therefore carry pinned values.  Any other seed jitters the
bump centres or the peakon separations slightly; such runs are checked only
against the seed-independent gates (drift bounds, monotone moments, the
pullback bound and the closed-form waltz period).

BENCHMARK.json lists only bump_pair_tracked and peakon_waltz.  On a shared
2-vCPU host, four workloads left too little run time each for their medians
to hold steady, and peakon_scan, whose two pool workers occupy both vCPUs,
spread 0.14-0.35 IQR/median over ten runs of 40-50 s against 0.13-0.18
for the single-process workloads.  complex_reduction and peakon_scan stay runnable
with --workload, with their output checks; every traced run still runs one
peakon_scan sweep for cli.parallel_efficiency.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Workload:
    """A workload's fixed shape; why each was chosen is in BENCHMARK.json."""

    name: str
    # Fixed-dt steps the run takes (summed over a sweep's points).
    steps: int
    # Number of sweep points run in parallel (1 for a single run).
    workers: int


WORKLOADS = {w.name: w for w in (
    Workload("bump_pair_tracked", 1000, 1),
    Workload("complex_reduction", 1000, 1),
    Workload("peakon_waltz", 13000, 1),
    Workload("peakon_scan", 19500, 2),
)}


@dataclass(frozen=True)
class Inputs:
    """What one child run of a workload is given."""

    config: str            # config document
    vary: Optional[str]    # --vary spec for a sweep, else None
    canonical: bool        # seed 0: the pinned acceptance values apply


def _jitter(rng: random.Random, width: float) -> float:
    return rng.uniform(-width, width)


def make_inputs(name: str, seed: int, out: str) -> Inputs:
    """Config (and sweep spec) for one workload; ``out`` is the CSV path."""
    rng = random.Random(seed)
    canonical = seed == 0
    # Small jitters keep every seed inside the regime the gates cover: the
    # bumps stay well inside the window and the waltz still completes one
    # orbit before t_end.
    if name == "bump_pair_tracked":
        dc1, dc2 = (0.0, 0.0) if canonical else (_jitter(rng, 0.1), _jitter(rng, 0.1))
        config = (
            "kind = characteristics\n"
            "half_length = 30\nn_points = 2048\n"
            "t_end = 1\ndt = 1e-3\noutput_every = 0.1\n"
            "label_stride = 4\nsnapshot_times = 0.5,1.0\n"
            f"m0 = bump({-2.0 + dc1!r}, 3, 1)\n"
            f"n0 = bump({2.0 + dc2!r}, 3, 1)\n"
            f"out = {out}\n")
        return Inputs(config, None, canonical)
    if name == "complex_reduction":
        # At the canonical input the window-edge contamination reaches 0.94
        # of its limit by t = 1, and it grows as the bumps move apart, so
        # the jitter only moves them towards each other.
        dc1, dc2 = (0.0, 0.0) if canonical else (rng.uniform(0.0, 0.1), -rng.uniform(0.0, 0.1))
        config = (
            "kind = complex\n"
            "half_length = 30\nn_points = 2048\n"
            "t_end = 1\ndt = 1e-3\noutput_every = 0.05\n"
            f"u0 = bump({-2.0 + dc1!r}, 8, 1)\n"
            f"u0_im = bump({2.0 + dc2!r}, 8, 0.5)\n"
            f"out = {out}\n")
        return Inputs(config, None, canonical)
    if name == "peakon_waltz":
        sep = 1.0 if canonical else 1.0 + _jitter(rng, 0.05)
        config = (f"kind=peakon q=0 m_amps=10 r={sep!r} n_amps=1\n"
                  f"t_end = 13\ndt = 1e-3\nout = {out}\n")
        return Inputs(config, None, canonical)
    if name == "peakon_scan":
        start = 0.0 if canonical else rng.uniform(0.0, 0.05)
        config = (f"kind=peakon q=0 m_amps=10 r={start!r} n_amps=1\n"
                  f"t_end = 6.5\ndt = 1e-3\nout = {out}\n")
        return Inputs(config, f"r={start!r}:{start + 0.4!r}:3", canonical)
    raise KeyError(f"unknown workload {name!r}")
