"""In-memory spans around cchlab's module boundaries, and self-time arithmetic.

A traced child run replaces the module attributes its callers resolve with
thin wrappers that record (name, start, end, parent).  The spans stay in
memory and are written out once, when the run ends.  A span's self time is
its duration minus the part of it that its direct children cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int    # index of the enclosing span, -1 at top level


# (module, attribute, span name).  The attribute is the name the caller looks
# up at call time, so functions imported into another module are wrapped
# where they were imported to.
BOUNDARIES = (
    ("cchlab.runner", "execute", "runner.execute"),
    # cli's sweep worker calls the copy of execute imported into cli.
    ("cchlab.cli", "execute", "runner.execute"),
    ("cchlab.solver", "evolve", "solver.evolve"),
    ("cchlab.solver", "advance_with_stages", "characteristics.advance_with_stages"),
    ("cchlab.diagnostics", "compute_record", "diagnostics.compute_record"),
    ("cchlab.diagnostics", "pullback_residual", "characteristics.pullback_residual"),
    ("cchlab.peakons", "evolve_peakons", "peakons.evolve_peakons"),
    ("cchlab.peakons", "peakon_hamiltonian", "peakons.peakon_hamiltonian"),
    ("cchlab.peakons", "measure_waltz", "peakons.measure_waltz"),
)


class Tracer:
    """Records spans for the functions it wraps, in call order."""

    def __init__(self) -> None:
        self._records: list[list] = []    # [name, start, end, parent]
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self._records)
            record = [name, time.perf_counter(), 0.0, parent]
            self._records.append(record)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every boundary in ``modules`` ({module name: module})."""
        for module_name, attr, span_name in BOUNDARIES:
            module = modules[module_name]
            setattr(module, attr, self.wrap(span_name, getattr(module, attr)))

    def spans(self) -> list[Span]:
        return [Span(*record) for record in self._records]

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([list(s) for s in self.spans()], handle)


def load(path: str) -> list[Span]:
    with open(path) as handle:
        return [Span(*row) for row in json.load(handle)]


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus its direct children's coverage."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append((span.start, span.end))
    return {i: (s.end - s.start) - covered(children[i], s.start, s.end)
            for i, s in enumerate(spans)}


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total duration and total self time."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for i, span in enumerate(spans):
        entry = out[span.name]
        entry["count"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own[i]
    return dict(out)
