"""Scenario orchestration: run a configured pipeline, write CSV, summarize.

Exit statuses: 0 = completed, 1 = configuration error, 2 = blow-up,
3 = measurement invalid (window too small for trustworthy exponentially
weighted diagnostics, or tracked characteristics that left the window or
whose ordering collapsed), 4 = unstable (the time step exceeded the
advective stability bound during the march).  A blow-up, invalid
measurement or instability met during a march still writes the output
completed so far.  A config has checked its values when built; a run can
still meet an output file it cannot write (check_outputs, as check does),
or a grid, time list or peakon path too large to allocate: status 1 and
one CONFIG ERROR line, before any output.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import characteristics as chars
from . import diagnostics as diag
from . import peakons as pk
from . import solver
from .config import (_SNAPSHOT_TOL, ScenarioConfig, build_grid, build_initial_condition,
                     output_times, parse_float_list)
from .errors import (BlowUpError, ConfigurationError, DomainTooSmallError,
                     MeasurementError, StabilityError)

__all__ = ["run_scenario", "execute", "check_outputs", "RunResult"]


@dataclass
class RunResult:
    """Exit status plus the human-readable summary lines."""

    status: int
    summary: list[str] = field(default_factory=list)
    records: list[diag.DiagnosticsRecord] = field(default_factory=list)


# Rows per block of a table: _write_csv formats and writes one block at a
# time, and _table_rows converts one with tolist(), so the Python floats of
# only one block are alive at a time.
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str, header: list[str], rows) -> None:
    """The header and rows as csv.writer writes them: cells joined by "," and
    lines ended by CR LF, a float as str(x), its repr, and None as an empty
    cell ("None" is in no str of a number).  No name or cell needs quoting."""
    line = ",".join(["%s"] * len(header)) + "\r\n"
    rows = iter(rows)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(header) + "\r\n")
        while block := list(islice(rows, _CSV_BLOCK_ROWS)):
            text = (line * len(block)) % tuple(chain.from_iterable(block))
            handle.write(text.replace("None", ""))


def _table_rows(*columns: np.ndarray):
    """Rows of the column-stacked float arrays, as Python floats, stacked
    and converted _CSV_BLOCK_ROWS rows at a time."""
    for lo in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        block = slice(lo, lo + _CSV_BLOCK_ROWS)
        yield from np.column_stack([c[block] for c in columns]).tolist()


def _fields_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}_fields{ext or '.csv'}"


def check_outputs(cfg: ScenarioConfig) -> None:
    """Probe every file a run of cfg writes (``out``, and its field snapshot
    file when snapshot_times is set): ConfigurationError names the first
    that cannot be opened for writing and the OS reason.  A file the probe
    creates is removed."""
    paths = [cfg.out, _fields_path(cfg.out)] if cfg.snapshot_times else [cfg.out]
    for path in paths:
        existed = os.path.lexists(path)
        try:
            open(path, "a").close()
        except OSError as err:
            raise ConfigurationError(f"cannot write output {path!r}: {err.strerror}") from None
        if not existed:
            os.remove(path)


def _write_field_snapshots(path: str, snaps: list[tuple[float, solver.PdeState]]) -> None:
    """(t, x, u, v, m, n) blocks, one row per node; complex data writes the
    real and imaginary parts of each field."""
    if not snaps:
        return
    is_complex = snaps[0][1].m.is_complex
    names = ["u", "v", "m", "n"]
    if is_complex:
        names = [f"{name}_{part}" for name in names for part in ("re", "im")]

    def rows():
        for t, state in snaps:
            u, v = solver.recover_velocity(state)
            cols = [f.values for f in (u, v, state.m, state.n)]
            if is_complex:
                cols = [part for w in cols for part in (w.real, w.imag)]
            nodes = state.grid.nodes
            yield from _table_rows(np.full(nodes.size, float(t)), nodes, *cols)

    _write_csv(path, ["t", "x"] + names, rows())


def _slope(x: float) -> str:
    return "not measured" if np.isnan(x) else f"{x:+.4f}"


def _drift(values: np.ndarray | list[float], scale: float = 0.0) -> float:
    """Largest deviation from the first value, relative to
    max(|first|, scale, 1e-14); the floor keeps all-zero data finite."""
    values = np.asarray(values)
    ref = max(abs(float(values[0])), scale, 1e-14)
    return float(np.max(np.abs(values - values[0]))) / ref


def _run_field_scenario(cfg: ScenarioConfig) -> RunResult:
    g = build_grid(cfg)
    m0, n0 = build_initial_condition(cfg, g)
    state0 = solver.PdeState(0.0, m0, n0, cfg.mode)
    settings = diag.settings_from_initial(
        state0, support_factor=cfg.epsilon_support, tail_tolerance=cfg.tail_tolerance)
    track = (chars.init_characteristics(g, stride=cfg.label_stride)
             if cfg.kind == "characteristics" else None)
    with_pullback = track is not None
    snapshot_times = parse_float_list(cfg.snapshot_times)

    records: list[diag.DiagnosticsRecord] = []
    field_snaps: list[tuple[float, solver.PdeState]] = []
    status = 0
    summary: list[str] = []

    def on_snapshot(state: solver.PdeState, cs) -> None:
        records.append(diag.compute_record(state, settings, cs=cs, m0=m0, n0=n0))
        if any(abs(state.t - ts) <= _SNAPSHOT_TOL for ts in snapshot_times):
            field_snaps.append((state.t, state))

    try:
        solver.evolve(state0, cfg.t_end, cfg.dt, output_times(cfg),
                      track=track, callback=on_snapshot,
                      blowup_factor=cfg.blowup_threshold)
    except BlowUpError as err:
        status = 2
        summary.append(f"BLOW-UP: {err}")
    except (DomainTooSmallError, FloatingPointError) as err:
        status = 3
        summary.append(f"MEASUREMENT INVALID: {err}")
    except StabilityError as err:
        status = 4
        summary.append(f"UNSTABLE: {err}")

    _write_csv(cfg.out, diag.record_header(with_pullback),
               (diag.record_row(rec, with_pullback) for rec in records))
    _write_field_snapshots(_fields_path(cfg.out), field_snaps)

    if records:
        hs = [r.H for r in records]
        ps = [r.P for r in records]
        summary.append(f"snapshots: {len(records)}   (CSV: {cfg.out})")
        # A P that is zero by symmetry is measured against the total
        # |momentum|, the scale of its round-off; for one-signed momenta
        # that scale is |P(0)| itself.
        p_scale = float(np.sum(np.abs(m0.values) + np.abs(n0.values)) * g.spacing)
        summary.append(f"H drift: {_drift(hs):.3e}   P drift: {_drift(ps, p_scale):.3e}")
        if len(records) >= 2 and all(r.supp_m is None and r.supp_n is None for r in records):
            summary.append("E_± monotonicity: not measured "
                           "(no momentum above the support threshold)")
        elif len(records) >= 2:
            up = all(b.E_plus > a.E_plus for a, b in zip(records, records[1:]))
            down = all(b.E_minus < a.E_minus for a, b in zip(records, records[1:]))
            summary.append(f"E_+ strictly increasing: {'PASS' if up else 'FAIL'}")
            summary.append(f"E_- strictly decreasing: {'PASS' if down else 'FAIL'}")
        last = records[-1]
        summary.append(f"tail slopes at t={last.t:g}: left {_slope(last.tail_slope_left)}, "
                       f"right {_slope(last.tail_slope_right)}")
        if with_pullback and last.pullback_residual is not None:
            summary.append(f"pullback residual at t={last.t:g}: "
                           f"{last.pullback_residual:.3e}")
    return RunResult(status, summary, records)


def _run_peakon_scenario(cfg: ScenarioConfig) -> RunResult:
    ps = pk.PeakonState(
        0.0,
        parse_float_list(cfg.q), parse_float_list(cfg.m_amps),
        parse_float_list(cfg.r), parse_float_list(cfg.n_amps),
    )
    summary: list[str] = []
    status = 0
    try:
        path = pk.evolve_peakon_path(ps, cfg.t_end, cfg.dt,
                                     blowup_factor=cfg.blowup_threshold)
    except BlowUpError as err:
        path = err.trajectory
        status = 2
        summary.append(f"BLOW-UP: {err}")

    m_count, n_count = ps.q.size, ps.r.size
    hams, totals = pk.peakon_path_invariants(path, m_count)
    header = (["t", "hamiltonian", "amp_total"]
              + [f"q_{a}" for a in range(m_count)] + [f"m_amp_{a}" for a in range(m_count)]
              + [f"r_{b}" for b in range(n_count)] + [f"n_amp_{b}" for b in range(n_count)])
    _write_csv(cfg.out, header, _table_rows(path[:, 0], hams, totals, path[:, 1:]))

    summary.append(f"samples: {len(path)}   (CSV: {cfg.out})")
    summary.append(f"amplitude total {totals[0]:g}: max |drift| "
                   f"{np.max(np.abs(totals - totals[0])):.3e}")
    summary.append(f"hamiltonian drift: {_drift(hams):.3e}")
    if m_count == 1 and n_count == 1 and status == 0:
        try:
            period, swap_error = pk.measure_waltz_path(path)
            summary.append(f"waltz period: {period:.6g}   swap error: {swap_error:.3e}")
        except MeasurementError as err:
            summary.append(f"waltz period: not measured ({err})")
    return RunResult(status, summary, [])


def execute(cfg: ScenarioConfig) -> RunResult:
    """Run a validated scenario; returns status plus summary lines."""
    try:
        check_outputs(cfg)
        if cfg.kind == "peakon":
            return _run_peakon_scenario(cfg)
        return _run_field_scenario(cfg)
    except ConfigurationError as err:
        return RunResult(1, [f"CONFIG ERROR: {err}"])


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute and print the summary; returns the exit status."""
    result = execute(cfg)
    for line in result.summary:
        print(line)
    return result.status
