"""Scenario orchestration: run a configured pipeline, write CSV, summarize.

Exit statuses: 0 = completed, 1 = configuration error, 2 = blow-up,
3 = measurement invalid (window too small for trustworthy exponentially
weighted diagnostics, or tracked characteristics that left the window or
whose ordering collapsed), 4 = unstable (the time step exceeded the
advective stability bound during the march).  A blow-up, invalid
measurement or instability met during a march still writes the output
completed so far.  A config has checked its values when built; a run can
still meet a shape the grid rejects, or a time list or peakon path
too long to allocate: status 1 and one CONFIG ERROR line, before any output.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import characteristics as chars
from . import diagnostics as diag
from . import peakons as pk
from . import solver
from .config import (ScenarioConfig, build_grid, build_initial_condition,
                     output_times, parse_float_list)
from .errors import (BlowUpError, ConfigurationError, DomainTooSmallError,
                     MeasurementError, StabilityError)

__all__ = ["run_scenario", "execute", "RunResult"]


@dataclass
class RunResult:
    """Exit status plus the human-readable summary lines."""

    status: int
    summary: list[str] = field(default_factory=list)
    records: list[diag.DiagnosticsRecord] = field(default_factory=list)


# Rows per writerows call of a float table.  The csv module writes a Python
# float as str(x), which is repr(x), the form _fmt writes; converting the
# table with tolist() block by block keeps the Python floats of only one
# block alive at a time.
_CSV_BLOCK_ROWS = 1024


def _fmt(x: Optional[float]) -> str:
    if x is None:
        return ""
    return repr(float(x))


def _record_row(rec: diag.DiagnosticsRecord, with_pullback: bool) -> list[str]:
    supp_m = rec.supp_m or (None, None)
    supp_u = rec.supp_u or (None, None)
    row = [
        _fmt(rec.t), _fmt(rec.H), _fmt(rec.P),
        _fmt(rec.Eu_plus), _fmt(rec.Eu_minus), _fmt(rec.Ev_plus), _fmt(rec.Ev_minus),
        _fmt(rec.E_plus), _fmt(rec.E_minus),
        _fmt(supp_m[0]), _fmt(supp_m[1]), _fmt(supp_u[0]), _fmt(supp_u[1]),
        _fmt(rec.tail_slope_left), _fmt(rec.tail_slope_right),
        _fmt(rec.max_abs), _fmt(rec.boundary_contamination),
    ]
    if with_pullback:
        row.append(_fmt(rec.pullback_residual))
    return row


def _write_records_csv(path: str, records: list[diag.DiagnosticsRecord],
                       with_pullback: bool) -> None:
    header = list(diag.CSV_COLUMNS) + (["pullback_residual"] if with_pullback else [])
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for rec in records:
            writer.writerow(_record_row(rec, with_pullback))


def _fields_path(out: str) -> str:
    root, ext = os.path.splitext(out)
    return f"{root}_fields{ext or '.csv'}"


def _write_field_snapshots(path: str, snaps: list[tuple[float, solver.PdeState]]) -> None:
    if not snaps:
        return
    state0 = snaps[0][1]
    is_complex = state0.m.is_complex
    if is_complex:
        header = ["t", "x", "u_re", "u_im", "v_re", "v_im",
                  "m_re", "m_im", "n_re", "n_im"]
    else:
        header = ["t", "x", "u", "v", "m", "n"]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for t, state in snaps:
            u, v = solver.recover_velocity(state)
            cols: list[np.ndarray]
            if is_complex:
                cols = [u.values.real, u.values.imag, v.values.real, v.values.imag,
                        state.m.values.real, state.m.values.imag,
                        state.n.values.real, state.n.values.imag]
            else:
                cols = [u.values, v.values, state.m.values, state.n.values]
            nodes = state.grid.nodes
            writer.writerows(np.column_stack(
                [np.full(nodes.size, float(t)), nodes] + cols).tolist())


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
        if any(abs(state.t - ts) <= 1e-9 for ts in snapshot_times):
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

    _write_records_csv(cfg.out, records, with_pullback)
    _write_field_snapshots(_fields_path(cfg.out), field_snaps)

    if records:
        hs = [r.H for r in records]
        ps = [r.P for r in records]
        eplus = [r.E_plus for r in records]
        eminus = [r.E_minus for r in records]
        summary.append(f"snapshots: {len(records)}   (CSV: {cfg.out})")
        # A P that is zero by symmetry is measured against the total
        # |momentum|, the scale of its round-off; for one-signed momenta
        # that scale is |P(0)| itself.
        p_scale = float(np.sum(np.abs(m0.values) + np.abs(n0.values)) * g.spacing)
        summary.append(f"H drift: {_drift(hs):.3e}   P drift: {_drift(ps, p_scale):.3e}")
        if len(eplus) >= 2:
            up = all(b > a for a, b in zip(eplus, eplus[1:]))
            down = all(b < a for a, b in zip(eminus, eminus[1:]))
            summary.append(f"E_+ strictly increasing: {'PASS' if up else 'FAIL'}")
            summary.append(f"E_- strictly decreasing: {'PASS' if down else 'FAIL'}")
        last = records[-1]
        summary.append(
            f"tail slopes at t={last.t:g}: left {last.tail_slope_left:+.4f}, "
            f"right {last.tail_slope_right:+.4f}"
        )
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
    with open(cfg.out, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = (["t", "hamiltonian", "amp_total"]
                  + [f"q_{a}" for a in range(m_count)]
                  + [f"m_amp_{a}" for a in range(m_count)]
                  + [f"r_{b}" for b in range(n_count)]
                  + [f"n_amp_{b}" for b in range(n_count)])
        writer.writerow(header)
        for lo in range(0, len(path), _CSV_BLOCK_ROWS):
            rows = slice(lo, lo + _CSV_BLOCK_ROWS)
            writer.writerows(np.column_stack(
                (path[rows, 0], hams[rows], totals[rows], path[rows, 1:])).tolist())

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
        if cfg.kind == "peakon":
            return _run_peakon_scenario(cfg)
        return _run_field_scenario(cfg)
    except ConfigurationError as err:
        return RunResult(1, [f"CONFIG ERROR: {err}"])
    except MeasurementError as err:
        return RunResult(3, [f"MEASUREMENT INVALID: {err}"])


def run_scenario(cfg: ScenarioConfig) -> int:
    """Execute and print the summary; returns the exit status."""
    result = execute(cfg)
    for line in result.summary:
        print(line)
    return result.status
