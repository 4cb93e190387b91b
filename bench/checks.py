"""Output checks: every run's written CSVs against the acceptance gates.

The checks read what a run wrote and evaluate it through cchlab's public
functions.  They use the acceptance tolerances, not byte equality, so a
change that legitimately moves the last bits (a different FFT layout, say)
still passes.  Pinned values apply to the canonical inputs (seed 0) only.
"""

from __future__ import annotations

import csv
import glob
import math
import os
from dataclasses import dataclass, field

from program import import_cchlab

# Pinned acceptance values (tests/test_acceptance.py, rel = 1e-9).
PINS_BUMP_PAIR = {"H0": 0.05733115174135265, "P0": 2.6639628970083766,
                  "Eu_plus1": 0.3537352615097139}
PINS_COMPLEX = {"H0": 0.6974295933462817, "E_plus_005": 4.25817035358418}
PIN_REL = 1e-9
DRIFT_FIELD = 1e-6
PULLBACK_FACTOR = 1e-4
AMP_DRIFT = 1e-10
HAM_DRIFT = 1e-8
PERIOD_ABS = 1e-6
SWAP_ERROR = 1.1e-5
CALIBRATION_PERIOD, CALIBRATION_TOL = 3.6, 0.05
FIELD_SNAPSHOTS = (0.5, 1.0)


@dataclass
class Verdict:
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(message)


def read_columns(path: str) -> dict[str, list[float]]:
    """CSV file as {column: values}; empty cells read as NaN."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if len(rows) < 2:
        raise ValueError(f"{path} holds no data rows")
    header = rows[0]
    columns: dict[str, list[float]] = {name: [] for name in header}
    for row in rows[1:]:
        if len(row) != len(header):
            raise ValueError(f"{path}: row of {len(row)} cells under {len(header)} columns")
        for name, cell in zip(header, row):
            columns[name].append(float(cell) if cell else math.nan)
    return columns


def drift(values: list[float]) -> float:
    ref = max(abs(values[0]), 1e-300)
    return max(abs(v - values[0]) for v in values) / ref


def close(value: float, expected: float, rel: float) -> bool:
    return abs(value - expected) <= rel * abs(expected)


def _at(cols: dict[str, list[float]], name: str, t: float) -> float:
    for ti, value in zip(cols["t"], cols[name]):
        if abs(ti - t) <= 1e-9:
            return value
    raise ValueError(f"no row at t = {t}")


def check_bump_pair(out: str, config_text: str, canonical: bool) -> Verdict:
    """Tracked characteristics run: conservation, monotone moments, pullback
    bound at every snapshot, and the field dumps."""
    cchlab = import_cchlab()
    verdict = Verdict()
    cols = read_columns(out)
    cfg = cchlab.parse_config(config_text)
    g = cchlab.build_grid(cfg)
    m0, _ = cchlab.build_initial_condition(cfg, g)
    expected_rows = round(cfg.t_end / cfg.output_every) + 1
    verdict.require(len(cols["t"]) == expected_rows,
                    f"{len(cols['t'])} snapshot rows, expected {expected_rows}")
    h, p = cols["H"], cols["P"]
    verdict.require(drift(h) < DRIFT_FIELD, f"H drift {drift(h):.3e} >= {DRIFT_FIELD}")
    verdict.require(drift(p) < DRIFT_FIELD, f"P drift {drift(p):.3e} >= {DRIFT_FIELD}")
    e_plus, e_minus = cols["E_plus"], cols["E_minus"]
    verdict.require(all(b > a for a, b in zip(e_plus, e_plus[1:])),
                    "E_+ not strictly increasing")
    verdict.require(all(b < a for a, b in zip(e_minus, e_minus[1:])),
                    "E_- not strictly decreasing")
    bound = PULLBACK_FACTOR * m0.max_abs()
    residuals = cols["pullback_residual"]
    verdict.require(all(r < bound for r in residuals),
                    f"pullback residual {max(residuals):.3e} >= {bound:.3e}")
    verdict.notes.append(f"pullback residual max {max(residuals):.3e} (bound {bound:.3e})")
    if canonical:
        for label, value in (("H0", h[0]), ("P0", p[0]),
                             ("Eu_plus1", _at(cols, "Eu_plus", 1.0))):
            verdict.require(close(value, PINS_BUMP_PAIR[label], PIN_REL),
                            f"{label} = {value!r}, pinned {PINS_BUMP_PAIR[label]!r}")
    _check_field_dump(verdict, cchlab, g, out, cols)
    return verdict


def _check_field_dump(verdict: Verdict, cchlab, g, out: str,
                      cols: dict[str, list[float]]) -> None:
    """The dumped (u, v) blocks must give back the energy the run recorded."""
    root, ext = os.path.splitext(out)
    dump = read_columns(f"{root}_fields{ext or '.csv'}")
    times = sorted(set(dump["t"]))
    verdict.require(times == list(FIELD_SNAPSHOTS),
                    f"field dumps at t = {times}, expected {list(FIELD_SNAPSHOTS)}")
    verdict.require(len(dump["t"]) == len(times) * g.n_points,
                    f"{len(dump['t'])} field rows for {len(times)} blocks of {g.n_points}")
    if not verdict.ok:
        return
    for k, t in enumerate(times):
        block = slice(k * g.n_points, (k + 1) * g.n_points)
        u = cchlab.Field(g, dump["u"][block])
        v = cchlab.Field(g, dump["v"][block])
        energy = cchlab.energy_H(u, v)
        recorded = _at(cols, "H", t)
        verdict.require(close(energy, recorded, PIN_REL),
                        f"field dump at t = {t} gives H = {energy!r}, CSV has {recorded!r}")


def check_complex(out: str, config_text: str, canonical: bool) -> Verdict:
    """Complex reduction: energy conservation plus the t = 0.05 moment pin.

    E_+/- after t = 0.5 are not gated: at the seed they jump by orders of
    magnitude between t = 0.5 and 0.6 while H holds to 1e-16, which looks
    like a diagnostics defect rather than dynamics.  The jump is reported
    as a note.
    """
    cchlab = import_cchlab()
    verdict = Verdict()
    cols = read_columns(out)
    cfg = cchlab.parse_config(config_text)
    expected_rows = round(cfg.t_end / cfg.output_every) + 1
    verdict.require(len(cols["t"]) == expected_rows,
                    f"{len(cols['t'])} snapshot rows, expected {expected_rows}")
    h = cols["H"]
    verdict.require(drift(h) < DRIFT_FIELD, f"H drift {drift(h):.3e} >= {DRIFT_FIELD}")
    if canonical:
        e005 = _at(cols, "E_plus", 0.05)
        verdict.require(close(h[0], PINS_COMPLEX["H0"], PIN_REL),
                        f"H0 = {h[0]!r}, pinned {PINS_COMPLEX['H0']!r}")
        verdict.require(close(e005, PINS_COMPLEX["E_plus_005"], PIN_REL),
                        f"E_plus(0.05) = {e005!r}, pinned {PINS_COMPLEX['E_plus_005']!r}")
    jumps = ", ".join(f"{name} {_at(cols, name, 0.5):.4g} -> {_at(cols, name, 0.6):.4g}"
                      for name in ("E_plus", "E_minus"))
    verdict.notes.append(f"suspected diagnostics defect (not gated): from t = 0.5 to 0.6 "
                         f"{jumps} while H drift is {drift(h):.1e}")
    return verdict


def _waltz(verdict: Verdict, cchlab, path: str, cfg,
           canonical: bool) -> tuple[float, float]:
    """Gate one peakon CSV; returns (initial separation, measured period).

    The swap error is gated on the canonical inputs only.  It is not a
    seed-independent gate: for starting separations in (0, ~3e-3] the
    half turn falls on a near-collision whose amplitude exchange is shorter
    than the output step, and measure_waltz reads 1e-4 to 3e-3 from the CSV
    while the period still matches the closed form to 1e-7.  Above the
    acceptance bound it is reported as a note.
    """
    cols = read_columns(path)
    name = os.path.basename(path)
    rows = round(cfg.t_end / cfg.dt) + 1
    verdict.require(len(cols["t"]) == rows and cols["t"][-1] == cfg.t_end,
                    f"{name}: {len(cols['t'])} rows to t = {cols['t'][-1]}, "
                    f"expected {rows} to t = {cfg.t_end}")
    amp_total, ham = cols["amp_total"], cols["hamiltonian"]
    amp_drift = max(abs(a - amp_total[0]) for a in amp_total)
    verdict.require(amp_drift < AMP_DRIFT, f"{name}: amplitude drift {amp_drift:.3e}")
    verdict.require(drift(ham) < HAM_DRIFT, f"{name}: hamiltonian drift {drift(ham):.3e}")
    traj = [cchlab.PeakonState(t, [q], [m], [r], [n]) for t, q, m, r, n in zip(
        cols["t"], cols["q_0"], cols["m_amp_0"], cols["r_0"], cols["n_amp_0"])]
    period, swap_error = cchlab.measure_waltz(traj)
    m1, n1 = cols["m_amp_0"][0], cols["n_amp_0"][0]
    separation = cols["r_0"][0] - cols["q_0"][0]
    exact = cchlab.waltz_period_closed_form(m1, n1, separation)
    verdict.require(abs(period - exact) <= PERIOD_ABS,
                    f"{name}: period {period!r} vs closed form {exact!r}")
    if canonical:
        verdict.require(swap_error < SWAP_ERROR, f"{name}: swap error {swap_error:.3e}")
    elif swap_error >= SWAP_ERROR:
        verdict.notes.append(f"suspected measure_waltz defect (not gated off seed 0): "
                             f"{name}: swap error {swap_error:.3e} at separation "
                             f"{separation:.4g}")
    verdict.notes.append(f"{name}: separation {separation:.4g}, period {period:.6f}, "
                         f"swap error {swap_error:.2e}")
    return separation, period


def check_peakon_waltz(out: str, config_text: str, canonical: bool) -> Verdict:
    cchlab = import_cchlab()
    verdict = Verdict()
    _waltz(verdict, cchlab, out, cchlab.parse_config(config_text), canonical)
    return verdict


def check_peakon_scan(out: str, config_text: str, canonical: bool) -> Verdict:
    """Every scan point gates like a waltz; the canonical scan must also find
    the calibration period 3.6 at separation 0 and nowhere else."""
    cchlab = import_cchlab()
    verdict = Verdict()
    root, ext = os.path.splitext(out)
    paths = sorted(glob.glob(f"{glob.escape(root)}_r*{ext}"))
    verdict.require(len(paths) == 3, f"{len(paths)} scan CSVs, expected 3")
    cfg = cchlab.parse_config(config_text)
    periods = dict(_waltz(verdict, cchlab, path, cfg, canonical) for path in paths)
    if canonical:
        matches = [sep for sep, period in periods.items()
                   if abs(period - CALIBRATION_PERIOD) <= CALIBRATION_TOL]
        verdict.require(matches == [0.0],
                        f"calibration period {CALIBRATION_PERIOD} found at {matches}")
    return verdict


CHECKS = {
    "bump_pair_tracked": check_bump_pair,
    "complex_reduction": check_complex,
    "peakon_waltz": check_peakon_waltz,
    "peakon_scan": check_peakon_scan,
}


def check(name: str, out: str, config_text: str, canonical: bool) -> Verdict:
    """Run a workload's gates; unreadable or missing output is a failure."""
    try:
        return CHECKS[name](out, config_text, canonical)
    except (OSError, ValueError, KeyError, ArithmeticError, RuntimeError) as err:
        return Verdict(failures=[f"output unreadable: {type(err).__name__}: {err}"])
