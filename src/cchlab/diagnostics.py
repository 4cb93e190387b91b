"""Conserved quantities, exponential moments, tails, and support measures.

Everything here is a pure function of a snapshot.  A support is the index
span of the samples above a threshold frozen from the initial data
(``settings_from_initial``).  The exponentially weighted integrals (moments
of e^{+y} and e^{-y} against the momenta) run over the span of their
momentum rather than the whole window: the weights reach e^{L} at the
window edge, which would amplify harmless round-off ripple far from the
solution into leading-order noise.  A contamination guard rejects snapshots
whose fields approach the window edge, since then the periodic window can
no longer stand in for the real line.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import inf
from typing import Optional, get_type_hints

import numpy as np

from .characteristics import CharacteristicSet, pullback_residual
from .errors import DomainTooSmallError, MeasurementError
from .grid import Field, Grid
from .solver import PdeState, recover_velocity

__all__ = [
    "DEFAULT_SUPPORT_FACTOR",
    "DEFAULT_TAIL_TOLERANCE",
    "DiagnosticsRecord",
    "DiagnosticsSettings",
    "settings_from_initial",
    "energy_H",
    "momentum_P",
    "support_measure",
    "boundary_contamination",
    "exp_moments",
    "quadrature_noise_floor",
    "moment_rate_check",
    "tail_slope",
    "zero_integral_check",
    "compute_record",
    "CSV_COLUMNS",
    "record_header",
    "record_row",
]

# Support threshold as a fraction of the initial field magnitude.  Smooth
# compact data carries a spectral tail of ~1e-9 relative at the dealiasing
# cutoff that steepens during evolution (measured up to ~1e-7 relative by
# t = 1 on width-3 bumps at n_points = 2048); the threshold must sit above
# that numerical floor yet far below genuine exponential tails, which cross
# it within a few hundredths of a time unit.
DEFAULT_SUPPORT_FACTOR = 1e-7
# Relative window-edge contamination above which exponentially weighted
# measurements are rejected.
DEFAULT_TAIL_TOLERANCE = 1e-8
# Width of the outer band of the window that boundary_contamination weighs.
_CONTAMINATION_BAND = 2.0
# Widening of the measured support on each side before the exact weighted
# moments are evaluated at its ends (see _moment_pair).
_MOMENT_MARGIN = 2.0
# tail_slope fits log|u| over at most _TAIL_FIT_WIDTH beyond the support edge,
# kept _TAIL_EDGE_MARGIN away from the window boundary, on at least
# _TAIL_MIN_NODES usable nodes.
_TAIL_FIT_WIDTH = 10.0
_TAIL_EDGE_MARGIN = 2.0
_TAIL_MIN_NODES = 10


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One snapshot's worth of monitored quantities (CSV row); the supports
    of m, n and u are node intervals, None when no sample is above threshold."""

    t: float
    H: float
    P: float
    Eu_plus: float
    Eu_minus: float
    Ev_plus: float
    Ev_minus: float
    E_plus: float
    E_minus: float
    supp_m: Optional[tuple[float, float]]
    supp_n: Optional[tuple[float, float]]
    supp_u: Optional[tuple[float, float]]
    tail_slope_left: float
    tail_slope_right: float
    max_abs: float
    boundary_contamination: float
    pullback_residual: Optional[float] = None


# The CSV table is the record's fields in order, pullback_residual (the last)
# in tracked runs only, under one rule: an interval field <name> is written as
# <name>_lo and <name>_hi, both empty when unmeasured.
_HINTS = get_type_hints(DiagnosticsRecord)
_TABLE = tuple((f.name, _HINTS[f.name] == Optional[tuple[float, float]])
               for f in fields(DiagnosticsRecord))


def record_header(with_pullback: bool) -> list[str]:
    """The column names of record_row, in field order."""
    return [col for name, pair in _TABLE[:None if with_pullback else -1]
            for col in ((f"{name}_lo", f"{name}_hi") if pair else (name,))]


CSV_COLUMNS = tuple(record_header(False))


def record_row(rec: DiagnosticsRecord, with_pullback: bool) -> list[Optional[float]]:
    """The record's cells under record_header(with_pullback), None if unmeasured."""
    cells = ((getattr(rec, name) or (None, None)) if pair else (getattr(rec, name),)
             for name, pair in _TABLE[:None if with_pullback else -1])
    return [None if x is None else float(x) for cell in cells for x in cell]


@dataclass(frozen=True)
class DiagnosticsSettings:
    """Absolute support thresholds of m, n and u and the contamination
    tolerance, each positive and finite (ValueError naming the field): a NaN
    would compare false everywhere, emptying supports or passing any edge."""

    eps_m: float
    eps_n: float
    eps_u: float
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 < value < inf:
                raise ValueError(f"{f.name} must be positive and finite, got {value!r}")


def settings_from_initial(
    state0: PdeState,
    support_factor: float = DEFAULT_SUPPORT_FACTOR,
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE,
) -> DiagnosticsSettings:
    """Freeze the thresholds of m, n and u as support_factor times each
    initial magnitude (a zero field takes the largest of m, n, u and v)."""
    u0, v0 = recover_velocity(state0)
    scales = [f.max_abs() for f in (state0.m, state0.n, u0, v0)]
    fallback = max(max(scales), 1e-300)
    eps = [support_factor * (s if s > 0.0 else fallback) for s in scales[:3]]
    return DiagnosticsSettings(*eps, tail_tolerance=tail_tolerance)


def _require_same_grid(a: Field, b: Field) -> None:
    if a.grid != b.grid:
        raise ValueError("fields must live on the same grid")


def _energy(u: Field, u_x: np.ndarray, v: Field, v_x: np.ndarray) -> float:
    total = np.sum(u.values * v.values + u_x * v_x) * u.grid.spacing
    if u.is_complex or v.is_complex:
        return 0.5 * float(np.real(total))
    return float(total)


def energy_H(u: Field, v: Field) -> float:
    """Quadratic energy: sum over nodes of (u v + u_x v_x) * spacing.

    For a complex self-conjugate pair (v = conj u) the same sum is real and
    the energy is half of it: 0.5 * sum(|u|^2 + |u_x|^2) * spacing.
    """
    _require_same_grid(u, v)
    g = u.grid
    return _energy(u, g.deriv(u.values), v, g.deriv(v.values))


def momentum_P(m: Field, n: Field) -> float:
    """Total momentum: sum over nodes of (m + n) * spacing (real part)."""
    _require_same_grid(m, n)
    return float(np.real(np.sum(m.values + n.values)) * m.grid.spacing)


def _span(values: np.ndarray, eps: float) -> Optional[tuple[int, int]]:
    """(first, last) index of the samples with |value| > eps, or None."""
    idx = np.flatnonzero(np.abs(values) > eps)
    return (int(idx[0]), int(idx[-1])) if idx.size else None


def _interval(g: Grid, span: Optional[tuple[int, int]]) -> Optional[tuple[float, float]]:
    """The nodes at the ends of an index span (None for None)."""
    return None if span is None else (float(g.nodes[span[0]]), float(g.nodes[span[1]]))


def support_measure(f: Field, epsilon: float) -> Optional[tuple[float, float]]:
    """Smallest node interval containing every sample with |f| > epsilon.

    Returns None when no sample exceeds the threshold.
    """
    if not 0.0 < epsilon < inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    return _interval(f.grid, _span(f.values, epsilon))


def boundary_contamination(u: Field, v: Field) -> float:
    """Relative weighted field magnitude near the window edges.

    max over the outer band (|x| >= L - _CONTAMINATION_BAND) of
    max(|u|, |v|) * e^{L - |x|}, normalized by the overall field magnitude.
    Genuine e^{-|x|} tails keep this near e^{-L}; wrap-around contamination
    drives it up long before the moments are corrupted.
    """
    _require_same_grid(u, v)
    g = u.grid
    mag = np.maximum(np.abs(u.values), np.abs(v.values))
    overall = float(np.max(mag))
    if overall == 0.0:
        return 0.0
    band = np.abs(g.nodes) >= g.half_length - _CONTAMINATION_BAND
    weighted = mag[band] * np.exp(g.half_length - np.abs(g.nodes[band]))
    return float(np.max(weighted)) / overall


def _moment_pair(w: np.ndarray, w_x: np.ndarray, span: Optional[tuple[int, int]],
                 g: Grid) -> tuple[float, float]:
    """Exact (int e^{y} f dy, int e^{-y} f dy) over the measured support
    ``span`` of f = w - w'' (widened by _MOMENT_MARGIN on each side).

    With w the inverse Helmholtz image of f and w_x its spectral
    derivative, the integrands have the closed antiderivatives e^{y}(w - w')
    and -e^{-y}(w + w'), so the windowed integrals reduce to boundary
    evaluations -- no quadrature error, and the e^{|y|} weight never
    multiplies far-field round-off.  The margin pushes the boundary past
    the sub-threshold sliver of f, whose weighted mass (about eps * e^{edge})
    would otherwise dominate a genuinely vanishing moment; on an exponential
    tail of w the boundary term e^{±y}(w ∓ w') is constant in y, so the
    margin does not change nonzero moments.  An unmeasured support gives
    zeros; real parts are returned for complex fields.
    """
    if span is None:
        return 0.0, 0.0
    pad = int(round(_MOMENT_MARGIN / g.spacing))
    lo, hi = max(span[0] - pad, 0), min(span[1] + pad, g.n_points - 1)
    a, b = g.nodes[lo], g.nodes[hi]
    plus = (np.exp(b) * (w[hi] - w_x[hi])) - (np.exp(a) * (w[lo] - w_x[lo]))
    minus = (np.exp(-a) * (w[lo] + w_x[lo])) - (np.exp(-b) * (w[hi] + w_x[hi]))
    return float(np.real(plus)), float(np.real(minus))


def _check_contamination(u: Field, v: Field, tolerance: float) -> float:
    contamination = boundary_contamination(u, v)
    if contamination > tolerance:
        raise DomainTooSmallError(
            f"window-edge contamination {contamination:.3e} exceeds "
            f"{tolerance:.3e}: enlarge the window before trusting "
            f"exponentially weighted integrals"
        )
    return contamination


def exp_moments(m: Field, n: Field) -> tuple[float, float, float, float]:
    """Exponentially weighted momentum integrals (Eu_plus, Eu_minus,
    Ev_plus, Ev_minus): the moments of the record of (m, n) as an initial
    snapshot, under settings_from_initial.

    Eu_± integrates e^{±y} m(y) dy and Ev_± does the same with n, each over
    the support of its own momentum, through the exact antiderivative (see
    _moment_pair).  Complex momenta contribute their real parts (the
    self-conjugate pair sums to a real quantity).  Raises
    DomainTooSmallError when edge contamination exceeds
    DEFAULT_TAIL_TOLERANCE.
    """
    state = PdeState(0.0, m, n)
    rec = compute_record(state, settings_from_initial(state))
    return rec.Eu_plus, rec.Eu_minus, rec.Ev_plus, rec.Ev_minus


def quadrature_noise_floor(m: Field, n: Field) -> float:
    """Round-off scale of the weighted moment quadratures.

    Machine epsilon times the largest trapezoid of e^{±y}|f| over the
    support of f, for f in (m, n), under the thresholds of exp_moments;
    measured moments below a few of these are indistinguishable from zero.
    """
    settings = settings_from_initial(PdeState(0.0, m, n))
    g = m.grid
    scale = 1e-300
    for f, span in ((m, _span(m.values, settings.eps_m)), (n, _span(n.values, settings.eps_n))):
        if span is not None:
            y, mag = g.nodes[span[0]: span[1] + 1], np.abs(f.values[span[0]: span[1] + 1])
            scale = max(scale, *(float(np.trapezoid(np.exp(sign * y) * mag, dx=g.spacing))
                                 for sign in (+1, -1)))
    return float(np.finfo(np.float64).eps) * g.n_points * scale


def moment_rate_check(
    u: Field,
    v: Field,
    dE_plus_dt_fd: float,
    dE_minus_dt_fd: float,
) -> tuple[float, float]:
    """Relative gap between finite-difference moment rates and the closed
    quadrature forms dE_+/dt = ∫ e^{y} (2 u v + u_x v_x) dy and
    dE_-/dt = -∫ e^{-y} (2 u v + u_x v_x) dy.

    The integrand decays like e^{-2|y|}, so the full-window trapezoid is
    safe here (no support windowing needed).
    """
    _require_same_grid(u, v)
    _check_contamination(u, v, DEFAULT_TAIL_TOLERANCE)
    g = u.grid
    ux = g.deriv(u.values)
    vx = g.deriv(v.values)
    core = 2.0 * u.values * v.values + ux * vx
    rate_plus = float(np.real(np.trapezoid(np.exp(g.nodes) * core, dx=g.spacing)))
    rate_minus = -float(np.real(np.trapezoid(np.exp(-g.nodes) * core, dx=g.spacing)))
    gap_plus = abs(dE_plus_dt_fd - rate_plus) / max(abs(rate_plus), 1e-14)
    gap_minus = abs(dE_minus_dt_fd - rate_minus) / max(abs(rate_minus), 1e-14)
    return gap_plus, gap_minus


def tail_slope(u: Field, side: str, support_edge: float) -> float:
    """Least-squares slope of log|u| beyond the support edge.

    A pure exponential tail gives -1 on the right and +1 on the left.  The
    fit window extends _TAIL_FIT_WIDTH beyond the edge but stays
    _TAIL_EDGE_MARGIN away from the window boundary; nodes below 100 machine
    epsilons of the field magnitude are discarded.  Fewer than
    _TAIL_MIN_NODES qualifying nodes raise MeasurementError.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if u.is_complex:
        raise ValueError("tail slopes are defined for real fields")
    g = u.grid
    x = g.nodes
    floor = 100.0 * np.finfo(np.float64).eps * max(u.max_abs(), 1e-300)
    if side == "right":
        window = (x > support_edge) & (x <= min(support_edge + _TAIL_FIT_WIDTH,
                                                g.half_length - _TAIL_EDGE_MARGIN))
    else:
        window = (x < support_edge) & (x >= max(support_edge - _TAIL_FIT_WIDTH,
                                                -g.half_length + _TAIL_EDGE_MARGIN))
    window &= np.abs(u.values) > floor
    if int(window.sum()) < _TAIL_MIN_NODES:
        raise MeasurementError(
            f"only {int(window.sum())} usable nodes beyond the {side} support "
            f"edge {support_edge:g}; need {_TAIL_MIN_NODES}"
        )
    slope = np.polyfit(x[window], np.log(np.abs(u.values[window])), 1)[0]
    return float(slope)


def zero_integral_check(m: Field) -> tuple[float, float]:
    """The pair (∫ e^{y} m dy, ∫ e^{-y} m dy) over the measured support.

    Both vanish exactly when the Helmholtz inverse of a compactly supported
    m is itself compactly supported; a one-signed m makes both strictly
    positive (its inverse then has tails).  Evaluated through the exact
    antiderivative (see exp_moments), so a genuinely compact velocity gives
    values at far-field round-off level rather than at trapezoid-error
    level.
    """
    if m.is_complex:
        raise ValueError("zero-integral check is defined for real momenta")
    return exp_moments(m, m)[:2]


def compute_record(
    state: PdeState,
    settings: DiagnosticsSettings,
    cs: Optional[CharacteristicSet] = None,
    m0: Optional[Field] = None,
    n0: Optional[Field] = None,
) -> DiagnosticsRecord:
    """Evaluate every monitored quantity for one snapshot, in one pass: the
    velocities, their derivatives, the index spans of the supports of m, n
    and u and the contamination guard are each evaluated once and every
    column is derived from them.

    Tail slopes are fitted beyond the measured support of the matching
    momentum; when a slope (or a support) is not measurable the record
    stores NaN (or None) rather than failing the run.  When a
    characteristic set is supplied, the pullback defect (max of the m- and
    n-flow defects) is included, and the initial momenta m0 and n0 it is
    measured against must be supplied too (ValueError otherwise).
    """
    if cs is not None and (m0 is None or n0 is None):
        raise ValueError("a pullback defect needs both initial momenta m0 and n0")
    m, n = state.m, state.n
    g = m.grid
    u, v = recover_velocity(state)
    contamination = _check_contamination(u, v, settings.tail_tolerance)
    u_x, v_x = g.deriv(u.values), g.deriv(v.values)
    span_m, span_n = _span(m.values, settings.eps_m), _span(n.values, settings.eps_n)
    eu_p, eu_m = _moment_pair(u.values, u_x, span_m, g)
    ev_p, ev_m = _moment_pair(v.values, v_x, span_n, g)
    supp_m = _interval(g, span_m)
    u_real = u if not u.is_complex else Field(u.grid, np.abs(u.values))

    slopes = {"left": float("nan"), "right": float("nan")}
    for side, edge in zip(("left", "right"), supp_m or ()):
        try:
            slopes[side] = tail_slope(u_real, side, edge)
        except MeasurementError:
            pass

    residual = None if cs is None else max(pullback_residual(m, cs, m0, flow="m", t=state.t),
                                           pullback_residual(n, cs, n0, flow="n", t=state.t))

    return DiagnosticsRecord(
        t=state.t,
        H=_energy(u, u_x, v, v_x),
        P=momentum_P(m, n),
        Eu_plus=eu_p, Eu_minus=eu_m, Ev_plus=ev_p, Ev_minus=ev_m,
        E_plus=eu_p + ev_p, E_minus=eu_m + ev_m,
        supp_m=supp_m, supp_n=_interval(g, span_n),
        supp_u=_interval(g, _span(u.values, settings.eps_u)),
        tail_slope_left=slopes["left"], tail_slope_right=slopes["right"],
        max_abs=max(m.max_abs(), n.max_abs()),
        boundary_contamination=contamination,
        pullback_residual=residual,
    )
