"""Momentum-form time integration of the cross-coupled system.

The prognostic variables are the momentum densities (m, n); the velocities
u, v are recovered every stage by inverting 1 - d^2/dx^2.  Each momentum is
advected and stretched by the *other* family's velocity:

    m_t + 2 v_x m + v m_x = 0,        n_t + 2 u_x n + u n_x = 0,

with u = (1 - d^2/dx^2)^(-1) m and v likewise from n.  There is no
self-interaction term: setting m = n collapses both equations onto the
classical single-equation (Camassa-Holm) case, and setting n = conj(m)
gives the self-conjugate complex reduction.  Quadratic products are
dealiased by the two-thirds rule before and after multiplication.

The state is marched in spectral space: the evolved momenta are held as
Fourier coefficients, on the half spectrum (rfft) for real runs and the full
spectrum (fft) for complex runs.  The reductions are built into that state:
they evolve m alone and change only its ``partner``, the row whose velocity
carries it -- m itself for ch_reduction (n = m), conj(m) for
complex_conjugate (n = conj m) -- so both constraints hold exactly at every
step.  A right-hand-side stage makes one batched inverse transform that
builds (u, u_x, m, m_x) for every evolved row from the operator tables the
Grid precomputes, forms -2 w_x m - w m_x with w the partner's velocity, and
returns through one batched forward transform, with the stage's velocity
record (u, u_x, v, v_x).

Time stepping is the fixed-step RK4 of cchlab.march with an advective stability
guard and a loud blow-up guard; optional characteristic flows are advanced with
the step's four velocity records so the extended system retains fourth order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .characteristics import CharacteristicSet, advance_with_stages
from .errors import BlowUpError, ConfigurationError, StabilityError
from .grid import Field, Grid, Spectrum
from .march import DEFAULT_BLOWUP_FACTOR, blowup_limit, check_dt, rk4_step, substeps

__all__ = [
    "COUPLED",
    "CH_REDUCTION",
    "COMPLEX_CONJUGATE",
    "MODES",
    "PdeState",
    "Trajectory",
    "recover_velocity",
    "rhs_momentum",
    "rhs_complex_real_form",
    "step_rk4",
    "evolve",
    "evolve_real_form",
]

COUPLED = "coupled"
CH_REDUCTION = "ch_reduction"
COMPLEX_CONJUGATE = "complex_conjugate"
MODES = (COUPLED, CH_REDUCTION, COMPLEX_CONJUGATE)

# Tolerance with which PdeState accepts data on a reduction manifold
# (m == n, n == conj m); the march then keeps the constraint exactly.
_MODE_TOL = 1e-12
_REDUCTION_RULES = {CH_REDUCTION: "m == n", COMPLEX_CONJUGATE: "n == conj(m)"}


def partner(mode: str, rows: np.ndarray) -> np.ndarray:
    """The partner of each evolved row (first axis): the rows of a coupled
    state, (m, n), are each other's partners; a reduction's one row m has
    the partner m (ch_reduction) or conj(m) (complex_conjugate).  ``rows``
    may hold any per-row quantity, such as the momenta or their velocities.
    """
    if mode == COUPLED:
        return rows[::-1]
    return rows if mode == CH_REDUCTION else np.conj(rows)


@dataclass(frozen=True, eq=False)
class PdeState:
    """Momentum pair (m, n) at time t, plus the reduction mode in force."""

    t: float
    m: Field
    n: Field
    mode: str = COUPLED

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ConfigurationError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.m.grid != self.n.grid:
            raise ValueError("m and n must live on the same grid")
        if self.mode != COUPLED:
            n = partner(self.mode, self.m.values[None])[0]
            gap = float(np.max(np.abs(self.n.values - n)))
            if gap > _MODE_TOL * max(1.0, self.m.max_abs(), self.n.max_abs()):
                raise ValueError(f"{self.mode} requires {_REDUCTION_RULES[self.mode]} "
                                 f"(gap {gap:.3e})")

    @property
    def grid(self) -> Grid:
        return self.m.grid


@dataclass
class Trajectory:
    """Snapshots at the requested output times, in increasing-time order.

    When characteristics were tracked, ``characteristics[i]`` is the tracked
    set at ``states[i].t``; otherwise it is None.
    """

    states: list[PdeState]
    characteristics: Optional[list[CharacteristicSet]] = None

    @property
    def times(self) -> list[float]:
        return [s.t for s in self.states]


@dataclass(frozen=True)
class _Core:
    """How a state is held in spectral space: transform tables and rows.

    A coupled state has the rows (m, n); the reductions evolve m alone and
    derive n as its partner (see ``partner``).
    """

    grid: Grid
    sp: Spectrum
    mode: str

    @classmethod
    def of(cls, state: PdeState) -> "_Core":
        g = state.grid
        complex_data = state.m.is_complex or state.n.is_complex
        return cls(g, g.complex_spectrum if complex_data else g.real_spectrum, state.mode)

    def rows(self, state: PdeState) -> np.ndarray:
        """Physical samples of the evolved rows, shape (rows, nodes)."""
        if self.mode == COUPLED:
            return np.stack((state.m.values, state.n.values))
        return state.m.values[None]

    def spectral(self, state: PdeState) -> np.ndarray:
        """Fourier coefficients of the evolved rows, shape (rows, modes)."""
        return self.sp.forward(self.rows(state))

    def pair(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Physical (m, n) from physical rows."""
        return rows[0], partner(self.mode, rows)[0]

    def state(self, rows: np.ndarray, t: float) -> PdeState:
        m, n = self.pair(rows)
        return PdeState(t, Field(self.grid, m), Field(self.grid, n), self.mode)


def _stage(core: _Core, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One right-hand-side evaluation on a spectral state.

    One batched inverse transform builds (u, u_x, m, m_x) for every row,
    every factor projected onto the lower two thirds of the spectrum; each
    row's rate -2 w_x m - w m_x reads the velocity w of its partner, and the
    rates return through one batched forward transform, projected the same
    way.  Returns the rate spectrum and the velocity record, the (4, nodes)
    rows (u, u_x, v, v_x).
    """
    sp = core.sp
    phys = sp.inverse(spec[:, None, :] * sp.stage_ops)
    w = partner(core.mode, phys[:, :2])
    rates = -2.0 * w[:, 1] * phys[:, 2] - w[:, 0] * phys[:, 3]
    return sp.forward(rates) * sp.keep, np.concatenate((phys[0, :2], w[0]))


def _check_stability(g: Grid, dt: float, w: np.ndarray) -> None:
    speed = max(float(np.max(np.abs(w[::2]))), 1e-14)
    bound = 0.5 * g.spacing / speed
    if abs(dt) > bound:
        raise StabilityError(
            f"time step {dt!r} exceeds the advective stability bound {bound:.6e} "
            f"(0.5 * spacing / max speed)"
        )


def _step(core: _Core, spec: np.ndarray, dt: float, threshold: float,
          t_new: float) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """One guarded RK4 step of a spectral state.

    Returns the stepped spectrum, its physical rows and the four stage
    velocity records.  Raises StabilityError before stepping when dt exceeds
    the advective bound, and BlowUpError (without a state) when the stepped
    momenta exceed ``threshold``.
    """
    stages: list[np.ndarray] = []

    def rate(y: np.ndarray) -> np.ndarray:
        r, w = _stage(core, y)
        if not stages:
            _check_stability(core.grid, dt, w)
        stages.append(w)
        return r

    spec = rk4_step(rate, spec, dt)
    rows = core.sp.inverse(spec)
    peak = float(np.max(np.abs(rows)))
    if not np.isfinite(peak):
        raise BlowUpError(f"non-finite momentum at t = {t_new:.6g}")
    if peak > threshold:
        raise BlowUpError(f"momentum magnitude {peak!r} exceeded the blow-up threshold "
                          f"{threshold!r} at t = {t_new:.6g}")
    return spec, rows, stages


def step_rk4(state: PdeState, dt: float, *,
             blowup_factor: float = DEFAULT_BLOWUP_FACTOR) -> PdeState:
    """Advance one RK4 step of size dt (negative dt steps backward).

    The advective stability guard requires |dt| <= 0.5 * spacing / max
    speed.  If the stepped momenta exceed the blow-up threshold
    ``march.blowup_limit(blowup_factor, m, n)`` of the input state,
    BlowUpError is raised carrying the input state as the last valid one.
    """
    if dt == 0.0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be finite and nonzero, got {dt!r}")
    core = _Core.of(state)
    threshold = blowup_limit(blowup_factor, state.m.values, state.n.values)
    try:
        _, rows, _ = _step(core, core.spectral(state), dt, threshold, state.t + dt)
    except BlowUpError as err:
        raise BlowUpError(str(err), state=state) from None
    return core.state(rows, state.t + dt)


def recover_velocity(state: PdeState) -> tuple[Field, Field]:
    """(u, v) from the momenta by inverting 1 - d^2/dx^2 mode-by-mode."""
    g = state.grid
    return (
        Field(g, g.inv_helmholtz(state.m.values)),
        Field(g, g.inv_helmholtz(state.n.values)),
    )


def rhs_momentum(state: PdeState) -> tuple[Field, Field]:
    """Instantaneous (dm/dt, dn/dt) = (-2 v_x m - v m_x, -2 u_x n - u n_x)."""
    g = state.grid
    core = _Core.of(state)
    rate, _ = _stage(core, core.spectral(state))
    dm, dn = core.pair(core.sp.inverse(rate))
    return Field(g, dm), Field(g, dn)


def rhs_complex_real_form(mu_re: Field, mu_im: Field) -> tuple[Field, Field]:
    """Right-hand side for the real/imaginary momentum pair of the
    self-conjugate reduction.

    Packs the complex momentum mu_re + i mu_im, applies the conjugate-pair
    momentum right-hand side, and splits the rate back into its real and
    imaginary parts.  Evolving this real pair is an independent arithmetic
    path that must agree with evolving the complex momentum directly.
    """
    if mu_re.is_complex or mu_im.is_complex:
        raise ValueError("the real-form pair must be real fields")
    if mu_re.grid != mu_im.grid:
        raise ValueError("the pair must live on the same grid")
    g = mu_re.grid
    d_re, d_im = _conjugate_pair_rate(g, np.array((mu_re.values, mu_im.values)))
    return Field(g, d_re), Field(g, d_im)


def _conjugate_pair_rate(g: Grid, mu: np.ndarray) -> np.ndarray:
    """d(mu_re, mu_im)/dt of the pair (m, conj m), m = mu_re + i mu_im, through
    the generic coupled complex stage: both rows are transformed and both
    products formed, so nothing of the reduced complex_conjugate path is shared."""
    m = mu[0] + 1j * mu[1]
    core = _Core(g, g.complex_spectrum, COUPLED)
    rate, _ = _stage(core, core.sp.forward(np.stack((m, np.conj(m)))))
    dm = core.sp.inverse(rate[0])
    return np.array((dm.real, dm.imag))


def _normalize_output_times(t0: float, t_end: float, output_times) -> list[float]:
    if not np.isfinite(t_end) or t_end < t0:
        raise ConfigurationError(f"t_end must be >= start time {t0}, got {t_end!r}")
    if output_times is None:
        times = [t0] if t_end == t0 else [t0, t_end]
    else:
        times = [float(t) for t in output_times]
    if not times:
        raise ConfigurationError("output_times must not be empty")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise ConfigurationError("output_times must be strictly increasing")
    if times[0] < t0 - 1e-12 or times[-1] > t_end + 1e-12:
        raise ConfigurationError(
            f"output_times must lie within [{t0}, {t_end}]"
        )
    return times


def evolve(
    state: PdeState,
    t_end: float,
    dt: float,
    output_times: Optional[Sequence[float]] = None,
    *,
    track: Optional[CharacteristicSet] = None,
    callback: Optional[Callable[[PdeState, Optional[CharacteristicSet]], None]] = None,
    blowup_factor: float = DEFAULT_BLOWUP_FACTOR,
) -> Trajectory:
    """Fixed-step RK4 march with snapshots at the requested output times.

    Each interval up to an output time, the first from the start, is cut into
    its ``march.substeps`` (none within round-off of zero), so snapshots land
    exactly on the requested times.  When ``track`` is given (real data
    only), its flows are advanced inside the same RK4 stages as the momenta,
    and a set over them accompanies every state snapshot.  Each snapshot is
    handed to ``callback`` as callback(state, characteristics) when one is
    given, and kept in the returned Trajectory otherwise, never both: a
    streamed run keeps no snapshots and returns an empty Trajectory.

    The blow-up threshold is frozen from the initial data as
    blowup_factor * max(1, max|m0|, max|n0|); exceeding it raises
    BlowUpError carrying the partial Trajectory (empty when streamed).
    """
    check_dt(dt)
    g = state.grid
    times = _normalize_output_times(state.t, t_end, output_times)
    threshold = blowup_limit(blowup_factor, state.m.values, state.n.values)
    if track is not None:
        if track.t != state.t:
            raise ValueError("tracked characteristics must start at the state's time")
        if state.m.is_complex or state.n.is_complex:
            raise ValueError("characteristic tracking needs real data")

    trajectory = Trajectory([], [] if track is not None and callback is None else None)
    flows = track.flows if track is not None else None
    core = _Core.of(state)

    def keep(s: PdeState, cs: Optional[CharacteristicSet]) -> None:
        """A snapshot goes to the callback, or else into the trajectory."""
        if callback is not None:
            callback(s, cs)
        else:
            trajectory.states.append(s)
            if cs is not None:
                trajectory.characteristics.append(cs)

    rows = core.rows(state)
    spec = core.sp.forward(rows)
    t_rows = state.t
    try:
        for target in times:
            n_sub, dt_eff = substeps(target - t_rows, dt)
            t_start = t_rows
            for k in range(1, n_sub + 1):
                spec, rows, stages = _step(core, spec, dt_eff, threshold,
                                           t_start + k * dt_eff)
                t_rows = t_start + k * dt_eff
                if flows is not None:
                    flows = advance_with_stages(flows, g, stages, dt_eff, t_rows)
            t_rows = target
            keep(core.state(rows, target),
                 None if flows is None else CharacteristicSet(target, track.labels, flows))
    except BlowUpError as err:
        raise BlowUpError(str(err), state=core.state(rows, t_rows),
                          trajectory=trajectory) from None
    return trajectory


def evolve_real_form(
    mu_re: Field,
    mu_im: Field,
    t_end: float,
    dt: float,
    output_times: Optional[Sequence[float]] = None,
) -> list[tuple[float, Field, Field]]:
    """March the real/imaginary momentum pair with the same RK4 scheme.

    Returns [(t, mu_re, mu_im), ...] at the output times.  This is the
    real-arithmetic path for the self-conjugate reduction, used to
    cross-check the complex-momentum path.
    """
    check_dt(dt)
    if mu_re.grid != mu_im.grid:
        raise ValueError("the pair must live on the same grid")
    g = mu_re.grid
    times = _normalize_output_times(0.0, t_end, output_times)

    out: list[tuple[float, Field, Field]] = []
    y = np.array((mu_re.values, mu_im.values))
    for start, target in zip([0.0] + times, times):
        n_sub, dt_eff = substeps(target - start, dt)
        for _ in range(n_sub):
            y = rk4_step(lambda mu: _conjugate_pair_rate(g, mu), y, dt_eff)
        out.append((target, Field(g, y[0]), Field(g, y[1])))
    return out
