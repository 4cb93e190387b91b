"""Point-momentum (peakon) dynamics of the cross-coupled pair.

Derivation of the ODEs
----------------------
The PDE pair in weak form reads, for any test function w,

    d/dt <m, w> = <m, v w_x - 2 v_x w + ... >  collected from
    m_t + v m_x + 2 v_x m = 0    =>    d/dt <m, w> = <m, v w_x> - <2 v_x m, w>.

Substituting the point-momentum ansatz

    m(x, t) = sum_a m_a(t) delta(x - q_a(t)),
    n(x, t) = sum_b n_b(t) delta(x - r_b(t)),

with velocities recovered through the kernel K(x) = 0.5 e^{-|x|} of
(1 - d^2/dx^2)^{-1},

    v(x) = (K * n)(x) = sum_b n_b K(x - r_b),
    u(x) = (K * m)(x) = sum_a m_a K(x - q_a),

and matching the coefficients of w(q_a) and w'(q_a) (each momentum is
advected by the *other* family's velocity) gives the canonical equations

    dq_a/dt = v(q_a)        = sum_b n_b K(q_a - r_b),
    dm_a/dt = -m_a v_x(q_a) = -m_a sum_b n_b K'(q_a - r_b),
    dr_b/dt = u(r_b)        = sum_a m_a K(r_b - q_a),
    dn_b/dt = -n_b u_x(r_b) = -n_b sum_a m_a K'(r_b - q_a),

which are Hamilton's equations for h = sum_{a,b} m_a n_b K(q_a - r_b)
(dq_a/dt = dh/dm_a, dm_a/dt = -dh/dq_a, and likewise for the other
family).  At an exact cross-family collision q_a = r_b the derivative of
the kernel is assigned its odd-symmetric value K'(0) := 0, the unique
convention that keeps the symmetric collision state amplitude-stationary
and conserves h through collisions.

A single m-peakon against a single n-peakon "waltzes": the relative
coordinate z = q - r and amplitude difference w = m1 - n1 obey

    dz/dt = -w K(z),        dw/dt = -(P^2 - w^2) K'(z) / 2,

with P = m1 + n1 and h = m1 n1 K(z) both conserved, so orbits are the
closed curves (P^2 - w^2) K(z) = 4 h.  Integrating dt = dz / (w K(z))
around one orbit gives the closed-form period

    T = 16 sqrt(1 - w*) / (P w*),        w* = 8 h / P^2,

(substitute y = e^{-|z|}; the quarter-period integral is elementary), and
the point symmetry (z, w) -> (-z, -w), which reverses time and maps the
orbit onto itself, forces the exact half-period exchange
m1(t + T/2) = n1(t).  For z(0) = 0 the period reduces to 4 |m1 - n1| /
(m1 n1).

The whole orbit is elementary too (waltz_exact).  Since m1 n1 = (P^2 -
w^2) / 4 and K'(z) = -sign(z) K(z), the amplitude equation is

    dw/dt = -2 m1 n1 K'(z) = 2 h sign(z),

so w moves at the constant speed 2h (h > 0 for amplitudes of one sign)
and turns only where z changes sign.  The orbit equation gives
|z| = ln((P^2 - w^2) / (8 h)), which vanishes at w = +-W, W = sqrt(P^2 -
8 h): every turning point of w is a collision, and w is a triangle wave
of slope +-2h between -W and W.  The sign of z follows from dz/dt =
-w K(z): a collision at w = -W sends z positive, and w then rises to W,
where the next collision sends z negative while w falls back to -W.  The
period 2 W / h is the closed form above (W / |P| = sqrt(1 - w*)).

The march
---------
A state is one path row (t, q..., m_amp..., r..., n_amp...), and the list
forms are views of the path.  The march steps the flat state (q, m_amp, r,
n_amp) with RK4 from ``cchlab.march``, the rates as matrix products over
the M x N pairs.  One peakon per family is marched in one loop over four
Python floats, the RK4 stages unrolled: bit for bit the array march, at a
fraction of its cost per step, which on 1x1 arrays is nearly all NumPy
call overhead.

The kernel slope jumps at each collision q_a = r_b.  Each pair carries
its sign s of q_a - r_b, and a step takes the slope -s K of that side.  A
step that ends with a gap past its sign is cut at the collision that
``march.locate_event`` finds, and the rest is taken again with s flipped.
The waltz measurement locates its turns with the same finder.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, floor, isfinite, sqrt

import numpy as np

from .errors import BlowUpError, ConfigurationError, DomainTooSmallError, MeasurementError
from .grid import Field, Grid, green_kernel_eval
from .march import (DEFAULT_BLOWUP_FACTOR, blowup_limit, check_dt, locate_event,
                    rk4_step, substeps)

__all__ = [
    "PeakonState",
    "PeakonRates",
    "kernel",
    "kernel_derivative",
    "peakon_rhs",
    "peakon_hamiltonian",
    "peakon_fields",
    "evolve_peakons",
    "evolve_peakon_path",
    "peakon_path_invariants",
    "measure_waltz",
    "measure_waltz_path",
    "waltz_period_closed_form",
    "waltz_exact",
]


def kernel(x):
    """K(x) = 0.5 e^{-|x|}, the infinite-line kernel of (1 - d^2/dx^2)^{-1}."""
    return 0.5 * np.exp(-np.abs(x))


def kernel_derivative(x):
    """K'(x) = -sign(x) 0.5 e^{-|x|} with the odd convention K'(0) = 0."""
    return -np.sign(x) * 0.5 * np.exp(-np.abs(x))


@dataclass(frozen=True, eq=False, init=False)
class PeakonState:
    """Both families at time t as ``row``, a read-only path row that the
    constructor copies its inputs into, and ``count``, the number of m-peakons."""

    row: np.ndarray
    count: int

    def __init__(self, t: float, q, m_amp, r, n_amp) -> None:
        names = ("q", "m_amp", "r", "n_amp")
        arrays = [np.array(a, dtype=np.float64, ndmin=1, copy=None) for a in (q, m_amp, r, n_amp)]
        for name, arr in zip(names, arrays):
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
        row = np.concatenate(([t], *arrays), dtype=np.float64)
        if not np.isfinite(row[1:]).all():
            name = next(n for n, a in zip(names, arrays) if not np.isfinite(a).all())
            raise FloatingPointError(f"{name} must be finite")
        if arrays[0].shape != arrays[1].shape or arrays[2].shape != arrays[3].shape:
            raise ValueError("positions and amplitudes must pair up within each family")
        row.flags.writeable = False
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "count", arrays[0].size)

    t = property(lambda self: float(self.row[0]))
    q, m_amp, r, n_amp = (property(lambda self, i=i: _families(self.row[1:], self.count)[i])
                          for i in range(4))


@dataclass(frozen=True)
class PeakonRates:
    """Time derivatives of (q, m_amp, r, n_amp)."""

    dq: np.ndarray
    dm_amp: np.ndarray
    dr: np.ndarray
    dn_amp: np.ndarray


def _families(y: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """Views (q, m_amp, r, n_amp) of a flat state with ``count`` m-peakons,
    or of a stack of them: the slices run along the last axis."""
    mid = (y.shape[-1] + 2 * count) // 2
    return y[..., :count], y[..., count:2 * count], y[..., 2 * count:mid], y[..., mid:]


def _rates(y: np.ndarray, count: int, signs: np.ndarray) -> np.ndarray:
    """Time derivative of the flat state (q, m_amp, r, n_amp), as matrix
    products over the M x N pairs, with the kernel slope at q_a - r_b taken
    as -s K, s from the (M, N) pair signs: at the state's own signs,
    kernel_derivative bit for bit."""
    q, m_amp, r, n_amp = _families(y, count)
    kmat = kernel(q[:, None] - r[None, :])  # shape (M, N)
    kpmat = -signs * kmat
    # dq, dm_amp, dr, dn_amp; K'(r - q) = -K'(q - r)
    return np.concatenate((kmat @ n_amp, -m_amp * (kpmat @ n_amp),
                           kmat.T @ m_amp, n_amp * (kpmat.T @ m_amp)))


def _pair_rates(q: float, m_amp: float, r: float, n_amp: float,
                sign: float) -> tuple[float, float, float, float]:
    """_rates of one peakon per family, on the Python floats q, m_amp, r,
    n_amp with the one pair sign.

    A 1x1 state spends nearly all of the matrix form's time dispatching
    NumPy calls, and a pair has no sums, so this form is the matrix form bit
    for bit.  Two rules keep it so.  The kernel is ``float(np.exp(...))``,
    not ``math.exp``, which rounds differently for some arguments.  Each
    product gets ``+ 0.0``, because a 1x1 matmul accumulates onto +0.0 and
    so never returns -0.0.
    """
    k = 0.5 * float(np.exp(-abs(q - r)))
    kp = -sign * k
    return (k * n_amp + 0.0, -m_amp * (kp * n_amp + 0.0),
            k * m_amp + 0.0, n_amp * (kp * m_amp + 0.0))


def peakon_rhs(ps: PeakonState) -> PeakonRates:
    """Canonical equations: positions move with the other family's velocity,
    amplitudes stretch with minus its slope."""
    count, y = ps.count, ps.row[1:]
    return PeakonRates(*_families(_rates(y, count, _pair_signs(y, count)), count))


def peakon_hamiltonian(ps: PeakonState) -> float:
    """h = sum_{a,b} m_a n_b K(q_a - r_b); conserved along the flow."""
    # Four views of the row in the formula's shapes: on one pair, each further view costs 3-8%.
    count, row = ps.count, ps.row
    mid = (row.size + 1) // 2 + count  # r is row[1 + 2 count:mid], n_amp row[mid:]
    kmat = kernel(row[1:1 + count, None] - row[None, 1 + 2 * count:mid])
    return float(row[1 + count:1 + 2 * count] @ kmat @ row[mid:])


def peakon_fields(ps: PeakonState, g: Grid) -> tuple[Field, Field]:
    """Velocity fields induced on a grid via the periodized kernel.

    u = sum_a m_a p_L(x - q_a) and v = sum_b n_b p_L(x - r_b).  All
    positions must lie inside the window.
    """
    q, m_amp, r, n_amp = _families(ps.row[1:], ps.count)
    for name, pos in (("q", q), ("r", r)):
        if pos.size and float(np.max(np.abs(pos))) >= g.half_length:
            raise DomainTooSmallError(
                f"peakon position in {name} outside the window (L = {g.half_length})"
            )
    u, v = np.zeros(g.n_points), np.zeros(g.n_points)
    for field, positions, amps in ((u, q, m_amp), (v, r, n_amp)):
        for x, a in zip(positions, amps):
            field += a * green_kernel_eval(g.nodes - x, g.half_length)
    return Field(g, u), Field(g, v)


def _pair_signs(y: np.ndarray, count: int) -> np.ndarray:
    """Signs of q_a - r_b, shape (M, N), of a flat state."""
    q, _, r, _ = _families(y, count)
    return np.sign(q[:, None] - r[None, :])


def _start_signs(y: np.ndarray, count: int) -> np.ndarray:
    """The pair signs of q_a - r_b at the flat state y; a coincident pair
    takes the sign its gap moves to, 0 if it does not move (K'(0) := 0)."""
    signs = _pair_signs(y, count)
    if signs.all():
        return signs
    dq, _, dr, _ = _families(_rates(y, count, signs), count)
    return np.where(signs == 0.0, np.sign(dq[:, None] - dr[None, :]), signs)


def _nearest(y: np.ndarray, signs: np.ndarray, count: int) -> tuple[int, float, float]:
    """(flat index, s z, s dz/dt) of the pair whose gap z = q_a - r_b lies
    least far on the side of its sign s; pairs of sign 0 are passed over."""
    q, _, r, _ = _families(y, count)
    dist = np.where(signs == 0.0, np.inf, signs * (q[:, None] - r[None, :]))
    i = int(np.argmin(dist))
    a, b = divmod(i, signs.shape[1])
    dq, _, dr, _ = _families(_rates(y, count, signs), count)
    return i, float(dist.flat[i]), float(signs.flat[i] * (dq[a] - dr[b]))


def _train_step(t: float, y: np.ndarray, signs: np.ndarray, dt: float,
                count: int) -> tuple[np.ndarray, np.ndarray]:
    """(state, pair signs) one step on from the flat state y under its
    (M, N) pair signs.  While the step ends with some gap q_a - r_b past
    its sign, it is cut at the first collision, which march.locate_event
    finds on the nearest pair (_nearest); that pair's sign flips, and the
    rest of the step is taken again.  A sign 0 takes its gap's sign at the
    end.  A NaN gap is on neither side, so a NaN step is not cut."""
    def step(y, dt):  # under the signs of the piece being stepped
        return rk4_step(lambda z: _rates(z, count, signs), y, dt)

    t1, nxt = t + dt, step(y, dt)
    while (_pair_signs(nxt, count) * signs < 0.0).any():
        t, y = locate_event(lambda s: step(y, s - t), lambda z: _nearest(z, signs, count)[1:],
                            t, y, t1, nxt)
        signs = signs.copy()
        signs.flat[_nearest(y, signs, count)[0]] *= -1.0
        nxt = step(y, t1 - t)
    return nxt, signs if signs.all() else np.where(signs == 0.0, _pair_signs(nxt, count), signs)


def _path_states(rows: np.ndarray, count: int) -> list[PeakonState]:
    """PeakonStates over the rows of ``rows``, a view of a checked path with
    ``count`` m-peakons, which is made read-only; the rows are not copied
    and not checked again."""
    rows.flags.writeable = False  # the view only: the path itself stays writable
    states = []
    for row in rows:
        ps = object.__new__(PeakonState)
        object.__setattr__(ps, "row", row)
        object.__setattr__(ps, "count", count)
        states.append(ps)
    return states


def _step_fault(done: np.ndarray, count: int, t: float, values: list[float],
                threshold: float) -> BlowUpError | None:
    """The BlowUpError of a step to time t that ended on the flat state
    ``values`` after the path rows ``done``, or None when every value is
    finite and every amplitude within ``threshold``."""
    if all(map(isfinite, values)):
        amps = values[count:2 * count] + values[(len(values) + 2 * count) // 2:]
        peak = max(map(abs, amps), default=0.0)
        if peak <= threshold:
            return None
        message = (f"peakon amplitude {peak!r} exceeded the blow-up threshold "
                   f"{threshold!r} at t = {t:.6g}")
    else:
        message = f"non-finite peakon state at t = {t:.6g}"
    return BlowUpError(message, state=_path_states(done[-1:], count)[0], trajectory=done)


_BLOCK_ROWS = 1024  # rows the pair march writes into its path at once


def _pair_path(path: np.ndarray, dt: float, sign: float, threshold: float) -> None:
    """Fill rows 1 on of a one-pair path (t, q, m, r, n) by steps of dt from
    row 0 under its pair sign, row k at t0 + k dt, with evolve_peakon_path's
    checks: _train_step bit for bit.

    Each step is rk4_step unrolled over Python floats, at _pair_rates; a
    step that crosses, or has sign 0, is taken by _train_step instead.  A
    BlowUpError writes the rows before the failed step first.
    """
    t, q, m, r, n = path[0].tolist()
    t0, h, w = t, 0.5 * dt, dt / 6.0
    for start in range(1, len(path), _BLOCK_ROWS):
        rows = []
        for k in range(start, min(start + _BLOCK_ROWS, len(path))):
            a0, a1, a2, a3 = _pair_rates(q, m, r, n, sign)
            b0, b1, b2, b3 = _pair_rates(q + h * a0, m + h * a1, r + h * a2, n + h * a3, sign)
            c0, c1, c2, c3 = _pair_rates(q + h * b0, m + h * b1, r + h * b2, n + h * b3, sign)
            d0, d1, d2, d3 = _pair_rates(q + dt * c0, m + dt * c1, r + dt * c2, n + dt * c3,
                                         sign)
            y = (q + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0), m + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
                 r + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2), n + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))
            if (y[0] - y[2]) * sign < 0.0 or not sign:
                nxt, signs = _train_step(t, np.array((q, m, r, n)), np.array([[sign]]), dt, 1)
                y, sign = nxt.tolist(), float(signs[0, 0])
            t = t0 + k * dt
            q, m, r, n = y
            if (not (isfinite(q) and isfinite(m) and isfinite(r) and isfinite(n))
                    or abs(m) > threshold or abs(n) > threshold):
                if rows:
                    path[start:k] = rows
                raise _step_fault(path[:k], 1, t, [q, m, r, n], threshold)
            rows.append((t, q, m, r, n))
        path[start:k + 1] = rows


def evolve_peakon_path(ps: PeakonState, t_end: float, dt: float, *,
                       blowup_factor: float = DEFAULT_BLOWUP_FACTOR) -> np.ndarray:
    """Fixed-step RK4 march into one path array, one row per sample.

    Row k is (t, q..., m_amp..., r..., n_amp...) after k steps, row 0 the
    start, so the path has shape (steps + 1, 1 + 2M + 2N).  The steps are
    the ``march.substeps`` of t_end - ps.t (none within round-off of zero);
    row k is stamped ps.t + k dt_eff, as solver.evolve stamps its steps, and
    the last row t_end exactly.  The march holds the state as one
    flat array (_train_step) and carries each step's pair signs into the
    next, cut at collisions, so the path keeps fourth order through
    amplitude exchanges.  One peakon per family is marched by _pair_path,
    the same path bit for bit, on four Python floats.  After each full step,
    and only there, the stepped values are checked: a non-finite value, or
    an amplitude beyond blowup_factor * max(1, initial amplitude scale),
    raises BlowUpError whose ``trajectory`` is the path up to the step
    before and whose ``state`` is that path's last row as a PeakonState.  A
    t_end before the start time, or NaN, and a path too long to allocate
    raise ConfigurationError.
    """
    check_dt(dt)
    count, t0, y = ps.count, ps.t, ps.row[1:]
    if not t_end >= t0:  # NaN included
        raise ConfigurationError(f"t_end must be >= start time {t0}, got {t_end}")
    threshold = blowup_limit(blowup_factor, ps.m_amp, ps.n_amp)
    try:
        n_steps, dt_eff = substeps(t_end - t0, dt)
        path = np.empty((n_steps + 1, ps.row.size))
    except (MemoryError, OverflowError, ValueError):  # too many, or infinitely many, rows
        raise ConfigurationError(
            f"a path of {(t_end - t0) / dt + 1:.6g} samples (t_end = {t_end!r}, "
            f"dt = {dt!r}) does not fit in memory") from None
    path[0], t = ps.row, t0
    signs = _start_signs(y, count)
    if y.size == 4 and count == 1:
        _pair_path(path, dt_eff, float(signs[0, 0]), threshold)
    else:
        for k in range(n_steps):
            y, signs = _train_step(t, y, signs, dt_eff, count)
            t = t0 + (k + 1) * dt_eff
            if (fault := _step_fault(path[:k + 1], count, t, y.tolist(), threshold)) is not None:
                raise fault
            path[k + 1, 0], path[k + 1, 1:] = t, y
    path[-1, 0] = float(t_end)
    return path


def evolve_peakons(ps: PeakonState, t_end: float, dt: float, *,
                   blowup_factor: float = DEFAULT_BLOWUP_FACTOR) -> list[PeakonState]:
    """Fixed-step RK4 march; returns ``ps`` and the state after every step.

    The list form of evolve_peakon_path, with the same steps, checks and
    errors: each later state is a read-only view of one path row.  A
    BlowUpError carries the states before the failed step as its
    ``trajectory`` and the last of them as its ``state``.
    """
    try:
        path = evolve_peakon_path(ps, t_end, dt, blowup_factor=blowup_factor)
    except BlowUpError as err:
        traj = [ps] + _path_states(err.trajectory[1:], ps.count)
        raise BlowUpError(str(err), state=traj[-1], trajectory=traj) from None
    return [ps] + _path_states(path[1:], ps.count)


def peakon_path_invariants(path: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(Hamiltonian, amplitude total) of every row of a path with ``count``
    m-peakons, each computed in one pass over the whole path.

    The Hamiltonian keeps peakon_hamiltonian's association m @ K @ n, so each
    value is bitwise the one-state value; the total is sum(m) + sum(n).  A
    path with an empty family has a Hamiltonian of 0.0 throughout.
    """
    q, m_amp, r, n_amp = _families(path[:, 1:], count)
    total = m_amp.sum(axis=1) + n_amp.sum(axis=1)
    if count == 0 or r.shape[1] == 0:
        return np.zeros(len(path)), total
    kmat = kernel(q[:, :, None] - r[:, None, :])
    return (m_amp[:, None, :] @ kmat @ n_amp[:, :, None])[:, 0, 0], total


def waltz_period_closed_form(m1: float, n1: float, separation: float) -> float:
    """Exact orbit period of a single m-peakon / n-peakon pair.

    T = 16 sqrt(1 - w*) / (P w*) with P = m1 + n1 and w* = 8 h / P^2,
    h = m1 n1 K(separation) (see the module docstring for the derivation).
    Requires a genuinely oscillating pair: both amplitudes positive (or
    both negative) and not the stationary equal-amplitude coincident state.
    """
    if m1 * n1 <= 0.0:
        raise ConfigurationError(
            "closed orbits require amplitudes of one sign (m1 * n1 > 0)"
        )
    total = m1 + n1
    h = m1 * n1 * float(kernel(separation))
    w_star = 8.0 * h / total**2
    if w_star >= 1.0 - 1e-15:
        raise ConfigurationError(
            "equal amplitudes at zero separation form a stationary pair (no orbit)"
        )
    return 16.0 * sqrt(1.0 - w_star) / (abs(total) * w_star)


def waltz_exact(m1: float, n1: float, separation: float,
                t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact (w, z, collision times) of a single m-peakon / n-peakon pair.

    The pair starts at time 0 with amplitudes m1, n1 and r - q = separation,
    so z(0) = q - r = -separation.  w = m1 - n1 and z = q - r are returned at
    the times ``t`` (a scalar or an array, each >= 0), and the collision
    times (z = 0) are those in [0, max t].  w is a triangle wave of slope
    +-2h between -W and W, and |z| = ln((P^2 - w^2) / (8 h)); see the module
    docstring.  The pair must orbit, as for waltz_period_closed_form.
    """
    waltz_period_closed_form(m1, n1, separation)  # rejects pairs that do not orbit
    total_sq = (m1 + n1) ** 2
    h = m1 * n1 * float(kernel(separation))
    big_w = sqrt(total_sq - 8.0 * h)
    slope, half = 2.0 * h, big_w / h
    w0, z0 = m1 - n1, -separation
    # Cycle time tau: on [0, half) w rises from -W with z > 0, on
    # [half, 2 half) it falls from W with z < 0; collisions at tau = k half.
    if z0 > 0.0 or (z0 == 0.0 and w0 < 0.0):
        tau0 = (w0 + big_w) / slope
    else:
        tau0 = half + (big_w - w0) / slope
    times = np.asarray(t, dtype=np.float64)
    tau = np.mod(tau0 + times, 2.0 * half)
    rising = tau < half
    w = np.where(rising, slope * tau - big_w, big_w - slope * (tau - half))
    # Round-off can put P^2 - w^2 a hair below 8h at a turning point.
    z = np.where(rising, 1.0, -1.0) * np.log(np.maximum((total_sq - w * w) / (8.0 * h), 1.0))
    first = ceil(tau0 / half)
    last = floor((tau0 + float(np.max(times, initial=0.0))) / half)
    return w, z, np.arange(first, last + 1) * half - tau0


def _locate_turn(path: np.ndarray, i: int, cross) -> tuple[float, list[float]]:
    """(t, [q, m_amp, r, n_amp]) where ``cross``, linear in the state,
    changes sign between samples i-1 and i of a pair path, located by
    march.locate_event on the march (_train_step) from the sample with the
    smaller |cross|, forward from i-1 or back from i.  A zero on sample i-1
    returns it; a zero on sample i, or none, returns sample i."""
    t0, y0, t1, y1 = float(path[i - 1, 0]), path[i - 1, 1:], float(path[i, 0]), path[i, 1:]
    c0, c1 = cross(y0), cross(y1)
    if c0 == 0.0:
        return t0, y0.tolist()
    if c0 * c1 >= 0.0:
        return t1, y1.tolist()
    if abs(c1) < abs(c0):
        t0, y0, c0, t1, y1 = t1, y1, c1, t0, y0
    signs = _start_signs(y0, 1)

    def event(y):  # positive on the side of y0
        return c0 * cross(y), c0 * cross(_rates(y, 1, _pair_signs(y, 1)))

    t, y = locate_event(lambda t: _train_step(t0, y0, signs, t - t0, 1)[0], event, t0, y0, t1, y1)
    return t, y.tolist()


def measure_waltz_path(path: np.ndarray) -> tuple[float, float]:
    """(period, swap_error) of a waltzing single pair from a dense path.

    ``path`` has one row (t, q, m_amp, r, n_amp) per sample, as
    evolve_peakon_path returns for one peakon per family.  The orbit in the
    (q - r, m1 - n1) plane winds around its center once per period.  The
    unwrapped orbit phase brackets the half turn and the full turn between
    two samples; each is then located on the march itself, as the root of
    the cross product z w0 - w z0 of the marched state against the start
    (zero exactly when the orbit passes the antipode of the start, and
    again on return to it), see _locate_turn.  The swap error compares
    the amplitudes of the half-turn state against the initial amplitudes
    of the *other* family:

        swap_error = |m1(T/2) - n1(0)| + |n1(T/2) - m1(0)|,

    which the orbit's point symmetry makes exactly zero in continuum time.
    A collision at the half turn is stepped through, not fitted across.
    Paths shorter than one full orbit raise MeasurementError.
    """
    if len(path) < 8:
        raise MeasurementError("trajectory too short to measure an orbit")
    if path.shape[1] != 5:
        raise ValueError("waltz measurement needs exactly one peakon per family")
    z = path[:, 1] - path[:, 3]
    w = path[:, 2] - path[:, 4]
    z_scale = float(np.max(np.abs(z)))
    w_scale = float(np.max(np.abs(w)))
    if z_scale <= 1e-13 and w_scale <= 1e-13:
        raise MeasurementError("stationary pair: no relative motion to measure")
    z_scale = max(z_scale, 1e-13)
    w_scale = max(w_scale, 1e-13)
    zs, ws = z / z_scale, w / w_scale
    theta = np.unwrap(np.arctan2(ws, zs))
    advance = np.abs(theta - theta[0])
    hits = np.nonzero(advance >= 2.0 * np.pi)[0]
    if hits.size == 0:
        raise MeasurementError(
            "trajectory shorter than one orbit "
            f"(phase advanced {advance[-1] / (2 * np.pi):.2f} turns)"
        )
    zs0, ws0 = float(zs[0]), float(ws[0])

    def cross(y: np.ndarray) -> float:
        return float((y[0] - y[2]) / z_scale * ws0 - (y[1] - y[3]) / w_scale * zs0)

    _, half = _locate_turn(path, int(np.nonzero(advance >= np.pi)[0][0]), cross)
    t_full, _ = _locate_turn(path, int(hits[0]), cross)
    swap_error = abs(half[1] - path[0, 4]) + abs(half[3] - path[0, 2])
    return t_full - float(path[0, 0]), float(swap_error)


def measure_waltz(traj: list[PeakonState]) -> tuple[float, float]:
    """(period, swap_error) of a waltzing single pair from a dense trajectory.

    The list form of measure_waltz_path, on the states' rows stacked.
    Trajectories shorter than one full orbit raise MeasurementError; states
    with other than one peakon per family raise ValueError.
    """
    if traj and (traj[0].count != 1 or traj[0].row.size != 5):
        raise ValueError("waltz measurement needs exactly one peakon per family")
    return measure_waltz_path(np.stack([s.row for s in traj]) if traj else np.empty((0, 5)))
