"""Flow maps of the two velocity fields and the pullback/support checks.

Two families of characteristics are tracked, named by the quantity they
transport: ``phi`` follows the velocity v and carries the momentum m
(m_t + v m_x + 2 v_x m = 0 is a transport equation along phi), while
``xi`` follows u and carries n.  Along these flows

    d(phi)/dt = v(phi(t), t),       d(log phi_x)/dt = v_x(phi(t), t),

so a march carries the positions and log-Jacobians of both flows as one
array, which keeps the Jacobians positive; a ``CharacteristicSet`` is that
array over its labels at one time.  The transported momentum satisfies the
exact pullback identity
m(phi(x, t), t) * phi_x(x, t)^2 = m0(x), which pullback_residual measures;
support_bounds maps initial support endpoints forward to bound the support
of the evolved momentum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainTooSmallError
from .grid import Field, Grid, interp_periodic, periodic_stencil
from .march import rk4_step

__all__ = [
    "DEFAULT_LABEL_STRIDE",
    "CharacteristicSet",
    "init_characteristics",
    "advect",
    "advance_with_stages",
    "pullback_residual",
    "support_bounds",
]


@dataclass(frozen=True, eq=False)
class CharacteristicSet:
    """Both flows above a set of labels (initial positions): the (2, 2 * labels)
    array a march carries, positions (phi's, then xi's) in row 0 and their
    log-Jacobians in row 1, stored read-only.  phi and xi are views of row 0;
    the Jacobians phi_x and xi_x are exp of row 1, so never negative.
    """

    t: float
    labels: np.ndarray
    flows: np.ndarray

    def __post_init__(self) -> None:
        labels, flows = (np.array(a, dtype=np.float64) for a in (self.labels, self.flows))
        if labels.ndim != 1 or np.any(np.diff(labels) <= 0):
            raise ValueError("labels must be 1-d and strictly increasing")
        if flows.shape != (2, 2 * labels.size):
            raise ValueError(f"flows must have shape (2, {2 * labels.size}), got {flows.shape}")
        for name, arr in (("labels", labels), ("flows", flows)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    phi = property(lambda self: self.flows[0, :self.labels.size])
    xi = property(lambda self: self.flows[0, self.labels.size:])
    phi_x = property(lambda self: np.exp(self.flows[1, :self.labels.size]))
    xi_x = property(lambda self: np.exp(self.flows[1, self.labels.size:]))


DEFAULT_LABEL_STRIDE = 4


def init_characteristics(g: Grid, t: float = 0.0,
                         stride: int = DEFAULT_LABEL_STRIDE) -> CharacteristicSet:
    """Identity flows labelled at every ``stride``-th grid node."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    labels = g.nodes[::stride]
    return CharacteristicSet(float(t), labels,
                             (np.tile(labels, 2), np.zeros(2 * labels.size)))


def advance_with_stages(
    flows: np.ndarray,
    g: Grid,
    velocity_stages: list[np.ndarray],
    dt: float,
    t_new: float,
) -> np.ndarray:
    """Advance a flows array (``CharacteristicSet.flows``) by one step to
    time ``t_new``, using the four real (u, u_x, v, v_x) RK4 stage records.

    Called by the PDE stepper so positions and Jacobians see exactly the
    same intermediate states as the momenta (the extended system stays a
    single fourth-order RK4 scheme).  The array takes one
    ``march.rk4_step``, whose i-th rate evaluates dx/dt = w(x),
    dlog(jac)/dt = w_x(x) -- w = v along phi, u along xi -- by one periodic
    cubic interpolation from the rows of record i, with cell indices and
    weights shared by w and w_x.  Raises DomainTooSmallError when a flow
    leaves the window and FloatingPointError when adjacent characteristics
    of a flow meet or cross.
    """
    count = flows.shape[1] // 2
    nodes = g.n_points
    # Read flat, a record has w at 2 * nodes for phi (v), at 0 for xi (u),
    # and w_x one row further on.
    offset = np.repeat(np.array([2 * nodes, 0]), count) + np.array([[0], [nodes]])
    stages = iter(velocity_stages)

    def rates(y: np.ndarray) -> np.ndarray:
        """(dx/dt, dlog(jac)/dt) at the positions y[0], shape (2, points)."""
        cells, weights = periodic_stencil(g, y[0])
        index = cells[:, None, :] + offset
        return np.sum(weights[:, None, :] * next(stages).take(index), axis=0)

    stepped = rk4_step(rates, flows, dt)
    for name, flow in (("phi", stepped[0, :count]), ("xi", stepped[0, count:])):
        # The leftmost label sits exactly at -L, so it crosses the window
        # edge under round-off-level velocity ripple; only a position more
        # than half a node beyond the edge counts as a genuine escape.
        if float(np.max(np.abs(flow))) > g.half_length + 0.5 * g.spacing:
            raise DomainTooSmallError(
                f"characteristic {name} left the window [-L, L), L = {g.half_length}"
            )
        if np.any(np.diff(flow) <= 0):
            raise FloatingPointError(
                f"characteristic ordering of the {name} flow collapsed at "
                f"t = {t_new:.6g}: adjacent characteristics met or crossed"
            )
    return stepped


def advect(cs: CharacteristicSet, u: Field, v: Field, dt: float) -> CharacteristicSet:
    """One frozen-field RK4 step: both velocities held fixed across the step.

    Exact for velocity fields that are constant in time; a full PDE run
    should instead track characteristics inside evolve, which feeds the
    true stage velocities.
    """
    if u.grid != v.grid:
        raise ValueError("u and v must live on the same grid")
    if u.is_complex or v.is_complex:
        raise ValueError("characteristic advection needs real velocities")
    g = u.grid
    frozen = np.array((u.values, g.deriv(u.values), v.values, g.deriv(v.values)))
    t = cs.t + dt
    return CharacteristicSet(
        t, cs.labels, advance_with_stages(cs.flows, g, [frozen] * 4, dt, t))


def pullback_residual(
    f_t: Field,
    cs: CharacteristicSet,
    f0: Field,
    flow: str = "m",
    t: float | None = None,
) -> float:
    """Max-norm defect of the pullback identity f(pos(x,t), t) * jac^2 = f0(x).

    ``flow`` selects which transported quantity f is: "m" evaluates along
    phi with phi_x, "n" along xi with xi_x.  Passing ``t`` asserts the
    snapshot time matches the characteristic set's clock.
    """
    if flow not in ("m", "n"):
        raise ValueError(f"flow must be 'm' or 'n', got {flow!r}")
    if t is not None and abs(t - cs.t) > 1e-9:
        raise ValueError(f"characteristics are at t = {cs.t}, field claims t = {t}")
    if f_t.grid != f0.grid:
        raise ValueError("fields must live on the same grid")
    pos, jac = (cs.phi, cs.phi_x) if flow == "m" else (cs.xi, cs.xi_x)
    carried = interp_periodic(f_t.grid, f_t.values, pos) * jac**2
    initial = interp_periodic(f0.grid, f0.values, cs.labels)
    return float(np.max(np.abs(carried - initial)))


def support_bounds(
    cs: CharacteristicSet, alpha: float, beta: float, flow: str = "m"
) -> tuple[float, float]:
    """Image (pos(alpha, t), pos(beta, t)) of initial support endpoints.

    The flow position is interpolated linearly between labels; the interval
    bounds the support of the transported momentum at time t.
    """
    if flow not in ("m", "n"):
        raise ValueError(f"flow must be 'm' or 'n', got {flow!r}")
    if not alpha < beta:
        raise ValueError(f"need alpha < beta, got {alpha}, {beta}")
    lo, hi = cs.labels[0], cs.labels[-1]
    if alpha < lo or beta > hi:
        raise ValueError(
            f"endpoints [{alpha}, {beta}] outside the labelled range [{lo}, {hi}]"
        )
    pos = cs.phi if flow == "m" else cs.xi
    return (
        float(np.interp(alpha, cs.labels, pos)),
        float(np.interp(beta, cs.labels, pos)),
    )
