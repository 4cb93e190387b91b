"""The RK4 step, the landing rule, the dt check and the blow-up limit shared
by every march in the package."""

from __future__ import annotations

from math import ceil
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigurationError

__all__ = ["DEFAULT_BLOWUP_FACTOR", "rk4_step", "rk4_step_floats", "substeps",
           "check_dt", "blowup_limit"]

# A march stops with BlowUpError once a momentum or amplitude exceeds this
# many times the initial scale (see blowup_limit).
DEFAULT_BLOWUP_FACTOR = 1e6


def rk4_step(rate: Callable[[np.ndarray], np.ndarray], y: np.ndarray, dt: float) -> np.ndarray:
    """One classical RK4 step of dy/dt = rate(y).

    ``rate`` is called exactly four times, in stage order, at y, y + dt/2 k1,
    y + dt/2 k2 and y + dt k3; callers that collect stage by-products rely on it.
    """
    k1 = rate(y)
    k2 = rate(y + 0.5 * dt * k1)
    k3 = rate(y + 0.5 * dt * k2)
    k4 = rate(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def rk4_step_floats(rate: Callable[[Sequence[float]], Sequence[float]],
                    y: Sequence[float], dt: float) -> list[float]:
    """rk4_step on four Python floats, returned as a list.

    The stages and the final combination are rk4_step's, element by element
    in the same order and association, so the result is rk4_step's bit for
    bit.  For a state of four floats it is the faster form: on so short an
    array, rk4_step's cost is nearly all NumPy call overhead, and the stages
    are unrolled into locals, which costs less than a loop per stage.
    """
    h = 0.5 * dt
    y0, y1, y2, y3 = y
    a0, a1, a2, a3 = rate(y)
    b0, b1, b2, b3 = rate([y0 + h * a0, y1 + h * a1, y2 + h * a2, y3 + h * a3])
    c0, c1, c2, c3 = rate([y0 + h * b0, y1 + h * b1, y2 + h * b2, y3 + h * b3])
    d0, d1, d2, d3 = rate([y0 + dt * c0, y1 + dt * c1, y2 + dt * c2, y3 + dt * c3])
    w = dt / 6.0
    return [y0 + w * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
            y1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
            y2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
            y3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3)]


def substeps(span: float, dt: float) -> tuple[int, float]:
    """(count, size) of the fewest equal steps of size <= dt that cover span,
    at least one; a span over a whole number of dt by at most 1e-9 dt, the
    round-off of output times, gains no extra step."""
    count = max(1, ceil(span / dt - 1e-9))
    return count, span / count


def check_dt(dt: float) -> None:
    """Reject a march step size that is not positive and finite."""
    if dt <= 0.0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")


def blowup_limit(factor: float, *amplitudes: np.ndarray) -> float:
    """factor * max(1, max |a|) over the non-empty arrays ``amplitudes``."""
    return factor * max([1.0] + [float(np.max(np.abs(a))) for a in amplitudes if a.size])
