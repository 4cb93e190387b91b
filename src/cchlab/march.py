"""The RK4 step, its event finder, the landing rule, the dt check and the
blow-up limit shared by every march in the package."""

from __future__ import annotations

from math import ceil, isfinite
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = ["DEFAULT_BLOWUP_FACTOR", "rk4_step", "locate_event", "substeps", "check_dt",
           "blowup_limit"]

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


def locate_event(march: Callable, event: Callable, t0: float, y0, t1: float, y1) -> tuple:
    """(t, y) where a scalar event g leaves the positive side on one march
    step from (t0, y0) to (t1, y1), at whose end g <= 0 or is not finite;
    t1 may lie before t0.

    ``event(y)`` returns g and dg/dt at y, and ``march(t)`` is the state
    at t stepped from y0.  The event is kept bracketed in time.  Each
    candidate is the root of the cubic Hermite dense output of g on the
    bracket, which an RK4 step of size h matches to O(h^4), bisected in
    time to round-off; the bracket's midpoint stands in when its far end is
    not finite, or the last candidate did not halve |g| at the end it
    replaced.  A real step to the candidate narrows the bracket, until no
    time lies strictly inside.  Returns the far end, past the event by
    round-off; no state comes from the cubic.
    """
    (ga, da), (gb, db) = event(y0), event(y1)
    ta, tb, bisect = t0, t1, False
    while True:
        h, lo, hi = tb - ta, ta, tb
        t = ta + 0.5 * h
        if not bisect and isfinite(gb) and isfinite(db):
            # The cubic is ga + c1 x + c2 x^2 + c3 x^3 in x = (t - ta) / h.
            c1 = h * da
            c2 = 3.0 * (gb - ga) - h * (2.0 * da + db)
            c3 = 2.0 * (ga - gb) + h * (da + db)
            while lo < t < hi or hi < t < lo:
                x = (t - ta) / h
                lo, hi = (t, hi) if ((c3 * x + c2) * x + c1) * x + ga > 0.0 else (lo, t)
                t = 0.5 * (lo + hi)
            t = hi
        if not (ta < t < tb or tb < t < ta):
            return tb, y1
        y = march(t)
        g, d = event(y)
        bisect = abs(g) > 0.5 * abs(ga if g > 0.0 else gb)
        if g > 0.0:
            ta, ga, da = t, g, d
        else:
            tb, y1, gb, db = t, y, g, d


def substeps(span: float, dt: float) -> tuple[int, float]:
    """(count, size) of the fewest equal steps of size <= dt that cover span;
    a span over a whole number of dt by at most 1e-9 dt, the round-off of
    output times, gains no extra step, so one within it of zero or below takes none: (0, 0.0)."""
    count = ceil(span / dt - 1e-9)
    return (count, span / count) if count > 0 else (0, 0.0)


def check_dt(dt: float) -> None:
    """Reject a march step size that is not positive and finite."""
    if dt <= 0.0 or not np.isfinite(dt):
        raise ConfigurationError(f"dt must be positive and finite, got {dt!r}")


def blowup_limit(factor: float, *amplitudes: np.ndarray) -> float:
    """factor * max(1, max |a|) over the non-empty arrays ``amplitudes``;
    inf sets no limit, and a NaN or non-positive factor raises ConfigurationError."""
    if not factor > 0.0:
        raise ConfigurationError(f"blow-up factor must be positive, got {factor!r}")
    return factor * max([1.0] + [float(np.max(np.abs(a))) for a in amplitudes if a.size])
