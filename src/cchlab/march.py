"""The RK4 step and the landing rule shared by every march in the package."""

from __future__ import annotations

from math import ceil
from typing import Callable

import numpy as np

__all__ = ["rk4_step", "substeps"]


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


def substeps(span: float, dt: float) -> tuple[int, float]:
    """(count, size) of the fewest equal steps of size <= dt that cover span,
    at least one; a span over a whole number of dt by at most 1e-9 dt, the
    round-off of output times, gains no extra step."""
    count = max(1, ceil(span / dt - 1e-9))
    return count, span / count
