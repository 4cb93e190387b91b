"""The shared RK4 step, its event finder and the landing rule."""

from __future__ import annotations

from math import exp

import numpy as np
import pytest

from cchlab.errors import ConfigurationError
from cchlab.march import blowup_limit, locate_event, rk4_step, substeps


def test_rk4_step_calls_rate_four_times_at_the_stage_points():
    # The solver's stability check on the first stage and the
    # characteristics' i-th stage record both rely on this call order.
    calls = []

    def rate(y):
        calls.append(y.copy())
        return np.array([1.0, -2.0]) * (len(calls) + y)

    y0, dt = np.array([0.5, 2.0]), 0.1
    k1 = np.array([1.0, -2.0]) * (1 + y0)
    k2 = np.array([1.0, -2.0]) * (2 + y0 + 0.5 * dt * k1)
    k3 = np.array([1.0, -2.0]) * (3 + y0 + 0.5 * dt * k2)
    rk4_step(rate, y0, dt)
    assert len(calls) == 4
    for got, want in zip(calls, (y0, y0 + 0.5 * dt * k1, y0 + 0.5 * dt * k2, y0 + dt * k3)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("dt", [0.4, 0.2, 0.1, 0.05])
def test_rk4_step_local_error_is_fifth_order(dt):
    # One step of dy/dt = y misses e^dt by dt^5/120 + O(dt^6).
    y = rk4_step(lambda y: y, np.array([1.0]), dt)
    assert abs(y[0] - exp(dt)) <= dt**5 / 100


@pytest.mark.parametrize("span, dt", [(1.0, 1e-3), (0.7, 0.3), (13.0, 1e-3),
                                      (0.1, 0.0125), (2.5e-3, 1e-3)])
def test_substeps_cover_the_span_without_exceeding_dt(span, dt):
    count, size = substeps(span, dt)
    assert count * size == pytest.approx(span, rel=1e-15)
    assert size <= dt


def test_substeps_take_one_step_below_dt():
    assert substeps(0.25, 1.0) == (1, 0.25)
    assert substeps(0.0, 1.0) == (0, 0.0)


@pytest.mark.parametrize("dt", [1.0, 1e-3, 2e-4])
def test_substeps_take_no_step_over_a_round_off_span(dt):
    # Output times may sit 1e-12 below the start (solver's output-time
    # check); such a span, like one within 1e-9 dt above zero, lands
    # without a step, while 1e-3 dt is a real interval.
    for span in (0.0, 0.5e-9 * dt, 1e-9 * dt, -1e-12, -0.5e-9 * dt):
        assert substeps(span, dt) == (0, 0.0)
    assert substeps(1e-3 * dt, dt) == (1, 1e-3 * dt)
    assert substeps(2e-9 * dt, dt) == (1, 2e-9 * dt)


def test_substeps_ignore_round_off_above_a_whole_count():
    count, size = substeps(3 * 0.01 * (1 + 1e-12), 0.01)
    assert count == 3
    assert size == pytest.approx(0.01, rel=1e-11)


def test_blowup_limit_scales_the_largest_amplitude_with_a_floor_of_one():
    assert blowup_limit(10.0, np.array([0.5, -3.0]), np.array([2.0])) == 30.0
    assert blowup_limit(10.0, np.array([0.5]), np.array([1j * 0.25])) == 10.0
    assert blowup_limit(2.0, np.array([]), np.array([-4.0])) == 8.0  # an empty family
    assert blowup_limit(2.0, np.array([]), np.array([])) == 2.0


@pytest.mark.parametrize("factor", [float("nan"), 0.0, -2.0])
def test_blowup_limit_refuses_a_factor_that_is_nan_or_not_positive(factor):
    # A NaN limit would compare false against every amplitude and switch
    # the guard off; inf is the one way to ask for no limit.
    with pytest.raises(ConfigurationError, match="blow-up factor"):
        blowup_limit(factor, np.array([1.0]))
    assert blowup_limit(float("inf"), np.array([3.0])) == float("inf")


def _oscillator(y: np.ndarray) -> np.ndarray:
    return np.array([y[1], -y[0]])


@pytest.mark.parametrize("t1", [2.0, -2.0])
def test_locate_event_lands_on_the_event_to_round_off(t1):
    # x = cos t leaves x > 0 near t = +-pi/2, on one RK4 step from t = 0
    # forward or back.  The real step from t = 0 to the returned time is
    # the returned state, with x <= 0, and a few ulps earlier x is still
    # positive: near its root x moves by about its own round-off per ulp of
    # t.  A NaN far end is bisected to the same time.
    y0 = np.array([1.0, 0.0])

    def march(t):
        return rk4_step(_oscillator, y0, t)

    def event(y):
        return float(y[0]), float(y[1])

    found = [locate_event(march, event, 0.0, y0, t1, far)
             for far in (march(t1), np.full(2, np.nan))]
    t, y = found[0]
    assert t == pytest.approx(np.copysign(np.pi / 2, t1), abs=0.05)
    assert y.tobytes() == march(t).tobytes() and y[0] <= 0.0
    assert march(t * (1.0 - 1e-15))[0] > 0.0
    assert found[1][0] == t and found[1][1].tobytes() == y.tobytes()
