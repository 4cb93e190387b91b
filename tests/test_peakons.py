"""Point-momentum dynamics: rates, conservation, orbits, and measurement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cchlab.peakons as peakons_module
from cchlab.errors import (BlowUpError, ConfigurationError, DomainTooSmallError,
                           MeasurementError)
from cchlab.grid import green_kernel_eval, make_grid
from cchlab.march import substeps
from cchlab.peakons import (PeakonState, evolve_peakon_path, evolve_peakons,
                            kernel, kernel_derivative, measure_waltz,
                            measure_waltz_path, peakon_fields,
                            peakon_hamiltonian, peakon_path_invariants,
                            peakon_rhs, waltz_exact, waltz_period_closed_form)

LN2 = float(np.log(2.0))


# ------------------------------------------------------------------- kernel

def test_kernel_values_and_symmetry():
    assert kernel(0.0) == 0.5
    assert kernel(LN2) == pytest.approx(0.25)
    assert kernel(-3.0) == kernel(3.0)
    assert kernel_derivative(0.0) == 0.0  # odd-symmetric convention at the kink
    assert kernel_derivative(LN2) == pytest.approx(-0.25)
    assert kernel_derivative(-LN2) == pytest.approx(0.25)


# -------------------------------------------------------------------- rates

def test_rates_at_coincident_positions():
    # Each position moves with the other family's velocity; at a coincident
    # pair the amplitude rates vanish (the kernel slope is zero there).
    ps = PeakonState(0.0, [0.0], [10.0], [0.0], [1.0])
    rates = peakon_rhs(ps)
    assert rates.dq[0] == pytest.approx(0.5)   # n * K(0)
    assert rates.dr[0] == pytest.approx(5.0)   # m * K(0)
    assert rates.dm_amp[0] == 0.0
    assert rates.dn_amp[0] == 0.0
    assert peakon_hamiltonian(ps) == pytest.approx(5.0)  # m * n * K(0)


def test_rates_at_half_kernel_separation():
    # At separation ln 2 the kernel halves, so the induced speed halves too,
    # and the amplitudes exchange at rate m*n*K'(z).
    ps = PeakonState(0.0, [-LN2], [10.0], [0.0], [1.0])
    rates = peakon_rhs(ps)
    assert rates.dq[0] == pytest.approx(0.25)
    assert rates.dm_amp[0] == pytest.approx(-10.0 * 1.0 * kernel_derivative(-LN2))
    assert rates.dn_amp[0] == pytest.approx(+1.0 * 10.0 * kernel_derivative(-LN2))


@settings(max_examples=60, deadline=None)
@given(
    q=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    r=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3),
    data=st.data(),
)
def test_total_amplitude_rate_always_cancels(q, r, data):
    amp = st.floats(-5.0, 5.0)
    m = [data.draw(amp) for _ in q]
    n = [data.draw(amp) for _ in r]
    rates = peakon_rhs(PeakonState(0.0, q, m, r, n))
    scale = 1.0 + sum(abs(a) for a in m) * sum(abs(b) for b in n)
    assert abs(float(np.sum(rates.dm_amp) + np.sum(rates.dn_amp))) < 1e-12 * scale


def test_pair_rates_are_the_matrix_rates_bit_for_bit():
    # The pair march evaluates one peakon per family with _pair_rates; it must
    # give the matrix form's bits, signs of zero and infinities included, on
    # random pairs with exact collisions (q = r) and special values mixed in,
    # under the state's own pair sign and under carried signs of either side
    # or 0.  A NaN is compared by position: CPython does not guarantee a
    # NaN's payload and sign bits (under a line tracer they change), and a NaN
    # step ends every march with BlowUpError.
    rng = np.random.default_rng(7)
    states = rng.normal(size=(100_000, 4)) * 10.0 ** rng.integers(-3, 4, size=(100_000, 4))
    states[::5, 2] = states[::5, 0]
    special = rng.random(states.shape) < 0.05
    states[special] = rng.choice([0.0, -0.0, np.inf, -np.inf, np.nan], size=special.sum())
    with np.errstate(invalid="ignore"):
        signs = np.sign(states[:, 0] - states[:, 2])
    carried = rng.random(len(states)) < 0.5
    signs[carried] = rng.choice([-1.0, 0.0, 1.0], size=carried.sum())
    mismatches = []
    with np.errstate(all="ignore"):  # the matrix form warns on inf and NaN
        for y, sign in zip(states, signs.tolist()):
            got = np.array(peakons_module._pair_rates(*y.tolist(), sign))
            want = peakons_module._rates(y, 1, np.array([[sign]]))
            nan = np.isnan(want)
            if not (np.array_equal(np.isnan(got), nan)
                    and got[~nan].tobytes() == want[~nan].tobytes()):
                mismatches.append((y, got, want))
    assert not mismatches, mismatches[:3]


def test_pair_step_is_the_array_step_bit_for_bit():
    # One step of the float pair march, from random states over six decades
    # with exact collisions (q = r) mixed in, is one _train_step of the flat
    # state under its start signs, bit for bit.
    rng = np.random.default_rng(11)
    states = rng.normal(size=(1000, 4)) * 10.0 ** rng.integers(-3, 3, size=(1000, 4))
    states[::4, 2] = states[::4, 0]
    path = np.zeros((2, 5))
    for y, dt in zip(states, (10.0 ** rng.uniform(-5, 0, size=len(states))).tolist()):
        signs = peakons_module._start_signs(y, 1)
        path[0, 1:] = y
        peakons_module._pair_path(path, dt, float(signs[0, 0]), np.inf)
        want, _ = peakons_module._train_step(0.0, y, signs, dt, 1)
        assert path[1, 1:].tobytes() == want.tobytes(), (y, dt)


# --------------------------------------------------------------- validation

_FAMILIES = ("q", "m_amp", "r", "n_amp")


def _families_with(index, value):
    families = [[0.0], [1.0], [5.0], [2.0]]
    families[index] = value
    return families


def test_state_validation():
    # Each fault alone raises its exception naming the family at fault.
    for index, name in enumerate(_FAMILIES):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(FloatingPointError, match=f"^{name} must be finite$"):
                PeakonState(0.0, *_families_with(index, [bad]))
        with pytest.raises(ValueError, match=f"^{name} must be one-dimensional$"):
            PeakonState(0.0, *_families_with(index, [[0.0, 1.0]]))
    for families in (([0.0, 1.0], [1.0], [0.0], [1.0]), ([0.0], [1.0], [0.0], [1.0, 2.0])):
        with pytest.raises(ValueError, match="^positions and amplitudes must pair up"):
            PeakonState(0.0, *families)
    empty = PeakonState(0.0, [], [], [0.0], [1.0])
    assert empty.q.shape == (0,) and empty.q.dtype == np.float64
    ps = PeakonState(0.0, 0.0, np.array(1.0), 5, np.float32(2.0))  # scalars and 0-d arrays
    assert [a.shape for a in (ps.q, ps.m_amp, ps.r, ps.n_amp)] == [(1,)] * 4
    assert all(a.dtype == np.float64 for a in (ps.q, ps.m_amp, ps.r, ps.n_amp))


def test_state_copies_its_inputs():
    q, m_amp = [0.0, 1.0], np.array([2.0, 3.0])
    ps = PeakonState(0.0, q, m_amp, [5.0], [1.0])
    q[0], m_amp[0] = 9.0, 9.0
    assert ps.q.tolist() == [0.0, 1.0] and ps.m_amp.tolist() == [2.0, 3.0]
    assert not np.shares_memory(ps.m_amp, m_amp)


def test_evolve_validation_and_blowup_guard():
    ps = PeakonState(0.0, [0.0], [10.0], [5.0], [1.0])
    with pytest.raises(ConfigurationError):
        evolve_peakons(ps, 1.0, -1e-3)
    with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
        evolve_peakons(ps, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        evolve_peakons(ps, -1.0, 1e-3)
    assert evolve_peakons(ps, 0.0, 1e-3) == [ps]
    for march in (evolve_peakon_path, evolve_peakons):  # NaN is not >= the start
        with pytest.raises(ConfigurationError, match="t_end must be >= start time 0.0, got nan"):
            march(ps, float("nan"), 1e-3)
    with pytest.raises(BlowUpError) as info:
        evolve_peakons(ps, 1.0, 1e-3, blowup_factor=0.01)
    assert info.value.trajectory == [ps]


@pytest.mark.parametrize("t_end", [0.0, 1e-13])
def test_a_span_within_round_off_takes_no_step(t_end):
    # The one row is the start state, its time pinned to t_end.
    ps = PeakonState(0.0, [0.0, 2.0], [10.0, 1.0], [1.0], [1.0])
    for start in (ps, PeakonState(0.0, [0.0], [10.0], [1.0], [1.0])):
        path = evolve_peakon_path(start, t_end, 1e-3)
        assert path.tolist() == [[t_end, *start.q, *start.m_amp, *start.r, *start.n_amp]]


def _poison_from_call_41(monkeypatch, name):
    """Replace the rate function ``name`` by one that returns NaN rates from
    its 41st call, the first stage of step 11, on; returns the call log."""
    real_rates, calls = getattr(peakons_module, name), []

    def poisoned(*args):
        calls.append(None)
        rates = real_rates(*args)
        if len(calls) <= 40:
            return rates
        return rates * np.nan if isinstance(rates, np.ndarray) else [v * np.nan for v in rates]

    monkeypatch.setattr(peakons_module, name, poisoned)
    return calls


def _assert_nan_step_stops_the_march(ps, calls):
    with pytest.raises(BlowUpError, match=r"non-finite peakon state at t = 0\.011") as info:
        evolve_peakons(ps, 1.0, 1e-3)
    traj = info.value.trajectory
    assert len(traj) == 11 and traj[0] is ps and info.value.state is traj[-1]
    assert traj[-1].t == pytest.approx(0.010, abs=1e-15)
    assert all(np.all(np.isfinite(s.m_amp)) for s in traj)
    assert len(calls) == 44  # the poisoned step was not subdivided


def test_non_finite_state_raises_blowup_with_the_states_before_it(monkeypatch):
    # Poison the rates from the first stage of step 11: the march must stop
    # with BlowUpError after step 10, not split the NaN step 2^20 times or
    # let a FloatingPointError escape.  A pair marches on floats, through
    # _pair_rates.
    calls = _poison_from_call_41(monkeypatch, "_pair_rates")
    _assert_nan_step_stops_the_march(PeakonState(0.0, [0.0], [10.0], [5.0], [1.0]), calls)


def test_non_finite_train_state_raises_blowup_with_the_states_before_it(monkeypatch):
    # The same for a 2x1 train, which marches on arrays through _rates.
    calls = _poison_from_call_41(monkeypatch, "_rates")
    _assert_nan_step_stops_the_march(
        PeakonState(0.0, [0.0, -3.0], [10.0, 1.0], [5.0], [1.0]), calls)


def test_blowup_in_the_path_march_carries_the_partial_path():
    ps = PeakonState(0.0, [0.0], [10.0], [5.0], [1.0])
    with pytest.raises(BlowUpError, match="blow-up threshold") as info:
        evolve_peakon_path(ps, 1.0, 1e-3, blowup_factor=0.01)
    assert info.value.trajectory.shape == (1, 5)
    assert info.value.trajectory[0].tolist() == [0.0, 0.0, 10.0, 5.0, 1.0]
    state = info.value.state
    assert state.t == 0.0 and state.m_amp.tolist() == [10.0] and state.r.tolist() == [5.0]


@pytest.mark.parametrize("factor", [float("nan"), 0.0])
def test_a_nan_or_non_positive_blowup_factor_is_refused(factor):
    ps = PeakonState(0.0, [0.0], [10.0], [5.0], [1.0])
    with pytest.raises(ConfigurationError, match="blow-up factor"):
        evolve_peakon_path(ps, 1.0, 1e-3, blowup_factor=factor)
    with pytest.raises(ConfigurationError, match="blow-up factor"):
        evolve_peakons(ps, 1.0, 1e-3, blowup_factor=factor)


@pytest.mark.parametrize("ps, rows", [
    (PeakonState(0.0, [0.0], [2.0], [1.0], [-1.0]), 1088),
    (PeakonState(0.0, [0.0, 3.0], [2.0, 0.5], [1.0], [-1.0]), 1137),
], ids=["pair", "train"])
def test_a_blowup_path_is_a_prefix_of_the_unthresholded_march(ps, rows):
    # Opposite-sign amplitudes grow past 1.2 * 2; the threshold only stops
    # the march, so the partial path is the same march, row for row.
    with pytest.raises(BlowUpError) as info:
        evolve_peakon_path(ps, 5.0, 1e-3, blowup_factor=1.2)
    partial_path = info.value.trajectory
    assert len(partial_path) == rows
    full = evolve_peakon_path(ps, 5.0, 1e-3)
    assert partial_path.tobytes() == full[:rows].tobytes()


# ----------------------------------------------------------------- the march

def _oracle_rates(q, m, r, n):
    """The four canonical equations, written out with the public kernel."""
    kq = kernel(q[:, None] - r[None, :])
    kpq = kernel_derivative(q[:, None] - r[None, :])
    kr = kernel(r[:, None] - q[None, :])
    kpr = kernel_derivative(r[:, None] - q[None, :])
    return (np.sum(kq * n[None, :], axis=1), -m * np.sum(kpq * n[None, :], axis=1),
            np.sum(kr * m[None, :], axis=1), -n * np.sum(kpr * m[None, :], axis=1))


def _oracle_march(ps, steps, dt):
    """Classical RK4 on the four arrays, with no collision subdivision."""
    y = [ps.q, ps.m_amp, ps.r, ps.n_amp]
    out = [y]
    for _ in range(steps):
        k1 = _oracle_rates(*y)
        k2 = _oracle_rates(*(a + 0.5 * dt * k for a, k in zip(y, k1)))
        k3 = _oracle_rates(*(a + 0.5 * dt * k for a, k in zip(y, k2)))
        k4 = _oracle_rates(*(a + dt * k for a, k in zip(y, k3)))
        y = [a + (dt / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
             for a, s1, s2, s3, s4 in zip(y, k1, k2, k3, k4)]
        out.append(y)
    return out


def _assert_well_formed(traj):
    for s in traj:
        for a in (s.q, s.m_amp, s.r, s.n_amp):
            assert a.ndim == 1 and a.dtype == np.float64 and np.all(np.isfinite(a))
        assert s.q.shape == s.m_amp.shape and s.r.shape == s.n_amp.shape
    for i, first in enumerate(traj):
        for second in traj[i + 1:]:
            for a in (first.q, first.m_amp, first.r, first.n_amp):
                for b in (second.q, second.m_amp, second.r, second.n_amp):
                    assert not np.shares_memory(a, b)


def test_march_matches_the_canonical_equations_to_the_last_bit():
    dt = 2.0**-9
    ps = PeakonState(0.0, [0.0], [10.0], [5.0], [1.0])
    traj = evolve_peakons(ps, 200 * dt, dt)
    oracle = _oracle_march(ps, 200, dt)
    assert len(traj) == len(oracle) == 201
    for s, (q, m, r, n) in zip(traj, oracle):
        for got, want in ((s.q, q), (s.m_amp, m), (s.r, r), (s.n_amp, n)):
            assert np.array_equal(got, want)
    assert [s.t for s in traj] == pytest.approx([k * dt for k in range(201)], abs=1e-15)
    _assert_well_formed(traj)


def test_train_march_matches_the_canonical_equations():
    dt = 2.0**-9
    ps = PeakonState(0.0, [-6.0, -4.0, -2.0], [1.0, 0.5, 0.8], [2.0, 5.0], [0.7, 1.2])
    traj = evolve_peakons(ps, 60 * dt, dt)
    oracle = _oracle_march(ps, 60, dt)
    for s, (q, m, r, n) in zip(traj, oracle):
        assert np.all(q[:, None] < r[None, :])  # no crossing, so no split
        want = np.concatenate((q, m, r, n))
        got = np.concatenate((s.q, s.m_amp, s.r, s.n_amp))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    _assert_well_formed(traj)


def test_collision_step_is_subdivided():
    # q - r = 0.02 closes at ~4.5 per unit time, so the pair crosses at
    # t ~ 0.0044, inside the first coarse step.  Cut at the located
    # collision, the coarse march stays within 4.4e-8 of a fine one (2.5e-9
    # after the crossing step, gated on its own; the rest is RK4's own error
    # at dt = 0.01).  A plain RK4 march through the kink, signs taken per
    # stage, is 4.0e-2 off.
    ps = PeakonState(0.0, [0.0], [10.0], [-0.02], [1.0])
    fine = evolve_peakons(ps, 0.1, 1e-5)

    def max_error(coarse):
        return max(
            float(np.max(np.abs(np.concatenate((c.q - f.q, c.m_amp - f.m_amp,
                                                c.r - f.r, c.n_amp - f.n_amp)))))
            for c, f in zip(coarse, fine[::1000]))

    coarse = evolve_peakons(ps, 0.1, 1e-2)
    assert max_error(coarse[:2]) < 1e-8  # the crossing step, to t = 0.01
    assert max_error(coarse) < 1e-7
    plain = [PeakonState(0.0, *y) for y in _oracle_march(ps, 10, 1e-2)]
    assert max_error(plain) > 1e-2


@pytest.mark.parametrize("m, separation, t_end, dt", [
    (10.0, 1.0, 13.0, 1.0), (10.0, 0.0, 13.0, 0.9), (10.0, 0.3, 13.0, 0.8),
    (1000.0, 1.0, 13.0, 0.01),
])
def test_coarse_steps_across_collisions_stay_on_an_orbit(m, separation, t_end, dt):
    # Steps far across a collision are cut there as well.  A cut placed at
    # the first cubic guess, refined once, flipped an amplitude's sign in
    # the second and third cases and ran into the blow-up threshold.  The
    # waltz keeps both amplitudes positive, and each RK4 stage conserves
    # their total.
    path = evolve_peakon_path(PeakonState(0.0, [0.0], [m], [separation], [1.0]), t_end, dt)
    assert path[-1, 0] == t_end and np.all(np.isfinite(path))
    assert np.all(path[:, [2, 4]] > 0.0)
    totals = peakon_path_invariants(path, 1)[1]
    assert np.max(np.abs(totals - (m + 1.0))) < 1e-12 * m


def test_one_step_across_two_collisions_locates_both(monkeypatch):
    # m = 1.1 and n = 1 from one point collide every 0.1818..., so a single
    # step of 0.4 crosses twice: each crossing is located, and the pair
    # sign flips at both.  Measured: 6.3e-7 and 7.1e-9 off the exact
    # times, 1.4e-6 in w and 2.5e-8 in z at t = 0.4.
    found = _spy_on(monkeypatch, "locate_event")
    path = evolve_peakon_path(PeakonState(0.0, [0.0], [1.1], [0.0], [1.0]), 0.4, 0.4)
    w, z, collisions = waltz_exact(1.1, 1.0, 0.0, 0.4)
    assert found == pytest.approx(collisions[1:], abs=1e-6)
    assert path[-1, 2] - path[-1, 4] == pytest.approx(float(w), abs=1e-5)
    assert path[-1, 1] - path[-1, 3] == pytest.approx(float(z), abs=1e-7)


WALTZ = PeakonState(0.0, [0.0], [10.0], [1.0], [1.0])
# Collides repeatedly: 7 collisions are located on the way to t = 5 at dt = 1e-3.
TRAIN_3X2 = PeakonState(0.0, [-1.0, 0.0, 1.0], [1.0, 2.0, 1.0], [-0.5, 0.5], [1.0, 1.5])


@pytest.mark.parametrize("ps, t_end, dt, rising", [
    (WALTZ, 3.0, 1e-4, True), (PeakonState(0.0, [0.0], [2.0], [1.0], [-1.0]), 3.0, 1e-4, False),
    (TRAIN_3X2, 2.0, 2e-4, True),
], ids=["waltz", "opposite-signs", "train-3x2"])
def test_exp_moments_move_at_their_exact_rates(ps, t_end, dt, rising):
    # E_+- = sum m_a e^{+-q_a} + sum n_b e^{+-r_b} change at dE_+/dt =
    # sum m_a n_b e^{min(q_a, r_b)} and dE_-/dt = -sum m_a n_b e^{-max(q_a, r_b)}:
    # with m and n of one sign E_+ rises and E_- falls, with opposite signs
    # the reverse.  Neither pair collides before t = 3; the train collides
    # three times before t = 2, and a stencil across a sign change of any
    # q_a - r_b, where the rate has a kink, is left out.  The five-point
    # difference along the path reads the rates to 7.0e-12 to 1.5e-11
    # relative for the pairs, and to 1.8e-12 (E_+) and 3.4e-12 (E_-) for the
    # train, against 1.8e-5 with the 12 stencils across its collisions.
    _, dt = substeps(t_end, dt)
    path = evolve_peakon_path(ps, t_end, dt)
    count, other = ps.q.size, ps.r.size
    q, m = path[:, 1:1 + count], path[:, 1 + count:1 + 2 * count]
    r, n = path[:, 1 + 2 * count:1 + 2 * count + other], path[:, 1 + 2 * count + other:]
    sides = np.sign(q[:, :, None] - r[:, None, :])
    flips = np.any(sides[1:] != sides[:-1], axis=(1, 2))
    # The stencil centred on row i spans the four steps i - 2 ... i + 1.
    smooth = ~np.convolve(flips, np.ones(4), mode="valid").astype(bool)
    assert smooth.size == len(path) - 4 and smooth.mean() > 0.99
    mid = slice(2, -2)
    mn = m[mid, :, None] * n[mid, None, :]
    for side in (1.0, -1.0):
        moment = np.sum(m * np.exp(side * q), axis=1) + np.sum(n * np.exp(side * r), axis=1)
        rate = (moment[:-4] - 8.0 * moment[1:-3] + 8.0 * moment[3:-1] - moment[4:]) / (12.0 * dt)
        exact = side * np.sum(mn * np.exp(np.minimum(side * q[mid, :, None],
                                                     side * r[mid, None, :])), axis=(1, 2))
        error = np.abs(rate - exact) / np.abs(exact)
        assert np.max(error[smooth]) < 1e-10, side
        assert np.all(np.diff(moment) * side * (1.0 if rising else -1.0) > 0.0), side


@pytest.mark.parametrize("ps, t_end", [(WALTZ, 6.0), (TRAIN_3X2, 5.0)])
def test_path_rows_are_the_listed_states_bit_for_bit(ps, t_end):
    path = evolve_peakon_path(ps, t_end, 1e-2)
    traj = evolve_peakons(ps, t_end, 1e-2)
    assert path.shape == (len(traj), 1 + 2 * ps.q.size + 2 * ps.r.size)
    # One clock for every march: row k at t0 + k dt_eff, the last at t_end.
    n_steps, dt_eff = substeps(t_end - ps.t, 1e-2)
    assert path[:-1, 0].tolist() == [ps.t + k * dt_eff for k in range(n_steps)]
    assert path[-1, 0] == t_end
    for row, s in zip(path, traj):
        assert row[0] == s.t
        assert row[1:].tobytes() == np.concatenate((s.q, s.m_amp, s.r, s.n_amp)).tobytes()


def _array_pair_path(ps, t_end, dt, blowup_factor=1e6):
    """evolve_peakon_path of a 1x1 state, marched on arrays with
    _train_step, collisions included: (path, BlowUpError message or None)."""
    y = np.concatenate((ps.q, ps.m_amp, ps.r, ps.n_amp))
    threshold = blowup_factor * max(1.0, abs(y[1]), abs(y[3]))
    n_steps, dt_eff = substeps(t_end - ps.t, dt)
    t, signs, rows = ps.t, peakons_module._start_signs(y, 1), [(ps.t, *y)]
    for k in range(n_steps):
        y, signs = peakons_module._train_step(t, y, signs, dt_eff, count=1)
        t = ps.t + (k + 1) * dt_eff
        peak = max(abs(y[1]), abs(y[3]))
        if peak > threshold:
            return np.array(rows), (f"peakon amplitude {float(peak)!r} exceeded the blow-up "
                                    f"threshold {float(threshold)!r} at t = {t:.6g}")
        rows.append((float(t_end) if k == n_steps - 1 else t, *y))
    return np.array(rows), None


@pytest.mark.parametrize("q, m, r, n, t_end, factor, orbits", [
    (0.0, 10.0, 1.0, 1.0, 13.0, 1e6, True),      # the canonical waltz
    (0.0, 10.0, 0.0, 1.0, 6.5, 1e6, True),       # scan points
    (0.0, 10.0, 0.4, 1.0, 6.5, 1e6, True),
    (0.0, 10.0, 5.0, 1.0, 20.0, 1e6, False),
    (0.0, 10.0, 6.1e-4, 1.0, 6.5, 1e6, True),    # collisions split steps
    (0.0, 10.0, 3e-3, 1.0, 6.5, 1e6, True),
    (0.0, 2.0, 1.0, -1.0, 5.0, 1e6, False),      # opposite signs separate
    (0.0, 2.0, 1.0, -1.0, 5.0, 1.2, False),      # ... and cross the threshold
], ids=["waltz", "r0", "r0.4", "r5", "sep6.1e-4", "sep3e-3", "m2n-1", "blowup"])
def test_pair_march_is_the_array_march_bit_for_bit(q, m, r, n, t_end, factor, orbits):
    ps = PeakonState(0.0, [q], [m], [r], [n])
    want, message = _array_pair_path(ps, t_end, 1e-3, factor)
    if message is None:
        path = evolve_peakon_path(ps, t_end, 1e-3, blowup_factor=factor)
    else:
        with pytest.raises(BlowUpError) as info:
            evolve_peakon_path(ps, t_end, 1e-3, blowup_factor=factor)
        assert str(info.value) == message
        path, state = info.value.trajectory, info.value.state
        assert state.t == path[-1, 0]
        assert [state.q[0], state.m_amp[0], state.r[0], state.n_amp[0]] == path[-1, 1:].tolist()
    assert path.shape == want.shape and path.tobytes() == want.tobytes()
    if orbits:
        assert measure_waltz_path(path) == measure_waltz_path(want)


def _spy_on(monkeypatch, name) -> list:
    """Record the time t of every (t, state) that the peakon module's
    ``name`` returns, in order: march.locate_event for collisions and
    turns alike, _locate_turn for the turns alone."""
    found, real = [], getattr(peakons_module, name)

    def spy(*args):
        t, y = real(*args)
        found.append(t)
        return t, y

    monkeypatch.setattr(peakons_module, name, spy)
    return found


def test_collision_cases_split_steps(monkeypatch):
    # A step that crosses a collision is cut at the time the event finder
    # locates, which must be the exact collision time.  The coincident
    # start collides at t = 0, 1.8, 3.6 and 5.4; the first is the start,
    # which the march leaves along the gap's rate.  The canonical waltz
    # collides at 5.24885354 and 10.85365332, the 0.02 start at dt = 0.01
    # once, and the close starts of the bit-identity test three times each.
    # Measured: within 3.3e-11 (RK4's phase drift at this speed; 9.6e-13
    # at dt = 2.5e-4), 1.3e-12, 4.6e-10 and 3.1e-11.
    assert waltz_exact(10.0, 1.0, 0.0, 6.5)[2] == pytest.approx([0.0, 1.8, 3.6, 5.4], abs=1e-12)
    assert waltz_exact(10.0, 1.0, 1.0, 13.0)[2] == pytest.approx([5.24885354, 10.85365332],
                                                                 abs=1e-8)
    found = _spy_on(monkeypatch, "locate_event")
    for sep, t_end, dt, tol in ((0.0, 6.5, 1e-3, 1e-10), (1.0, 13.0, 1e-3, 1e-11),
                                (-0.02, 0.5, 1e-2, 1e-9), (6.1e-4, 6.5, 1e-3, 1e-10),
                                (3e-3, 6.5, 1e-3, 1e-10)):
        found.clear()
        evolve_peakon_path(PeakonState(0.0, [0.0], [10.0], [sep], [1.0]), t_end, dt)
        exact = waltz_exact(10.0, 1.0, sep, t_end)[2]
        exact = exact[exact > 0.0]
        # Each exact collision is located once, and nothing else.
        assert len(found) == len(exact), (sep, found)
        assert all(abs(f - c) < tol for f, c in zip(found, exact)), (sep, found)


def _random_train_path(rng, m_count, n_count, rows=40):
    path = rng.normal(size=(rows, 1 + 2 * (m_count + n_count)))
    path[:, 0] = np.arange(rows)
    return path


@pytest.mark.parametrize("make_path, count", [
    (lambda: evolve_peakon_path(WALTZ, 6.0, 1e-2), 1),
    (lambda: evolve_peakon_path(TRAIN_3X2, 5.0, 1e-2), 3),
    (lambda: _random_train_path(np.random.default_rng(7), 8, 7), 8),
    (lambda: evolve_peakon_path(PeakonState(0.0, [0.0, 1.0], [2.0, -1.0], [], []),
                                0.1, 1e-2), 2),
    (lambda: evolve_peakon_path(PeakonState(0.0, [], [], [0.5], [-1.0]), 0.1, 1e-2), 0),
])
def test_path_invariants_are_the_per_state_values_bit_for_bit(make_path, count):
    path = make_path()
    hams, totals = peakon_path_invariants(path, count)
    width = path.shape[1] - 1
    mid = (width + 2 * count) // 2 + 1
    states = [PeakonState(row[0], row[1:1 + count], row[1 + count:1 + 2 * count],
                          row[1 + 2 * count:mid], row[mid:]) for row in path]
    want_hams = np.array([peakon_hamiltonian(s) for s in states])
    want_totals = np.array([np.sum(s.m_amp) + np.sum(s.n_amp) for s in states])
    assert hams.tobytes() == want_hams.tobytes()
    assert totals.tobytes() == want_totals.tobytes()


def test_path_waltz_measurement_is_the_list_measurement():
    ps = PeakonState(0.0, [0.0], [10.0], [0.0], [1.0])
    path = evolve_peakon_path(ps, 4.0, 1e-3)
    assert measure_waltz_path(path) == measure_waltz(evolve_peakons(ps, 4.0, 1e-3))
    with pytest.raises(ValueError):
        measure_waltz_path(evolve_peakon_path(TRAIN_3X2, 0.1, 1e-2))


def test_swap_error_across_a_collision_at_the_half_period(monkeypatch):
    # Starting 6.1e-4 to 3e-3 apart, the pair collides within a sample of
    # T/2.  Three-point interpolation across that kink read a swap error of
    # 2.4e-3 at 6.1e-4; a cubic fitted to the crossing across it read
    # 2.8e-6 to 4.2e-6, with t_half 3e-7 off.  Located by the event finder
    # on the step, the turns read swap errors of 2.5e-12 to 1.7e-11 and
    # periods within 2e-11 of the closed form.
    turns = _spy_on(monkeypatch, "_locate_turn")
    for separation in (6.1e-4, 2e-3, 3e-3):
        ps = PeakonState(0.0, [0.0], [10.0], [separation], [1.0])
        path = evolve_peakon_path(ps, 6.5, 1e-3)
        turns.clear()
        period, swap_error = measure_waltz_path(path)
        exact = waltz_period_closed_form(10.0, 1.0, separation)
        assert abs(period - exact) < 1e-8, separation
        assert swap_error < 1e-8, separation
        # The orbit's point symmetry puts the antipode of the start at T/2.
        w, z, _ = waltz_exact(10.0, 1.0, separation, 0.5 * exact)
        assert (w, z) == (pytest.approx(-9.0, abs=1e-12), pytest.approx(separation, abs=1e-12))
        assert abs(turns[0] - 0.5 * exact) < 1e-9, separation  # the half turn


def test_the_half_turn_is_marched_from_the_nearer_sample():
    # T/2 = 5.6048 lies between the samples at 5.604 and 5.605; the half
    # turn is stepped back from the later one, so a fault there shows.
    path = evolve_peakon_path(WALTZ, 13.0, 1e-3)
    i = int(np.searchsorted(path[:, 0], 0.5 * waltz_period_closed_form(10.0, 1.0, 1.0)))
    assert path[i - 1, 0] == pytest.approx(5.604) and path[i, 0] == pytest.approx(5.605)
    for row, seen in ((i - 1, False), (i, True)):
        faulty = path.copy()
        faulty[row, 2] *= 1.0 + 1e-3
        assert (measure_waltz_path(faulty)[1] > 1e-4) == seen, row


def test_a_turn_on_a_sample_is_read_from_that_sample(monkeypatch):
    # Overwrite the first samples past T/2 and past T with the exact
    # antipode and the exact start: each turn is then that sample itself,
    # so the swap error is exactly 0 and the period that sample's time.
    path = evolve_peakon_path(WALTZ, 13.0, 1e-3)
    exact = waltz_period_closed_form(10.0, 1.0, 1.0)
    i_half = int(np.searchsorted(path[:, 0], 0.5 * exact))
    i_full = int(np.searchsorted(path[:, 0], exact))
    path[i_half, 1:] = path[0, [3, 4, 1, 2]]  # the families swapped: (-z0, -w0)
    path[i_full, 1:] = path[0, 1:]
    found = _spy_on(monkeypatch, "locate_event")
    assert measure_waltz_path(path) == (path[i_full, 0], 0.0)
    assert found == []  # read from the samples, not located


# ------------------------------------------------------------------- orbits

def test_equal_amplitudes_at_coincidence_comove():
    # The symmetric coincident pair is a relative fixed point: both peakons
    # travel together at constant speed m*K(0) with frozen amplitudes.
    ps = PeakonState(0.0, [0.0], [3.0], [0.0], [3.0])
    traj = evolve_peakons(ps, 0.5, 1e-2)
    final = traj[-1]
    assert abs(final.q[0] - final.r[0]) < 1e-13
    assert final.m_amp[0] == pytest.approx(3.0, abs=1e-13)
    assert final.q[0] == pytest.approx(1.5 * 0.5, abs=1e-12)


def test_closed_form_period_values_and_validation():
    # Coincident start: the period reduces to 4|m - n| / (m n).
    assert waltz_period_closed_form(10.0, 1.0, 0.0) == pytest.approx(3.6, abs=1e-14)
    with pytest.raises(ConfigurationError):
        waltz_period_closed_form(10.0, -1.0, 1.0)  # opposite signs never orbit
    with pytest.raises(ConfigurationError):
        waltz_period_closed_form(2.0, 2.0, 0.0)  # stationary symmetric pair


def test_quick_orbit_matches_closed_form_period():
    traj = evolve_peakons(PeakonState(0.0, [0.0], [10.0], [0.0], [1.0]), 4.0, 1e-3)
    period, swap_error = measure_waltz(traj)
    assert period == pytest.approx(3.6, abs=1e-7)  # measured gap 2.0e-11
    assert swap_error < 1e-6                       # measured 2.9e-14


def test_waltz_measurement_error_paths():
    ps = PeakonState(0.0, [0.0], [10.0], [5.0], [1.0])
    with pytest.raises(MeasurementError):
        measure_waltz(evolve_peakons(ps, 0.005, 1e-3))  # too few samples
    with pytest.raises(MeasurementError, match="one orbit"):
        measure_waltz(evolve_peakons(ps, 2.0, 1e-3))  # far short of a winding
    stationary = PeakonState(0.0, [0.0], [3.0], [0.0], [3.0])
    with pytest.raises(MeasurementError, match="stationary"):
        measure_waltz(evolve_peakons(stationary, 0.5, 1e-2))
    crowd = PeakonState(0.0, [0.0, 1.0], [1.0, 1.0], [2.0], [1.0])
    with pytest.raises(ValueError):
        measure_waltz(evolve_peakons(crowd, 0.1, 1e-2))


def test_exact_waltz_period_and_collisions():
    w, z, collisions = waltz_exact(10.0, 1.0, 1.0, [0.0, 1.0])
    assert w[0] == 9.0 and z[0] == pytest.approx(-1.0, abs=1e-15)
    period = waltz_period_closed_form(10.0, 1.0, 1.0)
    w, z, collisions = waltz_exact(10.0, 1.0, 1.0, [period, 3.0 * period])
    assert w == pytest.approx([9.0, 9.0], abs=1e-12)
    assert z == pytest.approx([-1.0, -1.0], abs=1e-12)
    assert np.diff(collisions) == pytest.approx([0.5 * period] * 5, rel=1e-12)
    # a coincident start is a collision at t = 0, and the period is 4|m - n| / (m n)
    assert waltz_exact(10.0, 1.0, 0.0, 3.6)[2] == pytest.approx([0.0, 1.8, 3.6], abs=1e-12)
    with pytest.raises(ConfigurationError):
        waltz_exact(10.0, -1.0, 1.0, 1.0)


def test_canonical_waltz_path_follows_the_exact_orbit():
    # The error is 4.6e-12 before the first collision and 8.3e-12 after it,
    # to t = 13: a collision located on the step adds little (7.0e-9 when
    # collisions were bisected to a first-order leaf).
    path = evolve_peakon_path(WALTZ, 13.0, 1e-3)
    w, z, collisions = waltz_exact(10.0, 1.0, 1.0, path[:, 0])
    assert len(collisions) == 2
    error = np.maximum(np.abs(path[:, 2] - path[:, 4] - w), np.abs(path[:, 1] - path[:, 3] - z))
    before = path[:, 0] < collisions[0]
    assert np.max(error[before]) < 1e-10
    assert np.max(error[~before]) < 1e-10
    # The exact period is twice the collision spacing and the exact swap
    # error is 0; measured 8.3e-13 and 6.5e-13.
    period, swap_error = measure_waltz_path(path)
    assert period == pytest.approx(2.0 * (collisions[1] - collisions[0]), abs=1e-10)
    assert swap_error < 1e-10


# ------------------------------------------------------------------- fields

def test_fields_on_a_grid():
    g = make_grid(30.0, 256)
    ps = PeakonState(0.0, [1.0], [2.0], [], [])
    u, v = peakon_fields(ps, g)
    assert np.allclose(u.values, 2.0 * green_kernel_eval(g.nodes - 1.0, 30.0))
    assert np.all(v.values == 0.0)
    assert peakon_hamiltonian(ps) == 0.0  # no opposite family to couple to
    both = PeakonState(0.0, [1.0], [2.0], [-1.0, 3.0], [0.5, -1.5])
    u, v = peakon_fields(both, g)
    assert np.allclose(u.values, 2.0 * green_kernel_eval(g.nodes - 1.0, 30.0))
    assert np.allclose(v.values, 0.5 * green_kernel_eval(g.nodes + 1.0, 30.0)
                       - 1.5 * green_kernel_eval(g.nodes - 3.0, 30.0))
    outside = PeakonState(0.0, [40.0], [1.0], [0.0], [1.0])
    with pytest.raises(DomainTooSmallError):
        peakon_fields(outside, g)
