"""Momentum-form RK4 stepping: validation, guards, reductions, dealiasing."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

from cchlab import solver as solver_module
from cchlab.characteristics import init_characteristics
from cchlab.config import build_grid, build_initial_condition, parse_config
from cchlab.diagnostics import compute_record, settings_from_initial
from cchlab.errors import BlowUpError, ConfigurationError, StabilityError
from cchlab.grid import Field, make_grid
from cchlab.peakons import PeakonState, evolve_peakon_path
from cchlab.solver import (CH_REDUCTION, COMPLEX_CONJUGATE, COUPLED, PdeState,
                           evolve, evolve_real_form, recover_velocity,
                           rhs_complex_real_form, rhs_momentum, step_rk4)

from conftest import bump_values


@pytest.fixture()
def small_state():
    g = make_grid(20.0, 256)
    m = Field(g, bump_values(g.nodes, -1.0, 3.0, 0.5))
    n = Field(g, bump_values(g.nodes, 1.0, 3.0, 0.5))
    return PdeState(0.0, m, n)


# ----------------------------------------------------------------- validation

def test_state_validation():
    g = make_grid(20.0, 256)
    other = make_grid(20.0, 512)
    f = Field(g, np.zeros(256))
    with pytest.raises(ConfigurationError):
        PdeState(0.0, f, f, "no_such_mode")
    with pytest.raises(ValueError):
        PdeState(0.0, f, Field(other, np.zeros(512)))
    bumped = Field(g, bump_values(g.nodes, 0.0, 3.0, 1.0))
    with pytest.raises(ValueError, match=r"ch_reduction requires m == n \(gap"):
        PdeState(0.0, bumped, f, CH_REDUCTION)
    with pytest.raises(ValueError, match=r"complex_conjugate requires n == conj\(m\) \(gap"):
        PdeState(0.0, Field(g, bumped.values * 1j), Field(g, bumped.values * 1j),
                 COMPLEX_CONJUGATE)


def test_step_rejects_bad_dt(small_state):
    with pytest.raises(ConfigurationError):
        step_rk4(small_state, 0.0)
    with pytest.raises(ConfigurationError):
        step_rk4(small_state, float("nan"))
    with pytest.raises(StabilityError):
        step_rk4(small_state, 1e6)  # far beyond the advective bound


def test_evolve_rejects_bad_output_times(small_state):
    with pytest.raises(ConfigurationError):
        evolve(small_state, 1.0, -1e-3)
    with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
        evolve(small_state, 1.0, 0.0)
    with pytest.raises(ConfigurationError):
        evolve(small_state, 1.0, 1e-3, output_times=[0.5, 0.5])
    with pytest.raises(ConfigurationError):
        evolve(small_state, 1.0, 1e-3, output_times=[0.0, 2.0])
    with pytest.raises(ConfigurationError):
        evolve(small_state, 1.0, 1e-3, output_times=[])
    with pytest.raises(ConfigurationError):
        evolve(small_state, -1.0, 1e-3)


# -------------------------------------------------------------------- guards

def test_zero_state_is_a_fixed_point():
    g = make_grid(20.0, 256)
    zero = PdeState(0.0, Field(g, np.zeros(256)), Field(g, np.zeros(256)))
    out = step_rk4(zero, 0.1)
    assert np.all(out.m.values == 0.0) and np.all(out.n.values == 0.0)
    assert out.t == 0.1


def test_blowup_guard_carries_last_state(small_state):
    with pytest.raises(BlowUpError) as info:
        step_rk4(small_state, 1e-3, blowup_factor=1e-9)
    assert info.value.state is small_state

    with pytest.raises(BlowUpError) as info:
        evolve(small_state, 0.1, 1e-3, blowup_factor=1e-9)
    assert info.value.trajectory is not None
    assert len(info.value.trajectory.states) == 1  # the t = 0 snapshot


@pytest.mark.parametrize("limit", [float("nan"), 0.0, -1.0])
def test_a_nan_or_non_positive_blowup_limit_is_refused(small_state, limit):
    with pytest.raises(ConfigurationError, match="blow-up factor"):
        step_rk4(small_state, 1e-3, blowup_factor=limit)
    with pytest.raises(ConfigurationError, match="blow-up factor"):
        evolve(small_state, 0.1, 1e-3, blowup_factor=limit)
    # No limit at all is still allowed.
    assert step_rk4(small_state, 1e-3, blowup_factor=float("inf")).t == 1e-3


def test_blowup_messages_give_full_digits_and_name_a_non_finite_state(small_state,
                                                                     monkeypatch):
    with pytest.raises(BlowUpError, match=r"^momentum magnitude \S+ exceeded the blow-up "
                                          r"threshold 1e-09 at t = 0\.001$"):
        step_rk4(small_state, 1e-3, blowup_factor=1e-9)
    monkeypatch.setattr(solver_module, "rk4_step", lambda rate, y, dt: y * np.nan)
    with pytest.raises(BlowUpError, match=r"^non-finite momentum at t = 0\.001$"):
        step_rk4(small_state, 1e-3)


def test_forward_backward_step_cancels_to_high_order(grid_standard):
    # One step of +dt then one of -dt returns to the start up to the local
    # truncation error; halving dt shrinks the defect by >= 2^4.
    g = grid_standard
    st = PdeState(0.0, Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0)),
                  Field(g, bump_values(g.nodes, 2.0, 3.0, 1.0)))
    def defect(dt):
        back = step_rk4(step_rk4(st, dt), -dt)
        return float(np.max(np.abs(back.m.values - st.m.values)))
    big, small = defect(1e-2), defect(5e-3)
    assert big < 1e-11  # measured 2.6e-13
    assert big / max(small, 1e-300) > 16.0


# ---------------------------------------------------------------- reductions

def test_single_family_reduction_rates_coincide():
    g = make_grid(20.0, 256)
    m = Field(g, bump_values(g.nodes, 0.0, 3.0, 1.0))
    st = PdeState(0.0, m, Field(g, m.values.copy()), CH_REDUCTION)
    dm, dn = rhs_momentum(st)
    assert np.max(np.abs(dm.values - dn.values)) < 1e-14


def test_conjugate_pair_projection_is_exact():
    g = make_grid(20.0, 256)
    mv = g.fwd_helmholtz(bump_values(g.nodes, -1.0, 4.0, 0.2)
                         + 1j * bump_values(g.nodes, 1.0, 4.0, 0.1))
    st = PdeState(0.0, Field(g, mv), Field(g, np.conj(mv)), COMPLEX_CONJUGATE)
    traj = evolve(st, 0.05, 1e-3, output_times=[0.05])
    final = traj.states[-1]
    assert np.max(np.abs(final.n.values - np.conj(final.m.values))) == 0.0


def _final_m(state, t_end=0.1):
    return evolve(state, t_end, 1e-3, output_times=[t_end]).states[-1].m.values


def test_real_march_matches_the_same_data_held_complex(small_state):
    # The half-spectrum (rfft) path of real data and the full-spectrum (fft)
    # path of the same data stored as complex128 are one scheme.
    g = small_state.grid
    as_complex = PdeState(0.0, Field(g, small_state.m.values.astype(np.complex128)),
                          Field(g, small_state.n.values.astype(np.complex128)))
    real_m = _final_m(small_state)
    complex_m = _final_m(as_complex)
    assert np.max(np.abs(complex_m - real_m)) <= 1e-13 * np.max(np.abs(real_m))


@pytest.mark.parametrize("mode", [CH_REDUCTION, COMPLEX_CONJUGATE])
def test_reduced_marches_match_the_coupled_march(mode):
    # A reduction evolves m alone and derives n; marching the same pair as
    # a coupled state, with both rows, must give the same m.
    g = make_grid(20.0, 256)
    if mode == CH_REDUCTION:
        mv = bump_values(g.nodes, 0.0, 3.0, 1.0)
        nv = mv.copy()
    else:
        mv = g.fwd_helmholtz(bump_values(g.nodes, -1.0, 4.0, 0.2)
                             + 1j * bump_values(g.nodes, 1.0, 4.0, 0.1))
        nv = np.conj(mv)
    reduced = _final_m(PdeState(0.0, Field(g, mv), Field(g, nv), mode))
    coupled = _final_m(PdeState(0.0, Field(g, mv), Field(g, nv), COUPLED))
    assert np.max(np.abs(reduced - coupled)) <= 1e-12 * np.max(np.abs(coupled))


def test_importing_the_package_leaves_scipy_unloaded():
    # The package depends on NumPy alone; SciPy is a test-only oracle.
    import cchlab

    src = os.path.dirname(os.path.dirname(os.path.abspath(cchlab.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, cchlab; print('scipy' in sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                           capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def test_rhs_is_dealiased(small_state):
    g = small_state.grid
    dm, dn = rhs_momentum(small_state)
    scale = max(np.max(np.abs(dm.values)), 1e-300)
    for rate in (dm, dn):
        high = np.fft.fft(rate.values)[g.complex_spectrum.keep == 0]
        assert np.max(np.abs(high)) < 1e-12 * scale * g.n_points


def test_real_form_rates_reduce_to_single_equation():
    # A vanishing imaginary part collapses the conjugate pair onto the real
    # single-family system: the imaginary rate is zero and the real rate
    # equals the m-rate of the m = n state.
    g = make_grid(20.0, 256)
    mu_re = Field(g, bump_values(g.nodes, 0.0, 3.0, 1.0))
    zero = Field(g, np.zeros(256))
    da, db = rhs_complex_real_form(mu_re, zero)
    dm, _ = rhs_momentum(PdeState(0.0, mu_re, Field(g, mu_re.values.copy())))
    scale = np.max(np.abs(dm.values))
    assert np.max(np.abs(db.values)) < 1e-14 * max(scale, 1.0)
    assert np.max(np.abs(da.values - dm.values)) < 1e-13 * max(scale, 1.0)


def test_real_form_validation():
    g = make_grid(20.0, 256)
    other = make_grid(20.0, 512)
    real = Field(g, np.zeros(256))
    with pytest.raises(ValueError):
        rhs_complex_real_form(Field(g, np.zeros(256) * 1j), real)
    with pytest.raises(ValueError):
        rhs_complex_real_form(real, Field(other, np.zeros(512)))
    with pytest.raises(ConfigurationError):
        evolve_real_form(real, real, 1.0, -1e-3)
    with pytest.raises(ConfigurationError, match="dt must be positive and finite"):
        evolve_real_form(real, real, 1.0, 0.0)
    with pytest.raises(ValueError, match="the pair must live on the same grid"):
        evolve_real_form(real, Field(other, np.zeros(512)), 1.0, 1e-3)


def test_real_form_march_matches_complex_march():
    g = make_grid(20.0, 256)
    mv = g.fwd_helmholtz(bump_values(g.nodes, -1.0, 4.0, 0.1)
                         + 1j * bump_values(g.nodes, 1.0, 4.0, 0.05))
    st = PdeState(0.0, Field(g, mv), Field(g, np.conj(mv)), COMPLEX_CONJUGATE)
    complex_m = evolve(st, 0.1, 1e-3, output_times=[0.1]).states[-1].m.values
    _, a, b = evolve_real_form(Field(g, mv.real), Field(g, mv.imag),
                               0.1, 1e-3, output_times=[0.1])[-1]
    gap = np.max(np.abs(complex_m - (a.values + 1j * b.values)))
    assert gap < 1e-10 * np.max(np.abs(complex_m))


# ------------------------------------------------------------------ marching

def test_trajectory_snapshots_land_exactly(small_state):
    times = [0.0, 0.013, 0.05, 0.1]
    traj = evolve(small_state, 0.1, 1e-3, output_times=times)
    assert traj.times == times
    assert traj.characteristics is None


def test_zero_span_run_returns_single_snapshot(small_state):
    traj = evolve(small_state, 0.0, 1e-3)
    assert len(traj.states) == 1
    assert traj.states[0].t == 0.0


def test_outputs_within_round_off_of_the_last_take_no_step(small_state):
    # march.substeps gives a span within round-off of zero no step, so an
    # output at the start, 1e-13 below it, or 1e-13 after the one before,
    # snapshots the state as it stands, tracked flows included.  A streamed
    # run sees every snapshot and keeps none; a plain run keeps them all.
    track = init_characteristics(small_state.grid, stride=8)
    times = [-1e-13, 0.01 - 1e-13, 0.01]
    seen = []
    streamed = evolve(small_state, 0.01, 1e-3, output_times=times, track=track,
                      callback=lambda s, cs: seen.append((s.t, cs.t)))
    assert seen == [(t, t) for t in times]
    assert streamed.states == [] and streamed.characteristics is None
    traj = evolve(small_state, 0.01, 1e-3, output_times=times, track=track)
    assert traj.times == [cs.t for cs in traj.characteristics] == times
    first, cs = traj.states[0], traj.characteristics[0]
    assert np.array_equal(first.m.values, small_state.m.values)
    assert np.array_equal(first.n.values, small_state.n.values)
    for name in ("labels", "flows", "phi", "xi", "phi_x", "xi_x"):
        assert np.array_equal(getattr(cs, name), getattr(track, name)), name
    assert np.array_equal(traj.states[2].m.values, traj.states[1].m.values)
    assert np.array_equal(traj.characteristics[2].phi, traj.characteristics[1].phi)
    for t0 in (0.0, 1e-13):
        (t, a, b), _ = evolve_real_form(small_state.m, small_state.n, 0.01, 1e-3,
                                        output_times=[t0, 0.01])
        assert t == t0
        assert np.array_equal(a.values, small_state.m.values)
        assert np.array_equal(b.values, small_state.n.values)


def test_a_streamed_run_keeps_no_snapshot(small_state):
    # With a callback every snapshot goes to it alone: the returned
    # Trajectory, and the one a BlowUpError carries, hold none.
    track = init_characteristics(small_state.grid, stride=8)
    seen = []
    traj = evolve(small_state, 0.02, 1e-3, output_times=[0.0, 0.01, 0.02], track=track,
                  callback=lambda s, cs: seen.append((s, cs)))
    assert [s.t for s, _ in seen] == [cs.t for _, cs in seen] == [0.0, 0.01, 0.02]
    assert traj.states == [] and traj.characteristics is None
    seen.clear()
    with pytest.raises(BlowUpError) as info:
        evolve(small_state, 0.1, 1e-3, blowup_factor=1e-9,
               callback=lambda s, cs: seen.append(s))
    assert [s.t for s in seen] == [0.0]
    assert info.value.trajectory.states == []
    assert info.value.trajectory.characteristics is None


def test_momentum_sum_is_conserved_to_roundoff(small_state):
    traj = evolve(small_state, 0.2, 1e-3, output_times=[0.0, 0.1, 0.2])
    g = small_state.grid
    totals = [float(np.sum(s.m.values + s.n.values)) * g.spacing for s in traj.states]
    assert max(abs(p - totals[0]) for p in totals) < 1e-13 * max(abs(totals[0]), 1.0)


def test_recover_velocity_inverts_the_momentum_map():
    g = make_grid(20.0, 256)
    u_target = bump_values(g.nodes, 0.0, 4.0, 1.0)
    st = PdeState(0.0, Field(g, g.fwd_helmholtz(u_target)),
                  Field(g, np.zeros(256)))
    u, v = recover_velocity(st)
    assert np.max(np.abs(u.values - u_target)) < 1e-10
    assert np.max(np.abs(v.values)) < 1e-14


def test_disjoint_compact_velocities_are_a_steady_state():
    # v vanishes on the support of m and u on that of n, so neither momentum
    # moves and E_± stay 0.  The march holds this to its resolution floor,
    # measured at 4.2e-5 (2048 nodes) and 1.1e-7 (4096 nodes) for max
    # |m - m0| at t = 2, and |E_±| <= 1.8e-6 at 4096 nodes.  At 2048 nodes
    # E_± are weighting noise of order 1e5, so they are gated at 4096 only.
    drifts = {}
    for n_points in (2048, 4096):
        g = make_grid(30.0, n_points)
        m0 = Field(g, g.fwd_helmholtz(bump_values(g.nodes, -6.0, 3.0, 1.0)))
        n0 = Field(g, g.fwd_helmholtz(bump_values(g.nodes, 6.0, 3.0, 1.0)))
        state0 = PdeState(0.0, m0, n0)
        traj = evolve(state0, 2.0, 1e-2, [0.0, 2.0])
        end = traj.states[-1]
        drifts[n_points] = max(float(np.max(np.abs(end.m.values - m0.values))),
                               float(np.max(np.abs(end.n.values - n0.values))))
    assert drifts[2048] >= 100.0 * drifts[4096]
    assert drifts[4096] <= 2e-7
    settings = settings_from_initial(state0)
    for state in traj.states:
        record = compute_record(state, settings)
        assert abs(record.E_plus) <= 3.6e-6 and abs(record.E_minus) <= 3.6e-6


def test_a_mollified_pair_converges_to_the_peakon_ode_at_second_order():
    # Point momenta are weak solutions of the PDE, so mollified peakons of
    # width eps follow the peakon ODE as eps -> 0.  The pair m1 = 2 at 0,
    # n1 = 1 at 0.5 on [-15, 15), against evolve_peakon_path at dt = 1e-4:
    # the PDE minus the ODE at t = 1 in the mass of m and the centroids of
    # m and n, measured at (-5.99e-3, -1.01e-3, 7.34e-4) for eps = 0.1 and
    # (-1.52e-3, -2.41e-4, 1.78e-4) for eps = 0.05.  The gates are a quarter
    # above those values, and halving eps divides each gap by 3.9-4.2.
    _, q, m_amp, r, n_amp = evolve_peakon_path(
        PeakonState(0.0, [0.0], [2.0], [0.5], [1.0]), 1.0, 1e-4)[-1]
    gaps = {}
    for eps, n_points, dt in ((0.1, 2048, 2e-3), (0.05, 4096, 1e-3)):
        cfg = parse_config(f"kind = pde\nhalf_length = 15\nn_points = {n_points}\n"
                           f"m0 = mollified_peakon(0, 2, {eps})\n"
                           f"n0 = mollified_peakon(0.5, 1, {eps})\n")
        g = build_grid(cfg)
        end = evolve(PdeState(0.0, *build_initial_condition(cfg, g)), 1.0, dt, [1.0]).states[-1]
        mass_m, mass_n = (float(np.sum(f.values)) * g.spacing for f in (end.m, end.n))
        centre_m = float(np.sum(g.nodes * end.m.values)) * g.spacing / mass_m
        centre_n = float(np.sum(g.nodes * end.n.values)) * g.spacing / mass_n
        gaps[eps] = np.array((mass_m - m_amp, centre_m - q, centre_n - r))
        assert mass_m + mass_n == pytest.approx(m_amp + n_amp, abs=1e-12)
    assert np.all(np.abs(gaps[0.1]) <= 1.25 * np.array((5.99e-3, 1.01e-3, 7.34e-4)))
    assert np.all(np.abs(gaps[0.05]) <= 1.25 * np.array((1.52e-3, 2.41e-4, 1.78e-4)))
    ratios = gaps[0.1] / gaps[0.05]
    assert np.all((3.5 <= ratios) & (ratios <= 4.5)), ratios
