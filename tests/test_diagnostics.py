"""Conserved quantities, weighted moments, tails, and support measurement."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import scipy.integrate

from cchlab.characteristics import init_characteristics
from cchlab.diagnostics import (CSV_COLUMNS, DEFAULT_SUPPORT_FACTOR,
                                DiagnosticsSettings, boundary_contamination,
                                compute_record, energy_H, exp_moments,
                                momentum_P, moment_rate_check,
                                quadrature_noise_floor, record_header,
                                record_row, settings_from_initial,
                                support_measure, tail_slope,
                                zero_integral_check)
from cchlab.errors import DomainTooSmallError, MeasurementError
from cchlab.grid import Field, green_kernel_eval, make_grid
from cchlab.solver import COMPLEX_CONJUGATE, PdeState, evolve, recover_velocity

from conftest import bump_values


@pytest.fixture(scope="module")
def grid_pi():
    return make_grid(np.pi, 64)


@pytest.fixture(scope="module")
def pinned_momentum(grid_standard):
    g = grid_standard
    return Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0))


# ----------------------------------------------------------- H and P

def test_energy_on_trigonometric_pair(grid_pi):
    # u = v = cos(3x):  integral of cos^2(3x) + 9 sin^2(3x) over one period.
    g = grid_pi
    f = Field(g, np.cos(3.0 * g.nodes))
    assert energy_H(f, f) == pytest.approx(10.0 * np.pi, rel=1e-13)


def test_energy_complex_pair_is_half_real_sum(grid_pi):
    g = grid_pi
    u = Field(g, np.exp(2j * g.nodes))
    v = Field(g, np.conj(u.values))
    # 0.5 * integral of |u|^2 + |u_x|^2 = 0.5 * (2 pi + 4 * 2 pi).
    assert energy_H(u, v) == pytest.approx(5.0 * np.pi, rel=1e-13)


def test_momentum_of_constants(grid_pi):
    g = grid_pi
    two = Field(g, np.full(64, 2.0))
    assert momentum_P(two, two) == pytest.approx(8.0 * np.pi, rel=1e-13)


def test_same_grid_required(grid_pi, grid_standard):
    a = Field(grid_pi, np.zeros(64))
    b = Field(grid_standard, np.zeros(2048))
    with pytest.raises(ValueError):
        energy_H(a, b)
    with pytest.raises(ValueError):
        momentum_P(a, b)
    with pytest.raises(ValueError):
        moment_rate_check(a, b, 0.0, 0.0)


# ----------------------------------------------------------- support

def test_support_measure_brackets_a_bump(grid_standard):
    g = grid_standard
    f = Field(g, bump_values(g.nodes, 0.0, 5.0, 1.0))
    window = support_measure(f, 1e-7)
    assert window is not None
    lo, hi = window
    assert -5.0 < lo < -4.6
    assert 4.6 < hi < 5.0
    assert support_measure(f, 2.0) is None  # threshold above the peak
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="epsilon"):
            support_measure(f, bad)


# ----------------------------------------------- window-edge contamination

def test_contamination_zero_for_compact_and_small_for_exponential(grid_standard):
    g = grid_standard
    compact = Field(g, bump_values(g.nodes, 0.0, 5.0, 1.0))
    assert boundary_contamination(compact, compact) == 0.0
    kernel_field = Field(g, green_kernel_eval(g.nodes, g.half_length))
    assert boundary_contamination(kernel_field, kernel_field) < 1e-8
    zero = Field(g, np.zeros(g.n_points))
    assert boundary_contamination(zero, zero) == 0.0


def test_moments_reject_data_near_the_window_edge(grid_standard):
    g = grid_standard
    near_edge = Field(g, np.exp(-((g.nodes - 25.0) ** 2)))
    with pytest.raises(DomainTooSmallError):
        exp_moments(near_edge, near_edge)


# ----------------------------------------------------------- exp moments

def test_exp_moments_match_adaptive_quadrature(grid_standard, pinned_momentum):
    g = grid_standard
    m = pinned_momentum
    zero = Field(g, np.zeros(g.n_points))
    eu_p, eu_m, ev_p, ev_m = exp_moments(m, zero)
    assert ev_p == 0.0 and ev_m == 0.0  # empty support contributes nothing

    def integrand(sign):
        return lambda y: float(
            np.exp(sign * y) * bump_values(np.array([y]), -2.0, 3.0, 1.0)[0])

    ref_p, _ = scipy.integrate.quad(integrand(+1), -5.0, 1.0, limit=200)
    ref_m, _ = scipy.integrate.quad(integrand(-1), -5.0, 1.0, limit=200)
    assert eu_p == pytest.approx(ref_p, rel=1e-8)
    assert eu_m == pytest.approx(ref_m, rel=1e-8)
    # Regression pins for the standard one-signed hump.
    assert eu_p == pytest.approx(0.34532579270577884, rel=1e-9)
    assert eu_m == pytest.approx(18.854149438155023, rel=1e-9)


def test_zero_integrals_vanish_iff_velocity_is_compact(grid_standard,
                                                       pinned_momentum):
    g = grid_standard
    # Momentum of a compactly supported velocity: both weighted integrals
    # cancel to round-off.
    m_compact_u = Field(g, g.fwd_helmholtz(bump_values(g.nodes, 0.0, 8.0, 1.0)))
    plus, minus = zero_integral_check(m_compact_u)
    assert abs(plus) < 1e-8
    assert abs(minus) < 1e-8
    # One-signed momentum: both stay strictly positive (velocity has tails).
    plus, minus = zero_integral_check(pinned_momentum)
    assert plus > 0.01 and minus > 0.01
    assert (plus, minus) == exp_moments(pinned_momentum, pinned_momentum)[:2]
    with pytest.raises(ValueError):
        zero_integral_check(Field(g, np.zeros(g.n_points, dtype=complex)))


def _complex_self_conjugate_state(g):
    mv = g.fwd_helmholtz(bump_values(g.nodes, -2.0, 8.0, 1.0)
                         + 1j * bump_values(g.nodes, 2.0, 8.0, 0.5))
    return PdeState(0.0, Field(g, mv), Field(g, np.conj(mv)), COMPLEX_CONJUGATE)


def test_moments_and_noise_floor_bit_pins(grid_standard, pinned_momentum):
    """Exact values of the moment pass and the noise floor on three inputs:
    the pinned hump with itself, with a zero partner (empty support), and
    the complex self-conjugate pair."""
    g = grid_standard
    m = pinned_momentum
    zero = Field(g, np.zeros(g.n_points))
    hump = (0.34532579270577407, 18.85414943815642)
    assert exp_moments(m, m) == hump + hump
    assert quadrature_noise_floor(m, m) == 8.573873909992181e-12
    assert zero_integral_check(m) == hump
    assert exp_moments(m, zero) == hump + (0.0, 0.0)
    assert quadrature_noise_floor(m, zero) == 8.573873909992181e-12
    assert zero_integral_check(zero) == (0.0, 0.0)
    st = _complex_self_conjugate_state(g)
    assert exp_moments(st.m, st.n) == (1.6783239384677375e-08, -2.2787492680746773e-08,
                                       1.3115344607728545e-08, -1.975870895032803e-08)
    assert quadrature_noise_floor(st.m, st.n) == 6.531710059528334e-10
    with pytest.raises(ValueError):
        zero_integral_check(st.m)


def test_noise_floor_positive_and_linear_in_amplitude(grid_standard,
                                                      pinned_momentum):
    m = pinned_momentum
    doubled = Field(m.grid, 2.0 * m.values)
    floor = quadrature_noise_floor(m, m)
    assert floor > 0.0
    assert quadrature_noise_floor(doubled, doubled) == pytest.approx(
        2.0 * floor, rel=1e-12)
    # Each field enters on its own: the floor of a pair is the larger of the two.
    assert quadrature_noise_floor(m, doubled) == quadrature_noise_floor(doubled, m) == (
        quadrature_noise_floor(doubled, doubled))


def _cumulative_trapezoid(g, f):
    """∫ from -L to each node of f, by the trapezoid rule."""
    out = np.zeros_like(f)
    out[1:] = np.cumsum(0.5 * (f[1:] + f[:-1])) * g.spacing
    return out


def test_moment_rates_follow_the_closed_form_law(grid_standard):
    # The moment law: dE_+/dt = ∫∫ m(x) n(y) e^{min(x,y)} dx dy and
    # dE_-/dt = -∫∫ m(x) n(y) e^{-max(x,y)} dx dy, each in one O(N) pass:
    # the inner integral over y splits at x into two cumulative sums.  On
    # test_01's pair at t = 0.5 it matches moment_rate_check's trapezoid and
    # a five-point difference of the record's E±, and m, n >= 0 predict
    # that E_+ rises and E_- falls.
    g = grid_standard
    x = g.nodes
    state0 = PdeState(0.0, Field(g, bump_values(x, -2.0, 3.0, 1.0)),
                      Field(g, bump_values(x, 2.0, 3.0, 1.0)))
    settings = settings_from_initial(state0)
    h = 1e-3
    traj = evolve(state0, 0.5 + 2 * h, 1e-3, [0.5 + k * h for k in (-2, -1, 0, 1, 2)])
    mid = traj.states[2]
    m, n = mid.m.values, mid.n.values
    n_below = _cumulative_trapezoid(g, n)
    n_plus_below = _cumulative_trapezoid(g, n * np.exp(x))
    n_minus_below = _cumulative_trapezoid(g, n * np.exp(-x))
    rate_plus = np.trapezoid(m * (n_plus_below + np.exp(x) * (n_below[-1] - n_below)),
                             dx=g.spacing)
    rate_minus = -np.trapezoid(m * (np.exp(-x) * n_below + n_minus_below[-1] - n_minus_below),
                               dx=g.spacing)
    assert rate_plus > 0.0 > rate_minus
    assert max(moment_rate_check(*recover_velocity(mid), rate_plus, rate_minus)) < 1e-5
    e = np.array([(r.E_plus, r.E_minus)
                  for r in (compute_record(s, settings) for s in traj.states)])
    fd_plus, fd_minus = (e[0] - 8.0 * e[1] + 8.0 * e[3] - e[4]) / (12.0 * h)
    assert abs(fd_plus - rate_plus) < 1e-5 * rate_plus
    assert abs(fd_minus - rate_minus) < 1e-5 * -rate_minus


# ----------------------------------------------------------- tail slopes

def test_tail_slopes_of_exponential_kernel(grid_standard):
    g = grid_standard
    u = Field(g, green_kernel_eval(g.nodes, g.half_length))
    window = support_measure(u, 1e-7 * u.max_abs())
    assert window is not None
    assert tail_slope(u, "right", window[1]) == pytest.approx(-1.0, abs=1e-3)
    assert tail_slope(u, "left", window[0]) == pytest.approx(+1.0, abs=1e-3)
    with pytest.raises(ValueError):
        tail_slope(u, "up", 0.0)
    with pytest.raises(ValueError):
        tail_slope(Field(g, u.values.astype(complex)), "right", 0.0)
    with pytest.raises(MeasurementError):
        tail_slope(u, "right", g.half_length - 0.5)  # no room left to fit


# ----------------------------------------------------------- settings

def test_settings_freeze_initial_scales(grid_standard):
    g = grid_standard
    m = Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0))
    n = Field(g, np.zeros(g.n_points))
    st = PdeState(0.0, m, n)
    settings = settings_from_initial(st)
    assert settings.eps_m == pytest.approx(DEFAULT_SUPPORT_FACTOR * m.max_abs())
    # The identically-zero field inherits the largest live scale.
    assert settings.eps_n == settings.eps_m
    assert settings.eps_u == pytest.approx(
        DEFAULT_SUPPORT_FACTOR * np.max(np.abs(g.inv_helmholtz(m.values))))
    custom = settings_from_initial(st, support_factor=1e-5)
    assert custom.eps_m == pytest.approx(1e-5 * m.max_abs())


@pytest.mark.parametrize("name", ["eps_m", "eps_n", "eps_u", "tail_tolerance"])
def test_settings_refuse_a_threshold_that_is_not_positive_and_finite(name):
    # A NaN threshold would compare false everywhere: no support, zero
    # moments and a contamination guard that lets anything through.
    good = {"eps_m": 1e-7, "eps_n": 1e-7, "eps_u": 1e-7, "tail_tolerance": 1e-8}
    DiagnosticsSettings(**good)
    for bad in (0.0, -1e-7, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=name):
            DiagnosticsSettings(**{**good, name: bad})


def test_settings_from_initial_refuse_a_nan_factor_or_tolerance(grid_standard):
    g = grid_standard
    st = PdeState(0.0, Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0)),
                  Field(g, bump_values(g.nodes, 2.0, 3.0, 1.0)))
    with pytest.raises(ValueError, match="eps_m"):
        settings_from_initial(st, support_factor=float("nan"))
    with pytest.raises(ValueError, match="tail_tolerance"):
        settings_from_initial(st, tail_tolerance=float("nan"))


# ----------------------------------------------------------- full record

def _assert_record_matches_public_functions(rec, st):
    """At the default thresholds a record's H, moments and contamination are
    bit for bit what the public functions give for the same state."""
    u, v = recover_velocity(st)
    assert rec.H == energy_H(u, v)
    assert (rec.Eu_plus, rec.Eu_minus, rec.Ev_plus, rec.Ev_minus) == exp_moments(st.m, st.n)
    assert rec.boundary_contamination == boundary_contamination(u, v)


def test_compute_record_populates_every_column(grid_standard):
    g = grid_standard
    m = Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0))
    n = Field(g, bump_values(g.nodes, +2.0, 3.0, 1.0))
    st = PdeState(0.0, m, n)
    settings = settings_from_initial(st)
    rec = compute_record(st, settings)
    assert rec.t == 0.0
    assert np.isfinite(rec.H) and np.isfinite(rec.P)
    assert rec.supp_m is not None and rec.supp_u is not None
    assert np.isfinite(rec.tail_slope_left) and np.isfinite(rec.tail_slope_right)
    # Bump peak is amplitude / e, sampled at the node nearest the center.
    assert rec.max_abs == pytest.approx(np.exp(-1.0), rel=1e-4)
    assert rec.pullback_residual is None
    assert rec.E_plus == pytest.approx(rec.Eu_plus + rec.Ev_plus)
    _assert_record_matches_public_functions(rec, st)
    assert len(CSV_COLUMNS) == 19
    assert CSV_COLUMNS == (
        "t", "H", "P",
        "Eu_plus", "Eu_minus", "Ev_plus", "Ev_minus", "E_plus", "E_minus",
        "supp_m_lo", "supp_m_hi", "supp_n_lo", "supp_n_hi", "supp_u_lo", "supp_u_hi",
        "tail_slope_left", "tail_slope_right",
        "max_abs", "boundary_contamination",
    )
    # With an identity characteristic set the pullback defect is zero.
    cs = init_characteristics(g)
    rec2 = compute_record(st, settings, cs=cs, m0=m, n0=n)
    assert rec2.pullback_residual == 0.0
    assert dataclasses.asdict(rec)["H"] == rec.H  # records are plain data


def test_readme_schema_block_names_the_csv_columns():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"### CSV schema\n.*?```\n(.*?)```", readme, re.S).group(1)
    assert tuple(block.replace(",", " ").split()) == CSV_COLUMNS


def test_record_row_pairs_each_cell_with_its_header_column(grid_standard):
    # An unmeasured support is two empty cells; the tracked table adds the
    # pullback defect, the record's last field, as its last column.
    g = grid_standard
    m = Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0))
    st = PdeState(0.0, m, Field(g, np.zeros(g.n_points)))
    rec = compute_record(st, settings_from_initial(st), cs=init_characteristics(g), m0=m,
                         n0=st.n)
    assert rec.supp_n is None and rec.supp_m is not None
    for tracked in (False, True):
        cells = dict(zip(record_header(tracked), record_row(rec, tracked)))
        assert len(cells) == len(record_header(tracked)) == len(record_row(rec, tracked))
        assert (cells["supp_m_lo"], cells["supp_m_hi"]) == rec.supp_m
        assert cells["supp_n_lo"] is None and cells["supp_n_hi"] is None
        assert cells["t"] == rec.t
        assert cells["boundary_contamination"] == rec.boundary_contamination
    assert record_header(True) == [*CSV_COLUMNS, "pullback_residual"]
    assert record_row(rec, True)[-1] == rec.pullback_residual == 0.0


@pytest.mark.parametrize("given", [(), ("m0",), ("n0",)])
def test_compute_record_refuses_a_set_without_both_initial_momenta(grid_standard, given):
    g = grid_standard
    m = Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0))
    n = Field(g, bump_values(g.nodes, +2.0, 3.0, 1.0))
    st = PdeState(0.0, m, n)
    initial = {"m0": m, "n0": n}
    with pytest.raises(ValueError, match="m0 and n0"):
        compute_record(st, settings_from_initial(st), cs=init_characteristics(g),
                       **{key: initial[key] for key in given})


def test_record_for_complex_self_conjugate_state(grid_standard):
    st = _complex_self_conjugate_state(grid_standard)
    rec = compute_record(st, settings_from_initial(st))
    assert np.isfinite(rec.H)
    assert rec.H > 0.0  # 0.5 * (|u|^2 + |u_x|^2) integral
    assert rec.supp_m is not None
    _assert_record_matches_public_functions(rec, st)
