"""Flow maps of the two velocity families and the pullback machinery."""

from __future__ import annotations

import numpy as np
import pytest

from cchlab.characteristics import (CharacteristicSet, advance_with_stages,
                                    advect, init_characteristics,
                                    pullback_residual, support_bounds)
from cchlab.errors import DomainTooSmallError
from cchlab.grid import Field, interp_periodic, make_grid
from cchlab.march import rk4_step
from cchlab.solver import CH_REDUCTION, COUPLED, PdeState, _Core, _step, evolve

from conftest import bump_values


@pytest.fixture()
def grid_small():
    return make_grid(30.0, 64)


def _constant_fields(g, u_value, v_value):
    return (Field(g, np.full(g.n_points, u_value)),
            Field(g, np.full(g.n_points, v_value)))


# ----------------------------------------------------------------- construction

def test_initial_flows_are_the_identity(grid_small):
    cs = init_characteristics(grid_small, stride=4)
    assert np.array_equal(cs.labels, grid_small.nodes[::4])
    assert np.array_equal(cs.phi, cs.labels)
    assert np.array_equal(cs.xi, cs.labels)
    assert np.all(cs.phi_x == 1.0) and np.all(cs.xi_x == 1.0)
    with pytest.raises(ValueError):
        init_characteristics(grid_small, stride=0)


def test_set_validation():
    labels = np.array([0.0, 1.0, 2.0])
    flows = np.array((np.tile(labels, 2), np.zeros(6)))
    with pytest.raises(ValueError, match="strictly increasing"):
        CharacteristicSet(0.0, labels[::-1], flows)
    with pytest.raises(ValueError, match="1-d"):
        CharacteristicSet(0.0, labels[None], flows)
    with pytest.raises(ValueError, match="shape"):
        CharacteristicSet(0.0, labels, flows[:, :4])
    with pytest.raises(ValueError, match="shape"):
        CharacteristicSet(0.0, labels, flows[0])


def test_flows_round_trip_through_a_set(grid_small):
    # A set is the flows array over its labels: phi and xi are row 0's
    # halves and the Jacobians exp of row 1's, bit for bit, and the array
    # is a read-only copy of the one handed in.
    cs = init_characteristics(grid_small, stride=8)
    rng = np.random.default_rng(0)
    flows = cs.flows + rng.uniform(-1e-3, 1e-3, cs.flows.shape)
    count = cs.labels.size
    back = CharacteristicSet(0.5, cs.labels, flows)
    assert back.t == 0.5
    assert back.flows is not flows and np.array_equal(back.flows, flows)
    assert not back.flows.flags.writeable and not back.labels.flags.writeable
    assert np.array_equal(back.phi, flows[0, :count])
    assert np.array_equal(back.xi, flows[0, count:])
    assert np.array_equal(back.phi_x, np.exp(flows[1])[:count])
    assert np.array_equal(back.xi_x, np.exp(flows[1])[count:])


def test_underflowed_jacobian_is_rejected(grid_small):
    # A log-Jacobian of -1000 is a valid flow; a set holds it, reads its
    # Jacobian as exp(-1000) = 0.0, and the pullback defect stays finite.
    cs = init_characteristics(grid_small)
    zero = np.zeros(grid_small.n_points)
    stage = np.array((zero, zero, zero, np.full(grid_small.n_points, -1e6)))  # (u, u_x, v, v_x)
    flows = advance_with_stages(cs.flows, grid_small, [stage] * 4, 1e-3, 1e-3)
    assert np.allclose(flows[1, :cs.labels.size], -1000.0)
    crushed = CharacteristicSet(1e-3, cs.labels, flows)
    assert np.all(crushed.phi_x == 0.0) and np.all(crushed.xi_x == 1.0)
    f = Field(grid_small, bump_values(grid_small.nodes, 0.0, 5.0, 1.0))
    assert np.isfinite(pullback_residual(f, crushed, f, flow="m"))


@pytest.mark.parametrize("mode, phi_rows", [(COUPLED, (2, 3)), (CH_REDUCTION, (0, 1))])
def test_stage_gather_is_row_interpolation_bit_for_bit(mode, phi_rows):
    # The four records (u, u_x, v, v_x) of one real step of the canonical
    # tracked bump pair: phi reads v and v_x, xi reads u and u_x, and in the
    # CH reduction (m alone, as its own partner) both flows follow u.
    g = make_grid(30.0, 2048)
    m = Field(g, bump_values(g.nodes, -2.0, 3.0, 1.0))
    n = m if mode == CH_REDUCTION else Field(g, bump_values(g.nodes, 2.0, 3.0, 1.0))
    state = PdeState(0.0, m, n, mode)
    core = _Core.of(state)
    _, _, stages = _step(core, core.spectral(state), 1e-3, np.inf, 1e-3)
    if mode == CH_REDUCTION:
        assert all(np.array_equal(w[:2], w[2:]) for w in stages)
    flows = init_characteristics(g, stride=4).flows
    count = flows.shape[1] // 2
    w_row, wx_row = phi_rows
    records = iter(stages)

    def by_rows(y):
        w = next(records)
        phi, xi = y[0, :count], y[0, count:]
        return np.array((
            np.concatenate((interp_periodic(g, w[w_row], phi), interp_periodic(g, w[0], xi))),
            np.concatenate((interp_periodic(g, w[wx_row], phi), interp_periodic(g, w[1], xi)))))

    want = rk4_step(by_rows, flows, 1e-3)
    got = advance_with_stages(flows, g, stages, 1e-3, 1e-3)
    assert np.array_equal(got, want)
    assert not np.array_equal(got, flows)


# -------------------------------------------------------------------- advection

def test_zero_velocity_advection_is_the_identity(grid_small):
    cs = init_characteristics(grid_small)
    u, v = _constant_fields(grid_small, 0.0, 0.0)
    out = advect(cs, u, v, 0.5)
    assert out.t == 0.5
    assert np.array_equal(out.phi, cs.phi)
    assert np.array_equal(out.xi, cs.xi)
    assert np.all(out.phi_x == 1.0) and np.all(out.xi_x == 1.0)


def test_constant_velocities_translate_the_right_flows(grid_small):
    # phi rides the v-field and xi rides the u-field.
    cs = init_characteristics(grid_small, stride=8)
    u, v = _constant_fields(grid_small, 0.3, -0.2)
    out = advect(cs, u, v, 0.25)
    assert np.allclose(out.phi, cs.phi - 0.2 * 0.25, atol=1e-13)
    assert np.allclose(out.xi, cs.xi + 0.3 * 0.25, atol=1e-13)
    assert np.allclose(out.phi_x, 1.0, atol=1e-13)


def test_advection_validation(grid_small):
    cs = init_characteristics(grid_small)
    u, v = _constant_fields(grid_small, 0.0, 0.0)
    other = make_grid(30.0, 128)
    with pytest.raises(ValueError):
        advect(cs, u, Field(other, np.zeros(128)), 0.1)
    with pytest.raises(ValueError):
        advect(cs, Field(grid_small, np.zeros(64) * 1j), v, 0.1)


def test_flow_leaving_the_window_is_detected(grid_small):
    cs = init_characteristics(grid_small)
    u, v = _constant_fields(grid_small, -1.0, -1.0)
    with pytest.raises(DomainTooSmallError):
        advect(cs, u, v, 1.0)  # the leftmost label is pushed a full unit past -L


def test_edge_label_survives_a_small_leftward_drift(grid_small):
    # The leftmost label starts exactly at -L, so any leftward velocity
    # carries it outside the half-open window; sub-node drift must not be
    # mistaken for escape (only a position well past the edge is).
    cs = init_characteristics(grid_small)
    u, v = _constant_fields(grid_small, -0.1, -0.1)
    out = advect(cs, u, v, 0.5)
    assert out.phi[0] == pytest.approx(cs.labels[0] - 0.05, abs=1e-13)


def test_ordering_collapse_is_detected(grid_small):
    # A narrow strong jet carries the central label far past its slower
    # neighbours within one coarse step; the monotonicity check must fire
    # rather than silently producing a non-invertible flow map.
    g = grid_small
    jet = Field(g, -20.0 * np.exp(-((g.nodes / 4.0) ** 2)))
    cs = init_characteristics(g)
    with pytest.raises(FloatingPointError):
        advect(cs, jet, jet, 1.0)


# --------------------------------------------------------------------- pullback

def test_pullback_of_unevolved_data_vanishes(grid_small):
    g = grid_small
    f = Field(g, bump_values(g.nodes, 0.0, 5.0, 1.0))
    cs = init_characteristics(g)
    assert pullback_residual(f, cs, f, flow="m") == 0.0
    assert pullback_residual(f, cs, f, flow="n", t=0.0) == 0.0


def test_pullback_applies_the_squared_jacobian(grid_small):
    g = grid_small
    f = Field(g, bump_values(g.nodes, 0.0, 5.0, 1.0))
    labels = g.nodes[::4]
    doubled = CharacteristicSet(0.0, labels, (
        np.tile(labels, 2),
        np.concatenate((np.full_like(labels, np.log(2.0)), np.zeros_like(labels)))))
    quadrupled = Field(g, 4.0 * f.values)
    assert pullback_residual(f, doubled, quadrupled, flow="m") < 1e-14


def test_pullback_validation(grid_small):
    g = grid_small
    f = Field(g, np.zeros(64))
    cs = init_characteristics(g)
    with pytest.raises(ValueError):
        pullback_residual(f, cs, f, flow="sideways")
    with pytest.raises(ValueError):
        pullback_residual(f, cs, f, flow="m", t=1.0)  # clock mismatch
    with pytest.raises(ValueError):
        pullback_residual(f, cs, Field(make_grid(30.0, 128), np.zeros(128)))


# ---------------------------------------------------------------- support bounds

def test_support_bounds_identity_and_validation(grid_small):
    cs = init_characteristics(grid_small)
    lo, hi = support_bounds(cs, -5.0, 5.0, flow="m")
    assert lo == pytest.approx(-5.0) and hi == pytest.approx(5.0)
    with pytest.raises(ValueError):
        support_bounds(cs, 5.0, -5.0)
    with pytest.raises(ValueError):
        support_bounds(cs, -100.0, 5.0)
    with pytest.raises(ValueError):
        support_bounds(cs, -5.0, 5.0, flow="q")


def test_tracked_run_keeps_flows_aligned_with_snapshots():
    g = make_grid(30.0, 256)
    st = PdeState(0.0, Field(g, bump_values(g.nodes, -1.0, 4.0, 0.3)),
                  Field(g, bump_values(g.nodes, 1.0, 4.0, 0.3)))
    cs0 = init_characteristics(g, stride=8)
    traj = evolve(st, 0.05, 1e-3, output_times=[0.0, 0.02, 0.05], track=cs0)
    assert traj.characteristics is not None
    assert len(traj.characteristics) == len(traj.states)
    for state, cs in zip(traj.states, traj.characteristics):
        assert cs.t == state.t
        assert np.all(cs.phi_x > 0.0) and np.all(cs.xi_x > 0.0)
        assert np.all(np.diff(cs.phi) > 0.0)


def test_tracking_must_start_at_the_state_time():
    g = make_grid(30.0, 256)
    st = PdeState(0.0, Field(g, np.zeros(256)), Field(g, np.zeros(256)))
    stale = init_characteristics(g, t=1.0)
    with pytest.raises(ValueError):
        evolve(st, 0.1, 1e-3, track=stale)


def test_tracking_refuses_complex_data():
    # Tracking follows real velocities; dropping imaginary parts would march
    # flows of some other field without a word.
    g = make_grid(30.0, 256)
    m = Field(g, bump_values(g.nodes, -1.0, 4.0, 0.3) * (1.0 + 0.5j))
    st = PdeState(0.0, m, Field(g, np.conj(m.values)), "complex_conjugate")
    with pytest.raises(ValueError, match="needs real data"):
        evolve(st, 0.01, 1e-3, track=init_characteristics(g))
