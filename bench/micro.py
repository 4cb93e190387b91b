"""Per-layer unit costs: one public call at each module boundary, timed alone.

Inputs are the canonical workload inputs (N = 2048 grid, the bump pair, the
complex bump, 512 characteristic labels, the separated and the orbiting
peakon pairs), so a layer's unit cost can be read against the workload
that calls it.  Each figure is the median over repeated calls.
"""

from __future__ import annotations

import statistics
import time

from workloads import make_inputs

SEPARATED_PAIR = ([0.0], [10.0], [5.0], [1.0])
ORBITING_PAIR = ([0.0], [10.0], [1.0], [1.0])
PEAKON_DT = 1e-3


def _median_s(fn, reps: int, batch: int = 1) -> float:
    """Median wall seconds of one call, over ``reps`` batches of ``batch`` calls."""
    fn()  # first call outside the timing: lazy set-up and caches
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        samples.append((time.perf_counter() - start) / batch)
    return statistics.median(samples)


def measure(cchlab) -> dict[str, float]:
    """Unit costs keyed by per-layer metric name."""
    out: dict[str, float] = {}
    real_text = make_inputs("bump_pair_tracked", 0, "micro.csv").config
    complex_text = make_inputs("complex_reduction", 0, "micro.csv").config

    cfg = cchlab.parse_config(real_text)
    g = cchlab.build_grid(cfg)
    m0, n0 = cchlab.build_initial_condition(cfg, g)
    out["config.parse_us"] = 1e6 * _median_s(lambda: cchlab.parse_config(real_text), 200)
    out["config.build_ic_us"] = 1e6 * _median_s(
        lambda: cchlab.build_initial_condition(cfg, cchlab.build_grid(cfg)), 50)

    labels = g.nodes[::cfg.label_stride] + 0.3 * g.spacing
    out["grid.inv_helmholtz_us"] = 1e6 * _median_s(lambda: g.inv_helmholtz(m0.values), 200)
    out["grid.interp_periodic_us"] = 1e6 * _median_s(
        lambda: cchlab.interp_periodic(g, m0.values, labels), 200)

    state = cchlab.PdeState(0.0, m0, n0)
    out["solver.rhs_us"] = 1e6 * _median_s(lambda: cchlab.rhs_momentum(state), 100)
    out["solver.step_us"] = 1e6 * _median_s(lambda: cchlab.step_rk4(state, cfg.dt), 30)

    ccfg = cchlab.parse_config(complex_text)
    cm0, cn0 = cchlab.build_initial_condition(ccfg, g)
    cstate = cchlab.PdeState(0.0, cm0, cn0, cchlab.COMPLEX_CONJUGATE)
    out["solver.rhs_complex_us"] = 1e6 * _median_s(lambda: cchlab.rhs_momentum(cstate), 100)
    out["solver.step_complex_us"] = 1e6 * _median_s(
        lambda: cchlab.step_rk4(cstate, ccfg.dt), 30)

    cs = cchlab.init_characteristics(g, stride=cfg.label_stride)
    u, v = cchlab.recover_velocity(state)
    moved = cchlab.advect(cs, u, v, cfg.dt)
    out["characteristics.advect_us"] = 1e6 * _median_s(
        lambda: cchlab.advect(cs, u, v, cfg.dt), 50)
    out["characteristics.pullback_us"] = 1e6 * _median_s(
        lambda: cchlab.pullback_residual(m0, moved, m0), 100)

    settings = cchlab.settings_from_initial(state)
    csettings = cchlab.settings_from_initial(cstate)
    out["diagnostics.compute_record_us"] = 1e6 * _median_s(
        lambda: cchlab.compute_record(state, settings), 30)
    out["diagnostics.compute_record_complex_us"] = 1e6 * _median_s(
        lambda: cchlab.compute_record(cstate, csettings), 30)
    out["diagnostics.compute_record_tracked_us"] = 1e6 * _median_s(
        lambda: cchlab.compute_record(state, settings, cs=cs, m0=m0, n0=n0), 30)

    separated = cchlab.PeakonState(0.0, *SEPARATED_PAIR)
    steps = 500
    out["peakons.step_us"] = 1e6 * _median_s(
        lambda: cchlab.evolve_peakons(separated, steps * PEAKON_DT, PEAKON_DT), 3) / steps
    out["peakons.hamiltonian_us"] = 1e6 * _median_s(
        lambda: cchlab.peakon_hamiltonian(separated), 30, batch=100)
    waltz = cchlab.evolve_peakons(cchlab.PeakonState(0.0, *ORBITING_PAIR), 13.0, PEAKON_DT)
    out["peakons.measure_waltz_ms"] = 1e3 * _median_s(lambda: cchlab.measure_waltz(waltz), 5)
    return out
