"""Numerical laboratory for a cross-coupled pair of Camassa-Holm-type
equations: pseudospectral momentum-form solver, point-momentum (peakon)
dynamics, characteristic flow maps, and support/moment diagnostics."""

from .characteristics import (CharacteristicSet, advect, init_characteristics,
                              pullback_residual, support_bounds)
from .config import (ScenarioConfig, build_grid, build_initial_condition,
                     parse_config, serialize_config)
from .diagnostics import (CSV_COLUMNS, DiagnosticsRecord, DiagnosticsSettings,
                          boundary_contamination, compute_record, energy_H,
                          exp_moments, moment_rate_check, momentum_P,
                          quadrature_noise_floor, settings_from_initial,
                          support_measure, tail_slope, zero_integral_check)
from .errors import (BlowUpError, ConfigurationError, DomainTooSmallError,
                     MeasurementError, StabilityError)
from .grid import (Field, Grid, convolve_green_quadrature, decompose_I1_I2,
                   green_kernel_eval, helmholtz_inverse, interp_periodic,
                   make_grid, spectral_derivative)
from .peakons import (PeakonRates, PeakonState, evolve_peakon_path, evolve_peakons,
                      kernel, kernel_derivative, measure_waltz, measure_waltz_path,
                      peakon_fields, peakon_hamiltonian, peakon_path_invariants,
                      peakon_rhs, waltz_period_closed_form)
from .runner import RunResult, execute, run_scenario
from .solver import (CH_REDUCTION, COMPLEX_CONJUGATE, COUPLED, MODES, PdeState,
                     Trajectory, evolve, evolve_real_form, recover_velocity,
                     rhs_complex_real_form, rhs_momentum, step_rk4)

__version__ = "0.1.0"
