"""Exception types shared across the package.

The runner and the CLI map these onto the exit codes listed in the README
and in ``cchlab.runner``.
"""

from __future__ import annotations


class ConfigurationError(ValueError):
    """Invalid parameter, config key, grid specification, or initial condition."""


class StabilityError(ConfigurationError):
    """Requested time step violates the advective stability bound.

    A subclass of ConfigurationError because the remedy is a smaller dt;
    raised during a run's march, it ends the run with status 4 after the
    snapshots completed so far are written.
    """


class BlowUpError(RuntimeError):
    """Momenta or peakon amplitudes exceeded the blow-up threshold, or the
    stepped state became non-finite.

    Carries the last valid state (``state``) and, when raised from a full
    run, the partial trajectory of snapshots completed so far
    (``trajectory``, may be None for a single step).  Its form is the
    raiser's: a ``solver.Trajectory`` from ``solver.evolve``, a list of
    states from ``evolve_peakons``, or a path array, one row per sample,
    from ``evolve_peakon_path``.  ``solver.evolve`` keeps no snapshot that it
    streams to a callback, so a streamed run's Trajectory is empty.
    """

    def __init__(self, message: str, state=None, trajectory=None):
        super().__init__(message)
        self.state = state
        self.trajectory = trajectory


class DomainTooSmallError(RuntimeError):
    """The periodic window is too small for a valid measurement.

    Raised when window-edge contamination would corrupt exponentially
    weighted integrals, or when a tracked position leaves the window.
    """


class MeasurementError(RuntimeError):
    """A requested measurement cannot be extracted from the available data."""
