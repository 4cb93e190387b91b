"""Periodic grid, spectral calculus, and the kernel of (1 - d^2/dx^2)^(-1).

The spatial domain is a periodic window [-L, L) sampled at a power-of-two
number of equispaced nodes.  Differentiation and the inversion of the
Helmholtz operator 1 - d^2/dx^2 act mode-by-mode in the discrete Fourier
basis: real data on the half spectrum (rfft/irfft), complex data on the full
spectrum (fft/ifft), each with operator tables precomputed once per grid.
The same inverse has a closed-form real-space kernel -- the
periodization of 0.5*exp(-|x|) --

    p_L(x) = cosh(L - |x|) / (2 sinh L),

which feeds an independent trapezoid-quadrature convolution used to
cross-validate the spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "Grid",
    "Spectrum",
    "Field",
    "make_grid",
    "spectral_derivative",
    "helmholtz_inverse",
    "green_kernel_eval",
    "convolve_green_quadrature",
    "decompose_I1_I2",
    "periodic_stencil",
    "interp_periodic",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True, eq=False)
class Spectrum:
    """One transform pair with its mode-wise operator tables.

    ``forward``/``inverse`` act along the last axis.  The tables are sampled
    on the pair's modes: ``ik`` (d/dx), ``symbol`` (1 + k^2), ``keep`` (the
    two-thirds-rule mask |mode| <= N//3, as 0.0/1.0) and ``stage_ops``, the
    four dealiased factors a solver stage applies to each momentum spectrum
    to obtain (u, u_x, m, m_x): keep/(1+k^2), keep*ik/(1+k^2), keep, keep*ik.
    """

    forward: Callable[[np.ndarray], np.ndarray]
    inverse: Callable[[np.ndarray], np.ndarray]
    ik: np.ndarray
    symbol: np.ndarray
    keep: np.ndarray
    stage_ops: np.ndarray


def _spectrum(forward, inverse, k: np.ndarray, mode_index: np.ndarray, n: int) -> Spectrum:
    ik = 1j * k
    symbol = 1.0 + k * k
    keep = (np.abs(mode_index) <= n // 3).astype(np.float64)
    stage_ops = np.stack([keep / symbol, keep * ik / symbol, keep, keep * ik])
    tables = (ik, symbol, keep, stage_ops)
    for table in tables:
        table.setflags(write=False)
    return Spectrum(forward, inverse, *tables)


@dataclass(frozen=True)
class Grid:
    """Equispaced periodic grid on the window [-half_length, half_length).

    Derived spectral machinery is precomputed once: the transform tables
    of the half spectrum (``real_spectrum``) and of the full spectrum
    (``complex_spectrum``); grids compare equal iff they have the same
    window and resolution.
    """

    half_length: float
    n_points: int
    spacing: float = field(init=False, compare=False)
    nodes: np.ndarray = field(init=False, repr=False, compare=False)
    real_spectrum: Spectrum = field(init=False, repr=False, compare=False)
    complex_spectrum: Spectrum = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.n_points
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool):
            raise ConfigurationError(f"n_points must be an integer, got {n!r}")
        n = int(n)
        if n < 16 or not _is_power_of_two(n):
            raise ConfigurationError(
                f"n_points must be a power of two >= 16, got {n}"
            )
        length = float(self.half_length)
        if not np.isfinite(length) or length <= 0.0:
            raise ConfigurationError(
                f"half_length must be positive and finite, got {self.half_length!r}"
            )
        spacing = 2.0 * length / n
        try:
            nodes = -length + spacing * np.arange(n)
            k = 2.0 * np.pi * np.fft.fftfreq(n, d=spacing)
            mode_index = np.rint(np.fft.fftfreq(n) * n).astype(int)
            real_spectrum = _spectrum(
                np.fft.rfft, partial(np.fft.irfft, n=n),
                2.0 * np.pi * np.fft.rfftfreq(n, d=spacing), np.arange(n // 2 + 1), n)
            complex_spectrum = _spectrum(np.fft.fft, np.fft.ifft, k, mode_index, n)
        except MemoryError:
            raise ConfigurationError(
                f"n_points = {n}: the grid's nodes and tables do not fit in memory"
            ) from None
        nodes.setflags(write=False)
        object.__setattr__(self, "half_length", length)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "real_spectrum", real_spectrum)
        object.__setattr__(self, "complex_spectrum", complex_spectrum)

    # Array-level spectral operations along the last axis; Field-level
    # wrappers live below.

    def spectrum_for(self, values: np.ndarray) -> Spectrum:
        """Half-spectrum tables for real data, full-spectrum for complex."""
        return self.complex_spectrum if np.iscomplexobj(values) else self.real_spectrum

    def deriv(self, values: np.ndarray) -> np.ndarray:
        sp = self.spectrum_for(values)
        return sp.inverse(sp.ik * sp.forward(values))

    def inv_helmholtz(self, values: np.ndarray) -> np.ndarray:
        sp = self.spectrum_for(values)
        return sp.inverse(sp.forward(values) / sp.symbol)

    def fwd_helmholtz(self, values: np.ndarray) -> np.ndarray:
        sp = self.spectrum_for(values)
        return sp.inverse(sp.forward(values) * sp.symbol)


@dataclass(frozen=True, eq=False)
class Field:
    """Node samples of a scalar function on a Grid.

    Value semantics: the sample array is copied on construction and never
    shared, so Fields are safe to pass between concurrent workers.  Samples
    must be finite; real data is held as float64, complex as complex128.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.values)
        dtype = np.complex128 if arr.dtype.kind == "c" else np.float64
        arr = np.array(arr, dtype=dtype)
        if arr.shape != (self.grid.n_points,):
            raise ValueError(
                f"expected {self.grid.n_points} samples, got shape {arr.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise FloatingPointError("field samples must be finite")
        object.__setattr__(self, "values", arr)

    @property
    def is_complex(self) -> bool:
        return self.values.dtype.kind == "c"

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


def make_grid(half_length: float, n_points: int) -> Grid:
    """Build a periodic grid on [-half_length, half_length).

    n_points must be a power of two (>= 16) so the window splits evenly
    across FFT butterflies; half_length must be positive.
    """
    return Grid(half_length, n_points)


def spectral_derivative(f: Field) -> Field:
    """d/dx in the discrete Fourier basis; exact for band-limited data."""
    return Field(f.grid, f.grid.deriv(f.values))


def helmholtz_inverse(f: Field) -> Field:
    """Solve (1 - d^2/dx^2) g = f by dividing each Fourier mode by 1 + k^2."""
    return Field(f.grid, f.grid.inv_helmholtz(f.values))


def green_kernel_eval(x, half_length: float):
    """Closed-form periodic kernel p_L(x) = cosh(L - |x|) / (2 sinh L).

    The argument is reduced into [-L, L) first.  Evaluated in the
    overflow-safe form (e^{-|x|} + e^{|x|-2L}) / (2 (1 - e^{-2L})), which
    tends to 0.5 e^{-|x|} as L grows.  Accepts scalars or arrays.
    """
    length = float(half_length)
    if not np.isfinite(length) or length <= 0.0:
        raise ConfigurationError(f"half_length must be positive, got {half_length!r}")
    xr = np.mod(np.asarray(x, dtype=np.float64) + length, 2.0 * length) - length
    a = np.abs(xr)
    out = (np.exp(-a) + np.exp(a - 2.0 * length)) / (2.0 * (1.0 - np.exp(-2.0 * length)))
    return float(out) if np.isscalar(x) else out


def convolve_green_quadrature(f: Field) -> Field:
    """Real-space convolution with p_L by corrected trapezoid quadrature.

    Independent oracle for helmholtz_inverse: no FFTs are involved.  The
    integrand p_L(x_j - y) f(y) has a corner at y = x_j where the kernel
    slope jumps by -f(x_j); the plain trapezoid sum therefore carries a
    +(h^2/12) f(x_j) bias on smooth f, which is subtracted (Euler-Maclaurin
    end correction), leaving O(h^4) error.
    """
    if f.is_complex:
        raise ValueError("quadrature convolution is defined for real fields")
    g = f.grid
    n = g.n_points
    row = green_kernel_eval(g.spacing * np.arange(n), g.half_length)
    idx = (np.arange(n)[:, None] - np.arange(n)[None, :]) % n
    out = (row[idx] @ f.values) * g.spacing - (g.spacing**2 / 12.0) * f.values
    return Field(g, out)


def decompose_I1_I2(m: Field, x_index: int) -> tuple[float, float]:
    """Left/right exponential half-convolutions at node x_index.

    Returns (I1, I2) with

        I1 = 0.5 * integral_{-L}^{x} e^{y-x} m(y) dy,
        I2 = 0.5 * integral_{x}^{L}  e^{x-y} m(y) dy,

    by trapezoid quadrature on the window (exponents are shifted by x so
    the weights never exceed one).  Their sum reconstructs the Helmholtz
    inverse u and their difference I2 - I1 reconstructs u_x, up to the
    window-truncation of the infinite-line kernel.
    """
    if m.is_complex:
        raise ValueError("decomposition is defined for real fields")
    g = m.grid
    j = int(x_index)
    if not 0 <= j < g.n_points:
        raise IndexError(f"x_index {x_index} outside 0..{g.n_points - 1}")
    y = g.nodes
    xj = y[j]
    vals = m.values
    i1 = 0.0
    if j >= 1:
        i1 = 0.5 * float(
            np.trapezoid(np.exp(y[: j + 1] - xj) * vals[: j + 1], dx=g.spacing)
        )
    i2 = 0.0
    if j <= g.n_points - 2:
        i2 = 0.5 * float(
            np.trapezoid(np.exp(xj - y[j:]) * vals[j:], dx=g.spacing)
        )
    return i1, i2


def periodic_stencil(g: Grid, x) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and weights of periodic four-point cubic Lagrange
    interpolation at the points x.

    Both arrays have shape (4,) + x.shape: the nodes i-1, i, i+1, i+2
    around the cell i containing each point (wrapped into the window), and
    their Lagrange weights, so that sum(weights * values[cells], 0)
    interpolates ``values``.
    """
    s = (np.asarray(x, dtype=np.float64) + g.half_length) / g.spacing
    i0 = np.floor(s)
    t = s - i0
    offsets = np.arange(-1, 3).reshape((4,) + (1,) * i0.ndim)
    # n_points is a power of two, so the mask wraps negative indices too.
    cells = (i0.astype(np.intp) + offsets) & (g.n_points - 1)
    tm1, t1, t2 = t + 1.0, t - 1.0, t - 2.0
    a, b = t * t1, tm1 * t2
    weights = np.array((a * t2 * (-1.0 / 6.0), b * t1 * 0.5,
                        b * t * (-0.5), a * tm1 * (1.0 / 6.0)))
    return cells, weights


def interp_periodic(g: Grid, values: np.ndarray, x):
    """Evaluate node samples at arbitrary points by periodic cubic Lagrange.

    Four-point interpolation on the cell containing each point; exact for
    cubic polynomials of the local node index, O(h^4) on smooth data.
    Points are wrapped into the window, so any real x is valid.
    """
    cells, weights = periodic_stencil(g, x)
    out = np.sum(weights * np.take(values, cells), axis=0)
    if np.isscalar(x):
        return complex(out) if np.iscomplexobj(values) else float(out)
    return out
