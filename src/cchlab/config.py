"""Scenario configuration: plain key=value text, defaults, validation,
and initial-condition construction.

Config documents are UTF-8 text, one pair per line ('#' starts a comment).
Values may contain spaces ("m0 = bump(-2, 3, 1)"); several whitespace-free
pairs may also share one line ("kind=peakon q=0 r=5").  Initial conditions
are signed sums of named shapes:

    bump(center, width, amplitude)        amplitude * exp(-1/(1 - s^2)),
                                          s = (x-center)/width, zero outside
    gaussian(center, width, amplitude)    amplitude * exp(-((x-center)/width)^2)
    mollified_peakon(center, mass, width) narrow gaussian scaled so the
                                          discrete integral equals mass

assigned to m0/n0 (momenta directly) or u0/v0 (velocities; the momenta are
then computed spectrally as (1 - d^2/dx^2) u0).

ScenarioConfig checks every value when built, naming the key in its error;
a shape must have a positive width, a bump's support [c - w, c + w] must
lie strictly inside (-L, L), and a gaussian's or mollified peakon's centre
in it.  parse_config checks only the document and adds the key's "line N: ".
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional

import numpy as np

from .characteristics import DEFAULT_LABEL_STRIDE
from .diagnostics import DEFAULT_SUPPORT_FACTOR, DEFAULT_TAIL_TOLERANCE
from .errors import ConfigurationError
from .grid import Field, Grid, make_grid
from .march import DEFAULT_BLOWUP_FACTOR, substeps
from .solver import partner

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "build_initial_condition",
    "build_grid",
    "output_times",
]

KINDS = ("pde", "peakon", "complex", "characteristics")
PDE_MODES = ("coupled", "ch_reduction")


@dataclass(frozen=True)
class ScenarioConfig:
    """Scenario description with defaults filled in, validated when built."""

    kind: str
    out: str = "run.csv"
    # grid / time parameters (field scenarios)
    half_length: float = 30.0
    n_points: int = 2048
    t_end: float = 1.0
    dt: float = 1e-3
    output_every: float = 0.1
    mode: str = "coupled"
    # initial conditions (field scenarios); shape-expression strings
    m0: Optional[str] = None
    n0: Optional[str] = None
    u0: Optional[str] = None
    v0: Optional[str] = None
    u0_im: Optional[str] = None
    # thresholds
    epsilon_support: float = DEFAULT_SUPPORT_FACTOR
    tail_tolerance: float = DEFAULT_TAIL_TOLERANCE
    blowup_threshold: float = DEFAULT_BLOWUP_FACTOR
    # optional field dumps and characteristic labelling
    snapshot_times: str = ""
    label_stride: int = DEFAULT_LABEL_STRIDE
    # peakon scenarios: comma-separated lists
    q: Optional[str] = None
    m_amps: Optional[str] = None
    r: Optional[str] = None
    n_amps: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise _key_error("kind", f"must be one of {KINDS}, got {self.kind!r}")
        _check_keys_apply(self.kind, [f.name for f in dataclass_fields(self)
                                      if getattr(self, f.name) != f.default])
        for key, declared in _KEY_TYPES.items():
            value = getattr(self, key)
            if declared == "int" and not isinstance(value, numbers.Integral):
                raise _key_error(key, f"expects an integer, got {value!r}")
            if declared != "float":
                continue
            if not isinstance(value, numbers.Real):
                raise _key_error(key, f"expects a number, got {value!r}")
            if key == "t_end":
                if not math.isfinite(value) or value < 0.0:
                    raise _key_error(key, f"must be >= 0.0, got {value}")
            elif not math.isfinite(value) or value <= 0.0:
                raise _key_error(key, f"must be positive, got {value}")
        if self.label_stride < 1:
            raise _key_error("label_stride", "must be >= 1")
        if self.blowup_threshold < 1.0:  # a factor on max(1, initial amplitude)
            raise _key_error("blowup_threshold", f"must be >= 1, got {self.blowup_threshold}")
        if self.n_points < 16 or (self.n_points & (self.n_points - 1)) != 0:
            raise _key_error("n_points", f"must be a power of two >= 16, got {self.n_points}")

        if self.kind == "peakon":
            lists = {}
            for key in _PEAKON_ONLY:
                if getattr(self, key) is None:
                    raise ConfigurationError(f"missing required key '{key}' for kind=peakon")
                lists[key] = parse_float_list(getattr(self, key), key)
                if not all(map(math.isfinite, lists[key])):
                    raise _key_error(key, f"must hold finite numbers, got {getattr(self, key)!r}")
            for positions, amps in (("q", "m_amps"), ("r", "n_amps")):
                if len(lists[positions]) != len(lists[amps]):
                    raise _key_error(amps, f"must pair one amplitude per position in {positions}")
            return

        if self.m0 is None and self.u0 is None:
            targets = [f"'{key}'" for key in ("m0", "u0") if key not in _foreign_keys(self.kind)]
            raise ConfigurationError(f"missing initial condition: provide {' or '.join(targets)}")
        if self.m0 is not None and self.u0 is not None:
            raise _key_error("u0", "conflicts with 'm0'; give one target")
        if self.n0 is not None and self.v0 is not None:
            raise _key_error("v0", "conflicts with 'n0'; give one target")
        modes = _KIND_MODES.get(self.kind, PDE_MODES)
        if self.mode not in modes:
            raise _key_error("mode", f"must be one of {modes}, got {self.mode!r}")
        if self.mode == "ch_reduction" and (self.n0 is not None or self.v0 is not None):
            raise _key_error("n0" if self.n0 is not None else "v0",
                             "mode=ch_reduction derives the pair from the m-side")
        for key in ("m0", "n0", "u0", "v0", "u0_im"):
            if getattr(self, key) is not None:
                _check_shapes_fit(_parse_shapes(getattr(self, key), key), key,
                                  self.half_length)
        requested = parse_float_list(self.snapshot_times, "snapshot_times")
        times = output_times(self) if requested else []
        for ts in requested:
            if not any(abs(ts - t) <= _SNAPSHOT_TOL for t in times):
                raise _key_error(
                    "snapshot_times",
                    f"entry {ts!r} is not an output time (0, multiples of "
                    f"output_every = {self.output_every!r} and t_end = {self.t_end!r})")


# Every key with its annotation, in field order; under postponed evaluation
# the annotations are the strings "float", "int", "str" and "Optional[str]".
_KEY_TYPES = {f.name: f.type for f in dataclass_fields(ScenarioConfig)}

_PEAKON_ONLY = ("q", "m_amps", "r", "n_amps")
# Keys every kind uses; each other key is peakon-only or field-only.
_SHARED = ("kind", "out", "t_end", "dt", "blowup_threshold")
_FIELD_ONLY = set(_KEY_TYPES).difference(_PEAKON_ONLY, _SHARED)
# Keys that one kind alone uses, and every other kind refuses.
_KIND_ONLY = {"peakon": _PEAKON_ONLY, "characteristics": ("label_stride",),
              "complex": ("u0_im",)}
# Keys that a kind refuses though other kinds use them: a peakon run has no
# field, and the complex kind builds its conjugate pair from u0 and u0_im.
_KIND_REFUSES = {"peakon": _FIELD_ONLY, "complex": ("m0", "n0", "v0")}

# Defaults and modes that differ by kind; parse_config fills in the defaults.
_KIND_DEFAULTS = {"peakon": {"t_end": 20.0}, "complex": {"mode": "complex_conjugate"}}
_KIND_MODES = {"complex": ("complex_conjugate",)}

# Distance within which a snapshot time names an output time.
_SNAPSHOT_TOL = 1e-9


def _key_error(key: str, message: str) -> ConfigurationError:
    err = ConfigurationError(f"key '{key}' {message}")
    err.key = key  # lets parse_config name the line the key was written on
    return err


def _foreign_keys(kind: str) -> dict[str, str]:
    """Each key that ``kind`` does not use, with the message that refuses it."""
    foreign = {key: f"applies only to kind={owner}"
               for owner, keys in _KIND_ONLY.items() if owner != kind for key in keys}
    foreign.update(dict.fromkeys(_KIND_REFUSES.get(kind, ()), f"does not apply to kind={kind}"))
    return foreign


def _check_keys_apply(kind: str, keys) -> None:
    """Reject the first (alphabetically) of ``keys`` that ``kind`` does not use."""
    foreign = _foreign_keys(kind)
    bad = sorted(set(keys).intersection(foreign))
    if bad:
        raise _key_error(bad[0], foreign[bad[0]])


def parse_config(text: str) -> ScenarioConfig:
    """Parse a key=value document into a validated config, filling defaults.

    Syntax errors, unknown, duplicate and missing keys, malformed values,
    keys that do not apply to the scenario kind, and every value that
    ScenarioConfig rejects raise ConfigurationError naming the key and its
    line.
    """
    pairs: dict[str, object] = {}
    key_lines: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        compact = sum(1 for tok in tokens if "=" in tok)
        if compact >= 2:
            # several whitespace-free pairs on one line
            items = []
            for tok in tokens:
                if "=" not in tok:
                    raise ConfigurationError(
                        f"line {lineno}: token {tok!r} is not a key=value pair"
                    )
                items.append(tok.split("=", 1))
        elif "=" in line:
            items = [line.split("=", 1)]
        else:
            raise ConfigurationError(f"line {lineno}: expected key=value, got {line!r}")
        for key, value in items:
            key = key.strip()
            value = value.strip()
            if key not in _KEY_TYPES:
                raise ConfigurationError(f"line {lineno}: unknown key '{key}'")
            if key in pairs:
                raise ConfigurationError(f"line {lineno}: duplicate key '{key}'")
            try:
                pairs[key] = {"float": float, "int": int}.get(_KEY_TYPES[key], str)(value)
            except ValueError:  # kept as text: ScenarioConfig names the type it expects
                pairs[key] = value
            key_lines[key] = lineno
    if "kind" not in pairs:
        raise ConfigurationError("missing required key 'kind'")
    try:
        cfg = ScenarioConfig(**{**_KIND_DEFAULTS.get(pairs["kind"], {}), **pairs})
        # A key written at its default value is still one the kind does not use.
        _check_keys_apply(cfg.kind, pairs)
    except ConfigurationError as err:
        line = key_lines.get(getattr(err, "key", None))
        if line is None:
            raise
        raise ConfigurationError(f"line {line}: {err}") from None
    return cfg


def output_times(cfg: ScenarioConfig) -> list[float]:
    """Times at which a field scenario records: 0 and each whole output_every
    below t_end, counted by ``march.substeps``, then t_end itself.  A list too
    long to allocate raises ConfigurationError naming its count."""
    try:
        count, _ = substeps(cfg.t_end, cfg.output_every)
        times = (np.arange(count) * cfg.output_every).tolist()
    except (MemoryError, OverflowError, ValueError):  # too many, or infinitely many, times
        raise ConfigurationError(
            f"a time list of {cfg.t_end / cfg.output_every + 1:.6g} output times (t_end = "
            f"{cfg.t_end!r}, output_every = {cfg.output_every!r}) does not fit in memory"
        ) from None
    return times + [cfg.t_end]


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit a document that parse_config maps back to an equal config."""
    # Keys that do not apply to the scenario kind are dropped: the parser
    # rejects them, and they necessarily hold their defaults anyway.
    skip = _foreign_keys(cfg.kind)
    lines = []
    for f in dataclass_fields(ScenarioConfig):
        value = getattr(cfg, f.name)
        if f.name in skip or value is None:
            continue
        if f.name == "snapshot_times" and value == "":
            continue
        lines.append(f"{f.name} = {value!r}" if isinstance(value, float)
                     else f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def parse_float_list(raw: str, key: str = "<value>") -> list[float]:
    """Comma-separated floats ("0, 1.5, 2e-1"); empty string gives [].

    A token that is not a number raises ConfigurationError naming ``key``.
    """
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError:
        raise _key_error(key, f"expects comma-separated numbers, got {raw!r}") from None


_SHAPE_RE = re.compile(r"\s*([a-z_]+)\s*\(([^()]*)\)\s*")
_SHAPE_ARITY = {"bump": 3, "gaussian": 3, "mollified_peakon": 3}


def _parse_shapes(expr: str, key: str):
    """Parse a signed sum of shape calls into [(sign, name, args), ...]."""
    terms = []
    rest = expr.strip()
    sign = 1.0
    if rest.startswith(("+", "-")):
        sign = -1.0 if rest[0] == "-" else 1.0
        rest = rest[1:]
    while rest:
        match = _SHAPE_RE.match(rest)
        if match is None:
            raise _key_error(key, f"has malformed shape expression near {rest!r}")
        name, arg_text = match.group(1), match.group(2)
        if name not in _SHAPE_ARITY:
            raise _key_error(key, f"names unknown shape '{name}' "
                                  f"(known: {sorted(_SHAPE_ARITY)})")
        try:
            args = [float(a) for a in arg_text.split(",")]
        except ValueError:
            raise _key_error(key, f"has non-numeric arguments in '{name}({arg_text})'") from None
        if not all(map(math.isfinite, args)):
            raise _key_error(key, f"has non-finite arguments in '{name}({arg_text})'")
        if len(args) != _SHAPE_ARITY[name]:
            raise _key_error(key, f"shape '{name}' takes {_SHAPE_ARITY[name]} arguments, "
                                  f"got {len(args)}")
        terms.append((sign, name, args))
        rest = rest[match.end():]
        if not rest:
            break
        if rest[0] not in "+-":
            raise _key_error(key, f"expects '+' or '-' between shapes, found {rest!r}")
        sign = 1.0 if rest[0] == "+" else -1.0
        rest = rest[1:]
    if not terms:
        raise _key_error(key, "has an empty shape expression")
    return terms


def _check_shapes_fit(terms, key: str, half_length: float) -> None:
    """Reject a shape with a non-positive width, a bump whose support is not
    strictly inside (-L, L), or another shape centred outside it."""
    for _, name, args in terms:
        center = args[0]
        width = args[2] if name == "mollified_peakon" else args[1]
        if width <= 0:
            raise _key_error(key, f"has shape '{name}' with non-positive width {width!r}")
        if name == "bump":
            if center - width <= -half_length or center + width >= half_length:
                raise _key_error(key, f"has bump support [{center - width!r}, "
                                      f"{center + width!r}] crossing the window edge "
                                      f"(half_length = {half_length!r})")
        elif not -half_length < center < half_length:
            raise _key_error(key, f"has {name} centre {center!r} outside the window "
                                  f"(half_length = {half_length!r})")


def _eval_shape(name: str, args: list[float], g: Grid) -> np.ndarray:
    x = g.nodes
    if name == "bump":
        center, width, amplitude = args
        s = (x - center) / width
        out = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        out[inside] = amplitude * np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out
    if name == "gaussian":
        center, width, amplitude = args
        return amplitude * np.exp(-(((x - center) / width) ** 2))
    center, mass, width = args  # mollified_peakon
    shape = np.exp(-0.5 * (((x - center) / width) ** 2))
    total = float(np.sum(shape)) * g.spacing
    return (mass / total) * shape


def _eval_expression(expr: str, g: Grid) -> np.ndarray:
    out = np.zeros(g.n_points)
    for sign, name, args in _parse_shapes(expr, "<ic>"):
        out += sign * _eval_shape(name, args, g)
    return out


def build_grid(cfg: ScenarioConfig) -> Grid:
    return make_grid(cfg.half_length, cfg.n_points)


def build_initial_condition(cfg: ScenarioConfig, g: Grid) -> tuple[Field, Field]:
    """Construct the momentum pair (m0, n0) for a field scenario.

    Momentum targets (m0/n0) are sampled directly; velocity targets
    (u0/v0) are converted spectrally via the forward Helmholtz operator.
    For kind=complex the momentum is built from u0 (+ optional u0_im).  A
    reduction mode derives n as the partner of m (``solver.partner``: m
    itself for ch_reduction, conj(m) for complex_conjugate); otherwise a
    missing n-side defaults to zero.
    """
    if cfg.kind == "peakon":
        raise ConfigurationError("peakon scenarios have no field initial condition")

    if cfg.kind == "complex":
        u_values = _eval_expression(cfg.u0, g).astype(np.complex128)
        if cfg.u0_im is not None:
            u_values = u_values + 1j * _eval_expression(cfg.u0_im, g)
        m_values = g.fwd_helmholtz(u_values)
    elif cfg.m0 is not None:
        m_values = _eval_expression(cfg.m0, g)
    else:
        m_values = g.fwd_helmholtz(_eval_expression(cfg.u0, g))
    if cfg.mode != "coupled":
        n_values = partner(cfg.mode, m_values[None])[0]
    elif cfg.n0 is not None:
        n_values = _eval_expression(cfg.n0, g)
    elif cfg.v0 is not None:
        n_values = g.fwd_helmholtz(_eval_expression(cfg.v0, g))
    else:
        n_values = np.zeros(g.n_points)
    return Field(g, m_values), Field(g, n_values)
