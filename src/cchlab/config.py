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
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields as dataclass_fields
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .grid import Field, Grid, make_grid

__all__ = [
    "ScenarioConfig",
    "parse_config",
    "serialize_config",
    "build_initial_condition",
    "build_grid",
    "output_times",
    "snapshot_time_list",
]

KINDS = ("pde", "peakon", "complex", "characteristics")
PDE_MODES = ("coupled", "ch_reduction")


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated scenario description with defaults filled in."""

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
    epsilon_support: float = 1e-7
    tail_tolerance: float = 1e-8
    blowup_threshold: float = 1e6
    # optional field dumps and characteristic labelling
    snapshot_times: str = ""
    label_stride: int = 4
    # peakon scenarios: comma-separated lists
    q: Optional[str] = None
    m_amps: Optional[str] = None
    r: Optional[str] = None
    n_amps: Optional[str] = None


# Every key with its annotation, in field order; under postponed evaluation
# the annotations are the strings "float", "int", "str" and "Optional[str]".
_KEY_TYPES = {f.name: f.type for f in dataclass_fields(ScenarioConfig)}
_FLOAT_KEYS = [key for key, kind in _KEY_TYPES.items() if kind == "float"]

_PEAKON_ONLY = {"q", "m_amps", "r", "n_amps"}
_FIELD_ONLY = {
    "half_length", "n_points", "output_every", "mode",
    "m0", "n0", "u0", "v0", "u0_im",
    "epsilon_support", "tail_tolerance", "snapshot_times", "label_stride",
}


def _convert(key: str, raw: str, lineno: int):
    kind = _KEY_TYPES[key]
    try:
        return {"float": float, "int": int}.get(kind, str)(raw)
    except ValueError:
        expected = "an integer" if kind == "int" else "a number"
        raise ConfigurationError(
            f"line {lineno}: key '{key}' expects {expected}, got {raw!r}"
        ) from None


def parse_config(text: str) -> ScenarioConfig:
    """Parse and validate a key=value document, filling defaults.

    Unknown keys, missing required keys, malformed values, and keys that do
    not apply to the scenario kind all raise ConfigurationError naming the
    key and line.
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
            pairs[key] = _convert(key, value, lineno)
            key_lines[key] = lineno
    return _validate(pairs, key_lines)


def _fail_key(key: str, key_lines: dict[str, int], message: str) -> ConfigurationError:
    where = f"line {key_lines[key]}: " if key in key_lines else ""
    return ConfigurationError(f"{where}key '{key}' {message}")


def _validate(pairs: dict[str, object], key_lines: dict[str, int]) -> ScenarioConfig:
    if "kind" not in pairs:
        raise ConfigurationError("missing required key 'kind'")
    kind = pairs["kind"]
    if kind not in KINDS:
        raise _fail_key("kind", key_lines, f"must be one of {KINDS}, got {kind!r}")

    if kind == "peakon":
        bad = sorted(set(pairs) & _FIELD_ONLY)
        if bad:
            raise _fail_key(bad[0], key_lines, "does not apply to kind=peakon")
        for req in ("q", "m_amps", "r", "n_amps"):
            if req not in pairs:
                raise ConfigurationError(f"missing required key '{req}' for kind=peakon")
            _parse_float_list(pairs[req], req, key_lines)
        if len(_parse_float_list(pairs["q"], "q", key_lines)) != len(
                _parse_float_list(pairs["m_amps"], "m_amps", key_lines)):
            raise _fail_key("m_amps", key_lines, "must pair one amplitude per position in q")
        if len(_parse_float_list(pairs["r"], "r", key_lines)) != len(
                _parse_float_list(pairs["n_amps"], "n_amps", key_lines)):
            raise _fail_key("n_amps", key_lines, "must pair one amplitude per position in r")
        pairs.setdefault("t_end", 20.0)
    else:
        bad = sorted(set(pairs) & _PEAKON_ONLY)
        if bad:
            raise _fail_key(bad[0], key_lines, f"applies only to kind=peakon")
        ic_keys = [k for k in ("m0", "u0") if k in pairs]
        if not ic_keys:
            raise ConfigurationError(
                "missing initial condition: provide 'm0' or 'u0'"
            )
        if "m0" in pairs and "u0" in pairs:
            raise _fail_key("u0", key_lines, "conflicts with 'm0'; give one target")
        if "n0" in pairs and "v0" in pairs:
            raise _fail_key("v0", key_lines, "conflicts with 'n0'; give one target")
        mode = pairs.get("mode", "coupled")
        if kind == "complex":
            pairs["mode"] = "complex_conjugate"
            for k in ("n0", "v0"):
                if k in pairs:
                    raise _fail_key(k, key_lines,
                                    "does not apply to kind=complex (pair is conjugate)")
        else:
            if mode not in PDE_MODES:
                raise _fail_key("mode", key_lines, f"must be one of {PDE_MODES}")
            if "u0_im" in pairs:
                raise _fail_key("u0_im", key_lines, "applies only to kind=complex")
            if mode == "ch_reduction" and ("n0" in pairs or "v0" in pairs):
                raise _fail_key("n0" if "n0" in pairs else "v0", key_lines,
                                "mode=ch_reduction derives the pair from the m-side")
        for shape_key in ("m0", "n0", "u0", "v0", "u0_im"):
            if shape_key in pairs:
                _parse_shapes(pairs[shape_key], shape_key, key_lines)

    for key in (k for k in _FLOAT_KEYS if k in pairs):
        val = pairs[key]
        if key == "t_end":
            if not np.isfinite(val) or val < 0.0:
                raise _fail_key(key, key_lines, f"must be >= 0.0, got {val}")
        elif not np.isfinite(val) or val <= 0.0:
            raise _fail_key(key, key_lines, f"must be positive, got {val}")
    if "label_stride" in pairs and pairs["label_stride"] < 1:
        raise _fail_key("label_stride", key_lines, "must be >= 1")
    if "n_points" in pairs:
        n = pairs["n_points"]
        if n < 16 or (n & (n - 1)) != 0:
            raise _fail_key("n_points", key_lines,
                            f"must be a power of two >= 16, got {n}")
    if "snapshot_times" in pairs and pairs["snapshot_times"]:
        _parse_float_list(pairs["snapshot_times"], "snapshot_times", key_lines)

    cfg = ScenarioConfig(**{k: v for k, v in pairs.items() if k in _KEY_TYPES})
    _check_snapshot_times(cfg, key_lines)
    return cfg


# Distance within which a snapshot time names an output time.
_SNAPSHOT_TOL = 1e-9


def output_times(cfg: ScenarioConfig) -> list[float]:
    """Times at which a field scenario records: 0, every output_every, and t_end."""
    if cfg.t_end <= 0.0:
        return [0.0]
    times = list(np.arange(0.0, cfg.t_end + 1e-12, cfg.output_every))
    if not times or abs(times[-1] - cfg.t_end) > 1e-12:
        times.append(cfg.t_end)
    return [float(t) for t in times]


def _check_snapshot_times(cfg: ScenarioConfig, key_lines: dict[str, int]) -> list[float]:
    requested = _parse_float_list(cfg.snapshot_times, "snapshot_times", key_lines)
    if not requested:
        return []
    times = output_times(cfg)
    for ts in requested:
        if not any(abs(ts - t) <= _SNAPSHOT_TOL for t in times):
            raise _fail_key(
                "snapshot_times", key_lines,
                f"entry {ts!r} is not an output time (0, multiples of "
                f"output_every = {cfg.output_every!r} and t_end = {cfg.t_end!r})")
    return requested


def snapshot_time_list(cfg: ScenarioConfig) -> list[float]:
    """The config's snapshot times; ConfigurationError names any entry that
    is not one of ``output_times(cfg)``, since no field block would be
    written for it."""
    return _check_snapshot_times(cfg, {})


def serialize_config(cfg: ScenarioConfig) -> str:
    """Emit a document that parse_config maps back to an equal config."""
    # Keys that do not apply to the scenario kind are dropped: the parser
    # rejects them, and they necessarily hold their defaults anyway.
    skip = _FIELD_ONLY if cfg.kind == "peakon" else _PEAKON_ONLY
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


def _parse_float_list(raw: str, key: str, key_lines: dict[str, int]) -> list[float]:
    try:
        return [float(tok) for tok in str(raw).split(",") if tok.strip() != ""]
    except ValueError:
        raise _fail_key(key, key_lines, f"expects comma-separated numbers, got {raw!r}") from None


def parse_float_list(raw: str) -> list[float]:
    """Comma-separated floats ("0, 1.5, 2e-1"); empty string gives []."""
    return _parse_float_list(raw, "<value>", {})


_SHAPE_RE = re.compile(r"\s*([a-z_]+)\s*\(([^()]*)\)\s*")
_SHAPE_ARITY = {"bump": 3, "gaussian": 3, "mollified_peakon": 3}


def _parse_shapes(expr: str, key: str, key_lines: dict[str, int]):
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
            raise _fail_key(key, key_lines, f"has malformed shape expression near {rest!r}")
        name, arg_text = match.group(1), match.group(2)
        if name not in _SHAPE_ARITY:
            raise _fail_key(key, key_lines,
                            f"names unknown shape '{name}' "
                            f"(known: {sorted(_SHAPE_ARITY)})")
        try:
            args = [float(a) for a in arg_text.split(",")]
        except ValueError:
            raise _fail_key(key, key_lines,
                            f"has non-numeric arguments in '{name}({arg_text})'") from None
        if len(args) != _SHAPE_ARITY[name]:
            raise _fail_key(key, key_lines,
                            f"shape '{name}' takes {_SHAPE_ARITY[name]} arguments, "
                            f"got {len(args)}")
        terms.append((sign, name, args))
        rest = rest[match.end():]
        if not rest:
            break
        if rest[0] not in "+-":
            raise _fail_key(key, key_lines,
                            f"expects '+' or '-' between shapes, found {rest!r}")
        sign = 1.0 if rest[0] == "+" else -1.0
        rest = rest[1:]
    if not terms:
        raise _fail_key(key, key_lines, "has an empty shape expression")
    return terms


def _eval_shape(name: str, args: list[float], g: Grid) -> np.ndarray:
    x = g.nodes
    if name == "bump":
        center, width, amplitude = args
        if width <= 0:
            raise ConfigurationError(f"bump width must be positive, got {width}")
        if center - width <= -g.half_length or center + width >= g.half_length:
            raise ConfigurationError(
                f"bump support [{center - width}, {center + width}] crosses the "
                f"window edge (L = {g.half_length})"
            )
        s = (x - center) / width
        out = np.zeros_like(x)
        inside = np.abs(s) < 1.0
        out[inside] = amplitude * np.exp(-1.0 / (1.0 - s[inside] ** 2))
        return out
    if name == "gaussian":
        center, width, amplitude = args
        if width <= 0:
            raise ConfigurationError(f"gaussian width must be positive, got {width}")
        if not -g.half_length < center < g.half_length:
            raise ConfigurationError(f"gaussian center {center} outside the window")
        return amplitude * np.exp(-(((x - center) / width) ** 2))
    if name == "mollified_peakon":
        center, mass, width = args
        if width <= 0:
            raise ConfigurationError(f"mollifier width must be positive, got {width}")
        if not -g.half_length < center < g.half_length:
            raise ConfigurationError(f"mollified peakon center {center} outside the window")
        shape = np.exp(-0.5 * (((x - center) / width) ** 2))
        total = float(np.sum(shape)) * g.spacing
        return (mass / total) * shape
    raise ConfigurationError(f"unknown shape '{name}'")


def _eval_expression(expr: str, g: Grid) -> np.ndarray:
    out = np.zeros(g.n_points)
    for sign, name, args in _parse_shapes(expr, "<ic>", {}):
        out += sign * _eval_shape(name, args, g)
    return out


def build_grid(cfg: ScenarioConfig) -> Grid:
    return make_grid(cfg.half_length, cfg.n_points)


def build_initial_condition(cfg: ScenarioConfig, g: Grid) -> tuple[Field, Field]:
    """Construct the momentum pair (m0, n0) for a field scenario.

    Momentum targets (m0/n0) are sampled directly; velocity targets
    (u0/v0) are converted spectrally via the forward Helmholtz operator.
    For kind=complex the pair is the complex momentum and its conjugate,
    built from u0 (+ optional u0_im).  Missing sides default to zero
    (ch_reduction copies the m-side).
    """
    if cfg.kind == "peakon":
        raise ConfigurationError("peakon scenarios have no field initial condition")

    if cfg.kind == "complex":
        if cfg.u0 is None:
            raise ConfigurationError("kind=complex requires a 'u0' initial condition")
        u_values = _eval_expression(cfg.u0, g).astype(np.complex128)
        if cfg.u0_im is not None:
            u_values = u_values + 1j * _eval_expression(cfg.u0_im, g)
        m_values = g.fwd_helmholtz(u_values)
        return Field(g, m_values), Field(g, np.conj(m_values))

    if cfg.m0 is not None:
        m_values = _eval_expression(cfg.m0, g)
    else:
        m_values = g.fwd_helmholtz(_eval_expression(cfg.u0, g))
    if cfg.mode == "ch_reduction":
        n_values = m_values.copy()
    elif cfg.n0 is not None:
        n_values = _eval_expression(cfg.n0, g)
    elif cfg.v0 is not None:
        n_values = g.fwd_helmholtz(_eval_expression(cfg.v0, g))
    else:
        n_values = np.zeros(g.n_points)
    return Field(g, m_values), Field(g, n_values)
