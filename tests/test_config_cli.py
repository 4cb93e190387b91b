"""Configuration parsing, initial-condition construction, and the CLI."""

from __future__ import annotations

import csv
import importlib
import inspect
import os
import re
import resource
import shutil
import subprocess
import sys
from dataclasses import fields as dataclass_fields
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cchlab
from cchlab import config as config_module
from cchlab import solver
from cchlab.characteristics import init_characteristics
from cchlab.cli import main
from cchlab.config import (PDE_MODES, ScenarioConfig, build_grid,
                           build_initial_condition, output_times, parse_config,
                           parse_float_list, serialize_config)
from cchlab.diagnostics import CSV_COLUMNS, settings_from_initial
from cchlab.errors import BlowUpError, ConfigurationError
from cchlab.grid import make_grid
from cchlab.peakons import (PeakonState, evolve_peakons, peakon_hamiltonian,
                            waltz_period_closed_form)
from cchlab.runner import _CSV_BLOCK_ROWS, _write_csv, execute

from conftest import bump_values

PDE_TEXT = "kind = pde\nm0 = bump(-2, 3, 1)\nn0 = bump(2, 3, 1)\n"


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


# ------------------------------------------------------------- parsing

def test_defaults_fill_in():
    cfg = parse_config(PDE_TEXT)
    assert cfg.kind == "pde"
    assert cfg.out == "run.csv"
    assert (cfg.half_length, cfg.n_points) == (30.0, 2048)
    assert (cfg.t_end, cfg.dt, cfg.output_every) == (1.0, 1e-3, 0.1)
    assert cfg.mode == "coupled"
    assert cfg.epsilon_support == 1e-7
    assert cfg.tail_tolerance == 1e-8
    assert cfg.blowup_threshold == 1e6


def _default_of(func, name):
    return inspect.signature(func).parameters[name].default


def test_config_defaults_are_the_library_defaults():
    defaults = {f.name: f.default for f in dataclass_fields(ScenarioConfig)}
    assert defaults["epsilon_support"] == _default_of(settings_from_initial, "support_factor")
    assert defaults["tail_tolerance"] == _default_of(settings_from_initial, "tail_tolerance")
    assert defaults["label_stride"] == _default_of(init_characteristics, "stride")
    for march in (cchlab.evolve, cchlab.evolve_peakon_path, evolve_peakons):
        assert defaults["blowup_threshold"] == _default_of(march, "blowup_factor")


def test_key_sets_split_every_key():
    peakon_only = set(config_module._PEAKON_ONLY)
    field_only = config_module._FIELD_ONLY
    shared = set(config_module._SHARED)
    assert field_only == {"half_length", "n_points", "output_every", "mode",
                          "m0", "n0", "u0", "v0", "u0_im", "epsilon_support",
                          "tail_tolerance", "snapshot_times", "label_stride"}
    assert not (peakon_only & field_only or peakon_only & shared or field_only & shared)
    assert peakon_only | field_only | shared == set(config_module._KEY_TYPES)
    characteristics_only = set(config_module._KIND_ONLY["characteristics"])
    assert characteristics_only == {"label_stride"} and characteristics_only <= field_only
    for key in field_only:
        with pytest.raises(ConfigurationError, match=f"'{key}' does not apply to kind=peakon"):
            parse_config(f"kind=peakon q=0 m_amps=10 r=5 n_amps=1\n{key} = 1\n")
    for key in peakon_only:
        with pytest.raises(ConfigurationError, match=f"'{key}' applies only to kind=peakon"):
            parse_config(f"{PDE_TEXT}{key} = 1\n")
    for key in characteristics_only:
        with pytest.raises(ConfigurationError,
                           match=f"'{key}' applies only to kind=characteristics"):
            parse_config(f"{PDE_TEXT}{key} = 1\n")
        parse_config(f"kind = characteristics\nm0 = bump(-2, 3, 1)\n{key} = 1\n")


def test_comments_blank_lines_and_spaced_values():
    cfg = parse_config(
        "# scenario\n"
        "kind = pde   # trailing comment\n"
        "\n"
        "m0 = bump(-2, 3, 1) + bump(2, 3, 0.5)\n"
    )
    assert cfg.m0 == "bump(-2, 3, 1) + bump(2, 3, 0.5)"


def test_compact_one_line_form():
    cfg = parse_config("kind=peakon m_amps=10 n_amps=1 q=0 r=5\n")
    assert cfg.kind == "peakon"
    assert cfg.t_end == 20.0  # peakon default horizon
    assert parse_float_list(cfg.q) == [0.0]


_REJECTIONS = [
    ("m0 = bump(0, 3, 1)\n", "missing required key 'kind'"),
    ("kind = wave\nm0 = bump(0, 3, 1)\n", "must be one of"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nwavelength = 3\n", "line 3: unknown key 'wavelength'"),
    ("kind = pde\nkind = pde\nm0 = bump(0, 3, 1)\n", "line 2: duplicate key 'kind'"),
    ("kind = pde\nhello\n", "expected key=value"),
    ("kind=peakon q=0 oops m_amps=1 r=5 n_amps=1\n", "not a key=value pair"),
    ("kind = pde\n", "missing initial condition"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nu0 = bump(0, 3, 1)\n", "conflicts with 'm0'"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nn0 = bump(0, 3, 1)\nv0 = bump(0, 3, 1)\n",
     "conflicts with 'n0'"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nq = 0\n", "applies only to kind=peakon"),
    ("kind=peakon q=0 m_amps=1 r=5 n_amps=1\nn_points = 64\n",
     "does not apply to kind=peakon"),
    ("kind=peakon q=0 m_amps=1 r=5\n", "missing required key 'n_amps'"),
    ("kind=peakon q=0,1 m_amps=1 r=5 n_amps=1\n", "one amplitude per position"),
    ("kind=peakon q=0 m_amps=one r=5 n_amps=1\n", "comma-separated numbers"),
    ("kind=peakon q=nan m_amps=1 r=5 n_amps=1\n", "line 1: key 'q' must hold finite numbers"),
    ("kind = complex\nu0 = bump(0, 8, 1)\nn0 = bump(0, 3, 1)\n",
     "does not apply to kind=complex"),
    ("kind = pde\nmode = upwind\nm0 = bump(0, 3, 1)\n", "must be one of"),
    ("kind = pde\nmode = ch_reduction\nm0 = bump(0, 3, 1)\nn0 = bump(0, 3, 1)\n",
     "derives the pair"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nu0_im = bump(0, 3, 1)\n",
     "applies only to kind=complex"),
    ("kind = pde\nm0 = bump(0, 3, 1)\ndt = fast\n", "expects a number"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nn_points = many\n", "expects an integer"),
    ("kind = pde\nm0 = bump(0, 3, 1)\ndt = -1\n", "must be positive"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nt_end = -1\n", "must be >= 0.0"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nn_points = 1000\n", "power of two"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nn_points = 8\n", "power of two"),
    ("kind = characteristics\nm0 = bump(0, 3, 1)\nlabel_stride = 0\n", "must be >= 1"),
    ("kind = pde\nm0 = blob(0, 3, 1)\n", "unknown shape 'blob'"),
    ("kind = pde\nm0 = bump(0, 3)\n", "takes 3 arguments"),
    ("kind = pde\nm0 = bump(a, 3, 1)\n", "non-numeric arguments"),
    ("kind = pde\nm0 = gaussian(0, 1, nan)\n", "line 2: key 'm0' has non-finite arguments"),
    ("kind = pde\nm0 = bump(0, 3, 1) bump(1, 3, 1)\n", "between shapes"),
    ("kind = pde\nm0 =\n", "empty shape expression"),
    ("kind = pde\nm0 = 1 + bump(0, 3, 1)\n", "malformed shape expression"),
    ("kind = pde\nm0 = bump(0, 3, 1)\nsnapshot_times = 0.05\n",
     "entry 0.05 is not an output time"),
    ("kind = complex\nmode = coupled\nu0 = bump(0, 8, 1)\n",
     "line 2: key 'mode' must be one of ('complex_conjugate',)"),
    ("kind = complex\nm0 = bump(0, 8, 1)\n",
     "line 2: key 'm0' does not apply to kind=complex"),
    # The key tables refuse a complex run's m0 before the one-target rule sees u0.
    ("kind = complex\nu0 = bump(0, 8, 1)\nm0 = bump(0, 3, 1)\n",
     "line 3: key 'm0' does not apply to kind=complex"),
    ("kind = complex\n", "missing initial condition: provide 'u0'"),
    ("kind = characteristics\n", "missing initial condition: provide 'm0' or 'u0'"),
    ("kind = pde\nm0 = bump(27, 6, 1)\n",
     "line 2: key 'm0' has bump support [21.0, 33.0] crossing the window edge"),
    ("kind = pde\nm0 = gaussian(35, 1, 1)\n",
     "line 2: key 'm0' has gaussian centre 35.0 outside the window"),
    ("kind = pde\nm0 = mollified_peakon(35, 1, 1)\n",
     "line 2: key 'm0' has mollified_peakon centre 35.0 outside the window"),
    ("kind = pde\nm0 = bump(0, -1, 1)\n",
     "line 2: key 'm0' has shape 'bump' with non-positive width -1.0"),
]


@pytest.mark.parametrize("text, fragment", _REJECTIONS)
def test_rejections_name_the_key_and_line(text, fragment):
    with pytest.raises(ConfigurationError) as info:
        parse_config(text)
    assert fragment in str(info.value)


# Rejections of the document itself, which no built config can reproduce.
_DOCUMENT_ERRORS = ("missing required key 'kind'", "unknown key", "duplicate key",
                    "expected key=value", "not a key=value pair", "expects a number",
                    "expects an integer")
_VALID = {
    "pde": parse_config(PDE_TEXT),
    "peakon": parse_config("kind=peakon q=0 m_amps=1 r=5 n_amps=1\n"),
    "complex": parse_config("kind = complex\nu0 = bump(0, 8, 1)\n"),
}


def _written_pairs(text):
    """The typed key=value pairs of a well-formed document."""
    pairs = {}
    for line in text.splitlines():
        for item in line.split() if line.count("=") >= 2 else [line]:
            key, value = (part.strip() for part in item.split("=", 1))
            kind = ScenarioConfig.__dataclass_fields__[key].type
            pairs[key] = {"float": float, "int": int}.get(kind, str)(value)
    return pairs


@pytest.mark.parametrize("text, fragment", [
    case for case in _REJECTIONS if not any(doc in case[1] for doc in _DOCUMENT_ERRORS)])
def test_value_rejections_hold_for_replace(text, fragment):
    # The document's keys replace those of a valid config of its kind; the
    # keys it leaves out that have no default value are unset.
    with pytest.raises(ConfigurationError) as parsed:
        parse_config(text)
    pairs = _written_pairs(text)
    unset = dict.fromkeys(("m0", "n0", "u0", "v0", "u0_im", "q", "m_amps", "r", "n_amps"))
    base = _VALID.get(pairs["kind"], _VALID["pde"])
    with pytest.raises(ConfigurationError) as built:
        replace(base, **{**unset, **pairs})
    assert re.sub(r"^line \d+: ", "", str(parsed.value)) == str(built.value)
    assert re.search(r"'(\w+)'", str(built.value)).group(1) in pairs | unset


@pytest.mark.parametrize("text", [PDE_TEXT, "kind = complex\nu0 = bump(0, 8, 1)\n"],
                         ids=["pde", "complex"])
def test_label_stride_applies_only_to_characteristics(tmp_path, monkeypatch, capsys, text):
    refusal = "key 'label_stride' applies only to kind=characteristics"
    line = text.count("\n") + 1
    for value in (8, 4):  # 4 is the default: written, it is still refused
        with pytest.raises(ConfigurationError) as info:
            parse_config(f"{text}label_stride = {value}\n")
        assert str(info.value) == f"line {line}: {refusal}"
    base = parse_config(text)
    with pytest.raises(ConfigurationError, match=f"^{refusal}$"):
        replace(base, label_stride=8)
    with pytest.raises(ConfigurationError, match=f"^{refusal}$"):
        ScenarioConfig(**{f.name: getattr(base, f.name) for f in dataclass_fields(base)
                          if f.name != "label_stride"}, label_stride=2)
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, text + "t_end = 0.01\nout = s.csv\n")
    for spec in ("label_stride=4:4:1", "label_stride=2:8:2"):
        assert main(["sweep", path, "--vary", spec]) == 1
        assert capsys.readouterr().err == f"error: {refusal}\n"
    chars_path = write_cfg(tmp_path, "kind = characteristics\nm0 = bump(-2, 3, 1)\n"
                                     "t_end = 0.01\nout = c.csv\n", "chars.cfg")
    assert main(["sweep", chars_path, "--vary", "label_stride=4:0:2"]) == 1  # 0 is last
    assert capsys.readouterr().err == "error: key 'label_stride' must be >= 1\n"
    assert not list(tmp_path.glob("*.csv"))


def test_complex_kind_forces_conjugate_mode():
    cfg = parse_config("kind = complex\nu0 = bump(0, 8, 1)\nu0_im = bump(1, 8, 0.5)\n")
    assert cfg.mode == "complex_conjugate"


def test_parse_float_list():
    assert parse_float_list("0, 1.5, 2e-1") == [0.0, 1.5, 0.2]
    assert parse_float_list("") == []
    with pytest.raises(ConfigurationError):
        parse_float_list("1;2")


@pytest.mark.parametrize("t_end, every, count", [
    # k * every lands off t_end by round-off: the last entry is t_end itself.
    (0.3, 0.1, 3), (0.7, 0.1, 7), (1.2, 0.1, 12), (0.7, 0.01, 70),
    # k * every lands on t_end, or t_end is no whole number of steps.
    (1.0, 0.1, 10), (1.0, 0.05, 20), (0.0, 0.1, 0), (1.05, 0.1, 11),
])
def test_output_times_are_the_whole_steps_below_t_end_then_t_end(t_end, every, count):
    cfg = ScenarioConfig(kind="pde", m0="bump(0, 3, 1)", t_end=t_end, output_every=every)
    assert output_times(cfg) == [k * every for k in range(count)] + [t_end]


# ------------------------------------------------- initial conditions

def test_momentum_target_sampled_directly():
    cfg = parse_config("kind = pde\nm0 = bump(-2, 3, 1) - bump(2, 3, 0.5)\n")
    g = build_grid(cfg)
    m0, n0 = build_initial_condition(cfg, g)
    expected = (bump_values(g.nodes, -2.0, 3.0, 1.0)
                - bump_values(g.nodes, 2.0, 3.0, 0.5))
    assert np.array_equal(m0.values, expected)
    assert np.all(n0.values == 0.0)  # missing side defaults to rest


def test_velocity_target_goes_through_helmholtz():
    cfg = parse_config("kind = pde\nu0 = bump(0, 4, 1)\n")
    g = build_grid(cfg)
    m0, _ = build_initial_condition(cfg, g)
    assert np.allclose(m0.values,
                       g.fwd_helmholtz(bump_values(g.nodes, 0.0, 4.0, 1.0)),
                       rtol=0, atol=1e-14)


def test_velocity_target_of_the_n_side_goes_through_helmholtz():
    cfg = parse_config("kind = pde\nm0 = bump(-2, 3, 1)\nv0 = bump(1, 4, 0.5)\n")
    g = build_grid(cfg)
    _, n0 = build_initial_condition(cfg, g)
    assert np.array_equal(n0.values, g.fwd_helmholtz(bump_values(g.nodes, 1.0, 4.0, 0.5)))


@pytest.mark.parametrize("expr, signs", [
    ("-bump(0, 3, 1)", (-1.0,)), ("+bump(0, 3, 1)", (1.0,)),
    ("- bump(0, 3, 1) - bump(2, 3, 0.5)", (-1.0, -1.0)),
])
def test_a_leading_sign_applies_to_the_first_shape(expr, signs):
    cfg = parse_config(f"kind = pde\nm0 = {expr}\n")
    g = build_grid(cfg)
    m0, _ = build_initial_condition(cfg, g)
    shapes = (bump_values(g.nodes, 0.0, 3.0, 1.0), bump_values(g.nodes, 2.0, 3.0, 0.5))
    expected = np.zeros(g.n_points)
    for sign, shape in zip(signs, shapes):
        expected += sign * shape
    assert np.array_equal(m0.values, expected)


def test_reduction_copies_the_m_side():
    cfg = parse_config("kind = pde\nmode = ch_reduction\nm0 = bump(0, 3, 1)\n")
    g = build_grid(cfg)
    m0, n0 = build_initial_condition(cfg, g)
    assert np.array_equal(m0.values, n0.values)
    assert m0.values is not n0.values


def test_complex_pair_is_conjugate():
    cfg = parse_config("kind = complex\nu0 = bump(-2, 8, 1)\nu0_im = bump(2, 8, 0.5)\n")
    g = build_grid(cfg)
    m0, n0 = build_initial_condition(cfg, g)
    assert m0.is_complex
    assert np.array_equal(n0.values, np.conj(m0.values))


def test_mollified_peakon_carries_exact_discrete_mass():
    cfg = parse_config("kind = pde\nm0 = mollified_peakon(1, 2.5, 0.1)\n")
    g = build_grid(cfg)
    m0, _ = build_initial_condition(cfg, g)
    assert float(np.sum(m0.values)) * g.spacing == pytest.approx(2.5, rel=1e-12)


def test_peakon_config_has_no_field_initial_condition():
    g = make_grid(30.0, 256)
    peakon_cfg = parse_config("kind=peakon q=0 m_amps=1 r=5 n_amps=1\n")
    with pytest.raises(ConfigurationError):
        build_initial_condition(peakon_cfg, g)


# ----------------------------------------------------------- round trip

_NAME = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_",
                min_size=1, max_size=12)


@st.composite
def pde_configs(draw):
    center = draw(st.floats(-5.0, 5.0))
    width = draw(st.floats(0.5, 10.0))
    amp = draw(st.floats(-3.0, 3.0))
    return ScenarioConfig(
        kind="pde",
        out=draw(_NAME),
        # The bump's support lies strictly inside the window.
        half_length=draw(st.floats(abs(center) + width, 60.0, exclude_min=True)),
        n_points=draw(st.sampled_from((16, 32, 64, 256, 2048))),
        t_end=draw(st.floats(0.0, 10.0)),
        dt=draw(st.floats(1e-5, 0.5)),
        output_every=draw(st.floats(1e-3, 5.0)),
        mode=draw(st.sampled_from(PDE_MODES)),
        m0=f"bump({center!r}, {width!r}, {amp!r})",
        epsilon_support=draw(st.floats(1e-12, 1e-3)),
        tail_tolerance=draw(st.floats(1e-12, 1e-3)),
        blowup_threshold=draw(st.floats(1.0, 1e9)),
    )


@settings(max_examples=50, deadline=None)
@given(cfg=pde_configs())
def test_serialize_parse_round_trip(cfg):
    assert parse_config(serialize_config(cfg)) == cfg


def test_peakon_round_trip():
    cfg = parse_config("kind=peakon q=0 m_amps=10 r=5 n_amps=1\nt_end = 6.5\n")
    assert parse_config(serialize_config(cfg)) == cfg


# ----------------------------------------------------------------- CLI

@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_check_verb(tmp_path, capsys):
    path = write_cfg(tmp_path, PDE_TEXT)
    assert main(["check", path]) == 0
    assert "config OK" in capsys.readouterr().out


def test_run_schema_override_and_reproducibility(tmp_path, capsys):
    path = write_cfg(tmp_path, PDE_TEXT + "t_end = 0.05\noutput_every = 0.05\nout = a.csv\n")
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "snapshots: 2" in out
    assert "E_+ strictly increasing: PASS" in out
    assert "E_- strictly decreasing: PASS" in out
    header, rows = read_rows(tmp_path / "a.csv")
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 2
    assert float(rows[0][0]) == 0.0
    assert float(rows[1][0]) == 0.05
    assert main(["run", path, "--out", "b.csv"]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_zero_horizon_emits_single_snapshot(tmp_path):
    path = write_cfg(tmp_path, PDE_TEXT + "t_end = 0\nout = zero.csv\n")
    assert main(["run", path]) == 0
    _, rows = read_rows(tmp_path / "zero.csv")
    assert len(rows) == 1 and float(rows[0][0]) == 0.0


def test_a_run_records_its_last_row_and_fields_at_t_end(tmp_path):
    # 3 * 0.1 is 0.30000000000000004; the last output time is t_end itself.
    path = write_cfg(tmp_path, PDE_TEXT + "t_end = 0.3\noutput_every = 0.1\n"
                                          "snapshot_times = 0.3\nout = end.csv\n")
    assert main(["run", path]) == 0
    _, rows = read_rows(tmp_path / "end.csv")
    assert [row[0] for row in rows] == ["0.0", "0.1", "0.2", "0.3"]
    _, fields = read_rows(tmp_path / "end_fields.csv")
    assert len(fields) == 2048 and {row[0] for row in fields} == {"0.3"}


def test_complex_kind_refuses_m0_n0_and_v0_in_sweep(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, "kind = complex\nu0 = bump(0, 8, 1)\nt_end = 0.01\n"
                               "out = c.csv\n")
    for key in ("m0", "n0", "v0"):
        assert main(["sweep", path, "--vary", f"{key}=0:1:2"]) == 1
        assert capsys.readouterr().err == f"error: key '{key}' does not apply to kind=complex\n"
    assert not list(tmp_path.glob("*.csv"))


def test_characteristics_kind_tracks_pullback_and_dumps_fields(tmp_path):
    path = write_cfg(tmp_path, (
        "kind = characteristics\n"
        "m0 = bump(-2, 3, 1)\n"
        "n0 = bump(2, 3, 1)\n"
        "t_end = 0.02\noutput_every = 0.01\n"
        "snapshot_times = 0.02\n"
        "out = chars.csv\n"
    ))
    assert main(["run", path]) == 0
    header, rows = read_rows(tmp_path / "chars.csv")
    assert header == list(CSV_COLUMNS) + ["pullback_residual"]
    assert len(rows) == 3
    assert all(float(r[-1]) >= 0.0 for r in rows)
    fields_header, fields_rows = read_rows(tmp_path / "chars_fields.csv")
    assert fields_header == ["t", "x", "u", "v", "m", "n"]
    assert len(fields_rows) == 2048  # one dumped time, one row per node


def test_complex_kind_runs_clean(tmp_path):
    path = write_cfg(tmp_path, (
        "kind = complex\n"
        "u0 = bump(-2, 8, 1)\n"
        "u0_im = bump(2, 8, 0.5)\n"
        "t_end = 0.02\noutput_every = 0.02\n"
        "out = cplx.csv\n"
    ))
    assert main(["run", path]) == 0
    _, rows = read_rows(tmp_path / "cplx.csv")
    assert len(rows) == 2


def test_complex_kind_dumps_real_and_imaginary_fields(tmp_path):
    text = ("kind = complex\nu0 = bump(-2, 8, 1)\nu0_im = bump(2, 8, 0.5)\n"
            "t_end = 0.02\noutput_every = 0.01\nsnapshot_times = 0.02\nout = cplx.csv\n")
    assert main(["run", write_cfg(tmp_path, text)]) == 0
    header, rows = read_rows(tmp_path / "cplx_fields.csv")
    assert header == ["t", "x", "u_re", "u_im", "v_re", "v_im", "m_re", "m_im",
                      "n_re", "n_im"]
    cfg = parse_config(text)
    g = build_grid(cfg)
    state = solver.evolve(solver.PdeState(0.0, *build_initial_condition(cfg, g), cfg.mode),
                          cfg.t_end, cfg.dt, output_times(cfg)).states[-1]
    u, v = solver.recover_velocity(state)
    table = np.array(rows, dtype=float)
    assert len(rows) == 2048 and np.all(table[:, 0] == 0.02)
    assert np.array_equal(table[:, 1], g.nodes)
    for k, f in enumerate((u, v, state.m, state.n)):
        assert np.array_equal(table[:, 2 + 2 * k], f.values.real)
        assert np.array_equal(table[:, 3 + 2 * k], f.values.imag)
    assert np.max(np.abs(table[:, 7])) > 0.0  # the imaginary momentum is written
    assert np.array_equal(table[:, 8], table[:, 6]) and np.array_equal(table[:, 9], -table[:, 7])


def test_peakons_verb(tmp_path, capsys):
    assert main(["peakons", "--t-end", "0.5", "--out", "pk.csv"]) == 0
    out = capsys.readouterr().out
    assert "amplitude total" in out
    assert "waltz period: not measured" in out  # horizon shorter than one orbit
    header, rows = read_rows(tmp_path / "pk.csv")
    assert header == ["t", "hamiltonian", "amp_total",
                      "q_0", "m_amp_0", "r_0", "n_amp_0"]
    assert len(rows) == 501
    with pytest.raises(SystemExit):
        main(["peakons", "--dt"])  # argparse rejects a missing value
    assert main(["peakons", "--dt", "0"]) == 1


def test_a_full_orbit_prints_the_measured_waltz_period(tmp_path, capsys):
    argv = ["peakons", "--m1", "10", "--n1", "1", "--q0", "0", "--r0", "1", "--t-end", "13",
            "--out", "waltz.csv"]
    assert main(argv) == 0
    period, swap_error = (float(v) for v in re.search(
        r"^waltz period: (\S+)   swap error: (\S+)$", capsys.readouterr().out, re.M).groups())
    # Printed to 6 digits: 11.2096 against the closed form 11.20959956...
    assert period == pytest.approx(waltz_period_closed_form(10.0, 1.0, 1.0), abs=5e-5)
    assert swap_error < 1e-10


def test_sweep_fans_out_one_file_per_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, (
        "kind=peakon q=0 m_amps=10 r=5 n_amps=1\n"
        "t_end = 0.2\nout = sweep.csv\n"
    ))
    assert main(["sweep", path, "--vary", "r=4:5:2"]) == 0
    out = capsys.readouterr().out
    assert "--- r = 4" in out and "--- r = 5" in out
    assert (tmp_path / "sweep_r4.csv").exists()
    assert (tmp_path / "sweep_r5.csv").exists()
    assert main(["sweep", path, "--vary", "r=4:5"]) == 1  # malformed range
    assert main(["sweep", path, "--vary", "bogus=0:1:2"]) == 1


def test_pool_sweep_writes_the_serial_sweeps_bytes(tmp_path, monkeypatch, capsys):
    text = "kind=peakon q=0 m_amps=10 r=5 n_amps=1\nt_end = 0.2\nout = sweep.csv\n"
    results = {}
    for threads in ("1", "2"):  # 2 workers for 2 values: the process pool
        run_dir = tmp_path / f"threads{threads}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        monkeypatch.setenv("CCCH_THREADS", threads)
        assert main(["sweep", write_cfg(run_dir, text), "--vary", "r=4:5:2"]) == 0
        results[threads] = (capsys.readouterr().out,
                            [(run_dir / f"sweep_r{r}.csv").read_bytes() for r in (4, 5)])
    assert results["2"] == results["1"]


_FIELD_SWEEP = "kind = pde\nm0 = bump(-2, 3, 1)\nt_end = 0.01\nout = sw.csv\n"
_PEAKON_SWEEP = "kind=peakon q=0 m_amps=10 r=5 n_amps=1\nt_end = 0.2\nout = sw.csv\n"


@pytest.mark.parametrize("argv, key", [
    # The invalid value is the last point, so no point may run before it.
    (["sweep", "field.cfg", "--vary", "label_stride=4:0:2"], "label_stride"),
    (["sweep", "field.cfg", "--vary", "output_every=0.1:0:2"], "output_every"),
    (["sweep", "field.cfg", "--vary", "epsilon_support=1e-7:-1:2"], "epsilon_support"),
    (["sweep", "field.cfg", "--vary", "tail_tolerance=1e-8:-1:2"], "tail_tolerance"),
    (["sweep", "field.cfg", "--vary", "blowup_threshold=1e6:-1:2"], "blowup_threshold"),
    (["sweep", "field.cfg", "--vary", "q=0:1:2"], "q"),
    (["sweep", "peakon.cfg", "--vary", "half_length=30:40:2"], "half_length"),
    (["peakons", "--t-end", "nan"], "t_end"),
    (["peakons", "--q0", "nan"], "q"),
    (["sweep", "field.cfg", "--vary", "out=1:2:2"], "out"),
    # At half_length 5 the bump's support [-5, 1] reaches the window edge.
    (["sweep", "field.cfg", "--vary", "half_length=20:5:4"], "m0"),
])
def test_invalid_points_exit_1_before_any_point_runs(tmp_path, monkeypatch, capsys,
                                                     argv, key):
    monkeypatch.setenv("CCCH_THREADS", "1")
    write_cfg(tmp_path, _FIELD_SWEEP, "field.cfg")
    write_cfg(tmp_path, _PEAKON_SWEEP, "peakon.cfg")
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert f"key '{key}'" in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert not list(tmp_path.glob("*.csv"))


def test_malformed_thread_cap_exits_1_before_any_point_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCCH_THREADS", "two")
    path = write_cfg(tmp_path, _PEAKON_SWEEP)
    assert main(["sweep", path, "--vary", "r=4:5:2"]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), lines
    assert "CCCH_THREADS" in lines[0] and "'two'" in lines[0]
    assert "Traceback" not in captured.out + captured.err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_rejects_points_that_share_an_output_file(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, _PEAKON_SWEEP)
    assert main(["sweep", path, "--vary", "r=1:1.000001:3"]) == 1
    err = capsys.readouterr().err
    assert "values 1.0 and 1.0000005 both write 'sw_r1.csv'" in err
    assert not list(tmp_path.glob("*.csv"))


def test_sweep_of_one_point_and_of_none(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, _PEAKON_SWEEP)
    assert main(["sweep", path, "--vary", "r=4:5:1"]) == 0  # one point: the start
    assert "--- r = 4  (status 0, out sw_r4.csv)" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == ["sw_r4.csv"]
    assert main(["sweep", path, "--vary", "r=4:5:0"]) == 1
    assert capsys.readouterr().err == "error: --vary count must be >= 1, got 0\n"


def test_sweep_takes_integer_keys_as_integers(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, (
        "kind = characteristics\nn_points = 256\nm0 = bump(-2, 3, 1)\n"
        "t_end = 0.01\nout = c.csv\n"))
    assert main(["sweep", path, "--vary", "label_stride=1:2:3"]) == 1
    assert "key 'label_stride' expects an integer, got 1.5" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert main(["sweep", path, "--vary", "label_stride=2:4:2"]) == 0
    assert "--- label_stride = 2" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
        "c_label_stride2.csv", "c_label_stride4.csv"]


def test_blowup_exits_2_with_partial_output(tmp_path, capsys):
    # Opposite-sign peakons separate while |m| grows past 1.2 * 2 at t = 1.088.
    path = write_cfg(tmp_path, (
        "kind=peakon q=0 m_amps=2 r=1 n_amps=-1\n"
        "t_end = 5\nblowup_threshold = 1.2\nout = boom.csv\n"
    ))
    assert main(["run", path]) == 2
    out = capsys.readouterr().out
    assert "BLOW-UP" in out
    _, rows = read_rows(tmp_path / "boom.csv")
    assert len(rows) == 1088  # the pre-blow-up trajectory is still written
    # Both numbers are printed in full, so the peak reads above the limit.
    peak, threshold = (float(v) for v in re.search(
        r"BLOW-UP: peakon amplitude (\S+) exceeded the blow-up threshold (\S+) at t = 1.088\n",
        out).groups())
    assert threshold == 2.4 and peak > threshold


_FIELD_BLOWUP = ("kind = pde\nn_points = 1024\nm0 = bump(-1, 3, 5)\nn0 = bump(1, 3, 5)\n"
                 "blowup_threshold = 1.2\nt_end = 1\noutput_every = 0.05\n")


def test_field_blowup_exits_2_with_partial_output(tmp_path, capsys):
    # The colliding bumps steepen until |m| passes 1.2 max|m0| at t = 0.169.
    assert main(["run", write_cfg(tmp_path, _FIELD_BLOWUP + "out = boom.csv\n")]) == 2
    out = capsys.readouterr().out
    peak, threshold = (float(v) for v in re.search(
        r"^BLOW-UP: momentum magnitude (\S+) exceeded the blow-up threshold (\S+) "
        r"at t = 0.169$", out, re.M).groups())
    g = make_grid(30.0, 1024)
    assert threshold == 1.2 * float(np.max(bump_values(g.nodes, -1.0, 3.0, 5.0)))
    assert peak > threshold
    assert "snapshots: 4   (CSV: boom.csv)" in out
    _, rows = read_rows(tmp_path / "boom.csv")
    assert [float(row[0]) for row in rows] == output_times(parse_config(_FIELD_BLOWUP))[:4]


def test_a_blowup_threshold_below_1_is_refused(tmp_path, capsys):
    # The key is a factor on max(1, initial amplitude): 0.2 would put the
    # limit under the bump's own peak exp(-1) and stop the run at once.
    path = write_cfg(tmp_path, "kind = pde\nm0 = bump(-2, 3, 1)\nn0 = bump(2, 3, 1)\n"
                               "blowup_threshold = 0.2\nout = b.csv\n")
    for verb in ("check", "run"):
        assert main([verb, path]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "key 'blowup_threshold' must be >= 1" in lines[0], lines
    assert not (tmp_path / "b.csv").exists()


def test_non_finite_peakon_state_exits_2_with_partial_output(tmp_path, capsys, monkeypatch):
    # No configuration is known to overflow, so poison the rates from the
    # first stage of step 11 on.  A pair marches on floats, through
    # _pair_rates.
    real_rates, calls = cchlab.peakons._pair_rates, []

    def poisoned(*args):
        calls.append(None)
        rates = real_rates(*args)
        return [v * np.nan for v in rates] if len(calls) > 40 else rates

    monkeypatch.setattr(cchlab.peakons, "_pair_rates", poisoned)
    path = write_cfg(tmp_path, (
        "kind=peakon q=0 m_amps=10 r=5 n_amps=1\n"
        "t_end = 1\nout = nan.csv\n"
    ))
    assert main(["run", path]) == 2
    assert "BLOW-UP: non-finite peakon state at t = 0.011" in capsys.readouterr().out
    _, rows = read_rows(tmp_path / "nan.csv")
    assert len(rows) == 11  # t = 0 and the ten finite steps
    assert float(rows[-1][0]) == pytest.approx(0.01, abs=1e-15)


def _reference_peakon_csv(path, text):
    """The peakon run's CSV, written one state and one repr(float(x)) at a time."""
    cfg = parse_config(text)
    ps = PeakonState(0.0, *(parse_float_list(v) for v in (cfg.q, cfg.m_amps, cfg.r, cfg.n_amps)))
    try:
        traj = evolve_peakons(ps, cfg.t_end, cfg.dt, blowup_factor=cfg.blowup_threshold)
    except BlowUpError as err:
        traj = err.trajectory
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t", "hamiltonian", "amp_total"]
                        + [f"q_{a}" for a in range(ps.q.size)]
                        + [f"m_amp_{a}" for a in range(ps.q.size)]
                        + [f"r_{b}" for b in range(ps.r.size)]
                        + [f"n_amp_{b}" for b in range(ps.r.size)])
        for s in traj:
            values = [s.t, peakon_hamiltonian(s), np.sum(s.m_amp) + np.sum(s.n_amp),
                      *s.q, *s.m_amp, *s.r, *s.n_amp]
            writer.writerow([repr(float(x)) for x in values])


@pytest.mark.parametrize("text, status", [
    ("kind=peakon q=-1,0,1 m_amps=1,2,1 r=-0.5,0.5 n_amps=1,1.5\nt_end = 5\ndt = 1e-3\n", 0),
    ("kind=peakon q=0 m_amps=2 r=1 n_amps=-1\nt_end = 5\ndt = 1e-3\n"
     "blowup_threshold = 1.2\n", 2),
])
def test_peakon_csv_is_the_per_state_csv_byte_for_byte(tmp_path, text, status):
    path = write_cfg(tmp_path, text + "out = run.csv\n")
    assert main(["run", path]) == status
    _reference_peakon_csv(tmp_path / "reference.csv", text)
    assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


def test_instability_exits_4_with_partial_output(tmp_path, capsys):
    path = write_cfg(tmp_path, (
        "kind = pde\nn_points = 512\ndt = 0.05\n"
        "m0 = bump(-2, 3, 50)\nn0 = bump(2, 3, 50)\nout = unstable.csv\n"
    ))
    assert main(["run", path]) == 4
    out = capsys.readouterr().out
    assert "UNSTABLE: time step 0.05 exceeds the advective stability bound" in out
    assert "CONFIG ERROR" not in out
    header, rows = read_rows(tmp_path / "unstable.csv")
    assert header == list(CSV_COLUMNS)
    assert len(rows) == 1 and float(rows[0][0]) == 0.0  # the t = 0 record


def test_characteristic_ordering_collapse_exits_3_with_partial_output(tmp_path, capsys):
    # Two opposite strong bumps steepen until adjacent phi characteristics
    # meet at t = 8.12: the run ends with status 3 and the records of
    # t = 0 ... 8 on disk, not with a traceback.
    wave = "bump(-3, 3, 10) - bump(3, 3, 10)"
    path = write_cfg(tmp_path, (
        "kind = characteristics\nhalf_length = 30\nn_points = 512\n"
        "t_end = 10\ndt = 0.02\noutput_every = 1\nblowup_threshold = 1e12\n"
        f"tail_tolerance = 1\nm0 = {wave}\nn0 = {wave}\nout = collapse.csv\n"
    ))
    assert main(["run", path]) == 3
    out = capsys.readouterr().out
    assert ("MEASUREMENT INVALID: characteristic ordering of the phi flow "
            "collapsed at t = 8.12") in out
    header, rows = read_rows(tmp_path / "collapse.csv")
    assert header == list(CSV_COLUMNS) + ["pullback_residual"]
    assert [float(row[0]) for row in rows] == [float(t) for t in range(9)]


def test_momentum_zero_by_symmetry_reports_no_p_drift(tmp_path, capsys):
    # P(0) is round-off here (every P in the CSV is below 1e-14), so its
    # drift is measured against the total |momentum|, not against P(0).
    wave = "bump(-3, 3, 10) - bump(3, 3, 10)"
    path = write_cfg(tmp_path, (
        "kind = pde\nn_points = 256\nt_end = 1\ndt = 0.01\noutput_every = 0.5\n"
        f"tail_tolerance = 1\nm0 = {wave}\nn0 = {wave}\nout = odd.csv\n"
    ))
    assert main(["run", path]) == 0
    line = next(x for x in capsys.readouterr().out.splitlines() if "P drift" in x)
    assert float(line.split("P drift:")[1]) < 1e-12
    header, rows = read_rows(tmp_path / "odd.csv")
    assert max(abs(float(row[header.index("P")])) for row in rows) < 1e-14


def test_zero_momenta_run_reports_its_drifts(tmp_path, capsys):
    # H(0) = P(0) = 0 and the total |momentum| is 0 too: the drifts are
    # measured against a positive floor, not divided by zero.
    path = write_cfg(tmp_path, (
        "kind = pde\nm0 = gaussian(0, 1, 0)\nn_points = 64\nt_end = 0.01\nout = zero.csv\n"
    ))
    assert main(["run", path]) == 0
    out = capsys.readouterr().out
    assert "H drift: 0.000e+00   P drift: 0.000e+00" in out
    # No support was measured, so neither E_± nor a tail is a measurement.
    assert ("E_± monotonicity: not measured (no momentum above the support threshold)"
            in out)
    assert "tail slopes at t=0.01: left not measured, right not measured" in out
    assert "FAIL" not in out and "nan" not in out
    header, rows = read_rows(tmp_path / "zero.csv")
    assert len(rows) == 2


@pytest.mark.parametrize("text", [
    "kind = characteristics\nm0 = bump(-2, 3, 1)\nn0 = bump(2, 3, 1)\n"
    "t_end = 0.02\noutput_every = 0.01\nout = rec.csv\n",
    "kind = pde\nm0 = gaussian(0, 1, 0)\nn_points = 64\nt_end = 0.01\nout = rec.csv\n",
], ids=["tracked", "zero_momenta"])
def test_record_csv_is_the_records_byte_for_byte(tmp_path, text):
    cfg = parse_config(text)
    records = execute(cfg).records
    tracked = cfg.kind == "characteristics"
    with open(tmp_path / "reference.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(list(CSV_COLUMNS) + (["pullback_residual"] if tracked else []))
        for rec in records:
            supp_m = rec.supp_m or (None, None)
            supp_n = rec.supp_n or (None, None)
            supp_u = rec.supp_u or (None, None)
            values = [rec.t, rec.H, rec.P, rec.Eu_plus, rec.Eu_minus, rec.Ev_plus,
                      rec.Ev_minus, rec.E_plus, rec.E_minus, *supp_m, *supp_n, *supp_u,
                      rec.tail_slope_left, rec.tail_slope_right, rec.max_abs,
                      rec.boundary_contamination]
            if tracked:
                values.append(rec.pullback_residual)
            writer.writerow(["" if x is None else repr(float(x)) for x in values])
    written = (tmp_path / "rec.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    if not tracked:  # three unmeasured supports are six empty cells, unfitted slopes nan
        assert b"0.0,,,,,,,nan,nan," in written


def test_the_csv_writer_writes_what_csv_writer_writes(tmp_path):
    # Every awkward float repr and an empty cell, over more rows than one
    # block of the writer, so a block boundary falls inside the table.
    cells = [None, float("nan"), float("inf"), -float("inf"), -0.0, 5e-324, 1e16, 1e-5,
             0.1 + 0.2, 1.0]
    rows = [cells[k % 10:] + cells[:k % 10] for k in range(2 * _CSV_BLOCK_ROWS + 3)]
    header = [f"c_{k}" for k in range(len(cells))]
    _write_csv(str(tmp_path / "ours.csv"), header, iter(rows))
    with open(tmp_path / "reference.csv", "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
    written = (tmp_path / "ours.csv").read_bytes()
    assert written == (tmp_path / "reference.csv").read_bytes()
    assert written.startswith(b"c_0,c_1,")
    assert b",,nan,inf,-inf,-0.0,5e-324,1e+16,1e-05," in written


def test_uncontained_tails_exit_3(tmp_path, capsys):
    path = write_cfg(tmp_path, (
        "kind = pde\nm0 = gaussian(0, 10, 1)\nt_end = 0\nout = g.csv\n"
    ))
    assert main(["run", path]) == 3
    assert "MEASUREMENT INVALID" in capsys.readouterr().out


def test_config_errors_exit_1(tmp_path, capsys):
    bad = write_cfg(tmp_path, "kind = pde\nm0 = bump(0, 3, 1)\nwavelength = 3\n")
    assert main(["run", bad]) == 1
    assert "unknown key" in capsys.readouterr().err
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1
    assert main(["check", str(tmp_path / "missing.cfg")]) == 1
    off_grid = write_cfg(tmp_path, PDE_TEXT + "snapshot_times = 0.5, 0.05\n")
    assert main(["check", off_grid]) == 1
    assert "entry 0.05 is not an output time" in capsys.readouterr().err


def test_a_config_that_is_not_utf8_exits_1_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"kind = pde\nm0 = bump(0, 3, 1)  # caf\xe9\n")
    for verb in ("run", "check"):
        assert main([verb, str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "latin1.cfg" in lines[0] and "not UTF-8" in lines[0]


def _refuse_to_march(monkeypatch):
    def march(*args, **kwargs):
        raise AssertionError("the march started")

    monkeypatch.setattr(cchlab.peakons, "evolve_peakon_path", march)
    monkeypatch.setattr(cchlab.solver, "evolve", march)


_UNWRITABLE = pytest.mark.parametrize("text, unwritable, reason", [
    ("kind=peakon q=0 m_amps=10 r=1 n_amps=1\nout = no_dir/x.csv\n",
     "no_dir/x.csv", "No such file or directory"),
    ("kind=peakon q=0 m_amps=10 r=1 n_amps=1\nout = a_dir\n", "a_dir", "Is a directory"),
    (PDE_TEXT + "snapshot_times = 0.5\nout = f.csv\n", "f_fields.csv", "Is a directory"),
], ids=["missing-directory", "directory", "fields-file"])


@_UNWRITABLE
def test_an_unwritable_output_exits_1_before_the_march(tmp_path, capsys, monkeypatch,
                                                      text, unwritable, reason):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "f_fields.csv").mkdir()
    path = write_cfg(tmp_path, text)
    _refuse_to_march(monkeypatch)
    assert main(["run", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"CONFIG ERROR: cannot write output {unwritable!r}: {reason}"]
    assert not (tmp_path / "f.csv").exists()  # the probe left no file behind


@_UNWRITABLE
def test_check_refuses_an_unwritable_output(tmp_path, capsys, text, unwritable, reason):
    (tmp_path / "a_dir").mkdir()
    (tmp_path / "f_fields.csv").mkdir()
    assert main(["check", write_cfg(tmp_path, text)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: cannot write output {unwritable!r}: {reason}"]
    assert not (tmp_path / "f.csv").exists()


def test_a_sweep_point_with_an_unwritable_output_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CCCH_THREADS", "1")
    path = write_cfg(tmp_path, "kind=peakon q=0 m_amps=10 r=5 n_amps=1\nout = no_dir/s.csv\n")
    _refuse_to_march(monkeypatch)
    assert main(["sweep", path, "--vary", "r=4:5:2"]) == 1
    out = capsys.readouterr().out
    for value in (4, 5):
        assert (f"CONFIG ERROR: cannot write output 'no_dir/s_r{value}.csv': "
                "No such file or directory") in out


def test_a_path_too_long_for_memory_exits_1_without_allocating_it(tmp_path, capsys):
    # 1e13 samples of five floats are 364 TiB: the allocation fails at once,
    # before any memory is committed, and the run reports it in one line.
    path = write_cfg(tmp_path, (
        "kind=peakon q=0 m_amps=10 r=1 n_amps=1\n"
        "t_end = 1e7\ndt = 1e-6\nout = long.csv\n"
    ))
    assert main(["check", path]) == 0
    capsys.readouterr()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert main(["run", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("CONFIG ERROR:"), lines
    assert "1e+13 samples" in lines[0]
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 100_000
    assert not (tmp_path / "long.csv").exists()


def test_a_time_list_too_long_for_memory_exits_1_without_allocating_it(tmp_path, capsys):
    # 1e14 output times are 728 TiB: the allocation fails at once, before
    # any memory is committed, and the run reports it in one line.
    path = write_cfg(tmp_path, "kind = pde\nm0 = bump(-2, 3, 1)\nt_end = 1e13\nout = long.csv\n")
    assert main(["check", path]) == 0
    capsys.readouterr()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert main(["run", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and lines[0].startswith("CONFIG ERROR:"), lines
    assert "1e+14 output times" in lines[0]
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 100_000
    assert not (tmp_path / "long.csv").exists()


def test_a_grid_too_large_for_memory_exits_1_without_allocating_it(tmp_path, monkeypatch):
    # 2**50 nodes are 8 PiB a table: the allocation fails at once, before any
    # memory is committed, and the run reports it in one line.
    monkeypatch.chdir(tmp_path)
    cfg = parse_config("kind = pde\nn_points = 1125899906842624\nm0 = bump(-2, 3, 1)\n"
                       "t_end = 0.1\nout = big.csv\n")
    assert cfg.n_points == 2**50
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = execute(cfg)
    assert result.status == 1
    assert len(result.summary) == 1, result.summary
    assert result.summary[0].startswith("CONFIG ERROR: n_points = 1125899906842624")
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - peak_kb < 100_000
    assert not (tmp_path / "big.csv").exists()


def test_console_script_is_installed(tmp_path):
    """The declared ``cchlab`` script resolves to the CLI's ``main``, and that
    CLI, run as its own process, validates a config.  Runs from the source
    tree: ``python -m cchlab.cli`` is what the installed script executes."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["cchlab"]
    module_name, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module_name), attr) is main

    src_dir = str(Path(cchlab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src_dir, inherited] if inherited else [src_dir]))
    path = write_cfg(tmp_path, PDE_TEXT)
    proc = subprocess.run([sys.executable, "-m", "cchlab.cli", "check", path],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "config OK" in proc.stdout, proc.stderr


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    # Only a sweep on more than one worker needs the process pool.
    src_dir = str(Path(cchlab.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src_dir, inherited] if inherited else [src_dir]))
    code = "import sys, cchlab.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.skipif(shutil.which("cchlab") is None,
                    reason="no installed 'cchlab' executable on PATH")
def test_installed_console_script_runs(tmp_path):
    exe = shutil.which("cchlab")
    path = write_cfg(tmp_path, PDE_TEXT)
    proc = subprocess.run([exe, "check", path], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "config OK" in proc.stdout, proc.stderr
