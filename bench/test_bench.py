"""Self-tests of the benchmark: span arithmetic and output checks.

    python3 -m pytest bench/test_bench.py

The check tests run three real workloads once each (about 15 s), then
perturb what they wrote and expect the gates to reject it.  They are not
part of the repository's test suite, which collects only tests/.
"""

from __future__ import annotations

import csv
import os
import shutil

import pytest

import checks
import spans
from run_bench import Run
from workloads import WORKLOADS


# ------------------------------------------------------------ span arithmetic

def test_covered_merges_overlaps_and_clips_to_the_parent():
    intervals = [(2.0, 5.0), (1.0, 3.0), (8.0, 12.0)]
    assert spans.covered(intervals, 0.0, 10.0) == pytest.approx(4.0 + 2.0)
    assert spans.covered([], 0.0, 10.0) == 0.0
    assert spans.covered([(1.0, 2.0), (1.0, 2.0)], 0.0, 10.0) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children_only():
    trace = [
        spans.Span("runner.execute", 0.0, 10.0, -1),
        spans.Span("solver.evolve", 1.0, 9.0, 0),
        spans.Span("diagnostics.compute_record", 2.0, 3.0, 1),
        spans.Span("characteristics.pullback_residual", 2.2, 2.4, 2),
        spans.Span("diagnostics.compute_record", 5.0, 6.0, 1),
    ]
    own = spans.self_times(trace)
    assert own[0] == pytest.approx(2.0)
    assert own[1] == pytest.approx(6.0)
    assert own[2] == pytest.approx(0.8)
    assert own[3] == pytest.approx(0.2)
    summary = spans.summarize(trace)
    assert summary["diagnostics.compute_record"]["count"] == 2
    assert summary["diagnostics.compute_record"]["self_s"] == pytest.approx(1.8)
    assert summary["diagnostics.compute_record"]["total_s"] == pytest.approx(2.0)
    # Self times partition the top-level span.
    assert sum(own.values()) == pytest.approx(10.0)


def test_tracer_records_nesting_in_call_order():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    recorded = tracer.spans()
    assert [(s.name, s.parent) for s in recorded] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s.end >= s.start for s in recorded)
    assert recorded[0].start <= recorded[1].start and recorded[2].end <= recorded[0].end


def test_tracer_closes_a_span_when_the_call_raises():
    tracer = spans.Tracer()

    def fail():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap("failing", fail)()
    (span,) = tracer.spans()
    assert span.end >= span.start > 0.0


# -------------------------------------------------------------- output checks

def _run_once(name: str, tmp_path_factory):
    """Run a canonical workload once and copy its outputs somewhere private."""
    run = Run(WORKLOADS[name], 0)
    _, ok = run.execute(1)
    assert ok and run.failed == 0
    target = tmp_path_factory.mktemp(name)
    for fname in os.listdir(run.dir):
        if fname.startswith("out") and fname.endswith(".csv"):
            shutil.copy(os.path.join(run.dir, fname), target / fname)
    return str(target / "out.csv"), run.inputs.config


@pytest.fixture(scope="module")
def bump_pair(tmp_path_factory):
    return _run_once("bump_pair_tracked", tmp_path_factory)


@pytest.fixture(scope="module")
def complex_run(tmp_path_factory):
    return _run_once("complex_reduction", tmp_path_factory)


@pytest.fixture(scope="module")
def waltz(tmp_path_factory):
    return _run_once("peakon_waltz", tmp_path_factory)


def _perturbed(path: str, dest: str, column: str, row: int, factor: float) -> str:
    """Copy of a CSV with one cell multiplied by ``factor``."""
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    col = rows[0].index(column)
    rows[row + 1][col] = repr(float(rows[row + 1][col]) * factor)
    with open(dest, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)
    return dest


def _copy_run(out: str, tmp_path, column: str, row: int, factor: float) -> str:
    """Copy a run's CSVs into tmp_path, perturbing one cell of the main CSV."""
    src_dir = os.path.dirname(out)
    for fname in os.listdir(src_dir):
        shutil.copy(os.path.join(src_dir, fname), tmp_path / fname)
    dest = str(tmp_path / "out.csv")
    return _perturbed(out, dest, column, row, factor)


def test_canonical_outputs_pass(bump_pair, complex_run, waltz):
    for name, (out, config) in (("bump_pair_tracked", bump_pair),
                                ("complex_reduction", complex_run),
                                ("peakon_waltz", waltz)):
        verdict = checks.check(name, out, config, canonical=True)
        assert verdict.ok, verdict.failures


@pytest.mark.parametrize("column,row,factor,message", [
    ("H", 0, 1 + 1e-6, "H0 ="),
    ("P", 0, 1 + 1e-8, "P0 ="),
    ("Eu_plus", 10, 1 + 1e-8, "Eu_plus1 ="),
    ("E_plus", 5, 2.0, "E_+ not strictly increasing"),
    ("E_minus", 5, 0.5, "E_- not strictly decreasing"),
    ("pullback_residual", 7, 1e3, "pullback residual"),
    ("H", 5, 1 + 1e-5, "H drift"),
])
def test_bump_pair_perturbation_is_rejected(bump_pair, tmp_path, column, row, factor, message):
    out, config = bump_pair
    bad = _copy_run(out, tmp_path, column, row, factor)
    verdict = checks.check("bump_pair_tracked", bad, config, canonical=True)
    assert any(message in f for f in verdict.failures), verdict.failures


def test_pins_do_not_apply_to_jittered_inputs(bump_pair, tmp_path):
    out, config = bump_pair
    bad = _copy_run(out, tmp_path, "Eu_plus", 10, 1 + 1e-6)
    assert checks.check("bump_pair_tracked", bad, config, canonical=False).ok
    assert not checks.check("bump_pair_tracked", bad, config, canonical=True).ok


def test_field_dump_must_match_recorded_energy(bump_pair, tmp_path):
    out, config = bump_pair
    _copy_run(out, tmp_path, "H", 0, 1.0)
    dump = str(tmp_path / "out_fields.csv")
    _perturbed(dump, dump, "u", 1024, 1.01)  # x = 0, where u and v overlap
    verdict = checks.check("bump_pair_tracked", str(tmp_path / "out.csv"), config, True)
    assert any("field dump at t = 0.5" in f for f in verdict.failures), verdict.failures


def test_missing_output_is_a_failure(bump_pair, tmp_path):
    _, config = bump_pair
    verdict = checks.check("bump_pair_tracked", str(tmp_path / "absent.csv"), config, True)
    assert not verdict.ok and "output unreadable" in verdict.failures[0]


@pytest.mark.parametrize("column,row,factor,message", [
    ("H", 0, 1 + 1e-6, "H0 ="),
    ("E_plus", 1, 1 + 1e-8, "E_plus(0.05) ="),
    ("H", 20, 1 + 1e-5, "H drift"),
])
def test_complex_perturbation_is_rejected(complex_run, tmp_path, column, row, factor, message):
    out, config = complex_run
    bad = _copy_run(out, tmp_path, column, row, factor)
    verdict = checks.check("complex_reduction", bad, config, canonical=True)
    assert any(message in f for f in verdict.failures), verdict.failures


def test_complex_late_moments_are_noted_not_gated(complex_run, tmp_path):
    out, config = complex_run
    bad = _copy_run(out, tmp_path, "E_plus", 15, 10.0)
    verdict = checks.check("complex_reduction", bad, config, canonical=True)
    assert verdict.ok
    assert any("suspected diagnostics defect" in n for n in verdict.notes)


@pytest.mark.parametrize("column,row,factor,message", [
    ("amp_total", 4000, 1 + 1e-10, "amplitude drift"),
    ("hamiltonian", 4000, 1 + 1e-7, "hamiltonian drift"),
    ("m_amp_0", 5605, 1 + 1e-3, "swap error"),
    ("t", 13000, 0.5, "rows to t ="),
])
def test_waltz_perturbation_is_rejected(waltz, tmp_path, column, row, factor, message):
    out, config = waltz
    bad = _copy_run(out, tmp_path, column, row, factor)
    verdict = checks.check("peakon_waltz", bad, config, canonical=True)
    assert any(message in f for f in verdict.failures), verdict.failures


def test_swap_error_is_only_noted_on_jittered_inputs(waltz, tmp_path):
    out, config = waltz
    bad = _copy_run(out, tmp_path, "m_amp_0", 5605, 1 + 1e-3)
    verdict = checks.check("peakon_waltz", bad, config, canonical=False)
    assert verdict.ok
    assert any("suspected measure_waltz defect" in n for n in verdict.notes)
