"""Tests of the benchmark's tracer, gates and predictions table.

Run from the repository root with ``python -m pytest benchmarks/tests``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from cp2ricci import cli, curvature, frames, report, shape  # noqa: E402
from cp2ricci.exact import checks  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

GRID = 2
POINTS = GRID**3


@pytest.fixture(scope="module")
def traced_main():
    """One traced ``check ruled`` CLI run at a small grid."""
    tracer = Tracer()
    originals = {
        "frames": frames.build_frame,
        "shape": shape.shape_operator,
        "ricci": curvature.ricci_matrix,
    }
    with tracer.installed():
        tracer.current_iteration = 0
        wrapped = {
            "frames.build_frame": frames.build_frame,
            "shape.build_frame": shape.build_frame,
            "cli.shape_operator": cli.shape_operator,
            "curvature.shape_operator": curvature.shape_operator,
        }
        t0 = time.perf_counter()
        code = cli.main(["check", "ruled", "--grid", str(GRID)])
        wall = time.perf_counter() - t0
    return tracer, originals, wrapped, code, wall


def test_structural_counts_on_ruled_check(traced_main):
    tracer, _, _, code, _ = traced_main
    assert code == 0
    a = tracer.analysis()
    assert a.calls("shape.shape_operator") == POINTS
    assert a.calls("frames.build_frame") == 7 * POINTS
    assert a.calls("curvature.ricci_matrix") == POINTS + 25  # 25 from the self-check
    assert a.calls("cli.cmd_check_ruled") == 1
    assert a.exits("frames", "RankDeficient") == 0
    assert a.count("ambient.vectors") > 0


def test_chart_calls_count_once_per_pipeline_request():
    # The perturbed chart evaluates its base chart inside both of its
    # callables; those inner calls are the perturbed chart's own work.
    tracer = Tracer()
    with tracer.installed():
        reports, rows = cli.cmd_scan("perturbed-ruled:0.05,0", grid=GRID)
    a = tracer.analysis()
    assert reports[0].status == "pass" and len(rows) == POINTS
    assert a.calls("charts.evaluate") == 7 * POINTS
    assert a.calls("charts.partials") == 8 * POINTS


def test_every_binding_of_a_name_is_wrapped(traced_main):
    _, originals, wrapped, _, _ = traced_main
    assert wrapped["frames.build_frame"] is wrapped["shape.build_frame"]
    assert wrapped["frames.build_frame"] is not originals["frames"]
    assert wrapped["cli.shape_operator"] is wrapped["curvature.shape_operator"]
    assert wrapped["cli.shape_operator"].__wrapped__ is originals["shape"]


def test_self_times_are_nonnegative_and_within_wall_time(traced_main):
    tracer, _, _, _, wall = traced_main
    a = tracer.analysis()
    selfs = [a.layer_self(layer) for layer in a.layers]
    assert all(s >= -1e-12 for s in selfs)
    assert sum(selfs) <= wall + 1e-9
    assert all(x >= -1e-12 for x in a.in_layer)


def test_untraced_run_calls_the_originals(traced_main):
    tracer, originals, _, _, _ = traced_main
    assert frames.build_frame is originals["frames"]
    assert shape.build_frame is originals["frames"]
    assert curvature.ricci_matrix is originals["ricci"]
    assert tracer.patches == []
    spans = len(tracer.start)
    cli.cmd_check_ruled(grid=GRID)
    assert len(tracer.start) == spans


def test_check_registry_is_wrapped_and_restored():
    original = checks.ALL_CHECKS["kappa"]
    tracer = Tracer()
    with tracer.installed():
        assert checks.ALL_CHECKS["kappa"] is not original
        reports = cli.cmd_symbolic(["kappa"])
    assert checks.ALL_CHECKS["kappa"] is original
    assert reports[0].status == "pass"
    assert tracer.analysis().calls("exact.checks.check_kappa") == 1


def test_gates_reject_nan_and_inexact_results():
    nan_report = report.CheckReport("x", "pass", float("nan"))
    assert workloads.gate_report(nan_report, 1e-6)
    assert workloads.gate_report(report.CheckReport("x", "pass", 0.0, {"m": math.inf}), 1e-6)
    assert not workloads.gate_report(report.CheckReport("x", "pass", 1e-9, {"errors": 0}), 1e-6)
    assert workloads.gate_symbolic(report.CheckReport("s", "pass", 0.0))
    assert not workloads.gate_symbolic(report.CheckReport("s", "pass", report.EXACT_ZERO))
    ok = report.ScanRow(0.5, 0.5, 0.5, 1.0, 1.0, 0.1, 0.0, 0.1, 0.0)
    assert workloads.gate_row(ok, -1e-6) is None
    assert workloads.gate_row(report.ScanRow(0.5, 0.5, 0.5, *[math.nan] * 6), -1e-6)
    flagged = report.ScanRow(0.5, 0.5, 0.5, 1.0, 1.0, 0.1, 0.0, 0.1, 0.0, "RankDeficient")
    assert workloads.gate_row(flagged, -1e-6)


def test_predictions_cite_declared_metrics_and_workloads():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    table = json.loads((BENCH / "predictions.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    names = {w["name"] for w in spec["workloads"]}
    assert set(workloads.WORKLOADS) == names == set(run.WORKLOAD_NAMES)
    for row in table:
        assert set(row["per_layer"]) <= per_layer, row
        assert set(row["end_to_end"]) <= end_to_end, row
        assert set(row["workloads"]) <= names, row
    cited = {m for row in table for m in row["per_layer"]}
    assert per_layer - cited <= {"trace.overhead_frac"}
