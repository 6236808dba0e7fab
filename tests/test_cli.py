import csv
import dataclasses
import io
import json
import math
import warnings

import numpy as np
import pytest

from cp2ricci import cli
from cp2ricci.charts import Box, perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.frames import build_frame
from cp2ricci.report import (
    EXACT_ZERO,
    CheckReport,
    ScanRow,
    report_from_json,
    report_to_json,
    run_report,
    scan_to_csv,
)


def test_check_report_round_trip():
    r = CheckReport("demo", "pass", 1.5e-9, {"grid": 4, "note": "x"})
    assert CheckReport.from_dict(r.to_dict()) == r
    exact = CheckReport("sym", "pass", EXACT_ZERO, {"c": "2"})
    assert CheckReport.from_dict(exact.to_dict()) == exact


def test_run_report_json_round_trip():
    reports = [
        CheckReport("a", "pass", 0.5, {"k": 1}),
        CheckReport("b", "fail", EXACT_ZERO, {}),
    ]
    rep = run_report("check", {"grid": 4, "strict": False}, reports)
    assert report_from_json(report_to_json(rep)) == rep
    assert rep["summary"] == {"total": 2, "passed": 1, "failed": 1, "errors": 0}


def test_csv_header_exact_order():
    rows = [ScanRow(0.1, 0.2, 0.3, 5.0, 0.0, 0.0, 0.0, 0.5, 0.0)]
    text = scan_to_csv(rows)
    header = text.splitlines()[0]
    assert header == "u,v,theta,maxRicci,meanCurvSq,deficit,alpha,hopfDefect,traceA,flags"
    parsed = list(csv.DictReader(io.StringIO(text)))
    assert float(parsed[0]["hopfDefect"]) == 0.5


def test_scan_rows_satisfy_definitional_identity():
    reports, rows = cli.cmd_scan("ruled", grid=3, step=1e-5)
    assert reports[0].status == "pass"
    for row in rows:
        assert row.flags == "ok"
        assert abs(row.deficit - (2.25 * row.mean_curv_sq + 5.0 - row.max_ricci)) < 1e-12


def test_scan_zero_perturbation_coincides_with_ruled():
    _, ruled_rows = cli.cmd_scan("ruled", grid=3)
    _, zero_rows = cli.cmd_scan("perturbed-ruled:0.0,7", grid=3)
    for a, b in zip(ruled_rows, zero_rows):
        assert abs(a.deficit - b.deficit) < 1e-9
        assert abs(a.hopf_defect - b.hopf_defect) < 1e-9


def test_scan_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    code1 = cli.main(["scan", "perturbed-ruled:0.05,3", "--grid", "3", "--out", str(out1)])
    code2 = cli.main(["scan", "perturbed-ruled:0.05,3", "--grid", "3", "--out", str(out2)])
    assert code1 == 0 and code2 == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_scan_json_format(tmp_path):
    out = tmp_path / "rows.json"
    assert cli.main(["scan", "ruled", "--grid", "3", "--format", "json", "--out", str(out)]) == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 27
    assert set(rows[0]) == {
        "u", "v", "theta", "maxRicci", "meanCurvSq", "deficit",
        "alpha", "hopfDefect", "traceA", "flags",
    }


def test_perturbed_scan_bound_and_strictness():
    reports, rows = cli.cmd_scan("perturbed-ruled:0.05,0", grid=4)
    assert reports[0].status == "pass"
    deficits = [r.deficit for r in rows if r.flags == "ok"]
    assert min(deficits) >= -1e-6
    assert max(deficits) > 1e-3


def test_cli_exit_codes(tmp_path):
    assert cli.main(["check", "tube"]) == 0
    assert cli.main(["symbolic", "mu0"]) == 0
    # usage / config errors
    assert cli.main(["check", "ruled", "--grid", "1"]) == 2
    assert cli.main(["scan", "nonsense-surface"]) == 2
    assert cli.main(["check", "sphere", "--radius", "3.0"]) == 2
    assert cli.main(["symbolic", "not-a-check"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "bogus"])
    assert exc.value.code == 2
    # a failing diagnostic: coarse step breaks the crosscheck tolerance
    assert cli.main(["crosscheck", "--grid", "2", "--step", "0.1"]) == 1


def test_non_finite_scan_flags_every_row_and_fails(tmp_path):
    out = tmp_path / "rows.csv"
    assert cli.main(["scan", "perturbed-ruled:nan,0", "--grid", "2", "--out", str(out)]) == 1
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 8
    assert all(r["flags"] == "RankDeficient" for r in rows)


def test_huge_perturbation_scans_without_overflow(tmp_path):
    out = tmp_path / "rows.csv"
    assert cli.main(["scan", "perturbed-ruled:1e120,0", "--grid", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 8
    assert all(r["flags"] == "ok" for r in rows)


def test_explicit_grid_zero_is_a_usage_error():
    assert cli.main(["check", "ruled", "--grid", "0"]) == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "ruled", "--step", "0"])
    assert exc.value.code == 2


def test_explicit_tol_zero_is_honoured(capsys):
    assert cli.main(["check", "sphere", "--grid", "3", "--tol", "0"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["config"]["tol"] == 0.0
    assert "FAIL sphere_deficit" in out


def test_cli_check_commands_pass_small_grids(tmp_path, capsys):
    assert cli.main(["check", "ruled", "--grid", "3"]) == 0
    out = capsys.readouterr().out
    assert "PASS ruled_deficit" in out
    assert cli.main(["check", "sphere", "--grid", "3"]) == 0
    assert cli.main(["check", "sphere", "--grid", "3", "--radius", str(math.pi / 6)]) == 0
    report_path = tmp_path / "run.json"
    assert cli.main(["check", "ruled", "--grid", "3", "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["command"] == "check"
    assert data["summary"]["failed"] == 0


def test_cli_symbolic_subset_and_marker(capsys):
    assert cli.main(["symbolic", "mu0", "mu1"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    names = [r["checkName"] for r in payload["reports"]]
    assert names == ["symbolic_mu0", "symbolic_mu1"]
    for r in payload["reports"]:
        assert r["maxAbsResidual"] == EXACT_ZERO


def test_cli_strict_halves_tolerances(capsys):
    assert cli.main(["check", "ruled", "--grid", "3", "--strict"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    assert payload["config"]["tol"] == 5e-7


def test_parse_surface_variants():
    assert cli.parse_surface("ruled").name == "ruled"
    assert cli.parse_surface("sphere:0.5").name.startswith("sphere:0.5")
    assert cli.parse_surface("perturbed-ruled").name == "perturbed-ruled:0.05,0"
    assert cli.parse_surface("perturbed-ruled:0.1,9").name == "perturbed-ruled:0.1,9"
    assert cli.parse_surface("perturbed-ruled:0.1,9", 0.1, 9).name == "perturbed-ruled:0.1,9"
    assert cli.parse_surface("perturbed-ruled:0.1", seed=9).name == "perturbed-ruled:0.1,9"
    c2 = cli.parse_surface("perturbed-ruled", 0.07, 3)
    assert c2.name == "perturbed-ruled:0.07,3"
    with pytest.raises(ValueError):
        cli.parse_surface("torus")


@pytest.mark.parametrize(
    "surface, epsilon, seed",
    [
        ("ruled", 0.05, None),
        ("sphere:0.5", None, 0),
        ("perturbed-ruled:0.05,3", 0.3, None),
        ("perturbed-ruled:0.05,3", None, 9),
        ("perturbed-ruled:0.05,3,4", None, None),
    ],
)
def test_parse_surface_rejects_unused_or_conflicting_options(surface, epsilon, seed):
    with pytest.raises(ValueError):
        cli.parse_surface(surface, epsilon, seed)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "perturbed-ruled:0.05,3", "--epsilon", "0.3", "--seed", "9", "--grid", "2"],
        ["scan", "perturbed-ruled:0.05,3", "--epsilon", "0.3", "--grid", "2"],
        ["scan", "ruled", "--epsilon", "0.3", "--grid", "2"],
        ["scan", "sphere:0.5", "--seed", "1", "--grid", "2"],
        ["check", "tube", "--grid", "5", "--tol", "1e-30"],
        ["check", "tube", "--step", "1e-4"],
        ["check", "tube", "--radius", "0.5"],
        ["check", "ruled", "--radius", "0.3"],
        ["check", "tube", "--strict"],
        ["symbolic", "--strict"],
    ],
)
def test_explicit_options_the_command_does_not_use_are_usage_errors(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_explicit_perturbation_options_match_the_inline_form(tmp_path):
    outs = [tmp_path / f"{k}.csv" for k in range(3)]
    assert cli.main(["scan", "perturbed-ruled:0.05,3", "--grid", "2", "--out", str(outs[0])]) == 0
    argv = ["scan", "perturbed-ruled", "--epsilon", "0.05", "--seed", "3", "--grid", "2"]
    assert cli.main([*argv, "--out", str(outs[1])]) == 0
    argv = ["scan", "perturbed-ruled:0.05", "--seed", "3", "--grid", "2"]
    assert cli.main([*argv, "--out", str(outs[2])]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()


def test_principal_deviation_sign_reporting():
    eigs = np.array([-1.0, -1.0, 0.0])
    model = np.array([0.0, 1.0, 1.0])
    dev, sign = cli._principal_deviation(eigs, model)
    assert dev < 1e-15 and sign == -1
    dev2, sign2 = cli._principal_deviation(-eigs, model)
    assert dev2 < 1e-15 and sign2 == 1


def _standard_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_scan_without_ok_rows_fails_with_infinite_residual():
    reports, rows = cli.cmd_scan("perturbed-ruled:nan,0", grid=2)
    (r,) = reports
    assert r.status == "fail"
    assert r.max_abs_residual == math.inf
    assert r.details["min_deficit"] is None and r.details["max_deficit"] is None
    doc = _standard_json(report_to_json(run_report("scan", {}, reports)))
    assert doc["reports"][0]["maxAbsResidual"] is None


@pytest.mark.parametrize("epsilon, code", [("1e200", 0), ("1e300", 0), ("nan", 1)])
def test_scan_normalizes_every_finite_displacement(epsilon, code, capsys):
    # |y| above about 1e154 overflows an unscaled sum of squares.
    assert cli.main(["scan", f"perturbed-ruled:{epsilon},0", "--grid", "2"]) == code
    out = capsys.readouterr().out
    flags = [row["flags"] for row in csv.DictReader(io.StringIO(out[out.index("u,v,") :]))]
    assert flags == ["ok" if code == 0 else "RankDeficient"] * 8


def test_ruled_hopf_check_residual_is_the_shortfall_below_tol():
    tol = 1e9
    hopf = {r.name: r for r in cli.cmd_check_ruled(grid=2, tol=tol)}["ruled_hopf_defect_positive"]
    assert hopf.status == "fail"
    assert math.isfinite(hopf.details["grid_min_hopf_defect"])
    assert hopf.max_abs_residual == tol - hopf.details["grid_min_hopf_defect"] > 0.0


def test_ruled_hopf_check_without_any_shape_operator_is_infinite(monkeypatch):
    from cp2ricci.charts import perturbed_ruled_chart

    monkeypatch.setattr(cli, "ruled_chart", lambda: perturbed_ruled_chart(float("nan"), 0))
    reports = cli.cmd_check_ruled(grid=2)
    hopf = {r.name: r for r in reports}["ruled_hopf_defect_positive"]
    assert hopf.status == "fail"
    assert hopf.max_abs_residual == math.inf
    doc = _standard_json(report_to_json(run_report("check", {}, reports)))
    by_name = {r["checkName"]: r for r in doc["reports"]}
    assert by_name["ruled_hopf_defect_positive"]["maxAbsResidual"] is None
    assert by_name["ruled_hopf_defect_positive"]["details"]["grid_min_hopf_defect"] is None


def test_ruled_check_counts_hopf_points_as_errors_without_classification(monkeypatch):
    # Every point of a geodesic sphere is a Hopf point: it keeps its defect,
    # deficit, trace and alpha but has no classification residuals.
    monkeypatch.setattr(cli, "ruled_chart", lambda: sphere_chart(math.pi / 4))
    reports = {r.name: r for r in cli.cmd_check_ruled(grid=2)}
    assert all(r.status == "fail" and r.details["errors"] == 8 for r in reports.values())
    for name in ("ruled_deficit", "ruled_minimality", "ruled_alpha", "ruled_hopf_defect_positive"):
        assert math.isfinite(reports[name].max_abs_residual)
    assert reports["ruled_minimality"].max_abs_residual > 1.0  # |tr A| = 2 at r = pi/4
    for name in ("ruled_equality_basis", "ruled_form"):
        assert reports[name].max_abs_residual == math.inf


def _nan_at_second_call(value):
    """A stand-in returning ``value``, except NaN on its second call, so the
    NaN follows a finite value in every grid maximum."""
    calls = []

    def fake(*args, **kwargs):
        calls.append(None)
        return math.nan if len(calls) == 2 else value

    return fake


def test_nan_crosscheck_point_fails_its_grid(monkeypatch):
    monkeypatch.setattr(cli.cv, "crosscheck_point", _nan_at_second_call(1e-9))
    reports = {r.name: r for r in cli.cmd_crosscheck(grid=2)}
    ruled = reports["crosscheck_ruled"]
    assert ruled.status == "fail" and ruled.details["errors"] == 0
    assert math.isnan(ruled.max_abs_residual)
    assert reports["crosscheck_sphere"].status == "pass"


def test_all_error_ruled_grid_reports_infinite_residuals(monkeypatch):
    monkeypatch.setattr(cli, "ruled_chart", lambda: perturbed_ruled_chart(math.nan, 0))
    reports = cli.cmd_check_ruled(grid=2)
    assert len(reports) == 6
    for r in reports:
        assert r.status == "fail" and r.details["errors"] == 8
        assert r.max_abs_residual == math.inf
    doc = _standard_json(report_to_json(run_report("check", {}, reports)))
    assert all(r["maxAbsResidual"] is None for r in doc["reports"])


def test_summary_counts_each_failed_grid_point_once(monkeypatch):
    # Six ruled reports and three sphere reports each share one grid of 8.
    monkeypatch.setattr(cli, "ruled_chart", lambda: perturbed_ruled_chart(math.nan, 0))
    monkeypatch.setattr(cli, "sphere_chart", lambda r: perturbed_ruled_chart(math.nan, 0))
    for reports in (cli.cmd_check_ruled(grid=2), cli.cmd_check_sphere(grid=2)):
        assert all(r.details["errors"] == 8 for r in reports)
        assert run_report("check", {}, reports)["summary"]["errors"] == 8


def test_non_finite_scan_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports, rows = cli.cmd_scan("perturbed-ruled:nan,0", grid=2)
    assert reports[0].status == "fail" and reports[0].details["errors"] == 8
    assert [r.flags for r in rows] == ["RankDeficient"] * 8


def _near_singular_box(chart):
    """``chart`` sampled on a box whose lower edge in the second singular
    coordinate (u of the ruled chart, s of the sphere) is 5e-4: inside
    ``SINGULAR_MARGIN``, although the metric is invertible there."""
    axis = 0 if chart.name == "ruled" else 1
    lo = list(chart.sample_box.lo)
    lo[axis] = 5e-4
    assert chart.is_singular(*lo)
    return dataclasses.replace(chart, sample_box=Box(tuple(lo), chart.sample_box.hi))


def test_ruled_check_counts_declared_singular_points_as_errors(monkeypatch):
    chart = _near_singular_box(ruled_chart())
    build_frame(chart, chart.sample_box.lo)  # computable, but declared singular
    monkeypatch.setattr(cli, "ruled_chart", lambda: chart)
    reports = cli.cmd_check_ruled(grid=2)
    for r in reports:
        assert r.status == "fail" and r.details["errors"] == 4
    assert run_report("check", {}, reports)["summary"]["errors"] == 4


def test_sphere_check_counts_declared_singular_points_as_errors(monkeypatch):
    chart = _near_singular_box(sphere_chart(math.pi / 4))
    build_frame(chart, chart.sample_box.lo)
    monkeypatch.setattr(cli, "sphere_chart", lambda r: chart)
    for r in cli.cmd_check_sphere(grid=2):
        assert r.status == "fail" and r.details["errors"] == 4


def test_scan_flags_declared_singular_points(monkeypatch):
    chart = _near_singular_box(ruled_chart())
    monkeypatch.setattr(cli, "parse_surface", lambda *args: chart)
    reports, rows = cli.cmd_scan("ruled", grid=2)
    assert reports[0].status == "fail" and reports[0].details["errors"] == 4
    for row in rows:
        singular = row.u == 5e-4
        assert row.flags == ("singular" if singular else "ok")
        assert all(math.isnan(x) for x in row.values()[3:-1]) == singular


@pytest.mark.parametrize("flagged", ["ruled", "sphere"])
def test_crosscheck_counts_declared_singular_grid_points_as_errors(flagged, monkeypatch):
    # Four of the eight grid points of one chart lie in its singular locus.
    chart = _near_singular_box(ruled_chart() if flagged == "ruled" else sphere_chart(math.pi / 4))
    monkeypatch.setattr(cli, f"{flagged}_chart", lambda *args: chart)
    reports = cli.cmd_crosscheck(grid=2)
    errors = {r.name: r.details.get("errors", 0) for r in reports}
    assert errors.pop(f"crosscheck_{flagged}") == 4 and not any(errors.values())
    assert [r.name for r in reports if r.status == "fail"] == [f"crosscheck_{flagged}"]
    assert run_report("crosscheck", {}, reports)["summary"]["errors"] == 4


def test_all_error_sphere_grid_reports_infinite_residuals(monkeypatch):
    monkeypatch.setattr(cli, "sphere_chart", lambda r: perturbed_ruled_chart(math.nan, 0))
    for r in cli.cmd_check_sphere(grid=2):
        assert r.status == "fail" and r.max_abs_residual == math.inf


def test_nan_sphere_deficit_fails_the_check(monkeypatch):
    expected = cli.cv.geodesic_sphere_deficit(math.pi / 4)
    monkeypatch.setattr(cli.cv, "deficit", _nan_at_second_call(expected))
    reports = {r.name: r for r in cli.cmd_check_sphere(grid=2)}
    assert reports["sphere_deficit"].status == "fail"
    assert math.isnan(reports["sphere_deficit"].max_abs_residual)
    assert reports["sphere_hopf"].status == "pass"


def test_singular_stencil_metric_is_a_flagged_point_not_a_usage_error(capsys):
    # The ruled grid point u = 0.3 puts a Christoffel centre on u = 0.
    assert cli.main(["crosscheck", "--grid", "2", "--step", "0.3"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    ruled = payload["reports"][0]
    assert ruled["checkName"] == "crosscheck_ruled" and ruled["details"]["errors"] > 0


def test_stencil_centre_in_the_singular_locus_is_a_flagged_point(capsys):
    # The grid points u = 1.2 (ruled) and s = 1.2 (sphere) put a Christoffel
    # centre at 1.57, inside both charts' singular margin about pi/2.
    assert cli.main(["crosscheck", "--grid", "2", "--step", "0.37"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{") :])
    ruled, sphere, _ = payload["reports"]
    assert ruled["checkName"] == "crosscheck_ruled" and ruled["details"]["errors"] == 4
    assert sphere["checkName"] == "crosscheck_sphere" and sphere["details"]["errors"] == 4
    assert payload["summary"]["errors"] == 8


def test_singular_holomorphic_plane_stencil_fails_its_check(monkeypatch):
    def singular(*args, **kwargs):
        raise cli.cv.SingularMetric("singular metric on the stencil")

    monkeypatch.setattr(cli.cv, "intrinsic_riemann", singular)
    monkeypatch.setattr(cli.cv, "crosscheck_point", lambda *args, **kwargs: 0.0)
    hol = cli.cmd_crosscheck(grid=2)[-1]
    assert hol.name == "crosscheck_sphere_holomorphic_plane" and hol.status == "fail"
    assert math.isnan(hol.max_abs_residual)
    assert hol.details["error"] == "SingularMetric: singular metric on the stencil"
