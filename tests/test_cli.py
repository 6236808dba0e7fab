import csv
import io
import json
import math

import numpy as np
import pytest

from cp2ricci import cli
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
    assert cli.parse_surface("ruled", 0.05, 0).name == "ruled"
    assert cli.parse_surface("sphere:0.5", 0.05, 0).name.startswith("sphere:0.5")
    c = cli.parse_surface("perturbed-ruled:0.1,9", 0.05, 0)
    assert c.name == "perturbed-ruled:0.1,9"
    c2 = cli.parse_surface("perturbed-ruled", 0.07, 3)
    assert c2.name == "perturbed-ruled:0.07,3"
    with pytest.raises(ValueError):
        cli.parse_surface("torus", 0.05, 0)


def test_principal_deviation_sign_reporting():
    eigs = np.array([-1.0, -1.0, 0.0])
    model = np.array([0.0, 1.0, 1.0])
    dev, sign = cli._principal_deviation(eigs, model)
    assert dev < 1e-15 and sign == -1
    dev2, sign2 = cli._principal_deviation(-eigs, model)
    assert dev2 < 1e-15 and sign2 == 1
