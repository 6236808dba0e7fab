import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cp2ricci import cli, report
from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.report import (
    EXACT_ZERO,
    CheckReport,
    ScanRow,
    report_to_json,
    run_report,
    scan_to_csv,
)
from helpers import near_singular_box

DATA = Path(__file__).parent / "data"


def test_run_report_json_round_trip():
    demo = CheckReport("demo", "pass", 1.5e-9, {"grid": 4, "note": "x"})
    reports = [demo, CheckReport("sym", "fail", EXACT_ZERO, {})]
    rep = run_report("check", {"grid": 4, "strict": False}, reports)
    assert json.loads(report_to_json(rep)) == rep and rep["reports"] == [r.to_dict() for r in reports]
    assert rep["reports"][0] == {
        "checkName": "demo", "status": "pass", "maxAbsResidual": 1.5e-9, "details": {"grid": 4, "note": "x"}
    }
    assert rep["summary"] == {"total": 2, "passed": 1, "failed": 1, "errors": 0}


def test_non_finite_floats_are_written_as_the_null_copy_bytewise():
    # NaN and +-inf nested at several depths of details, in a run report and a scan.
    nested = {"worst": math.nan, "points": [(1.0, -math.inf), {"at": [math.inf, 0.5]}], "n": 3}
    rep = run_report("check", {"tol": math.inf}, [CheckReport("a", "fail", math.inf, nested)])
    assert report_to_json(rep) == json.dumps(report._finite_or_none(rep), indent=2, allow_nan=False)
    rows = [ScanRow(0.1, 0.2, 0.3, math.nan, math.inf, -math.inf, 0.0, 0.5, 0.0, "nonfinite")]
    expected = json.dumps(report._finite_or_none([r.to_dict() for r in rows]), indent=2, allow_nan=False)
    assert report.scan_to_json(rows) == expected + "\n"
    assert "null" in expected and "NaN" not in expected and "Infinity" not in expected


def test_a_finite_report_is_dumped_without_the_null_copy(monkeypatch):
    rep = run_report("check", {"grid": 4}, [CheckReport("a", "pass", 1e-9, {"worst": [0.5, {"at": 1.0}]})])
    rows = [ScanRow(0.1, 0.2, 0.3, 5.0, 0.0, 0.0, 0.0, 0.5, 0.0)]
    expected = report_to_json(rep), report.scan_to_json(rows)

    def no_copy(v):
        raise AssertionError("a finite report was copied")

    monkeypatch.setattr(report, "_finite_or_none", no_copy)
    assert (report_to_json(rep), report.scan_to_json(rows)) == expected
    assert expected[0] == json.dumps(rep, indent=2)


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


# Surfaces that parse_surface rejects: too few or too many arguments for the
# chart factory, an argument its annotation cannot convert, or one the factory
# rejects.
MALFORMED_SURFACES = ["torus", "ruled:", "ruled:1", "sphere", "sphere:", "sphere:0.5,1", "sphere:abc"]
MALFORMED_SURFACES += ["perturbed-ruled:0.05,3,4", "perturbed-ruled:0.05,3.5"]
MALFORMED_SURFACES += ["perturbed-ruled:,3", "perturbed-ruled:0.05,-1"]

# Every CLI invocation the project states an outcome for, once: its argv, its
# exit status and the golden file under tests/data that its --out must match
# byte for byte, or None.  The status fixes the rest (see run_case).
CLI_CASES = [
    (["check", "ruled", "--grid", "4"], 0, "check_ruled_g4.json"),
    (["check", "ruled", "--grid", "1"], 2, None),
    (["check", "ruled", "--grid", "0"], 2, None),
    (["check", "ruled", "--step", "0"], 2, None),
    (["check", "sphere", "--grid", "3"], 0, None),
    (["check", "sphere", "--grid", "3", "--radius", str(math.pi / 6)], 0, None),
    (["check", "sphere", "--grid", "4"], 0, "check_sphere_g4.json"),
    (["check", "sphere", "--radius", "1.57", "--grid", "3"], 0, "check_sphere_r157_g3.json"),
    (["check", "sphere", "--radius", "1e-300", "--grid", "2"], 1, None),
    (["check", "sphere", "--radius", "3.0"], 2, None),
    (["check", "tube"], 0, "check_tube.json"),
    (["check", "tube", "--out", "no-such-dir/x.json"], 2, None),  # an unwritable --out prints no PASS line
    (["check", "bogus"], 2, None),
    # An explicit option the command has no parameter for.
    (["check", "ruled", "--radius", "0.3"], 2, None),
    (["check", "ruled", "--format", "json"], 2, None),
    (["check", "sphere", "--format", "csv"], 2, None),
    (["check", "tube", "--grid", "5", "--tol", "1e-30"], 2, None),
    (["check", "tube", "--step", "1e-4"], 2, None),
    (["check", "tube", "--radius", "0.5"], 2, None),
    (["check", "tube", "--strict"], 2, None),
    (["symbolic", "--grid", "2"], 2, None),
    (["symbolic", "--step", "1e-4"], 2, None),
    (["symbolic", "--strict"], 2, None),
    (["scan", "perturbed-ruled:0.05,3", "--radius", "0.3", "--grid", "2"], 2, None),
    (["scan", "ruled", "--radius", "0.3", "--grid", "2"], 2, None),
    (["crosscheck", "--format", "json"], 2, None),
    (["crosscheck", "--radius", "1"], 2, None),
    (["symbolic"], 0, "symbolic_report.json"),
    (["symbolic", "all"], 0, "symbolic_report.json"),
    (["symbolic", "mu0"], 0, None),
    (["symbolic", "mu0", "mu1"], 0, None),
    (["symbolic", "kappa", "kappa"], 2, None),
    (["symbolic", "nope"], 2, None),
    (["symbolic", "not-a-check"], 2, None),
    (["scan", "ruled", "--grid", "4"], 0, "scan_ruled_g4.csv"),
    (["scan", "ruled", "--grid", "3", "--format", "json"], 0, "scan_ruled_g3.json"),
    (["scan", "sphere:1.57", "--grid", "3"], 0, None),
    (["scan", "perturbed-ruled:0.05,0", "--grid", "4"], 0, "scan_perturbed_g4.csv"),
    (["scan", "perturbed-ruled:0.2,3", "--grid", "6"], 0, "scan_perturbed_s3_g6.csv"),
    (["scan", "perturbed-ruled:1e200,0", "--grid", "2"], 0, None),
    (["scan", "perturbed-ruled:1e308,0", "--grid", "2"], 0, None),
    (["scan", "perturbed-ruled:nan,0", "--grid", "2"], 1, None),
    (["scan", "perturbed-ruled:inf,0", "--grid", "2"], 1, None),
    (["scan", "nonsense-surface"], 2, None),
    *((["scan", surface, "--grid", "2"], 2, None) for surface in MALFORMED_SURFACES),
    # epsilon and seed are given inline, perturbed-ruled:<epsilon>,<seed>: as
    # options they are usage errors, whether the surface uses them or not.
    (["scan", "ruled", "--epsilon", "0.05", "--grid", "2"], 2, None),
    (["scan", "sphere:0.5", "--seed", "0", "--grid", "2"], 2, None),
    *(
        ([*command, option, value, "--grid", "2"], 2, None)
        for command in (
            ["scan", "perturbed-ruled:0.05,3"],
            ["scan", "ruled"],
            ["scan", "sphere:0.5"],
            ["check", "sphere"],
            ["crosscheck"],
        )
        for option, value in (("--epsilon", "0.3"), ("--seed", "9"))
    ),
    (["crosscheck"], 0, "crosscheck_g5.json"),  # the default grid is 5
    (["crosscheck", "--grid", "2"], 0, "crosscheck_g2.json"),
    (["crosscheck", "--grid", "3"], 0, None),
    (["crosscheck", "--grid", "5"], 0, "crosscheck_g5.json"),
    (["crosscheck", "--grid", "2", "--step", "0.1"], 1, None),  # too coarse a step for the tolerance
    (["crosscheck", "--grid", "2", "--step", "0.3"], 1, None),
    # The grid points u = 1.2 (ruled) and s = 1.2 (sphere) put a stencil axis
    # neighbour at 1.57, inside both charts' singular margin about pi/2: four
    # flagged points per chart.
    (["crosscheck", "--grid", "2", "--step", "0.37"], 1, "crosscheck_g2_step037.json"),
    (["crosscheck", "--grid", "2", "--step", "1e-200"], 1, "crosscheck_g2_step1e-200.json"),
    (["crosscheck", "--grid", "2", "--step", "1e-150"], 1, None),
    (["crosscheck", "--grid", "2", "--step", "1e300"], 1, None),
    # Taken as given, a NaN tolerance would fail every check and an infinite
    # one pass every check whatever the geometry; an infinite step fails
    # inside a chart.
    *(
        ([*command, "--grid", "2", option, value], 2, None)
        for command in (["check", "ruled"], ["crosscheck"], ["scan", "ruled"])
        for option, value in (
            ("--tol", "nan"), ("--tol", "inf"), ("--tol", "-0.5"), ("--step", "inf"), ("--step", "nan")
        )
    ),
]


def _main(args: list[str]) -> tuple[int, str, str]:
    """``cli.main(args)``: its exit status, its standard output and its
    standard error, every warning included (shown each time it is raised)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                status = cli.main(args)
            except SystemExit as exc:  # an argparse error
                status = exc.code
    shown = (warnings.formatwarning(w.message, w.category, w.filename, w.lineno) for w in caught)
    return status, out.getvalue(), err.getvalue() + "".join(shown)


def _printed(argv: list[str], status: int) -> tuple[str, dict]:
    """The standard output of ``cli.main(argv)``, which must exit ``status``
    with nothing on stderr, and the JSON report it ends with."""
    got, stdout, stderr = _main(argv)
    assert (got, stderr) == (status, ""), argv
    return stdout, json.loads(stdout[stdout.index("{") :])


def _parses(argv: list[str]) -> bool:
    """Whether ``cli.build_parser()`` accepts ``argv``, its usage message hidden."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            cli.build_parser().parse_args(argv)
    except SystemExit:
        return False
    return True


def run_case(argv: list[str], status: int, golden: str | None, tmp: Path) -> None:
    """Run one ``CLI_CASES`` row in-process, with ``--out`` into ``tmp`` when it
    has a golden file.  A run that exits 0 or 1 writes nothing to stderr, not
    even a warning; one that exits 2 (a usage error) writes only to stderr:
    argparse's ``usage: `` where the parser rejects the argv, else a message
    starting ``error: ``."""
    argv = [*argv, *([] if golden is None else ["--out", str(tmp / golden)])]
    got, stdout, stderr = _main(argv)
    assert got == status, (argv, got, stderr)
    if status == 2:
        prefix = "error: " if _parses(argv) else "usage: "
        assert stdout == "" and stderr.startswith(prefix), (argv, stdout, stderr)
    else:
        assert stderr == "", (argv, stderr)
    if golden is not None:
        assert (tmp / golden).read_bytes() == (DATA / golden).read_bytes(), (argv, golden)


@pytest.mark.parametrize("argv, status, golden", CLI_CASES, ids=[" ".join(argv) for argv, _, _ in CLI_CASES])
def test_cli_case(argv, status, golden, tmp_path):
    run_case(argv, status, golden, tmp_path)


def test_every_golden_file_is_the_golden_of_a_cli_case():
    # ... and only there: no other test reads a golden file.
    goldens = {golden for _, _, golden in CLI_CASES if golden}
    assert goldens == {p.name for p in DATA.iterdir()}
    here = Path(__file__)
    for path in [*here.parent.glob("*.py"), *here.parents[1].glob("benchmarks/tests/*.py")]:
        if path != here:
            assert not any(golden in path.read_text() for golden in goldens), path


def test_a_warning_fails_a_case_that_exits_0(monkeypatch, tmp_path):
    parse = cli.parse_surface

    @functools.wraps(parse)
    def noisy(*args, **kwargs):
        warnings.warn("injected", RuntimeWarning)
        return parse(*args, **kwargs)

    monkeypatch.setattr(cli, "parse_surface", noisy)
    with pytest.raises(AssertionError, match="RuntimeWarning: injected"):
        run_case(["scan", "perturbed-ruled:1e308,0", "--grid", "2"], 0, None, tmp_path)


def test_one_changed_golden_byte_fails_its_case(monkeypatch, tmp_path):
    golden = "check_tube.json"
    text = bytearray((DATA / golden).read_bytes())
    text[len(text) // 2] ^= 1
    altered = tmp_path / "data"
    altered.mkdir()
    (altered / golden).write_bytes(bytes(text))
    monkeypatch.setattr(sys.modules[__name__], "DATA", altered)
    with pytest.raises(AssertionError, match=golden):
        run_case(["check", "tube"], 0, golden, tmp_path)


def test_a_failed_start_up_self_check_exits_1_with_its_message_alone(monkeypatch):
    # The one run exiting 1 that writes to stderr and no report: main runs
    # the Ricci self-check before any command.
    def fail():
        raise cv.RicciMismatch("injected")

    monkeypatch.setattr(cv, "ricci_selfcheck", fail)
    assert _main(["check", "tube"]) == (1, "", "self-check failed: injected\n")


def test_scan_zero_perturbation_coincides_with_ruled():
    _, ruled_rows = cli.cmd_scan("ruled", grid=3)
    _, zero_rows = cli.cmd_scan("perturbed-ruled:0.0,7", grid=3)
    for a, b in zip(ruled_rows, zero_rows):
        assert abs(a.deficit - b.deficit) < 1e-9
        assert abs(a.hopf_defect - b.hopf_defect) < 1e-9


def test_scan_output_is_deterministic():
    first = _main(["scan", "perturbed-ruled:0.05,3", "--grid", "3"])
    assert first[0] == 0 and _main(["scan", "perturbed-ruled:0.05,3", "--grid", "3"]) == first


def test_scan_json_format(tmp_path):
    out = tmp_path / "rows.json"
    assert cli.main(["scan", "ruled", "--grid", "3", "--format", "json", "--out", str(out)]) == 0
    status, stdout, _ = _main(["scan", "ruled", "--grid", "3", "--format", "json"])
    assert status == 0 and out.read_text().endswith("]\n") and stdout.endswith("]\n")
    rows = json.loads(out.read_text())
    assert json.loads(stdout[stdout.index("[") :]) == rows and len(rows) == 27
    assert list(rows[0]) == "u,v,theta,maxRicci,meanCurvSq,deficit,alpha,hopfDefect,traceA,flags".split(",")


def test_perturbed_scan_bound_and_strictness():
    reports, rows = cli.cmd_scan("perturbed-ruled:0.05,0", grid=4)
    assert reports[0].status == "pass"
    deficits = [r.deficit for r in rows if r.flags == "ok"]
    assert min(deficits) >= -1e-6
    assert max(deficits) > 1e-3


def test_config_is_the_signature_with_explicit_options():
    parse = cli.build_parser().parse_args
    assert cli._config("scan", parse(["scan", "ruled", "--tol", "2e-6", "--strict"])) == {
        "surface": "ruled", "grid": 12, "step": 1e-5, "bound": -1e-6, "strict": True, "format": "csv",
    }
    assert cli._config("check tube", parse(["check", "tube"])) == {}
    assert cli._config("symbolic", parse(["symbolic", "mu0"])) == {"names": ["mu0"]}
    config = cli._config("check sphere", parse(["check", "sphere", "--grid", "0", "--tol", "0"]))
    assert list(config) == ["radius", "grid", "step", "tol", "eig_tol", "hopf_tol", "strict"]
    assert config["grid"] == 0 and config["tol"] == 0.0 and config["strict"] is False


def test_explicit_tol_zero_is_honoured():
    out, payload = _printed(["check", "sphere", "--grid", "3", "--tol", "0"], 1)
    assert payload["config"]["tol"] == 0.0 and "FAIL sphere_deficit" in out


def test_cli_check_ruled_passes_a_small_grid(tmp_path):
    assert "PASS ruled_deficit" in _printed(["check", "ruled", "--grid", "3"], 0)[0]
    report_path = tmp_path / "run.json"
    assert cli.main(["check", "ruled", "--grid", "3", "--out", str(report_path)]) == 0
    data = json.loads(report_path.read_text())
    assert data["command"] == "check" and data["summary"]["failed"] == 0


def test_cli_symbolic_subset_and_marker():
    reports = _printed(["symbolic", "mu0", "mu1"], 0)[1]["reports"]
    assert [r["checkName"] for r in reports] == ["symbolic_mu0", "symbolic_mu1"]
    assert all(r["maxAbsResidual"] == EXACT_ZERO for r in reports)


def test_cli_strict_halves_tolerances():
    assert _printed(["check", "ruled", "--grid", "3", "--strict"], 0)[1]["config"]["tol"] == 5e-7
    assert _printed(["check", "sphere", "--grid", "2", "--strict"], 0)[1]["config"]["hopf_tol"] == 5e-9
    config = _printed(["crosscheck", "--grid", "2", "--strict"], 0)[1]["config"]
    assert config == {"grid": 2, "step": 1e-3, "tol": 5e-5, "strict": True}


def test_parse_surface_variants():
    assert cli.parse_surface("ruled").name == "ruled"
    assert cli.parse_surface("sphere:0.5").name.startswith("sphere:0.5")
    assert cli.parse_surface("perturbed-ruled").name == "perturbed-ruled:0.05,0"
    assert cli.parse_surface("perturbed-ruled:0.1,9").name == "perturbed-ruled:0.1,9"
    assert cli.parse_surface("perturbed-ruled:0.1").name == "perturbed-ruled:0.1,0"
    assert list(cli.SURFACES) == ["ruled", "sphere", "perturbed-ruled"]


@pytest.mark.parametrize("surface", MALFORMED_SURFACES)
def test_parse_surface_rejects_malformed_surfaces(surface):
    # A usage error of scan (a CLI_CASES row) whose message names the surface.
    with pytest.raises(ValueError) as exc:
        cli.parse_surface(surface)
    assert repr(surface) in str(exc.value)


@pytest.mark.parametrize(
    "surface, parameter",
    [("sphere:abc", "radius=abc"), ("sphere:2", "radius=2"), ("perturbed-ruled:0.05,-1", "seed=-1")],
)
def test_rejected_surface_argument_is_named_by_its_parameter(surface, parameter):
    with pytest.raises(ValueError) as exc:
        cli.parse_surface(surface)
    assert str(exc.value).startswith(f"surface {surface!r} (") and parameter in str(exc.value)
    assert _main(["scan", surface, "--grid", "2"]) == (2, "", f"error: {exc.value}\n")


@pytest.mark.parametrize(
    "surface, epsilon, seed",
    [
        ("ruled", 0.05, None),
        ("sphere:0.5", None, 0),
        ("perturbed-ruled:0.05,3", 0.3, None),
        ("perturbed-ruled:0.05,3", None, 9),
    ],
)
def test_parse_surface_rejects_unused_or_conflicting_options(surface, epsilon, seed):
    # An epsilon or seed beside the surface, unused by it or conflicting with
    # its inline value, is refused: parse_surface takes the surface alone, and
    # scan has no option to carry the value (CLI_CASES rows).
    with pytest.raises(TypeError):
        cli.parse_surface(surface, epsilon, seed)


def test_omitted_perturbation_arguments_take_the_factory_defaults():
    surfaces = ["perturbed-ruled:0.05,0", "perturbed-ruled:0.05", "perturbed-ruled"]
    runs = [_main(["scan", surface, "--grid", "2"]) for surface in surfaces]
    assert runs[0][0] == 0 and runs[0] == runs[1] == runs[2]


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


@pytest.mark.parametrize(
    "epsilon, code",
    [("1e120", 0), ("1e200", 0), ("1e300", 0), ("nan", 1), ("1e308", 0), ("-1e308", 0), ("1.7976931348623157e308", 0)],
)
def test_scan_normalizes_every_finite_displacement(epsilon, code):
    # |y| above about 1e154 overflows an unscaled sum of squares, and epsilon
    # near the float maximum overflows unscaled weight tables.  A warning
    # would show on stderr.
    status, out, err = _main(["scan", f"perturbed-ruled:{epsilon},0", "--grid", "2"])
    assert (status, err) == (code, "")
    flags = [row["flags"] for row in csv.DictReader(io.StringIO(out[out.index("u,v,") :]))]
    assert flags == ["ok" if code == 0 else "RankDeficient"] * 8


def test_ruled_hopf_check_residual_is_the_shortfall_below_tol():
    tol = 1e9
    hopf = {r.name: r for r in cli.cmd_check_ruled(grid=2, tol=tol)}["ruled_hopf_defect_positive"]
    assert hopf.status == "fail"
    assert math.isfinite(hopf.details["grid_min_hopf_defect"])
    assert hopf.max_abs_residual == tol - hopf.details["grid_min_hopf_defect"] > 0.0


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


RULED_CHECKS = ["ruled_deficit", "ruled_minimality", "ruled_alpha", "ruled_equality_basis", "ruled_form"]
RULED_CHECKS += ["ruled_hopf_defect_positive"]
SPHERE_CHECKS = ["sphere_deficit", "sphere_principal_curvatures", "sphere_hopf"]


# The faulty charts of FAULT_CASES: a NaN chart computes no point, and a
# near_singular_box puts 4 of its 8 grid points on its declared-singular edge,
# where the frame is computable.
FAULTY_CHARTS = {
    "nan": lambda: perturbed_ruled_chart(math.nan, 0),
    "ruled-edge": lambda: near_singular_box(ruled_chart()),
    "sphere-edge": lambda: near_singular_box(sphere_chart(math.pi / 4)),
}

# Each grid command on a faulty chart, once: the command of cli.COMMANDS (run at
# grid 2, scan on "ruled"), the chart factory of cli that it patches, the faulty
# chart, the reports that fail, each with k of its grid's 8 points flagged, and
# scan's row flags.
FAULT_CASES = [
    ("scan", "parse_surface", "nan", ["scan_deficit_bound"], 8, ["RankDeficient"] * 8),
    ("check ruled", "ruled_chart", "nan", RULED_CHECKS, 8, None),
    ("check sphere", "sphere_chart", "nan", SPHERE_CHECKS, 8, None),
    ("scan", "parse_surface", "ruled-edge", ["scan_deficit_bound"], 4, ["singular"] * 4 + ["ok"] * 4),
    ("check ruled", "ruled_chart", "ruled-edge", RULED_CHECKS, 4, None),
    ("check sphere", "sphere_chart", "sphere-edge", SPHERE_CHECKS, 4, None),
    ("crosscheck", "ruled_chart", "ruled-edge", ["crosscheck_ruled"], 4, None),
    ("crosscheck", "sphere_chart", "sphere-edge", ["crosscheck_sphere"], 4, None),
]


@pytest.mark.parametrize(
    "command, factory, faulty, failing, k, flags", FAULT_CASES, ids=[f"{c[0]} {c[2]}" for c in FAULT_CASES]
)
def test_a_faulty_chart_fails_exactly_its_reports(command, factory, faulty, failing, k, flags, monkeypatch):
    # Each failing report counts its k flagged points, and its residual is
    # infinite exactly when no point was computed; every other report passes
    # without errors.  run_report counts k once per grid, and standard JSON
    # writes each infinite residual or detail as null.
    chart = FAULTY_CHARTS[faulty]()
    monkeypatch.setattr(cli, factory, lambda *args: chart)
    result = cli.COMMANDS[command](*(["ruled"] if command == "scan" else []), grid=2)
    reports, rows = result if command == "scan" else (result, None)
    assert [r.name for r in reports if r.status == "fail"] == failing
    for r in reports:
        errors = r.details.get("errors", 0)
        assert (errors, math.isinf(r.max_abs_residual)) == ((k, k == 8) if r.name in failing else (0, False)), r
    rep = run_report(command.split()[0], {}, reports)
    assert rep["summary"]["errors"] == k
    for r, written in zip(reports, _standard_json(report_to_json(rep))["reports"]):
        fields = [(r.max_abs_residual, written["maxAbsResidual"])]
        fields += [(v, written["details"][n]) for n, v in r.details.items()]
        assert all(w is None for v, w in fields if isinstance(v, float) and math.isinf(v)), written
    if rows is not None:
        assert [row.flags for row in rows] == flags
        assert [all(math.isnan(x) for x in row.values()[3:-1]) for row in rows] == [f != "ok" for f in flags]
        unbounded = reports[0].details["min_deficit"] is None and reports[0].details["max_deficit"] is None
        assert unbounded == ("ok" not in flags)


def test_nan_sphere_deficit_fails_the_check(monkeypatch):
    expected = cli.cv.geodesic_sphere_deficit(math.pi / 4)
    monkeypatch.setattr(cli.cv, "deficit", _nan_at_second_call(expected))
    reports = {r.name: r for r in cli.cmd_check_sphere(grid=2)}
    assert reports["sphere_deficit"].status == "fail"
    assert math.isnan(reports["sphere_deficit"].max_abs_residual)
    assert reports["sphere_hopf"].status == "pass"


def _nan_at_second_point(*args, riemann=cv._riemann):
    """The one Riemann pass with a NaN tensor at its second row, the ruled grid's second point."""
    R, errors = riemann(*args)
    R[1] = math.nan
    return R, errors


def _failed_stencils(message):
    """Every centre of the one Riemann pass fails with ``message``."""

    def failed(G, errors, h):
        return np.full((len(errors), 3, 3, 3, 3), math.nan), [message] * len(errors)

    return cv, "_riemann", failed


def _flagged_shapes(flag, rows):
    """The one shape pass flags its rows ``rows(centres)`` with ``flag``, NaN in their arrays."""

    def flagged(p, D, *h, kernel=cli._shape_grid):
        g, k = kernel(p, D, *h), rows(p.reshape(-1, 7, 3)[:, 0])
        g.flags[k] = flag
        for x in (g.A, g.P, g.xi, g.coeffs):
            x[k] = math.nan
        return g

    return cli, "_shape_grid", flagged


def _holomorphic_row(centres):
    """The row of the 17 whose centre is the sphere chart's point at the plane point: the last."""
    (point,), _ = sphere_chart(math.pi / 4).jet(np.array([cli.HOLOMORPHIC_POINT]))
    rows = np.flatnonzero((centres == point).all(axis=1)).tolist()
    assert (rows, len(centres)) == ([16], 17)
    return rows


def _nowhere(radius):
    """In the sphere chart's place the ruled chart, named 'nowhere' and singular everywhere:
    the plane point skips the grid's mask, so the stencil mask rejects it for that locus."""
    return dataclasses.replace(ruled_chart(), name="nowhere", is_singular=lambda Q: np.ones(Q.shape[:-1], bool))


OK4, OK8, SM4, SM8 = ["ok"] * 4, ["ok"] * 8, ["SingularMetric"] * 4, ["SingularMetric"] * 8
PASSED, PLANE_PASSED, PLANE_FAILED = ("pass", 0, "finite"), ("pass", None, "finite"), ("fail", None, "nan")
FAILED4 = ("fail", 4, "finite")
FAILED = [("fail", 8, "inf"), ("fail", 8, "inf"), PLANE_FAILED]
SPHERE = f"SingularMetric: chart {sphere_chart(math.pi / 4).name!r} at {cli.HOLOMORPHIC_POINT}"

# Each crosscheck run with flagged points, once: its patches (owner, name and
# replacement: kernel faults or a chart factory; none for a step alone), the
# step, each grid's flags, the status, errors and residual (finite, nan or inf)
# of each report (ruled grid, sphere grid, holomorphic plane) and the plane's
# error.
CROSSCHECK_CASES = {
    "nan-riemann-row": (
        [(cv, "_riemann", _nan_at_second_point)], 1e-3, [OK8, OK8], [("fail", 0, "nan"), PASSED, PLANE_PASSED], None
    ),
    # The ruled grid point u = 0.3 puts a stencil axis neighbour on u = 0.
    "step-0.3": ([], 0.3, [SM4 + OK4, (SM4[:2] + OK4[:2]) * 2], [FAILED4, FAILED4, ("fail", None, "finite")], None),
    "nowhere-sphere": (
        [(cli, "sphere_chart", _nowhere)], 1e-3, [OK8, ["singular"] * 8], [PASSED, ("fail", 8, "inf"), PLANE_FAILED],
        "SingularMetric: chart 'nowhere' at (0.3, 0.7, 0.4): stencil centre or axis neighbour in the singular locus",
    ),
    # The plane row carries the stencil's message under the sphere chart's prefix.
    "failed-stencils": (
        [_failed_stencils("singular metric on the stencil")], 1e-3, [SM8, SM8], FAILED,
        f"{SPHERE}: singular metric on the stencil",
    ),
    # The flagged plane row counts as no grid error.
    "flagged-plane-shape": (
        [_flagged_shapes("RankDeficient", _holomorphic_row)], 1e-3, [OK8, OK8], [PASSED, PASSED, PLANE_FAILED],
        "RankDeficient",
    ),
    # Each point, the plane's included, keeps its shape's flag.
    "shape-flag-before-failed-stencil": (
        [_flagged_shapes("AsymmetryExceeded", lambda c: ...), _failed_stencils("singular metric at the centre")], 1e-3,
        [["AsymmetryExceeded"] * 8] * 2, FAILED, "AsymmetryExceeded",
    ),
    # Below the resolution the stencil collapses onto q: the residual would be
    # NaN (h^2 = 0) or the bare Gauss tensor (intrinsic R = 0).
    "step-1e-150": ([], 1e-150, [SM8, SM8], FAILED, f"{SPHERE}: step 1e-150 below the parameter resolution"),
}


@pytest.mark.parametrize("patches, step, flags, reports, error", CROSSCHECK_CASES.values(), ids=list(CROSSCHECK_CASES))
def test_crosscheck_reports_exactly_its_flagged_points(patches, step, flags, reports, error, monkeypatch):
    # Each grid report counts its flagged points, whose gaps are NaN; the
    # plane report's value is NaN exactly when it has an error; run_report
    # counts each grid's errors once.
    for owner, name, replacement in patches:
        monkeypatch.setattr(owner, name, replacement)
    rows, crosscheck_rows = [], cli._crosscheck_rows
    monkeypatch.setattr(cli, "_crosscheck_rows", lambda *args: rows.extend(crosscheck_rows(*args)) or rows)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cli.cmd_crosscheck(grid=2, step=step)
    residuals = [r.max_abs_residual for r in got]
    kinds = ["nan" if math.isnan(x) else "inf" if math.isinf(x) else "finite" for x in residuals]
    assert [(r.status, r.details.get("errors"), kind) for r, kind in zip(got, kinds)] == reports
    assert got[-1].name == "crosscheck_sphere_holomorphic_plane" and rows[0][2] == []
    assert [f.tolist() for f, _, _ in rows] == flags
    for r, (f, gaps, _) in zip(got, rows):
        assert r.details["errors"] == np.sum(f != "ok") and np.isnan(gaps[f != "ok"]).all()
    assert (got[-1].details.get("error"), math.isnan(got[-1].details["value"])) == (error, error is not None)
    assert run_report("crosscheck", {}, got)["summary"]["errors"] == sum(r.details.get("errors", 0) for r in got)


@pytest.mark.parametrize(
    "names",
    [["kappa", "kappa"], ["mu0", "mu1", "mu0"], ["all", "kappa"], ["kappa", "all"], ["all", "all"], ["nope"]],
    ids="-".join,
)
def test_symbolic_names_are_never_rewritten(names):
    # Run as given, a repeated name would run its check twice and 'all'
    # beside other names would be dropped; both are usage errors instead,
    # as is an unknown name.  The message is printed unquoted.
    status, out, err = _main(["symbolic", *names])
    unknown = "error: unknown symbolic checks: nope;" if "nope" in names else "error: "
    assert (status, out) == (2, "") and err.startswith(unknown) and err.count("\n") == 1 and '"' not in err


def test_sphere_hopf_fails_below_the_grid_defect():
    defect = {r.name: r for r in cli.cmd_check_sphere(grid=2)}["sphere_hopf"].max_abs_residual
    assert 0.0 < defect < 5e-9
    reports = {r.name: r for r in cli.cmd_check_sphere(grid=2, hopf_tol=defect / 2)}
    assert reports["sphere_hopf"].status == "fail"
    assert reports["sphere_deficit"].status == "pass"


def test_ricci_guard_failure_flags_the_point_and_the_run_goes_on(tmp_path, capsys, monkeypatch):
    # A closed form off by 1e-3 trips the guard at every grid point; each
    # point is flagged and counted, and neither command raises.  The start-up
    # self-check would catch the error before any grid, so it is skipped.
    monkeypatch.setattr(cv, "_TWO_EYE", 2.0 * np.eye(3) + 1e-3)
    monkeypatch.setattr(cv, "ricci_selfcheck", lambda: None)
    rows_out, report_out = tmp_path / "rows.csv", tmp_path / "report.json"
    assert cli.main(["scan", "sphere:1.57", "--grid", "3", "--out", str(rows_out)]) == 1
    flags = [r["flags"] for r in csv.DictReader(io.StringIO(rows_out.read_text()))]
    assert flags == ["RicciMismatch"] * 27
    argv = ["check", "sphere", "--radius", "1.57", "--grid", "3", "--out", str(report_out)]
    assert cli.main(argv) == 1
    report = json.loads(report_out.read_text())
    assert report["summary"]["errors"] == 27
    assert all(r["status"] == "fail" for r in report["reports"])
    assert "Traceback" not in capsys.readouterr().err


def test_ricci_guard_scales_with_the_cancelling_summands_near_the_cut_locus(tmp_path):
    # Near the cut locus |A| ~ 1e3, so the two Ricci routes cancel summands
    # of size |A|^2 ~ 1e6 and differ by rounding far above 1e-12 * max|Ric|.
    # The guard allows for that: every point computes.  (The deficit, about
    # 3.9e5 there, is compared relative to its size, so all three checks of
    # the golden check_sphere_r157_g3 report pass.)
    rows_out = tmp_path / "rows.csv"
    assert cli.main(["scan", "sphere:1.57", "--grid", "3", "--out", str(rows_out)]) == 0
    flags = [r["flags"] for r in csv.DictReader(io.StringIO(rows_out.read_text()))]
    assert flags == ["ok"] * 27


@pytest.mark.parametrize(
    "radius, error",
    [(1.57, lambda d: d * (1.0 + 1e-5)), (math.pi / 4, lambda d: d + 2e-6)],
    ids=["relative-1e-5-near-the-cut-locus", "offset-2e-6-at-quarter-pi"],
)
def test_sphere_deficit_tolerance_catches_an_error_in_the_deficit(monkeypatch, radius, error):
    # The tolerance is tol * max(1, |expected deficit|): relative where the
    # deficit is large, absolute where it is at most 1.
    assert {r.name: r.status for r in cli.cmd_check_sphere(radius, grid=3)}["sphere_deficit"] == "pass"
    deficit = cli.cv.deficit
    monkeypatch.setattr(cli.cv, "deficit", lambda s: error(deficit(s)))
    reports = {r.name: r for r in cli.cmd_check_sphere(radius, grid=3)}
    assert reports["sphere_deficit"].status == "fail"
    assert reports["sphere_deficit"].details["errors"] == 0


def test_a_non_perturbed_command_leaves_numpy_random_unimported():
    # The start-up self-check draws from the standard library's generator.
    code = (
        "import sys\n"
        "from cp2ricci import cli\n"
        "assert cli.main(['check', 'tube']) == 0\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.splitlines()[-1] == "False"
