"""Command-line orchestration: verification suites, scans, symbolic checks.

Commands

* ``check ruled``   -- equality, minimality, and ruled-form residuals on a grid
* ``check sphere``  -- deficit against the closed-form model at a given radius
* ``check tube``    -- equality radii of the Hopf models
* ``symbolic``      -- the exact polynomial suite (all checks or a subset)
* ``scan``          -- per-point curvature rows to CSV/JSON
* ``crosscheck``    -- intrinsic vs shape-based curvature tensors

Exit codes: 0 all pass, 1 any fail, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from typing import Any

import numpy as np

from . import classify as cl
from . import curvature as cv
from .charts import SurfaceChart, perturbed_ruled_chart, ruled_chart, sphere_chart
from .exact.checks import ALL_CHECKS, run_checks
from .frames import RankDeficient
from .report import (
    EXACT_ZERO,
    CheckReport,
    ScanRow,
    passed,
    report_to_json,
    run_report,
    scan_to_csv,
    scan_to_json,
)
from .shape import AsymmetryExceeded, shape_operator


def _report(name: str, ok: bool, residual: float | str, **details: Any) -> CheckReport:
    return CheckReport(
        name=name,
        status="pass" if ok else "fail",
        max_abs_residual=residual,
        details=details,
    )


def cmd_check_ruled(grid: int = 16, step: float = 1e-5, tol: float = 1e-6) -> list[CheckReport]:
    """Grid maxima of deficit, trace, alpha, and the classification residuals
    over the default ruled box, plus the grid minimum of the Hopf defect."""
    chart = ruled_chart()
    max_deficit = max_trace = max_alpha = max_block = max_trace_res = max_ruled = 0.0
    min_defect = math.inf
    errors = 0
    for q in chart.sample_box.grid(grid):
        try:
            s = shape_operator(chart, q, h=step)
            max_deficit = max(max_deficit, abs(cv.deficit(s)))
            max_trace = max(max_trace, abs(float(np.trace(s.A))))
            max_alpha = max(max_alpha, abs(s.alpha))
            eq = cl.equality_basis(s, tol=tol)
            max_block = max(max_block, eq.block_residual)
            max_trace_res = max(max_trace_res, eq.trace_residual)
            max_ruled = max(max_ruled, cl.ruled_check(s, tol=tol, minimal=True))
            min_defect = min(min_defect, s.hopf_defect)
        except (RankDeficient, AsymmetryExceeded, cl.HopfPoint):
            errors += 1
    n_points = grid**3
    common = {"grid": grid, "points": n_points, "errors": errors}
    return [
        _report("ruled_deficit", max_deficit < tol and errors == 0, max_deficit, **common),
        _report("ruled_minimality", max_trace < tol and errors == 0, max_trace, **common),
        _report("ruled_alpha", max_alpha < tol and errors == 0, max_alpha, **common),
        _report(
            "ruled_equality_basis",
            max(max_block, max_trace_res) < tol and errors == 0,
            max(max_block, max_trace_res),
            block_residual=max_block,
            trace_residual=max_trace_res,
            **common,
        ),
        _report("ruled_form", max_ruled < tol and errors == 0, max_ruled, **common),
        _report(
            "ruled_hopf_defect_positive",
            min_defect > tol and errors == 0,
            0.0,
            grid_min_hopf_defect=min_defect,
            **common,
        ),
    ]


def _principal_deviation(eigs: np.ndarray, model: np.ndarray) -> tuple[float, int]:
    """Best-sign deviation of computed principal curvatures from the model.

    The normal orientation is a per-chart choice, so the comparison allows a
    global sign; the sign used is reported."""
    up = float(np.max(np.abs(np.sort(eigs) - np.sort(model))))
    down = float(np.max(np.abs(np.sort(-eigs) - np.sort(model))))
    return (up, 1) if up <= down else (down, -1)


def cmd_check_sphere(
    radius: float = math.pi / 4,
    grid: int = 8,
    step: float = 1e-5,
    tol: float = 1e-6,
    eig_tol: float = 1e-7,
) -> list[CheckReport]:
    """Deficit against the closed-form sphere value, principal curvatures
    against the classical model, and vanishing Hopf defect."""
    chart = sphere_chart(radius)
    expected = cv.geodesic_sphere_deficit(radius)
    model = cv.geodesic_sphere_curvatures(radius)
    max_gap = max_eig_dev = max_defect = 0.0
    signs: set[int] = set()
    errors = 0
    for q in chart.sample_box.grid(grid):
        try:
            s = shape_operator(chart, q, h=step)
            max_gap = max(max_gap, abs(cv.deficit(s) - expected))
            dev, sign = _principal_deviation(np.linalg.eigvalsh(s.A), model)
            signs.add(sign)
            max_eig_dev = max(max_eig_dev, dev)
            max_defect = max(max_defect, s.hopf_defect)
        except (RankDeficient, AsymmetryExceeded):
            errors += 1
    common = {"radius": radius, "grid": grid, "errors": errors}
    return [
        _report(
            "sphere_deficit",
            max_gap < tol and errors == 0,
            max_gap,
            expected_deficit=expected,
            **common,
        ),
        _report(
            "sphere_principal_curvatures",
            max_eig_dev < eig_tol and errors == 0,
            max_eig_dev,
            model=[float(x) for x in model],
            normal_signs=sorted(signs),
            **common,
        ),
        _report("sphere_hopf", max_defect < 1e-8 and errors == 0, max_defect, **common),
    ]


def cmd_check_tube() -> list[CheckReport]:
    """Equality radii: analytic pi/4 for the sphere and the tube root, which
    must match both the closed form (1e-12) and its decimal expansion."""
    try:
        radii = cl.hopf_equality_radii()
    except cl.NoRoot as exc:
        return [CheckReport("tube_radius", "fail", math.inf, {"error": str(exc)})]
    scan = np.linspace(0.01, math.pi / 4 - 0.01, 10_000)
    balance = np.sign([cl.tube_balance(r) for r in scan])
    sign_changes = int(np.sum(balance[:-1] * balance[1:] < 0))
    decimal_gap = abs(radii.r_tube - 0.33311971)
    ok = (
        radii.agreement <= 1e-12
        and decimal_gap <= 1e-7
        and radii.r_sphere == math.pi / 4
        and sign_changes == 1
    )
    return [
        _report(
            "tube_radius",
            ok,
            radii.agreement,
            r_sphere=radii.r_sphere,
            r_tube=radii.r_tube,
            r_tube_closed_form=radii.r_tube_closed_form,
            decimal_gap=decimal_gap,
            bisection_residual=radii.bisection_residual,
            bracket_sign_changes=sign_changes,
            sphere_model=radii.sphere_model,
            tube_model=radii.tube_model,
        )
    ]


def cmd_symbolic(names: list[str] | None = None) -> list[CheckReport]:
    """Run the exact polynomial suite; every verdict must be exact."""
    outcomes = run_checks(names or None)
    reports = []
    for out in outcomes:
        residual: float | str = EXACT_ZERO if out.exact else math.inf
        reports.append(
            CheckReport(
                name=f"symbolic_{out.name}",
                status="pass" if out.ok else "fail",
                max_abs_residual=residual,
                details=out.detail,
            )
        )
    return reports


def parse_surface(surface: str, epsilon: float, seed: int) -> SurfaceChart:
    if surface == "ruled":
        return ruled_chart()
    if surface.startswith("sphere:"):
        return sphere_chart(float(surface.split(":", 1)[1]))
    if surface == "perturbed-ruled":
        return perturbed_ruled_chart(epsilon, seed)
    if surface.startswith("perturbed-ruled:"):
        args = surface.split(":", 1)[1].split(",")
        eps = float(args[0])
        sd = int(args[1]) if len(args) > 1 else seed
        return perturbed_ruled_chart(eps, sd)
    raise ValueError(
        f"unknown surface {surface!r}; use ruled, sphere:<r>, perturbed-ruled:<eps,seed>"
    )


def scan_surface(chart: SurfaceChart, grid: int = 12, step: float = 1e-5) -> list[ScanRow]:
    rows = []
    for q in chart.sample_box.grid(grid):
        try:
            s = shape_operator(chart, q, h=step)
            ric = np.linalg.eigvalsh(cv.ricci_matrix(s))
            max_ric = float(ric[-1])
            mean_sq = s.mean_curvature**2
            rows.append(
                ScanRow(
                    u=q[0],
                    v=q[1],
                    theta=q[2],
                    max_ricci=max_ric,
                    mean_curv_sq=mean_sq,
                    deficit=2.25 * mean_sq + 5.0 - max_ric,
                    alpha=s.alpha,
                    hopf_defect=s.hopf_defect,
                    trace_a=float(np.trace(s.A)),
                    flags="ok",
                )
            )
        except (RankDeficient, AsymmetryExceeded) as exc:
            nan = float("nan")
            rows.append(
                ScanRow(q[0], q[1], q[2], nan, nan, nan, nan, nan, nan, flags=type(exc).__name__)
            )
    return rows


def cmd_scan(
    surface: str,
    grid: int = 12,
    step: float = 1e-5,
    epsilon: float = 0.05,
    seed: int = 0,
    bound: float = -1e-6,
) -> tuple[list[CheckReport], list[ScanRow]]:
    """Emit one row per grid point; every row must satisfy the deficit bound."""
    chart = parse_surface(surface, epsilon, seed)
    rows = scan_surface(chart, grid=grid, step=step)
    ok_rows = [r for r in rows if r.flags == "ok"]
    n_err = len(rows) - len(ok_rows)
    min_deficit = min((r.deficit for r in ok_rows), default=math.inf)
    max_deficit = max((r.deficit for r in ok_rows), default=-math.inf)
    report = _report(
        "scan_deficit_bound",
        min_deficit >= bound and n_err == 0,
        max(0.0, -min_deficit),
        surface=chart.name,
        grid=grid,
        rows=len(rows),
        errors=n_err,
        min_deficit=min_deficit,
        max_deficit=max_deficit,
        bound=bound,
    )
    return [report], rows


def cmd_crosscheck(grid: int = 5, step: float = 1e-3, tol: float = 1e-4) -> list[CheckReport]:
    """Compare intrinsic and shape-based curvature tensors on coarse grids of
    both builtin charts, plus the holomorphic-plane curvature of the sphere."""
    reports = []
    for chart in (ruled_chart(), sphere_chart(math.pi / 4)):
        worst = 0.0
        errors = 0
        for q in chart.sample_box.grid(grid):
            try:
                worst = max(worst, cv.crosscheck_point(chart, q, h_metric=step))
            except (RankDeficient, AsymmetryExceeded):
                errors += 1
        reports.append(
            _report(
                f"crosscheck_{chart.name.split(':')[0]}",
                worst < tol and errors == 0,
                worst,
                grid=grid,
                step=step,
                errors=errors,
            )
        )
    # Sectional curvature of the holomorphic plane on the equality sphere,
    # evaluated from the intrinsic tensor alone.
    chart = sphere_chart(math.pi / 4)
    q = (0.3, 0.7, 0.4)
    s = shape_operator(chart, q)
    r_coord = cv.intrinsic_riemann(chart, q, h=step)
    g = cv.induced_metric(chart, q)
    xi = s.xi
    basis = np.eye(3)
    x = basis[int(np.argmin(np.abs(xi)))]
    x = x - (x @ xi) * xi
    x /= np.linalg.norm(x)
    y = np.cross(xi, x)
    xc = s.frame.coeffs.T @ x
    yc = s.frame.coeffs.T @ y
    num = float(np.einsum("abcd,a,b,c,d->", r_coord, xc, yc, yc, xc))
    den = float((xc @ g @ xc) * (yc @ g @ yc) - (xc @ g @ yc) ** 2)
    k_hol = num / den
    reports.append(
        _report(
            "crosscheck_sphere_holomorphic_plane",
            abs(k_hol - 5.0) < tol,
            abs(k_hol - 5.0),
            value=k_hol,
            expected=5.0,
        )
    )
    return reports


def _given(value: Any, default: Any) -> Any:
    """An explicit argument, or the command's default when it was omitted."""
    return default if value is None else value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--grid", type=int, default=None, help="grid points per axis")
    p.add_argument("--step", type=_positive_float, default=None, help="finite-difference step")
    p.add_argument("--tol", type=float, default=None, help="pass tolerance")
    p.add_argument("--strict", action="store_true", help="halve all tolerances")
    p.add_argument("--out", default=None, help="write the JSON report (or scan rows) here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cp2ricci",
        description="Curvature verification lab for hypersurface models of the projective plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a named verification suite")
    p_check.add_argument("target", choices=["ruled", "sphere", "tube"])
    p_check.add_argument("--radius", type=float, default=math.pi / 4, help="sphere radius")
    _add_common(p_check)

    p_sym = sub.add_parser("symbolic", help="run exact polynomial checks")
    p_sym.add_argument(
        "names",
        nargs="*",
        help=f"subset to run (default all): {', '.join(ALL_CHECKS)}, or 'all'",
    )
    p_sym.add_argument("--strict", action="store_true", help="accepted for symmetry; exact anyway")
    p_sym.add_argument("--out", default=None)

    p_scan = sub.add_parser("scan", help="per-point curvature rows over a surface grid")
    p_scan.add_argument("surface", help="ruled | sphere:<r> | perturbed-ruled:<eps,seed>")
    p_scan.add_argument("--epsilon", type=float, default=0.05)
    p_scan.add_argument("--seed", type=int, default=0)
    p_scan.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p_scan)

    p_cross = sub.add_parser("crosscheck", help="intrinsic vs shape-based curvature")
    _add_common(p_cross)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        cv.ricci_selfcheck()
    except AssertionError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1

    halve = 0.5 if getattr(args, "strict", False) else 1.0
    rows = None
    try:
        if args.command == "check" and args.target == "ruled":
            config = {
                "grid": _given(args.grid, 16),
                "step": _given(args.step, 1e-5),
                "tol": _given(args.tol, 1e-6) * halve,
                "strict": bool(args.strict),
            }
            reports = cmd_check_ruled(config["grid"], config["step"], config["tol"])
        elif args.command == "check" and args.target == "sphere":
            config = {
                "radius": args.radius,
                "grid": _given(args.grid, 8),
                "step": _given(args.step, 1e-5),
                "tol": _given(args.tol, 1e-6) * halve,
                "eig_tol": 1e-7 * halve,
                "strict": bool(args.strict),
            }
            reports = cmd_check_sphere(
                config["radius"], config["grid"], config["step"], config["tol"], config["eig_tol"]
            )
        elif args.command == "check":
            config = {}
            reports = cmd_check_tube()
        elif args.command == "symbolic":
            names = [n for n in args.names if n != "all"] or None
            config = {"names": names or sorted(ALL_CHECKS)}
            reports = cmd_symbolic(names)
        elif args.command == "scan":
            config = {
                "surface": args.surface,
                "grid": _given(args.grid, 12),
                "step": _given(args.step, 1e-5),
                "epsilon": args.epsilon,
                "seed": args.seed,
                "format": args.format,
                "bound": -_given(args.tol, 1e-6) * halve,
                "strict": bool(args.strict),
            }
            reports, rows = cmd_scan(
                args.surface,
                grid=config["grid"],
                step=config["step"],
                epsilon=args.epsilon,
                seed=args.seed,
                bound=config["bound"],
            )
        else:
            config = {
                "grid": _given(args.grid, 5),
                "step": _given(args.step, 1e-3),
                "tol": _given(args.tol, 1e-4) * halve,
                "strict": bool(args.strict),
            }
            reports = cmd_crosscheck(config["grid"], config["step"], config["tol"])
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for r in reports:
        residual = r.max_abs_residual
        shown = residual if isinstance(residual, str) else f"{residual:.3e}"
        print(f"{r.status.upper():4s} {r.name} (max residual {shown})")

    report = run_report(args.command, config, reports)
    try:
        if rows is not None:
            payload = scan_to_csv(rows) if args.format == "csv" else scan_to_json(rows)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(payload)
                print(f"wrote {len(rows)} rows to {args.out}")
            else:
                print(payload, end="")
        elif getattr(args, "out", None):
            with open(args.out, "w") as fh:
                fh.write(report_to_json(report) + "\n")
            print(f"wrote report to {args.out}")
        else:
            print(report_to_json(report))
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    return 0 if passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
