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
from typing import Any, Callable, Iterator

import numpy as np

from . import classify as cl
from . import curvature as cv
from .charts import ParamTriple, SurfaceChart, perturbed_ruled_chart, ruled_chart, sphere_chart
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
from .shape import AsymmetryExceeded, ShapeData, shape_operator


def _report(name: str, ok: bool, residual: float | str, **details: Any) -> CheckReport:
    return CheckReport(
        name=name,
        status="pass" if ok else "fail",
        max_abs_residual=residual,
        details=details,
    )


def _grid_reduce(reduce: Callable[..., float], values: list[float]) -> float:
    """``reduce`` (max or min) over per-point values: NaN when any value is
    NaN, so a non-finite point fails its check, and ``inf`` over no point."""
    if any(math.isnan(x) for x in values):
        return math.nan
    return reduce(values, default=math.inf)


def _grid_max(values: list[float]) -> float:
    return _grid_reduce(max, values)


def _grid_shapes(
    chart: SurfaceChart, grid: int, step: float
) -> Iterator[tuple[ParamTriple, ShapeData | str]]:
    """(q, shape data or flag) at each grid point.  The flag is ``singular``
    in the chart's declared singular locus, where nothing is computed, and
    otherwise the class name of a numerical failure of ``shape_operator``."""
    for q in chart.sample_box.grid(grid):
        if chart.is_singular(*q):
            yield q, "singular"
            continue
        try:
            yield q, shape_operator(chart, q, h=step)
        except (RankDeficient, AsymmetryExceeded) as exc:
            yield q, type(exc).__name__


def _on_grid(chart: SurfaceChart, reports: list[CheckReport]) -> list[CheckReport]:
    """``reports`` marked as computed on one grid of ``chart``, so that
    ``run_report`` counts its flagged points once."""
    for r in reports:
        r.grid_key = chart.name
    return reports


def cmd_check_ruled(grid: int = 16, step: float = 1e-5, tol: float = 1e-6) -> list[CheckReport]:
    """Grid maxima of deficit, trace, alpha, and the classification residuals
    over the default ruled box, plus the grid minimum of the Hopf defect over
    every point with a shape operator (Hopf points included; ``inf`` when
    there is none, which makes that residual ``inf`` too).  Every grid
    maximum is ``inf`` over no computed point and NaN if any point is NaN.
    A flagged point (see ``_grid_shapes``) or a Hopf point is an error."""
    chart = ruled_chart()
    defects: list[float] = []
    deficits: list[float] = []
    traces: list[float] = []
    alphas: list[float] = []
    blocks: list[float] = []
    trace_residuals: list[float] = []
    ruled: list[float] = []
    errors = 0
    for _, s in _grid_shapes(chart, grid, step):
        if isinstance(s, str):
            errors += 1
            continue
        defects.append(s.hopf_defect)
        deficits.append(abs(cv.deficit(s)))
        traces.append(abs(float(np.trace(s.A))))
        alphas.append(abs(s.alpha))
        try:
            eq = cl.equality_basis(s, tol=tol)
            blocks.append(eq.block_residual)
            trace_residuals.append(eq.trace_residual)
            ruled.append(cl.ruled_check(s, tol=tol, minimal=True))
        except cl.HopfPoint:
            errors += 1
    min_defect = _grid_reduce(min, defects)
    max_deficit, max_trace, max_alpha, max_block, max_trace_res, max_ruled = map(
        _grid_max, (deficits, traces, alphas, blocks, trace_residuals, ruled)
    )
    max_basis = _grid_max([max_block, max_trace_res])
    n_points = grid**3
    common = {"grid": grid, "points": n_points, "errors": errors}
    return _on_grid(chart, [
        _report("ruled_deficit", max_deficit < tol and errors == 0, max_deficit, **common),
        _report("ruled_minimality", max_trace < tol and errors == 0, max_trace, **common),
        _report("ruled_alpha", max_alpha < tol and errors == 0, max_alpha, **common),
        _report(
            "ruled_equality_basis",
            max_basis < tol and errors == 0,
            max_basis,
            block_residual=max_block,
            trace_residual=max_trace_res,
            **common,
        ),
        _report("ruled_form", max_ruled < tol and errors == 0, max_ruled, **common),
        _report(
            "ruled_hopf_defect_positive",
            min_defect > tol and errors == 0,
            max(0.0, tol - min_defect) if math.isfinite(min_defect) else min_defect,
            grid_min_hopf_defect=min_defect,
            **common,
        ),
    ])


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
    against the classical model, and vanishing Hopf defect.  A flagged point
    (see ``_grid_shapes``) is an error."""
    chart = sphere_chart(radius)
    expected = cv.geodesic_sphere_deficit(radius)
    model = cv.geodesic_sphere_curvatures(radius)
    gaps: list[float] = []
    eig_devs: list[float] = []
    defects: list[float] = []
    signs: set[int] = set()
    errors = 0
    for _, s in _grid_shapes(chart, grid, step):
        if isinstance(s, str):
            errors += 1
            continue
        gaps.append(abs(cv.deficit(s) - expected))
        dev, sign = _principal_deviation(np.linalg.eigvalsh(s.A), model)
        signs.add(sign)
        eig_devs.append(dev)
        defects.append(s.hopf_defect)
    max_gap, max_eig_dev, max_defect = map(_grid_max, (gaps, eig_devs, defects))
    common = {"radius": radius, "grid": grid, "errors": errors}
    return _on_grid(chart, [
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
    ])


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


def _unused(target: str, **options: Any) -> None:
    """Raise ``ValueError`` naming every option given (not None) that
    ``target`` does not use, so that none is silently ignored."""
    given = [f"--{name}" for name, value in options.items() if value is not None]
    if given:
        raise ValueError(f"{target} does not use {', '.join(given)}")


def parse_surface(surface: str, epsilon: float | None = None, seed: int | None = None) -> SurfaceChart:
    """The chart named by ``surface``.  ``epsilon`` and ``seed`` (None when
    not given, defaults 0.05 and 0) are options of
    ``perturbed-ruled[:<eps>[,<seed>]]`` only; one given for another surface,
    or differing from its inline value, is a ValueError."""
    name, colon, inline = surface.partition(":")
    if name == "perturbed-ruled":
        args = inline.split(",") if colon else []
        if len(args) > 2:
            raise ValueError(f"perturbed-ruled takes <eps>,<seed>, got {inline!r}")
        options = [epsilon, seed]
        for k, text in enumerate(args):
            value = (float, int)[k](text)
            if options[k] not in (None, value):
                raise ValueError(f"--{('epsilon', 'seed')[k]} {options[k]} conflicts with {surface!r}")
            options[k] = value
        return perturbed_ruled_chart(_given(options[0], 0.05), _given(options[1], 0))
    if surface != "ruled" and not (name == "sphere" and colon):
        raise ValueError(
            f"unknown surface {surface!r}; use ruled, sphere:<r>, perturbed-ruled:<eps,seed>"
        )
    _unused(f"surface {surface!r}", epsilon=epsilon, seed=seed)
    return ruled_chart() if surface == "ruled" else sphere_chart(float(inline))


def scan_surface(chart: SurfaceChart, grid: int = 12, step: float = 1e-5) -> list[ScanRow]:
    """One row per grid point; a flagged point (see ``_grid_shapes``) is a
    row of NaN fields carrying its flag."""
    rows = []
    for q, s in _grid_shapes(chart, grid, step):
        if isinstance(s, str):
            nan = float("nan")
            rows.append(ScanRow(q[0], q[1], q[2], nan, nan, nan, nan, nan, nan, flags=s))
            continue
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
    return rows


def cmd_scan(
    surface: str,
    grid: int = 12,
    step: float = 1e-5,
    epsilon: float | None = None,
    seed: int | None = None,
    bound: float = -1e-6,
) -> tuple[list[CheckReport], list[ScanRow]]:
    """Emit one row per grid point; every row must satisfy the deficit bound."""
    chart = parse_surface(surface, epsilon, seed)
    rows = scan_surface(chart, grid=grid, step=step)
    ok_rows = [r for r in rows if r.flags == "ok"]
    n_err = len(rows) - len(ok_rows)
    min_deficit = min((r.deficit for r in ok_rows), default=None)
    max_deficit = max((r.deficit for r in ok_rows), default=None)
    report = _report(
        "scan_deficit_bound",
        min_deficit is not None and min_deficit >= bound and n_err == 0,
        math.inf if min_deficit is None else max(0.0, -min_deficit),
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
    both builtin charts, plus the holomorphic-plane curvature of the sphere.
    A point whose stencil meets a singular metric (``SingularMetric``, a
    ``RankDeficient``) counts as an error and fails its check."""
    reports = []
    for chart in (ruled_chart(), sphere_chart(math.pi / 4)):
        gaps: list[float] = []
        errors = 0
        for q in chart.sample_box.grid(grid):
            try:
                gaps.append(cv.crosscheck_point(chart, q, h_metric=step))
            except (RankDeficient, AsymmetryExceeded):
                errors += 1
        worst = _grid_max(gaps)
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
    try:
        k_hol, error = _holomorphic_plane_curvature(step), {}
    except (RankDeficient, AsymmetryExceeded) as exc:
        k_hol, error = math.nan, {"error": f"{type(exc).__name__}: {exc}"}
    reports.append(
        _report(
            "crosscheck_sphere_holomorphic_plane",
            abs(k_hol - 5.0) < tol,
            abs(k_hol - 5.0),
            value=k_hol,
            expected=5.0,
            **error,
        )
    )
    return reports


def _holomorphic_plane_curvature(step: float) -> float:
    """Intrinsic sectional curvature of the holomorphic plane at a fixed
    point of the equality sphere (5 exactly)."""
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
    return num / den


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
    p_check.add_argument("--radius", type=float, default=None, help="sphere radius (pi/4)")
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
    p_scan.add_argument("--epsilon", type=float, default=None, help="perturbed-ruled (0.05)")
    p_scan.add_argument("--seed", type=int, default=None, help="perturbed-ruled (0)")
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
            _unused("check ruled", radius=args.radius)
            config = {
                "grid": _given(args.grid, 16),
                "step": _given(args.step, 1e-5),
                "tol": _given(args.tol, 1e-6) * halve,
                "strict": bool(args.strict),
            }
            reports = cmd_check_ruled(config["grid"], config["step"], config["tol"])
        elif args.command == "check" and args.target == "sphere":
            config = {
                "radius": _given(args.radius, math.pi / 4),
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
            _unused(
                "check tube", radius=args.radius, grid=args.grid, step=args.step, tol=args.tol,
                strict=args.strict or None,
            )
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
