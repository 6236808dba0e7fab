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
from typing import Any, Callable

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


def _worst(column: np.ndarray, reduce: Callable[[np.ndarray], Any] = np.max) -> float:
    """``reduce`` (max or min) of a column over its computed points: NaN when
    any value is NaN, so a non-finite point fails its check, and ``inf`` over
    no point."""
    return float(reduce(column)) if column.size else math.inf


def _grid_table(
    chart: SurfaceChart,
    grid: int,
    step: float,
    row: Callable[[ParamTriple, ShapeData], list[float]],
    width: int,
) -> tuple[list[ParamTriple], np.ndarray, np.ndarray]:
    """The one grid walk: (params, flags, values) over ``chart``'s sample box.

    At each grid point ``row(q, shape)`` fills one row of the (N, width)
    float array ``values`` and the flag is ``ok``.  At a point in the chart's
    declared singular locus nothing is computed and the flag is
    ``singular``; where ``shape_operator`` or ``row`` fails numerically it
    is ``RankDeficient`` (a ``SingularMetric`` too) or ``AsymmetryExceeded``.
    A flagged row is NaN."""
    params = list(chart.sample_box.grid(grid))
    flags = np.full(len(params), "ok", dtype=object)
    values = np.full((len(params), width), math.nan)
    for k, q in enumerate(params):
        if chart.is_singular(*q):
            flags[k] = "singular"
            continue
        try:
            values[k] = row(q, shape_operator(chart, q, h=step))
        except RankDeficient:
            flags[k] = "RankDeficient"
        except AsymmetryExceeded:
            flags[k] = "AsymmetryExceeded"
    return params, flags, values


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
    there is none, which makes that residual ``inf`` too).  A Hopf point has
    no classification residuals.  Every grid maximum is ``inf`` over no
    computed point and NaN if any point is NaN.  A flagged point (see
    ``_grid_table``) or a Hopf point is an error."""
    chart = ruled_chart()

    def row(q: ParamTriple, s: ShapeData) -> list[float]:
        # The last column is 1 where the classification residuals exist.
        try:
            eq = cl.equality_basis(s, tol=tol)
            residuals = [eq.block_residual, eq.trace_residual, cl.ruled_check(s, tol=tol), 1.0]
        except cl.HopfPoint:
            residuals = [math.nan, math.nan, math.nan, 0.0]
        trace = abs(float(np.trace(s.A)))
        return [s.hopf_defect, abs(cv.deficit(s)), trace, abs(s.alpha), *residuals]

    _, flags, t = _grid_table(chart, grid, step, row, 8)
    shaped, classified = t[flags == "ok"], t[t[:, 7] == 1.0]
    min_defect = _worst(shaped[:, 0], np.min)
    max_deficit, max_trace, max_alpha = (_worst(shaped[:, k]) for k in (1, 2, 3))
    max_block, max_trace_res, max_ruled = (_worst(classified[:, k]) for k in (4, 5, 6))
    max_basis = _worst(classified[:, 4:6])
    errors = len(t) - len(classified)
    common = {"grid": grid, "points": len(t), "errors": errors}
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
    (see ``_grid_table``) is an error."""
    chart = sphere_chart(radius)
    expected = cv.geodesic_sphere_deficit(radius)
    model = cv.geodesic_sphere_curvatures(radius)

    def row(q: ParamTriple, s: ShapeData) -> list[float]:
        dev, sign = _principal_deviation(np.linalg.eigvalsh(s.A), model)
        return [abs(cv.deficit(s) - expected), dev, s.hopf_defect, sign]

    _, flags, t = _grid_table(chart, grid, step, row, 4)
    shaped = t[flags == "ok"]
    max_gap, max_eig_dev, max_defect = (_worst(shaped[:, k]) for k in range(3))
    signs = np.unique(shaped[:, 3]).astype(int).tolist()
    errors = len(t) - len(shaped)
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
            normal_signs=signs,
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


def _scan_row(q: ParamTriple, s: ShapeData) -> list[float]:
    """maxRicci, meanCurvSq, deficit, alpha, hopfDefect and traceA at q."""
    max_ric = cv.max_ricci(s)
    mean_sq = s.mean_curvature**2
    deficit = 2.25 * mean_sq + 5.0 - max_ric
    return [max_ric, mean_sq, deficit, s.alpha, s.hopf_defect, float(np.trace(s.A))]


def cmd_scan(
    surface: str,
    grid: int = 12,
    step: float = 1e-5,
    epsilon: float | None = None,
    seed: int | None = None,
    bound: float = -1e-6,
) -> tuple[list[CheckReport], list[ScanRow]]:
    """Emit one row per grid point; every row must satisfy the deficit bound.
    A flagged point (see ``_grid_table``) is a row of NaN fields carrying
    its flag, and an error."""
    chart = parse_surface(surface, epsilon, seed)
    params, flags, values = _grid_table(chart, grid, step, _scan_row, 6)
    rows = [ScanRow(*q, *v, flags=f) for q, f, v in zip(params, flags.tolist(), values.tolist())]
    deficits = values[flags == "ok", 2]
    errors = len(rows) - len(deficits)
    low, high = (_worst(deficits, np.min), _worst(deficits)) if deficits.size else (None, None)
    report = _report(
        "scan_deficit_bound",
        low is not None and low >= bound and errors == 0,
        _worst(np.maximum(0.0, -deficits)),
        surface=chart.name,
        grid=grid,
        rows=len(rows),
        errors=errors,
        min_deficit=low,
        max_deficit=high,
        bound=bound,
    )
    return [report], rows


def cmd_crosscheck(grid: int = 5, step: float = 1e-3, tol: float = 1e-4) -> list[CheckReport]:
    """Compare intrinsic and shape-based curvature tensors on coarse grids of
    both builtin charts, plus the holomorphic-plane curvature of the sphere.
    ``step`` is the metric stencil's; the shape operator keeps its default
    step 1e-5.  A flagged point (see ``_grid_table``), including one whose
    stencil meets a singular metric, counts as an error and fails its check."""
    reports = []
    for chart in (ruled_chart(), sphere_chart(math.pi / 4)):
        _, flags, gaps = _grid_table(
            chart, grid, 1e-5, lambda q, s: [cv.crosscheck_point(chart, q, s, h_metric=step)], 1
        )
        computed = gaps[flags == "ok", 0]
        errors = len(gaps) - len(computed)
        worst = _worst(computed)
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
    x, y = cv._plane_basis(s.xi)
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
    p_sym.add_argument("--strict", action="store_true", help=argparse.SUPPRESS)
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
            _unused("symbolic", strict=args.strict or None)
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
