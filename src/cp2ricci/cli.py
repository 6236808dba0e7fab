"""Command-line orchestration: verification suites, scans, symbolic checks.

Commands, each run by its ``cmd_*`` function in ``COMMANDS``

* ``check ruled``   -- equality, minimality, and ruled-form residuals on a grid
* ``check sphere``  -- deficit against the closed-form model at a given radius
* ``check tube``    -- exact certificate of the Hopf models' equality radii
* ``symbolic``      -- the exact polynomial suite (all checks or a subset)
* ``scan``          -- per-point curvature rows to CSV/JSON
* ``crosscheck``    -- intrinsic vs shape-based curvature tensors

Over the points and ``singular`` flags of ``_grid_points``, ``check`` and
``scan`` walk their grid one point at a time (``_grid_table``); ``crosscheck``
makes one ``chart.jet`` call per chart, then one pass of each kernel for both
charts (``_crosscheck_rows``): per chart the flags and bits of its kernels alone.

A command takes the options its ``cmd_*`` function has parameters for, with
the signature's defaults (scan's ``--tol t`` is ``bound = -t``), plus
``--out`` and, for ``scan``, ``--format``.  ``--strict`` halves every
tolerance the command takes.  Any other explicit option is a usage error.
Likewise a scan surface ``<name>[:<a>[,<b>]]`` is the chart factory
``SURFACES[name]`` called with the arguments its signature declares.

Exit codes: 0 all pass, 1 any fail, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import inspect
import itertools
import math
import sys
from typing import Any, Callable

import numpy as np

from . import classify as cl
from . import curvature as cv
from .charts import ParamTriple, SurfaceChart, perturbed_ruled_chart, ruled_chart, sphere_chart
from .exact.checks import ALL_CHECKS, check_hopf
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
from .shape import AsymmetryExceeded, ShapeData, _shape_grid, _shape_stencil, shape_operator

HOLOMORPHIC_POINT: ParamTriple = (0.3, 0.7, 0.4)  # the sphere point of crosscheck's holomorphic plane


def _report(name: str, ok: bool, residual: float | str, **details: Any) -> CheckReport:
    """A report that passes when ``ok`` and no grid point was flagged
    (``details["errors"]``, 0 where absent)."""
    ok = ok and not details.get("errors")
    return CheckReport(name, "pass" if ok else "fail", residual, details)


def _exact_report(name: str, check: tuple[bool, dict]) -> CheckReport:
    """The report of an exact check's ``(ok, detail)``: residual exact-zero
    if it holds, else inf."""
    ok, detail = check
    return _report(name, ok, EXACT_ZERO if ok else math.inf, **detail)


def _worst(column: np.ndarray, reduce: Callable[[np.ndarray], Any] = np.max) -> float:
    """``reduce`` (max or min) of a column over its computed points: NaN when
    any value is NaN, so a non-finite point fails its check, and ``inf`` over
    no point."""
    return float(reduce(column)) if column.size else math.inf


def _grid_points(chart: SurfaceChart, grid: int) -> tuple[list[ParamTriple], np.ndarray]:
    """The points of ``chart``'s sample box at ``grid`` per axis, float triples of
    ``Box.axes``, and their flags by one (N, 3) array mask: ``singular``, else ``ok``."""
    params = list(itertools.product(*(a.tolist() for a in chart.sample_box.axes(grid))))
    return params, np.where(chart.singular(np.array(params)), "singular", "ok").astype(object)


def _grid_table(
    chart: SurfaceChart,
    grid: int,
    step: float,
    row: Callable[[ParamTriple, ShapeData], list[float]],
    width: int,
) -> tuple[list[ParamTriple], np.ndarray, np.ndarray]:
    """The per-point grid walk of ``check`` and ``scan``: (params, flags,
    values) over ``chart``'s sample box.

    At each ``ok`` point of ``_grid_points`` ``row(q, shape)`` fills one row
    of the (N, width) float array ``values``; at a ``singular`` one nothing
    is computed.  Where ``shape_operator`` or ``row`` fails numerically, or
    the Ricci guard trips, the flag is the exception's class name:
    ``RankDeficient``, ``AsymmetryExceeded`` or ``RicciMismatch``.  A flagged
    row is NaN."""
    params, flags = _grid_points(chart, grid)
    values = np.full((len(params), width), math.nan)
    for k in np.flatnonzero(flags == "ok").tolist():
        try:
            values[k] = row(params[k], shape_operator(chart, params[k], h=step))
        except (RankDeficient, AsymmetryExceeded, cv.RicciMismatch) as exc:
            flags[k] = type(exc).__name__
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
        # The last column is 1 where the classification residuals exist; the
        # ruled_form column adds minimality to the ruled form.
        trace, alpha = abs(float(s.A.trace())), abs(s.alpha)
        try:
            block, balance, form = cl.equality_residuals(s, tol=tol)
            residuals = [block, balance, max(form, alpha, trace), 1.0]
        except cl.HopfPoint:
            residuals = [math.nan, math.nan, math.nan, 0.0]
        return [s.hopf_defect, abs(cv.deficit(s)), trace, alpha, *residuals]

    _, flags, t = _grid_table(chart, grid, step, row, 8)
    shaped, classified = t[flags == "ok"], t[t[:, 7] == 1.0]
    min_defect = _worst(shaped[:, 0], np.min)
    max_deficit, max_trace, max_alpha = (_worst(shaped[:, k]) for k in (1, 2, 3))
    max_block, max_trace_res, max_ruled = (_worst(classified[:, k]) for k in (4, 5, 6))
    max_basis = _worst(classified[:, 4:6])
    errors = len(t) - len(classified)
    common = {"grid": grid, "points": len(t), "errors": errors}
    return _on_grid(chart, [
        _report("ruled_deficit", max_deficit < tol, max_deficit, **common),
        _report("ruled_minimality", max_trace < tol, max_trace, **common),
        _report("ruled_alpha", max_alpha < tol, max_alpha, **common),
        _report(
            "ruled_equality_basis",
            max_basis < tol,
            max_basis,
            block_residual=max_block,
            trace_residual=max_trace_res,
            **common,
        ),
        _report("ruled_form", max_ruled < tol, max_ruled, **common),
        _report(
            "ruled_hopf_defect_positive",
            min_defect > tol,
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
    hopf_tol: float = 1e-8,
) -> list[CheckReport]:
    """Deficit against the closed-form sphere value, to ``tol`` times
    max(1, |expected deficit|), principal curvatures against the classical
    model, and vanishing Hopf defect (below ``hopf_tol``).  A flagged point
    (see ``_grid_table``) is an error."""
    chart = sphere_chart(radius)
    expected = cv.geodesic_sphere_deficit(radius)
    gap_tol = tol * max(1.0, abs(expected))  # relative where the deficit is large
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
        _report("sphere_deficit", max_gap < gap_tol, max_gap, expected_deficit=expected, **common),
        _report(
            "sphere_principal_curvatures",
            max_eig_dev < eig_tol,
            max_eig_dev,
            model=[float(x) for x in model],
            normal_signs=signs,
            **common,
        ),
        _report("sphere_hopf", max_defect < hopf_tol, max_defect, **common),
    ])


def cmd_check_tube() -> list[CheckReport]:
    """Equality radii of the Hopf models, pi/4 for the geodesic sphere and
    the arctangent closed form for the tube, as the exact report of
    ``exact.checks.check_hopf``."""
    return [_exact_report("tube_radius", check_hopf())]


def cmd_symbolic(names: list[str] | None = None) -> list[CheckReport]:
    """Run the exact polynomial suite: the checks ``names`` in the order
    given, or every check in ``ALL_CHECKS`` order when none or only 'all' is
    named.  An unknown or repeated name, or 'all' beside another, is a
    ValueError.  Each check's report is its ``_exact_report``: exact-zero or inf."""
    names = names or ["all"]
    unknown = [n for n in names if n not in ALL_CHECKS and n != "all"]
    if unknown:
        raise ValueError(f"unknown symbolic checks: {', '.join(unknown)}; use {', '.join(ALL_CHECKS)} or all")
    repeated = sorted({n for n in names if names.count(n) > 1})
    if repeated:
        raise ValueError(f"symbolic checks named more than once: {', '.join(repeated)}")
    if "all" in names and len(names) > 1:
        raise ValueError("'all' runs every symbolic check; give it alone")
    run = ALL_CHECKS if names == ["all"] else names
    return [_exact_report(f"symbolic_{n}", ALL_CHECKS[n]()) for n in run]


SURFACES: dict[str, Callable[..., SurfaceChart]] = {
    "ruled": ruled_chart,
    "sphere": sphere_chart,
    "perturbed-ruled": perturbed_ruled_chart,
}


def parse_surface(surface: str) -> SurfaceChart:
    """The chart named by ``surface``, ``<name>[:<a>[,<b>]]``: the factory
    ``SURFACES[name]`` called with the arguments in order, each converted by
    its parameter's annotation.  An unknown name, or a number of arguments
    outside the factory's required-to-total parameter count, is a ValueError;
    so is an argument its annotation or the factory rejects, with a message
    that names the surface and each argument given by its parameter."""
    name, colon, inline = surface.partition(":")
    if name not in SURFACES:
        raise ValueError(f"unknown surface {surface!r}; use {', '.join(SURFACES)}")
    params = inspect.signature(SURFACES[name], eval_str=True).parameters.values()
    args = inline.split(",") if colon else []
    required = sum(p.default is p.empty for p in params)
    if not required <= len(args) <= len(params):
        names = ", ".join(p.name for p in params) or "none"
        raise ValueError(f"surface {surface!r}: {name} takes {required} to {len(params)} arguments ({names})")
    try:
        return SURFACES[name](*(p.annotation(text) for p, text in zip(params, args)))
    except ValueError as exc:
        given = ", ".join(f"{p.name}={text}" for p, text in zip(params, args))
        raise ValueError(f"surface {surface!r} ({given}): {exc}") from None


def _scan_row(q: ParamTriple, s: ShapeData) -> list[float]:
    """maxRicci, meanCurvSq, deficit, alpha, hopfDefect and traceA at q."""
    max_ric = cv.max_ricci(s)
    deficit = cv._ricci_bound(s) - max_ric
    return [max_ric, s.mean_curvature**2, deficit, s.alpha, s.hopf_defect, float(s.A.trace())]


def cmd_scan(
    surface: str,
    grid: int = 12,
    step: float = 1e-5,
    bound: float = -1e-6,
) -> tuple[list[CheckReport], list[ScanRow]]:
    """Emit one row per grid point; every row must satisfy the deficit bound.
    A flagged point (see ``_grid_table``) is a row of NaN fields carrying
    its flag, and an error."""
    chart = parse_surface(surface)
    params, flags, values = _grid_table(chart, grid, step, _scan_row, 6)
    rows = [ScanRow(*q, *v, flags=f) for q, f, v in zip(params, flags.tolist(), values.tolist())]
    deficits = values[flags == "ok", 2]
    errors = len(rows) - len(deficits)
    low, high = (_worst(deficits, np.min), _worst(deficits)) if deficits.size else (None, None)
    report = _report(
        "scan_deficit_bound",
        low is not None and low >= bound,
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


def _crosscheck_rows(
    charts: list[tuple[SurfaceChart, list[ParamTriple]]], grid: int, step: float
) -> list[tuple[np.ndarray, np.ndarray, list[tuple[float, dict[str, str]]]]]:
    """Per (chart, extra) of ``charts``, (flags, gaps, planes): max |R_intrinsic - R_gauss| at
    each ``ok`` grid point, NaN at a flagged one, and the holomorphic-plane curvature and details
    at each point of ``extra``.  A chart's ``ok`` grid points, then ``extra`` (unmasked), take one
    ``chart.jet`` call at their shape and accepted metric stencils; then all charts' rows take one
    shape pass, whose flags precede one Gram and Riemann pass's ``SingularMetric``, and one pullback."""
    runs, jets, failed = [], [], []
    for chart, extra in charts:
        params, flags = _grid_points(chart, grid)
        params, flags = [*params, *extra], np.append(flags, ["ok"] * len(extra))
        qs = [q for q, f in zip(params, flags) if f == "ok"]
        Q, (X, errors) = _shape_stencil(qs), cv._stencil_points(chart, qs, step)
        with np.errstate(over="ignore", invalid="ignore"):
            p, D = chart.jet(np.concatenate([Q, X]))
        jets.append((p[: len(Q)], D[: len(Q)], p[len(Q) :], D[len(Q) :]))
        runs.append((chart, params, flags, len(params) - len(extra)))
        failed += errors
    p, D, pm, Dm = (np.concatenate(x) for x in zip(*jets))
    shapes = _shape_grid(p, D)
    intrinsic, failed = cv._riemann(cv._stencil_gram(pm, Dm, failed), failed, step)
    shaped = shapes.flags == "ok"
    gauss = cv.gauss_riemann_coords(shapes.coeffs[shaped], cv._gauss_tensor(shapes)[shaped])
    live = np.where(shaped & np.not_equal(failed, None), "SingularMetric", shapes.flags)
    gaps = np.full(len(live), math.nan)
    gaps[shaped] = np.abs(gauss - intrinsic[shaped]).reshape(-1, 81).max(axis=1)  # NaN where the stencil failed
    out, end = [], 0
    for chart, params, flags, n in runs:
        ok = flags == "ok"
        rows = slice(end, end := end + int(ok.sum()))
        flags[ok], chart_gaps = live[rows], np.full(len(flags), math.nan)
        chart_gaps[ok], planes = gaps[rows], []
        for q, i in zip(params[n:], range(end - len(params) + n, end)):  # the extra points, last of the rows
            if live[i] == "ok":  # R_ijkl = C_ia C_jb C_kc C_ld R_abcd, the intrinsic tensor in the frame
                R = np.einsum("ia,jb,kc,ld,abcd->ijkl", *[shapes.coeffs[i]] * 4, intrinsic[i])
                planes.append((cv.plane_curvature(R, shapes.xi[i]), {}))
            else:  # NaN, with the shape's flag or the stencil's message as its error
                error = f"SingularMetric: chart {chart.name!r} at {q}: {failed[i]}"
                planes.append((math.nan, {"error": error if live[i] == "SingularMetric" else live[i]}))
        out.append((flags[:n], chart_gaps[:n], planes))
    return out


def cmd_crosscheck(grid: int = 5, step: float = 1e-3, tol: float = 1e-4) -> list[CheckReport]:
    """Intrinsic against shape-based curvature tensors on coarse grids of both
    builtin charts, in one pass (see ``_crosscheck_rows``), plus the holomorphic-plane
    curvature at the sphere's ``HOLOMORPHIC_POINT``.  ``step`` is the stencil's;
    the shape operator keeps 1e-5.  A flagged grid point fails its check."""
    charts = [(ruled_chart(), []), (sphere_chart(math.pi / 4), [HOLOMORPHIC_POINT])]
    reports = []
    for (chart, _), (flags, gaps, planes) in zip(charts, _crosscheck_rows(charts, grid, step)):
        worst, errors = _worst(gaps[flags == "ok"]), int(np.sum(flags != "ok"))
        name = f"crosscheck_{chart.name.split(':')[0]}"
        reports.append(_report(name, worst < tol, worst, grid=grid, step=step, errors=errors))
    ((k_hol, error),) = planes
    name, gap = "crosscheck_sphere_holomorphic_plane", abs(k_hol - 5.0)
    return [*reports, _report(name, gap < tol, gap, value=k_hol, expected=5.0, **error)]


def _finite(positive: bool) -> Callable[[str], float]:
    """The argparse type of ``--tol`` and ``--step``: a finite float that is
    positive, or non-negative unless ``positive``."""

    def finite_float(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            sign = "positive" if positive else "non-negative"
            raise argparse.ArgumentTypeError(f"must be finite and {sign}, got {text!r}")
        return value

    return finite_float


def build_parser() -> argparse.ArgumentParser:
    """Every subcommand takes every option; ``_config`` rejects the ones its
    command has no parameter for."""
    parser = argparse.ArgumentParser(
        prog="cp2ricci",
        description="Curvature verification lab for hypersurface models of the projective plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("check", help="run a named verification suite").add_argument(
        "target", choices=["ruled", "sphere", "tube"]
    )
    sub.add_parser("symbolic", help="run exact polynomial checks").add_argument(
        "names", nargs="*", help=f"subset to run (default all): {', '.join(ALL_CHECKS)}, or 'all'"
    )
    sub.add_parser("scan", help="per-point curvature rows over a surface grid").add_argument(
        "surface", help="ruled | sphere:<radius> | perturbed-ruled[:<epsilon>[,<seed>]]"
    )
    sub.add_parser("crosscheck", help="intrinsic vs shape-based curvature")
    for p in sub.choices.values():
        p.add_argument("--radius", type=float, help="check sphere: sphere radius")
        p.add_argument("--grid", type=int, help="grid points per axis")
        p.add_argument("--step", type=_finite(positive=True), help="finite-difference step")
        p.add_argument("--tol", type=_finite(positive=False), help="pass tolerance (scan: bound -tol)")
        p.add_argument("--strict", action="store_true", default=None, help="halve every tolerance")
        p.add_argument("--format", choices=["csv", "json"], help="scan: row format (csv)")
        p.add_argument("--out", help="write the JSON report (or scan rows) here")
    return parser


COMMANDS: dict[str, Callable[..., Any]] = {
    "check ruled": cmd_check_ruled,
    "check sphere": cmd_check_sphere,
    "check tube": cmd_check_tube,
    "symbolic": cmd_symbolic,
    "scan": cmd_scan,
    "crosscheck": cmd_crosscheck,
}


def _config(name: str, args: argparse.Namespace) -> dict[str, Any]:
    """The run's configuration: the parameters of ``COMMANDS[name]`` in
    signature order, each its explicit option (scan's ``--tol t`` is
    ``bound = -t``) or else its default; then ``strict`` where the command
    has a tolerance, ``--strict`` halving every ``*tol`` and ``bound``; then
    scan's ``format``.  Any other explicit option is a ValueError."""
    skip = ("command", "target", "out")
    given = {k: v for k, v in vars(args).items() if v is not None and k not in skip}
    if name == "scan" and "tol" in given:
        given["bound"] = -given.pop("tol")
    params = inspect.signature(COMMANDS[name]).parameters
    config = {k: given.pop(k, p.default) for k, p in params.items()}
    tols = [k for k in config if k.endswith("tol") or k == "bound"]
    if tols:
        strict = config["strict"] = given.pop("strict", False)
        config.update((k, config[k] * 0.5) for k in tols if strict)
    if name == "scan":
        config["format"] = given.pop("format", "csv")
    if given:
        raise ValueError(f"{name} does not use {', '.join(f'--{k}' for k in given)}")
    return config


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    try:
        cv.ricci_selfcheck()
    except AssertionError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return 1

    name = f"check {args.target}" if args.command == "check" else args.command
    try:
        config = _config(name, args)
        result = COMMANDS[name](**{k: v for k, v in config.items() if k not in ("strict", "format")})
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reports, rows = result if isinstance(result, tuple) else (result, None)

    for r in reports:
        residual = r.max_abs_residual
        shown = residual if isinstance(residual, str) else f"{residual:.3e}"
        print(f"{r.status.upper():4s} {r.name} (max residual {shown})")

    if rows is not None:
        payload = (scan_to_csv if config["format"] == "csv" else scan_to_json)(rows)
        written = f"{len(rows)} rows"
    else:
        if name == "symbolic":  # every check, in run order, when none or 'all' is named
            config["names"] = [n for n in config["names"] if n != "all"] or list(ALL_CHECKS)
        payload = report_to_json(run_report(args.command, config, reports)) + "\n"
        written = "report"
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload)
            print(f"wrote {written} to {args.out}")
        else:
            print(payload, end="")
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 2

    return 0 if passed(reports) else 1


if __name__ == "__main__":
    sys.exit(main())
