"""The benchmark workloads and the correctness gate of every iteration.

Each workload drives public entry points of ``cli``, ``curvature`` and
``exact`` from outside the package, always through module attributes so that
the tracer's rebinding is seen.  One iteration runs the command, serializes
its report (and, for the scan, its CSV) with ``report``, and gates every
output.  An operation is a grid point or a symbolic check; it fails when it
is flagged, gives a non-finite output, gives a verdict other than PASS, or
misses a gate.  A grid verdict covers all its points, so a missed grid-level
gate with no flagged point counts as one failed operation.

On a shared host the machine's speed drifts by a third and more, within
seconds and over minutes, and a time in seconds drifts with it.  So each
iteration follows one run of ``reference``, a fixed computation outside the
package, and the benchmark reports the iteration's time in units of that
run's time: the drift cancels, a change in the program's cost does not.
Grids are small, so that an iteration takes well under a second and the two
runs of a pair see the same machine.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import numpy as np

from cp2ricci import charts, cli, curvature, report, shape
from cp2ricci.frames import RankDeficient
from cp2ricci.shape import AsymmetryExceeded

RULED_GRID = 4
RULED_TOL = 1e-6
SCAN_GRID = 4
SCAN_EPSILON = 0.05
SCAN_BOUND = -1e-6
CROSS_GRID = 2
CROSS_TOL = 1e-4
ORACLE_POINTS = 2  # seeded curvature_report points per oracle chart
DELTA2_TOL = 1e-5  # the gate of tests/test_curvature.py


@dataclass
class Outcome:
    """Gated result of one iteration."""

    ops: int
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    out_bytes: int = 0
    csv_sha256: str | None = None

    def miss(self, problem: str, ops: int = 1) -> None:
        self.problems.append(problem)
        self.failed += ops


def _finite(x: Any) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def gate_report(r: report.CheckReport, tol: float) -> list[str]:
    """Problems with one numeric check report: a verdict other than PASS,
    a residual that is not finite or not below ``tol``, a flagged point, or
    a non-finite numeric detail."""
    problems = []
    if r.status != "pass":
        problems.append(f"{r.name}: status {r.status}")
    if not (_finite(r.max_abs_residual) and r.max_abs_residual < tol):
        problems.append(f"{r.name}: residual {r.max_abs_residual!r} is not finite and below {tol:g}")
    if r.details.get("errors", 0) != 0:
        problems.append(f"{r.name}: {r.details['errors']} flagged points")
    for key, value in r.details.items():
        if isinstance(value, float) and not math.isfinite(value):
            problems.append(f"{r.name}: detail {key} = {value!r}")
    return problems


def gate_symbolic(r: report.CheckReport) -> list[str]:
    problems = []
    if r.status != "pass":
        problems.append(f"{r.name}: status {r.status}")
    if r.max_abs_residual != report.EXACT_ZERO:
        problems.append(f"{r.name}: residual {r.max_abs_residual!r} is not {report.EXACT_ZERO!r}")
    return problems


def gate_row(row: report.ScanRow, bound: float) -> str | None:
    numbers = row.values()[:-1]
    if row.flags != "ok":
        return f"row {numbers[:3]}: flags {row.flags}"
    if not all(_finite(x) for x in numbers):
        return f"row {numbers[:3]}: non-finite field"
    if row.deficit < bound:
        return f"row {numbers[:3]}: deficit {row.deficit!r} < {bound:g}"
    return None


def gate_curvature(rep: curvature.CurvatureReport, bound: float) -> str | None:
    values = [*np.ravel(rep.ricci_eigenvalues), *np.ravel(rep.min_plane_normal)]
    values += [rep.max_ricci, rep.scalar_curvature, rep.mean_curv_sq, rep.deficit]
    values += [rep.min_sectional, rep.delta2]
    if not all(math.isfinite(float(x)) for x in values):
        return "curvature report: non-finite field"
    if not abs(rep.delta2 - rep.max_ricci) < DELTA2_TOL:
        return f"curvature report: |delta2 - max_ricci| = {abs(rep.delta2 - rep.max_ricci):.3e}"
    if rep.deficit < bound:
        return f"curvature report: deficit {rep.deficit!r} < {bound:g}"
    return None


def _gate_grid(out: Outcome, reports: list[report.CheckReport], tol: float) -> None:
    """Gate reports that share one grid: flagged points each fail; any other
    miss fails at least one operation."""
    problems = [p for r in reports for p in gate_report(r, tol)]
    flagged = max((r.details.get("errors", 0) for r in reports), default=0)
    if problems:
        out.problems += problems
        out.failed += max(1, flagged)


def reference() -> float:
    """Seconds for a fixed computation that does not use the package: plain
    float and dict work, exact fractions and small numpy products, the mix
    the package runs, so that a busy or slow machine slows both alike."""
    t0 = time.perf_counter()
    acc, bins = 0.0, {}
    for k in range(15000):
        x = (k * 0.5) ** 0.5
        bins[k % 97] = bins.get(k % 97, 0.0) + x
        acc += x * x
    f = Fraction(1, 3)
    for k in range(1, 400):
        f = f * Fraction(k + 1, k) - Fraction(1, k * k)
    a = np.eye(3) + 0.1
    for _ in range(400):
        a = a @ a
        a = a / np.linalg.norm(a)
    return time.perf_counter() - t0


def _serialize(command: str, config: dict, reports: list[report.CheckReport]) -> int:
    return len(report.report_to_json(report.run_report(command, config, reports)).encode())


@dataclass(frozen=True)
class Workload:
    """A closed-loop workload.  ``make(seed)`` builds the inputs and returns
    the iteration callable."""

    name: str
    points: int  # grid points per timed iteration
    checks: int  # operations per timed iteration that are not grid points
    make: Callable[[int], Callable[[], Outcome]]

    @property
    def ops(self) -> int:
        return self.points + self.checks


def _ruled_check(seed: int) -> Callable[[], Outcome]:
    # The ruled chart has no free parameter, so the seed selects nothing.
    config = {"target": "ruled", "grid": RULED_GRID, "step": 1e-5, "tol": RULED_TOL}

    def run() -> Outcome:
        reports = cli.cmd_check_ruled(grid=RULED_GRID)
        out = Outcome(ops=RULED_GRID**3)
        _gate_grid(out, reports, RULED_TOL)
        for r in reports:
            if r.name == "ruled_hopf_defect_positive":
                gmin = r.details.get("grid_min_hopf_defect")
                if not (_finite(gmin) and gmin > RULED_TOL):
                    out.miss(f"{r.name}: grid minimum {gmin!r} not above {RULED_TOL:g}")
        if len(reports) != 6:
            out.miss(f"expected 6 ruled reports, got {len(reports)}")
        out.out_bytes = _serialize("check", config, reports)
        return out

    return run


def _perturbed_scan(seed: int) -> Callable[[], Outcome]:
    surface = f"perturbed-ruled:{SCAN_EPSILON},{seed}"
    config = {"surface": surface, "grid": SCAN_GRID, "step": 1e-5, "bound": SCAN_BOUND}

    def run() -> Outcome:
        reports, rows = cli.cmd_scan(surface, grid=SCAN_GRID, bound=SCAN_BOUND)
        csv = report.scan_to_csv(rows)
        out = Outcome(ops=SCAN_GRID**3)
        bad_rows = [p for p in (gate_row(row, SCAN_BOUND) for row in rows) if p]
        if len(rows) != out.ops:
            out.miss(f"expected {out.ops} rows, got {len(rows)}")
        out.problems += bad_rows
        out.failed += len(bad_rows)
        problems = [p for r in reports for p in gate_report(r, -SCAN_BOUND)]
        if problems:
            out.problems += problems
            out.failed += 0 if bad_rows else 1
        out.csv_sha256 = hashlib.sha256(csv.encode()).hexdigest()
        out.out_bytes = len(csv.encode()) + _serialize("scan", config, reports)
        return out

    return run


def _oracles(seed: int) -> Callable[[], Outcome]:
    config = {"grid": CROSS_GRID, "step": 1e-3, "tol": CROSS_TOL}
    rng = np.random.default_rng(seed)
    samples = []
    # The two charts on which tests/test_curvature.py gates delta2 = maxRic.
    for chart in (charts.ruled_chart(), charts.sphere_chart(math.pi / 6)):
        lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
        for x in lo + (hi - lo) * rng.random((ORACLE_POINTS, 3)):
            samples.append((chart, (float(x[0]), float(x[1]), float(x[2]))))

    def run() -> Outcome:
        reports = cli.cmd_crosscheck(grid=CROSS_GRID)
        out = Outcome(ops=2 * CROSS_GRID**3 + 1 + len(samples))
        for r in reports:  # each chart report covers its own grid
            problems = gate_report(r, CROSS_TOL)
            if problems:
                out.miss("; ".join(problems), max(1, r.details.get("errors", 0)))
        if len(reports) != 3:
            out.miss(f"expected 3 crosscheck reports, got {len(reports)}")
        for chart, q in samples:
            try:
                problem = gate_curvature(
                    curvature.curvature_report(shape.shape_operator(chart, q)), SCAN_BOUND
                )
            except (RankDeficient, AsymmetryExceeded) as exc:
                problem = type(exc).__name__
            if problem:
                out.miss(f"{problem} at {chart.name} {q}")
        out.out_bytes = _serialize("crosscheck", config, reports)
        return out

    return run


def _symbolic(seed: int) -> Callable[[], Outcome]:
    # The suite has fixed inputs, so the seed selects nothing.
    def run() -> Outcome:
        reports = cli.cmd_symbolic(None)
        out = Outcome(ops=len(cli.ALL_CHECKS))
        for r in reports:
            problems = gate_symbolic(r)
            if problems:
                out.miss("; ".join(problems))
        if len(reports) != out.ops:
            out.miss(f"expected {out.ops} symbolic reports, got {len(reports)}")
        out.out_bytes = _serialize("symbolic", {"names": sorted(cli.ALL_CHECKS)}, reports)
        return out

    return run


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ruled-check", RULED_GRID**3, 0, _ruled_check),
        Workload("perturbed-scan", SCAN_GRID**3, 0, _perturbed_scan),
        Workload("oracles", 2 * CROSS_GRID**3 + 2 * ORACLE_POINTS, 1, _oracles),
        Workload("symbolic", 0, len(cli.ALL_CHECKS), _symbolic),
    )
}


class Runner:
    """Runs one workload's closed loop and keeps every gated outcome."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.iterate = workload.make(seed)
        self.outcomes: list[Outcome] = []

    def _call(self) -> Outcome:
        try:
            return self.iterate()
        except Exception:  # an iteration that raises fails all its operations
            traceback.print_exc()
            out = Outcome(ops=self.workload.ops)
            out.miss(f"iteration raised: {traceback.format_exc(limit=1)!r}", self.workload.ops)
            return out

    def warm(self) -> Outcome:
        """The warm-up iteration: gated, but kept out of ``outcomes``."""
        return self._call()

    def once(self) -> Outcome:
        out = self._call()
        self.outcomes.append(out)
        return out

    def timed(self, tracer=None) -> float:
        """Seconds for one iteration; a tracer gets the outcome index as the
        iteration id of its spans."""
        if tracer is not None:
            tracer.current_iteration = len(self.outcomes)
        t0 = time.perf_counter()
        self.once()
        return time.perf_counter() - t0

    def loop(self, seconds: float) -> tuple[list[float], list[float]]:
        """Closed loop for about ``seconds``: at least one iteration, and no
        new one once it would likely end more than half an iteration late.
        Returns the seconds of each iteration and of the ``reference`` run
        just before it."""
        times: list[float] = []
        refs: list[float] = []
        begin = time.perf_counter()
        while not times or time.perf_counter() - begin + 0.5 * times[-1] < seconds:
            refs.append(reference())
            times.append(self.timed())
        return times, refs
