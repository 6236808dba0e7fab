"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with the measured quantities at the stated tolerances."""

import math
import random
import time
from fractions import Fraction

from cp2ricci import cli
from cp2ricci import curvature as cv
from cp2ricci.charts import ruled_chart, sphere_chart
from cp2ricci.exact.checks import tube_radius_closed_form
from cp2ricci.exact.mpoly import MPoly, variables
from cp2ricci.exact.resultant import sturm_count
from cp2ricci.report import EXACT_ZERO
from cp2ricci.shape import shape_operator
from helpers import box_grid
from sylvester import bareiss_det, cofactor_det


def _line(ok: bool, name: str, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")


def test_criterion_ruled_equality():
    """16^3 grid of the ruled chart: equality, minimality, and both
    classification residuals below 1e-6, in under 30 s single-threaded."""
    t0 = time.perf_counter()
    reports = cli.cmd_check_ruled(grid=16, step=1e-5, tol=1e-6)
    elapsed = time.perf_counter() - t0
    by_name = {r.name: r for r in reports}
    ok = all(r.status == "pass" for r in reports) and elapsed < 30.0
    _line(
        ok,
        "ruled equality",
        f"max deficit {by_name['ruled_deficit'].max_abs_residual:.2e}, "
        f"max |tr A| {by_name['ruled_minimality'].max_abs_residual:.2e}, "
        f"max |alpha| {by_name['ruled_alpha'].max_abs_residual:.2e}, "
        f"basis residual {by_name['ruled_equality_basis'].max_abs_residual:.2e}, "
        f"ruled-form residual {by_name['ruled_form'].max_abs_residual:.2e}, "
        f"min defect {by_name['ruled_hopf_defect_positive'].details['grid_min_hopf_defect']:.6f}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_sphere_equality():
    """r = pi/4: deficit 0 +- 1e-6 and principal curvatures {0, 1, 1} +- 1e-7;
    r = pi/6: deficit 1/3 +- 1e-6 against the closed-form oracle."""
    quarter = {r.name: r for r in cli.cmd_check_sphere(math.pi / 4, grid=6)}
    ok4 = quarter["sphere_deficit"].status == "pass"
    ok_eig = quarter["sphere_principal_curvatures"].status == "pass"
    assert abs(cv.geodesic_sphere_deficit(math.pi / 6) - 1.0 / 3.0) < 1e-12
    sixth = {r.name: r for r in cli.cmd_check_sphere(math.pi / 6, grid=6)}
    ok6 = sixth["sphere_deficit"].status == "pass"
    gap6 = 0.0
    chart = sphere_chart(math.pi / 6)
    for q in box_grid(chart.sample_box, 4):
        gap6 = max(gap6, abs(cv.deficit(shape_operator(chart, q)) - 1.0 / 3.0))
    ok = ok4 and ok_eig and ok6 and gap6 < 1e-6
    _line(
        ok,
        "sphere equality",
        f"pi/4 deficit gap {quarter['sphere_deficit'].max_abs_residual:.2e}, "
        f"eig deviation {quarter['sphere_principal_curvatures'].max_abs_residual:.2e}, "
        f"pi/6 deficit-vs-1/3 gap {gap6:.2e}",
    )
    assert ok


def test_criterion_tube_radius():
    """check tube certifies the Hopf equality radii exactly: r_sphere = pi/4
    and r_tube = the arctangent closed form, 0.33311971 +- 1e-7."""
    reports = cli.cmd_check_tube()
    d = reports[0].details
    ok = reports[0].status == "pass" and reports[0].max_abs_residual == EXACT_ZERO
    _line(
        ok,
        "tube radius",
        f"r_tube {d['r_tube']:.10f}, {sum(d['facts'].values())}/{len(d['facts'])} exact facts",
    )
    assert ok
    assert d["r_sphere"] == math.pi / 4
    assert d["r_tube"] == tube_radius_closed_form()
    assert abs(d["r_tube"] - 0.33311971) < 1e-7


def test_criterion_symbolic_suite_exact():
    """All six symbolic checks pass with exact equality, the resultant equals
    the factored target, total runtime under 5 minutes."""
    t0 = time.perf_counter()
    reports = cli.cmd_symbolic(None)
    elapsed = time.perf_counter() - t0
    ok = all(r.status == "pass" and r.max_abs_residual == EXACT_ZERO for r in reports) and elapsed < 300.0
    resultant = next(r for r in reports if r.name == "symbolic_resultant")
    _line(
        ok,
        "symbolic suite",
        f"{len(reports)} checks exact, resultant sign {resultant.details.get('sign')}, "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_inequality_strictness():
    """Perturbed-ruled scan (eps=0.05, 12^3): every row deficit >= -1e-6 and
    at least one row above 1e-3."""
    reports, rows = cli.cmd_scan("perturbed-ruled:0.05,0", grid=12, step=1e-5)
    deficits = [r.deficit for r in rows if r.flags == "ok"]
    ok = (
        reports[0].status == "pass"
        and len(deficits) == len(rows) == 12**3
        and min(deficits) >= -1e-6
        and max(deficits) > 1e-3
    )
    _line(
        ok,
        "inequality strictness",
        f"{len(rows)} rows, min deficit {min(deficits):.3e}, max {max(deficits):.3e}",
    )
    assert ok


def test_criterion_oracle_equivalences():
    """Independent-route agreements: intrinsic vs shape-based curvature on
    5^3 grids of both charts (1e-4); closed-form Ricci vs contraction on 1000
    random inputs (1e-12); delta2 = maxRic (1e-5) at sampled points; Sturm
    counts vs factoring on 100 random products; Bareiss vs cofactor on random
    polynomial matrices."""
    cross = cli.cmd_crosscheck(grid=5, step=1e-3, tol=1e-4)
    ok_cross = all(r.status == "pass" for r in cross)
    worst_cross = max(
        r.max_abs_residual for r in cross if isinstance(r.max_abs_residual, float)
    )

    shapes = random.Random(42)
    for _ in range(1000):
        cv.ricci_matrix(cv.random_shape_data(shapes))

    worst_delta2 = 0.0
    for chart in (ruled_chart(), sphere_chart(math.pi / 6)):
        for q in box_grid(chart.sample_box, 3):
            rep = cv.curvature_report(shape_operator(chart, q))
            worst_delta2 = max(worst_delta2, abs(rep.delta2 - rep.max_ricci))
    ok_delta2 = worst_delta2 < 1e-5

    pyrng = random.Random(20240810)
    (x,) = variables("x")
    sturm_ok = True
    for _ in range(100):
        roots = set()
        while len(roots) < pyrng.randint(1, 5):
            roots.add(Fraction(pyrng.randint(-10, 10), pyrng.randint(1, 5)))
        p = MPoly.const(1, ("x",))
        for r in roots:
            p = p * (x - r)
        lo = Fraction(pyrng.randint(-12, 0))
        hi = lo + Fraction(pyrng.randint(1, 25))
        sturm_ok &= sturm_count(p, "x", lo, hi) == sum(1 for r in roots if lo < r < hi)

    vars_ = ("x", "y")
    det_ok = True
    for _ in range(5):
        m = [
            [
                MPoly(
                    vars_,
                    {
                        (pyrng.randint(0, 1), pyrng.randint(0, 1)): pyrng.randint(-3, 3)
                        for _ in range(2)
                    },
                )
                for _ in range(4)
            ]
            for _ in range(4)
        ]
        det_ok &= bareiss_det(m) == cofactor_det(m)

    ok = ok_cross and ok_delta2 and sturm_ok and det_ok
    _line(
        ok,
        "oracle equivalences",
        f"crosscheck max {worst_cross:.2e}, ricci contraction 1000/1000, "
        f"delta2 gap {worst_delta2:.2e}, sturm 100/100, bareiss-vs-cofactor 5/5",
    )
    assert ok
