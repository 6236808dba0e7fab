import math

import numpy as np
import pytest

from cp2ricci import classify as cl
from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.shape import shape_operator


def test_equality_basis_on_ruled_grid():
    chart = ruled_chart()
    for q in chart.sample_box.grid(3):
        s = shape_operator(chart, q)
        rep = cl.equality_basis(s)
        assert abs(rep.entries["a11"]) < 1e-6
        assert abs(rep.entries["a22"]) < 1e-6
        assert abs(rep.entries["a33"]) < 1e-6
        assert abs(rep.entries["a12"] - s.hopf_defect) < 1e-8
        assert rep.block_residual < 1e-6
        assert rep.trace_residual < 1e-6
        # constructed basis is orthonormal and e3 = P e2 kills <P e1, e2>
        gram = rep.basis @ rep.basis.T
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10
        assert abs((s.P @ rep.basis[0]) @ rep.basis[1]) < 1e-10


def test_equality_basis_rejects_hopf_points():
    s = shape_operator(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4))
    with pytest.raises(cl.HopfPoint):
        cl.equality_basis(s)
    with pytest.raises(cl.HopfPoint):
        cl.ruled_check(s)


def test_ruled_check_on_grid_minimal_mode():
    chart = ruled_chart()
    for q in chart.sample_box.grid(3):
        assert cl.ruled_check(shape_operator(chart, q)) < 1e-6


def test_perturbed_points_break_equality_with_deficit_oracle():
    # generic perturbations break equality; the deficit is the cross-check:
    # every point with deficit > 1e-3 must show a trace residual > 1e-6
    chart = perturbed_ruled_chart(0.05, seed=123)
    broken = generic = 0
    rng = np.random.default_rng(11)
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    for _ in range(100):
        q = tuple(lo + (hi - lo) * rng.uniform(size=3))
        s = shape_operator(chart, q)
        d = cv.deficit(s)
        assert d >= -1e-6
        rep = cl.equality_basis(s)
        if d > 1e-3:
            assert rep.trace_residual > 1e-6
            broken += 1
        if rep.trace_residual > 1e-3:
            generic += 1
    assert broken > 50  # the perturbation genuinely leaves the equality set
    assert generic > 50  # and the trace residual is macroscopic generically


def test_perturbed_ruled_residual_matches_direct_aw_norm():
    chart = perturbed_ruled_chart(0.05, seed=123)
    generic = 0
    for q in [(0.4, 1.0, 2.0), (0.8, 4.0, 0.5), (1.1, 2.5, 5.0)]:
        s = shape_operator(chart, q)
        res = cl.ruled_check(s)
        rep = cl.equality_basis(s)
        w = rep.basis[2]
        direct = max(
            float(np.linalg.norm(s.A @ rep.basis[1] - s.hopf_defect * s.xi)),
            float(np.linalg.norm(s.A @ w)),
            abs(s.alpha),
            abs(float(np.trace(s.A))),
        )
        assert abs(res - direct) < 1e-12
        if res > 1e-3:
            generic += 1
    assert generic >= 2


def test_residuals_invariant_under_normal_flip():
    s = shape_operator(ruled_chart(), (0.6, 1.0, 2.0))
    f = s.flip_normal()
    a, b = cl.equality_basis(s), cl.equality_basis(f)
    assert abs(a.block_residual - b.block_residual) < 1e-12
    assert abs(a.trace_residual - b.trace_residual) < 1e-12
    assert abs(cl.ruled_check(s) - cl.ruled_check(f)) < 1e-12


def test_hopf_equality_radii():
    radii = cl.hopf_equality_radii()
    assert radii.r_sphere == math.pi / 4
    assert abs(radii.r_tube - 0.33311971) < 1e-7
    assert radii.agreement < 1e-12
    assert radii.bisection_residual < 1e-9
    s5 = math.sqrt(5.0)
    assert abs(radii.r_tube_closed_form - math.atan((1 + s5 - math.sqrt(2 + 2 * s5)) / 2)) == 0.0


def test_tube_balance_has_exactly_one_sign_change():
    rs = np.linspace(0.01, math.pi / 4 - 0.01, 10_000)
    signs = np.sign([cl.tube_balance(r) for r in rs])
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1


def test_closed_form_radius_solves_quartic():
    # tan r satisfies t^4 - 2 t^3 - 2 t^2 - 2 t + 1 = 0
    t = math.tan(cl.tube_radius_closed_form())
    assert abs(t**4 - 2 * t**3 - 2 * t**2 - 2 * t + 1) < 1e-14


def test_bisection_requires_sign_change():
    with pytest.raises(cl.NoRoot):
        cl._bisect(lambda x: x * x + 1.0, -1.0, 1.0)
