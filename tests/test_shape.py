import math

import numpy as np
import pytest

from cp2ricci.charts import ruled_chart, sphere_chart
from cp2ricci.shape import AsymmetryExceeded, ShapeData, shape_operator

# Regression baseline: grid minimum of the Hopf defect over the default
# 16^3 ruled box, frozen after the first full run.
RULED_GRID_MIN_DEFECT = 0.3093362495989864


def test_ruled_point_is_minimal_with_principal_direction_defect():
    s = shape_operator(ruled_chart(), (0.6, 1.0, 2.0), h=1e-5)
    assert abs(np.trace(s.A)) < 1e-8
    assert abs(s.alpha) < 1e-8
    assert s.hopf_defect > 0.1


def test_sphere_principal_curvatures_quarter_pi():
    s = shape_operator(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4))
    eigs = np.sort(np.linalg.eigvalsh(s.A))
    model = np.sort([0.0, 1.0, 1.0])
    dev = min(np.max(np.abs(eigs - model)), np.max(np.abs(np.sort(-eigs) - model)))
    assert dev < 1e-7


def test_sphere_principal_curvatures_sixth_pi():
    # classical oracle: 2 cot(2r) and cot(r) twice
    s = shape_operator(sphere_chart(math.pi / 6), (0.3, 0.7, 0.4))
    eigs = np.sort(np.linalg.eigvalsh(s.A))
    model = np.sort([2.0 / math.sqrt(3.0), math.sqrt(3.0), math.sqrt(3.0)])
    dev = min(np.max(np.abs(eigs - model)), np.max(np.abs(np.sort(-eigs) - model)))
    assert dev < 1e-7


def test_structural_invariants_on_grids():
    for chart in (ruled_chart(), sphere_chart(math.pi / 4)):
        for q in chart.sample_box.grid(3):
            s = shape_operator(chart, q)
            res = s.invariant_residuals()
            assert res["P_skew"] < 1e-10
            assert res["P_xi"] < 1e-10
            assert res["P_squared"] < 1e-10
            assert res["xi_unit"] < 1e-10
            assert res["A_symmetric"] == 0.0
            assert s.asymmetry < 1e-6


def test_normal_sign_flip_negates_A_and_xi():
    q = (0.6, 1.0, 2.0)
    a = shape_operator(ruled_chart(), q)
    b = shape_operator(ruled_chart(), q, orient=-1)
    assert np.max(np.abs(a.A + b.A)) < 1e-12
    assert np.max(np.abs(a.xi + b.xi)) < 1e-12
    assert np.max(np.abs(a.P - b.P)) == 0.0
    assert abs(a.hopf_defect - b.hopf_defect) < 1e-12
    eigs_a = np.sort(np.abs(np.linalg.eigvalsh(a.A)))
    eigs_b = np.sort(np.abs(np.linalg.eigvalsh(b.A)))
    assert np.max(np.abs(eigs_a - eigs_b)) < 1e-12


def test_flip_helper_matches_pipeline_flip():
    q = (0.5, 2.5, 1.5)
    a = shape_operator(ruled_chart(), q).flip_normal()
    b = shape_operator(ruled_chart(), q, orient=-1)
    assert np.max(np.abs(a.A - b.A)) < 1e-12
    assert np.max(np.abs(a.xi - b.xi)) < 1e-12


def test_richardson_second_order_error_estimate():
    # error of the h/2 operator is within 4x the extrapolated estimate
    q = (0.6, 1.0, 2.0)
    chart = ruled_chart()
    h = 1e-3
    a_h = shape_operator(chart, q, h=h).A
    a_h2 = shape_operator(chart, q, h=h / 2).A
    ref = shape_operator(chart, q, h=1e-5).A
    estimate = np.max(np.abs(a_h - a_h2)) / 3.0
    actual = np.max(np.abs(a_h2 - ref))
    assert actual <= 4.0 * estimate
    # and the step halving really is second order (ratio near 4)
    a_h4 = shape_operator(chart, q, h=h / 4).A
    d1 = np.max(np.abs(a_h - a_h2))
    d2 = np.max(np.abs(a_h2 - a_h4))
    assert 2.5 < d1 / d2 < 6.0


def test_ruled_defect_positive_with_frozen_grid_minimum():
    # The defect of the ruled chart depends on u alone and equals tan(u)
    # (observed closed form, cross-checked below); the box minimum sits at
    # the u = 0.3 face and is the frozen regression value.
    chart = ruled_chart()
    min_defect = math.inf
    for q in chart.sample_box.grid(5):
        s = shape_operator(chart, q)
        assert abs(s.hopf_defect - math.tan(q[0])) < 1e-8
        min_defect = min(min_defect, s.hopf_defect)
    assert min_defect > 0.0
    assert abs(min_defect - RULED_GRID_MIN_DEFECT) < 1e-8
    assert abs(RULED_GRID_MIN_DEFECT - math.tan(0.3)) < 1e-9


def test_sphere_charts_are_hopf():
    for r in (math.pi / 4, math.pi / 6):
        chart = sphere_chart(r)
        for q in chart.sample_box.grid(3):
            assert shape_operator(chart, q).hopf_defect < 1e-8


def test_asymmetry_guard_raises():
    with pytest.raises(AsymmetryExceeded):
        shape_operator(ruled_chart(), (0.6, 1.0, 2.0), asym_tol=0.0)


def test_asymmetry_guard_fails_on_nan():
    # a comparison with NaN is false, so the guard must fail on it
    with pytest.raises(AsymmetryExceeded):
        shape_operator(ruled_chart(), (0.6, 1.0, 2.0), asym_tol=float("nan"))


def test_from_matrices_derived_scalars():
    A = np.diag([0.0, 1.0, 1.0])
    xi = np.array([1.0, 0.0, 0.0])
    P = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    s = ShapeData.from_matrices(A, P, xi)
    assert s.alpha == 0.0
    assert s.hopf_defect == 0.0
    assert abs(s.mean_curvature - 2.0 / 3.0) < 1e-15
    assert max(s.invariant_residuals().values()) < 1e-15
