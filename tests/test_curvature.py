import math

import numpy as np
import pytest

from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.shape import ShapeData, shape_operator


def _sphere_model_data(r):
    """Principal-frame data of the radius-r geodesic sphere: basis (xi, X, PX)."""
    A = np.diag(cv.geodesic_sphere_curvatures(r))
    xi = np.array([1.0, 0.0, 0.0])
    P = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return ShapeData.from_matrices(A, P, xi)


def _flat_data():
    return ShapeData.from_matrices(np.zeros((3, 3)), np.zeros((3, 3)), np.array([1.0, 0, 0]))


def test_riemann_gauss_constant_curvature_limit():
    s = _flat_data()
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 3))
        expected = (y @ z) * x - (x @ z) * y
        assert np.max(np.abs(cv.riemann_gauss(s, x, y, z) - expected)) < 1e-14


def test_riemann_gauss_vanishes_on_equal_arguments():
    s = _sphere_model_data(math.pi / 4)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, z = rng.normal(size=(2, 3))
        assert np.max(np.abs(cv.riemann_gauss(s, x, x, z))) < 1e-14


def test_holomorphic_plane_curvature_is_five_at_quarter_pi():
    # term-by-term expansion 1 + 3 + 1 of the curvature formula
    s = _sphere_model_data(math.pi / 4)
    e2, e3 = np.eye(3)[1], np.eye(3)[2]
    assert abs(cv.riemann_gauss(s, e2, e3, e3) @ e2 - 5.0) < 1e-14


def test_riemann_gauss_antisymmetries_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = cv.random_shape_data(rng)
        x, y, z, w = rng.normal(size=(4, 3))
        r1 = cv.riemann_gauss(s, x, y, z)
        r2 = cv.riemann_gauss(s, y, x, z)
        assert np.max(np.abs(r1 + r2)) < 1e-12 * max(1, np.max(np.abs(r1)))
        lhs = cv.riemann_gauss(s, x, y, z) @ w
        rhs = cv.riemann_gauss(s, x, y, w) @ z
        assert abs(lhs + rhs) < 1e-12 * max(1, abs(lhs))


def test_ricci_constant_curvature_limit():
    assert np.max(np.abs(cv.ricci_matrix(_flat_data()) - 2.0 * np.eye(3))) < 1e-14


def test_ricci_eigenvalues_of_sphere_models():
    # hand contraction: {2, 6, 6} at pi/4 and max 10 at pi/6
    eigs4 = np.linalg.eigvalsh(cv.ricci_matrix(_sphere_model_data(math.pi / 4)))
    assert np.max(np.abs(eigs4 - np.array([2.0, 6.0, 6.0]))) < 1e-12
    assert abs(cv.max_ricci(_sphere_model_data(math.pi / 6)) - 10.0) < 1e-12


def test_max_ricci_matches_one_parameter_maximization():
    # oracle: maximize S(X, X) over X = cos(phi) xi + sin(phi) Y
    s = _sphere_model_data(math.pi / 6)
    y = np.eye(3)[1]
    values = [
        cv.ricci_quadratic(s, math.cos(phi) * s.xi + math.sin(phi) * y)
        for phi in np.linspace(0.0, math.pi, 2001)
    ]
    assert abs(max(values) - cv.max_ricci(s)) < 1e-6


def test_closed_form_equals_direct_contraction_on_random_data():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = cv.random_shape_data(rng)
        cv.ricci_matrix(s, check_tol=1e-12)  # raises on disagreement


def test_deficit_values():
    assert abs(cv.deficit(_sphere_model_data(math.pi / 4))) < 1e-12
    assert abs(cv.deficit(_sphere_model_data(math.pi / 6)) - 1.0 / 3.0) < 1e-12
    s = shape_operator(ruled_chart(), (0.6, 1.0, 2.0))
    assert abs(cv.deficit(s)) < 1e-6
    s4 = shape_operator(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4))
    assert abs(cv.deficit(s4)) < 1e-6
    s6 = shape_operator(sphere_chart(math.pi / 6), (0.3, 0.7, 0.4))
    assert abs(cv.deficit(s6) - 1.0 / 3.0) < 1e-6


def test_geodesic_sphere_deficit_closed_form():
    assert abs(cv.geodesic_sphere_deficit(math.pi / 4)) < 1e-12
    assert abs(cv.geodesic_sphere_deficit(math.pi / 6) - 1.0 / 3.0) < 1e-12
    with pytest.raises(ValueError):
        cv.geodesic_sphere_deficit(2.0)


def test_min_sectional_constant_curvature():
    s = _flat_data()
    k, _ = cv.min_sectional(s)
    assert abs(k - 1.0) < 1e-10
    # all planes tie at curvature 1
    rng = np.random.default_rng(7)
    normals = rng.normal(size=(40, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    assert max(abs(cv.plane_curvature(s, n) - 1.0) for n in normals) < 1e-14


def test_plane_curvature_matches_ricci_identity():
    # dimension 3: K(plane normal to n) = tau/2 - Ric(n, n)
    rng = np.random.default_rng(4)
    for _ in range(10):
        s = cv.random_shape_data(rng)
        ric = cv.ricci_matrix(s)
        normals = rng.normal(size=(20, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        identity = np.array([0.5 * np.trace(ric) - n @ ric @ n for n in normals])
        direct = np.array([cv.plane_curvature(s, n) for n in normals])
        assert np.max(np.abs(identity - direct)) < 1e-12


def test_min_sectional_is_attained_and_minimal():
    rng = np.random.default_rng(8)
    for _ in range(20):
        s = cv.random_shape_data(rng)
        k, n = cv.min_sectional(s)
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
        assert abs(k - cv.plane_curvature(s, n)) < 1e-12
        normals = rng.normal(size=(200, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        assert all(k <= cv.plane_curvature(s, m) + 1e-12 for m in normals)


def test_delta2_at_nearly_tied_top_ricci_eigenvalues():
    # regression: a plane search missed the minimum here by 2.5e-4, where the
    # top two Ricci eigenvalues nearly coincide
    s = shape_operator(perturbed_ruled_chart(0.05, 1950078598), (0.3, 6.1, 4.1))
    rep = cv.curvature_report(s)
    assert abs(rep.delta2 - rep.max_ricci) < 1e-5
    assert cv.min_sectional(s)[0] == rep.min_sectional


def test_gauss_tensor_matches_riemann_gauss():
    rng = np.random.default_rng(9)
    basis = np.eye(3)
    for _ in range(50):
        s = cv.random_shape_data(rng)
        tensor = cv._gauss_tensor(s)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    direct = cv.riemann_gauss(s, basis[i], basis[j], basis[k])
                    assert np.max(np.abs(tensor[i, j, k] - direct)) < 1e-14


def test_ricci_guard_rejects_non_finite_data():
    s = ShapeData.from_matrices(np.full((3, 3), np.nan), np.zeros((3, 3)), np.array([1.0, 0, 0]))
    with pytest.raises(AssertionError):
        cv.ricci_matrix(s)


def test_delta2_equals_max_ricci_at_sampled_points():
    # the dimension-3 identity
    for chart in (ruled_chart(), sphere_chart(math.pi / 6)):
        for q in chart.sample_box.grid(2):
            rep = cv.curvature_report(shape_operator(chart, q))
            assert abs(rep.delta2 - rep.max_ricci) < 1e-5
            assert abs(rep.scalar_curvature - np.sum(rep.ricci_eigenvalues)) < 1e-12
            assert abs(
                rep.deficit - (2.25 * rep.mean_curv_sq + 5.0 - rep.max_ricci)
            ) < 1e-12


def test_min_sectional_of_ruled_point_matches_defect():
    # analytic oracle: min K = 1 - beta^2 on the plane spanned by xi and U
    s = shape_operator(ruled_chart(), (0.6, 1.0, 2.0))
    k, _ = cv.min_sectional(s)
    assert abs(k - (1.0 - s.hopf_defect**2)) < 1e-8


def test_curvature_quantities_invariant_under_normal_flip():
    s = shape_operator(ruled_chart(), (0.7, 1.3, 0.9))
    f = s.flip_normal()
    assert abs(cv.deficit(s) - cv.deficit(f)) < 1e-12
    assert abs(cv.max_ricci(s) - cv.max_ricci(f)) < 1e-12
    k1, _ = cv.min_sectional(s)
    k2, _ = cv.min_sectional(f)
    assert abs(k1 - k2) < 1e-12


def test_metric_is_exactly_symmetric():
    g = cv.induced_metric(ruled_chart(), (0.6, 1.0, 2.0))
    assert np.array_equal(g, g.T)


def test_intrinsic_matches_gauss_curvature():
    assert cv.crosscheck_point(ruled_chart(), (0.6, 1.0, 2.0)) < 1e-4
    assert cv.crosscheck_point(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4)) < 1e-4


def test_coarse_step_breaks_the_crosscheck():
    assert cv.crosscheck_point(ruled_chart(), (0.6, 1.0, 2.0), h_metric=1e-1) > 1e-4


def test_ricci_selfcheck_runs():
    cv.ricci_selfcheck(n=10)
