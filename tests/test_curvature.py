import dataclasses
import math

import numpy as np
import pytest

from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.frames import RankDeficient
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


def _crosscheck(chart, q, **kwargs):
    return cv.crosscheck_point(chart, q, shape_operator(chart, q), **kwargs)


def test_intrinsic_matches_gauss_curvature():
    assert _crosscheck(ruled_chart(), (0.6, 1.0, 2.0)) < 1e-4
    assert _crosscheck(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4)) < 1e-4


def test_coarse_step_breaks_the_crosscheck():
    assert _crosscheck(ruled_chart(), (0.6, 1.0, 2.0), h_metric=1e-1) > 1e-4


def _christoffel_loops(g, dg):
    """Gamma^d_{ab} = (1/2) g^dc (d_a g_bc + d_b g_ac - d_c g_ab), index by index."""
    ginv = np.linalg.inv(g)
    gamma = np.zeros((3, 3, 3))
    for d in range(3):
        for a in range(3):
            for b in range(3):
                s = 0.0
                for c in range(3):
                    s += ginv[d, c] * (dg[a, b, c] + dg[b, a, c] - dg[c, a, b])
                gamma[d, a, b] = 0.5 * s
    return gamma


def _riemann_lower_loops(g, gamma, dgamma):
    """R_{abcd} = g_ed R^e_{abc}, R^d_{abc} = d_a G^d_bc - d_b G^d_ac
    + G^d_ae G^e_bc - G^d_be G^e_ac, index by index."""
    r = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    for f in range(3):
                        up = dgamma[a, f, b, c] - dgamma[b, f, a, c]
                        for e in range(3):
                            up += gamma[f, a, e] * gamma[e, b, c] - gamma[f, b, e] * gamma[e, a, c]
                        r[a, b, c, d] += g[f, d] * up
    return r


def _random_metric_data(rng):
    m = rng.normal(size=(3, 3))
    g = m @ m.T + 3.0 * np.eye(3)
    dg = rng.normal(size=(3, 3, 3))
    dg = dg + dg.transpose(0, 2, 1)  # each d_c g is symmetric
    return g, dg


def test_christoffel_matches_index_loops():
    rng = np.random.default_rng(11)
    for _ in range(20):
        g, dg = _random_metric_data(rng)
        gamma = cv.christoffel(g, dg)
        assert np.max(np.abs(gamma - _christoffel_loops(g, dg))) < 1e-13
        assert np.array_equal(gamma, gamma.transpose(0, 2, 1))


def test_christoffel_batches_over_leading_axes():
    rng = np.random.default_rng(12)
    data = [_random_metric_data(rng) for _ in range(4)]
    batched = cv.christoffel(np.array([g for g, _ in data]), np.array([dg for _, dg in data]))
    for (g, dg), gamma in zip(data, batched):
        assert np.max(np.abs(gamma - cv.christoffel(g, dg))) < 1e-15


def test_riemann_lower_matches_index_loops():
    rng = np.random.default_rng(13)
    for _ in range(20):
        g, _ = _random_metric_data(rng)
        gamma = rng.normal(size=(3, 3, 3))
        dgamma = rng.normal(size=(3, 3, 3, 3))
        r = cv.riemann_lower(g, gamma, dgamma)
        expected = _riemann_lower_loops(g, gamma, dgamma)
        assert np.max(np.abs(r - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))


@pytest.mark.parametrize(
    "chart", [ruled_chart(), sphere_chart(math.pi / 6), perturbed_ruled_chart(0.05, 3)],
    ids=lambda c: c.name,
)
def test_intrinsic_riemann_symmetries(chart):
    rng = np.random.default_rng(14)
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    for _ in range(5):
        q = tuple(float(x) for x in lo + (hi - lo) * rng.random(3))
        r = cv.intrinsic_riemann(chart, q)
        scale = np.max(np.abs(r))
        assert np.array_equal(r, -r.transpose(1, 0, 2, 3))
        bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)  # R_abcd + R_bcad + R_cabd
        assert np.max(np.abs(bianchi)) < 1e-12 * scale
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-4 * scale
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < 1e-4 * scale


def test_intrinsic_riemann_evaluates_the_metric_at_25_points():
    chart = ruled_chart()
    points = []

    def evaluate(*q):
        points.append(q)
        return chart.evaluate(*q)

    counted = dataclasses.replace(chart, evaluate=evaluate)
    r = cv.intrinsic_riemann(counted, (0.6, 1.0, 2.0))
    assert len(points) == len(set(points)) == 25
    assert np.array_equal(r, cv.intrinsic_riemann(chart, (0.6, 1.0, 2.0)))


def _per_point_intrinsic_riemann(chart, q, h=1e-3):
    """The stencil as it was written per point: one ``induced_metric`` call
    per stencil point, memoized by offset, and the Christoffel stencil built
    from lookups; kept as the reference for the stacked stencil array."""
    metric = {}

    def at(k):
        return tuple(x + h * i for x, i in zip(q, k.tolist()))

    def g_at(k):
        key = tuple(k.tolist())
        if key not in metric:
            metric[key] = cv.induced_metric(chart, at(k))
        return metric[key]

    E = np.eye(3, dtype=int)
    centres = np.vstack([np.zeros(3, dtype=int), *(s * e for e in E for s in (1, -1))])
    if any(chart.is_singular(*at(k)) for k in centres):
        raise cv.SingularMetric("stencil centre in the singular locus")
    g = np.array([g_at(k) for k in centres])
    dg = np.array([[(g_at(k + e) - g_at(k - e)) / (2.0 * h) for e in E] for k in centres])
    if not (np.isfinite(g).all() and np.isfinite(dg).all()):
        raise cv.SingularMetric("non-finite metric on the stencil")
    gamma = cv.christoffel(g, dg)
    dgamma = (gamma[1::2] - gamma[2::2]) / (2.0 * h)
    return cv.riemann_lower(g[0], gamma[0], dgamma)


_STENCIL_CHARTS = [ruled_chart(), sphere_chart(math.pi / 6), perturbed_ruled_chart(0.05, 3)]


def _sample_points(chart, n, seed):
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    rng = np.random.default_rng(seed)
    return [tuple(float(x) for x in row) for row in lo + (hi - lo) * rng.random((n, 3))]


@pytest.mark.parametrize("chart", _STENCIL_CHARTS, ids=lambda c: c.name)
def test_stencil_array_matches_the_per_point_stencil(chart):
    for q in _sample_points(chart, 100, 15):
        r = cv.intrinsic_riemann(chart, q)
        expected = _per_point_intrinsic_riemann(chart, q)
        assert np.max(np.abs(r - expected)) <= 1e-9 * np.max(np.abs(expected))


@pytest.mark.parametrize("chart", _STENCIL_CHARTS, ids=lambda c: c.name)
def test_stacked_stencil_metrics_are_exactly_symmetric(chart):
    for q in _sample_points(chart, 10, 16):
        G = cv._stencil_metric(chart, q, 1e-3)
        assert G.shape == (25, 3, 3)
        assert np.array_equal(G, G.swapaxes(-1, -2))


def test_stencil_tables():
    E = np.eye(3, dtype=int)
    assert cv.K.shape == (25, 3) and len({tuple(k) for k in cv.K.tolist()}) == 25
    centres = cv.K[:7]
    assert centres.tolist() == [
        [0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]
    ]
    assert np.array_equal(cv.K[cv.PLUS], centres[:, None, :] + E)
    assert np.array_equal(cv.K[cv.MINUS], centres[:, None, :] - E)
    assert set(cv.PLUS.ravel()) | set(cv.MINUS.ravel()) == set(range(25))


def test_singular_stencil_metric_raises_singular_metric():
    # u = 0.3 with h = 0.3 puts a stencil centre on u = 0, where the
    # t-partial vanishes and the metric is singular.
    with pytest.raises(cv.SingularMetric):
        cv.intrinsic_riemann(ruled_chart(), (0.3, 1.0, 2.0), h=0.3)
    with pytest.raises(cv.SingularMetric):
        cv.intrinsic_riemann(perturbed_ruled_chart(math.nan, 0), (0.6, 1.0, 2.0))
    assert issubclass(cv.SingularMetric, RankDeficient)


def test_stencil_centre_in_the_singular_locus_raises_singular_metric():
    # The centre (0.0005, 1, 2) is inside the ruled chart's declared singular
    # margin although its metric is invertible.
    chart = ruled_chart()
    assert chart.is_singular(0.0005, 1.0, 2.0)
    with pytest.raises(cv.SingularMetric):
        cv.intrinsic_riemann(chart, (0.3005, 1.0, 2.0), h=0.3)


def test_ricci_selfcheck_runs():
    cv.ricci_selfcheck(n=10)
