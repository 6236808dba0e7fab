import dataclasses
import functools
import math
import random
import sys
import types
import warnings

import numpy as np
import pytest

from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.frames import RankDeficient, build_frame
from cp2ricci.shape import ShapeData, shape_operator, shape_operator_grid
from helpers import box_grid, flip_normal, gauss_riemann_per_shape, induced_metric, intrinsic_riemann, riemann_gauss


def _sphere_model_data(r):
    """Principal-frame data of the radius-r geodesic sphere: basis (xi, X, PX)."""
    A = np.diag(cv.geodesic_sphere_curvatures(r))
    xi = np.array([1.0, 0.0, 0.0])
    P = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return ShapeData.from_matrices(A, P, xi)


def ricci_quadratic(s, x):
    """Closed-form S(X, X) = 2|X|^2 + 3|PX|^2 + tr(A)<AX,X> - |AX|^2."""
    px, ax = s.P @ x, s.A @ x
    return float(2.0 * (x @ x) + 3.0 * (px @ px) + np.trace(s.A) * (ax @ x) - ax @ ax)


def _flat_data():
    return ShapeData.from_matrices(np.zeros((3, 3)), np.zeros((3, 3)), np.array([1.0, 0, 0]))


def _apply(R, x, y, z):
    """R(X, Y)Z from the frame components R[x, y, z, w] = <R(e_x, e_y) e_z, e_w>."""
    return np.einsum("xyzw,x,y,z->w", R, x, y, z)


def test_gauss_tensor_constant_curvature_limit():
    R = cv._gauss_tensor(_flat_data())
    rng = np.random.default_rng(0)
    for _ in range(20):
        x, y, z = rng.normal(size=(3, 3))
        expected = (y @ z) * x - (x @ z) * y
        assert np.max(np.abs(_apply(R, x, y, z) - expected)) < 1e-14


def test_gauss_tensor_vanishes_on_equal_arguments():
    R = cv._gauss_tensor(_sphere_model_data(math.pi / 4))
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, z = rng.normal(size=(2, 3))
        assert np.max(np.abs(_apply(R, x, x, z))) < 1e-14


def test_holomorphic_plane_curvature_is_five_at_quarter_pi():
    # term-by-term expansion 1 + 3 + 1 of the curvature formula, on the plane
    # (e2, e3) normal to xi = e1
    s = _sphere_model_data(math.pi / 4)
    R = cv._gauss_tensor(s)
    assert abs(R[1, 2, 2, 1] - 5.0) < 1e-14
    assert abs(cv.plane_curvature(R, s.xi) - 5.0) < 1e-14


def test_gauss_tensor_antisymmetries_random_inputs():
    rng, shapes = np.random.default_rng(2), random.Random(2)
    for _ in range(50):
        R = cv._gauss_tensor(cv.random_shape_data(shapes))
        x, y, z, w = rng.normal(size=(4, 3))
        r1 = _apply(R, x, y, z)
        r2 = _apply(R, y, x, z)
        assert np.max(np.abs(r1 + r2)) < 1e-12 * max(1, np.max(np.abs(r1)))
        lhs = _apply(R, x, y, z) @ w
        rhs = _apply(R, x, y, w) @ z
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
        ricci_quadratic(s, math.cos(phi) * s.xi + math.sin(phi) * y)
        for phi in np.linspace(0.0, math.pi, 2001)
    ]
    assert abs(max(values) - cv.max_ricci(s)) < 1e-6


def test_closed_form_equals_direct_contraction_on_random_data():
    shapes = random.Random(3)
    for _ in range(1000):
        cv.ricci_matrix(cv.random_shape_data(shapes))  # raises on disagreement


def test_ricci_guard_catches_a_small_error_in_the_closed_form(monkeypatch):
    # The guard is relative to the cancelling summands, max(1, |direct|,
    # |A|_F^2), still small enough on random data that a 1e-10 error in one
    # entry of the closed form trips it at every draw.
    monkeypatch.setattr(cv, "_TWO_EYE", np.diag([2.0 + 1e-10, 2.0, 2.0]))
    shapes = random.Random(3)
    for _ in range(1000):
        with pytest.raises(cv.RicciMismatch):
            cv.ricci_matrix(cv.random_shape_data(shapes))


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
    assert abs(cv.geodesic_sphere_deficit(math.pi / 4)) < 1e-30
    assert abs(cv.geodesic_sphere_deficit(math.pi / 6) - 1.0 / 3.0) < 1e-12
    for r in (0.05, 0.3, math.pi / 5, 0.9, 1.2, 1.57):
        cot = 1.0 / math.tan(2.0 * r)
        assert abs(cv.geodesic_sphere_deficit(r) - cot**2) <= 1e-15 * cot**2
    with pytest.raises(ValueError):
        cv.geodesic_sphere_deficit(2.0)
    # near r = 0 the model overflows to inf, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cv.geodesic_sphere_deficit(1e-300) == math.inf
        assert cv.geodesic_sphere_deficit(1e-310) == math.inf


def test_min_sectional_constant_curvature():
    s = _flat_data()
    assert abs(cv.curvature_report(s).min_sectional - 1.0) < 1e-10
    # all planes tie at curvature 1
    rng = np.random.default_rng(7)
    normals = rng.normal(size=(40, 3))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    R = cv._gauss_tensor(s)
    assert max(abs(cv.plane_curvature(R, n) - 1.0) for n in normals) < 1e-14


def test_plane_curvature_matches_ricci_identity():
    # dimension 3: K(plane normal to n) = tau/2 - Ric(n, n)
    rng, shapes = np.random.default_rng(4), random.Random(4)
    for _ in range(10):
        s = cv.random_shape_data(shapes)
        ric = cv.ricci_matrix(s)
        normals = rng.normal(size=(20, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        identity = np.array([0.5 * np.trace(ric) - n @ ric @ n for n in normals])
        R = cv._gauss_tensor(s)
        direct = np.array([cv.plane_curvature(R, n) for n in normals])
        assert np.max(np.abs(identity - direct)) < 1e-12


def test_min_sectional_is_attained_and_minimal():
    rng, shapes = np.random.default_rng(8), random.Random(8)
    for _ in range(20):
        s = cv.random_shape_data(shapes)
        rep = cv.curvature_report(s)
        k, n = rep.min_sectional, rep.min_plane_normal
        assert abs(np.linalg.norm(n) - 1.0) < 1e-14
        R = cv._gauss_tensor(s)
        assert k == cv.plane_curvature(R, n)
        normals = rng.normal(size=(200, 3))
        normals /= np.linalg.norm(normals, axis=1)[:, None]
        assert all(k <= cv.plane_curvature(R, m) + 1e-12 for m in normals)


def test_delta2_at_nearly_tied_top_ricci_eigenvalues():
    # regression: a plane search missed the minimum here by 2.5e-4, where the
    # top two Ricci eigenvalues nearly coincide
    s = shape_operator(perturbed_ruled_chart(0.05, 1950078598), (0.3, 6.1, 4.1))
    rep = cv.curvature_report(s)
    assert abs(rep.delta2 - rep.max_ricci) < 1e-5
    assert rep.min_sectional == cv.plane_curvature(cv._gauss_tensor(s), rep.min_plane_normal)


def test_gauss_tensor_of_stacked_shapes_is_the_per_point_tensor_bitwise():
    shapes = [cv.random_shape_data(random.Random(seed)) for seed in range(12)]
    A, P = (np.array([getattr(s, k) for s in shapes]).reshape(3, 4, 3, 3) for k in "AP")
    T = cv._gauss_tensor(types.SimpleNamespace(A=A, P=P))  # two leading axes
    assert T.shape == (3, 4, 3, 3, 3, 3)
    assert T.tobytes() == np.array([cv._gauss_tensor(s) for s in shapes]).tobytes()
    # The kernel's record is read the same way.
    chart = sphere_chart(math.pi / 6)
    qs = list(box_grid(chart.sample_box, 3))
    per_point = np.array([cv._gauss_tensor(shape_operator(chart, q)) for q in qs])
    assert cv._gauss_tensor(shape_operator_grid(chart, qs)).tobytes() == per_point.tobytes()


def test_gauss_tensor_matches_riemann_gauss():
    shapes = random.Random(9)
    basis = np.eye(3)
    for _ in range(50):
        s = cv.random_shape_data(shapes)
        tensor = cv._gauss_tensor(s)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    direct = riemann_gauss(s, basis[i], basis[j], basis[k])
                    assert np.max(np.abs(tensor[i, j, k] - direct)) < 1e-14


def test_ricci_guard_rejects_non_finite_data():
    s = ShapeData.from_matrices(np.full((3, 3), np.nan), np.zeros((3, 3)), np.array([1.0, 0, 0]))
    with pytest.raises(cv.RicciMismatch):
        cv.ricci_matrix(s)
    # main's self-check handler catches AssertionError
    assert issubclass(cv.RicciMismatch, AssertionError)


def test_delta2_equals_max_ricci_at_sampled_points():
    # the dimension-3 identity
    for chart in (ruled_chart(), sphere_chart(math.pi / 6)):
        for q in box_grid(chart.sample_box, 2):
            rep = cv.curvature_report(shape_operator(chart, q))
            assert abs(rep.delta2 - rep.max_ricci) < 1e-5
            assert abs(rep.scalar_curvature - np.sum(rep.ricci_eigenvalues)) < 1e-12
            assert abs(
                rep.deficit - (2.25 * rep.mean_curv_sq + 5.0 - rep.max_ricci)
            ) < 1e-12


def test_delta2_detects_an_error_in_the_ricci_tensor(monkeypatch):
    # delta2 reads min K through the direct contraction of R, so an error E
    # in ricci_matrix shows as delta2 - max_ricci = tr(E)/2 - E(n, n); for
    # E = 1e-3 I that is 5e-4, far above the 1e-5 gate.
    ricci = cv.ricci_matrix
    monkeypatch.setattr(cv, "ricci_matrix", lambda s: ricci(s) + 1e-3 * np.eye(3))
    for chart in (ruled_chart(), sphere_chart(math.pi / 6)):
        for q in box_grid(chart.sample_box, 2):
            rep = cv.curvature_report(shape_operator(chart, q))
            assert abs(rep.delta2 - rep.max_ricci) > 1e-5


def test_min_sectional_of_ruled_point_matches_defect():
    # analytic oracle: min K = 1 - beta^2 on the plane spanned by xi and U
    s = shape_operator(ruled_chart(), (0.6, 1.0, 2.0))
    k = cv.curvature_report(s).min_sectional
    assert abs(k - (1.0 - s.hopf_defect**2)) < 1e-8


def test_curvature_quantities_invariant_under_normal_flip():
    s = shape_operator(ruled_chart(), (0.7, 1.3, 0.9))
    f = flip_normal(s)
    assert abs(cv.deficit(s) - cv.deficit(f)) < 1e-12
    assert abs(cv.max_ricci(s) - cv.max_ricci(f)) < 1e-12
    k1 = cv.curvature_report(s).min_sectional
    k2 = cv.curvature_report(f).min_sectional
    assert abs(k1 - k2) < 1e-12


def test_metric_is_exactly_symmetric():
    g = induced_metric(ruled_chart(), (0.6, 1.0, 2.0))
    assert np.array_equal(g, g.T)


def _gauss_coords(chart, q):
    """The shape-based curvature tensor of one point in chart coordinates."""
    return cv.gauss_riemann_coords(build_frame(chart, q).coeffs, cv._gauss_tensor(shape_operator(chart, q)))


def _crosscheck(chart, q, h=1e-3):
    """Max componentwise gap between the intrinsic and the shape-based
    curvature tensors at q."""
    gauss = _gauss_coords(chart, q)
    return float(np.max(np.abs(intrinsic_riemann(chart, q, h) - gauss)))


def test_intrinsic_matches_gauss_curvature():
    assert _crosscheck(ruled_chart(), (0.6, 1.0, 2.0)) < 1e-4
    assert _crosscheck(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4)) < 1e-4


def test_coarse_step_breaks_the_crosscheck():
    assert _crosscheck(ruled_chart(), (0.6, 1.0, 2.0), h=1e-1) > 1e-4


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


def test_difference_weights_are_exact_on_quadratics():
    # f(q + h k) = f0 + h J.k + h^2 k.H.k / 2 on the stencil offsets k
    rng = np.random.default_rng(13)
    for h in (1e-3, 0.25, 1.0):
        f0, J, M = rng.normal(), rng.normal(size=3), rng.normal(size=(3, 3))
        H = M + M.T
        f = f0 + h * cv.K @ J + 0.5 * h * h * np.einsum("na,ab,nb->n", cv.K, H, cv.K)
        assert np.max(np.abs(cv.D1 @ f / h - J)) < 1e-12 * max(1.0, 1.0 / h)
        assert np.max(np.abs(cv.D2 @ f / (h * h) - H)) < 1e-12 * max(1.0, 1.0 / h**2)
        assert np.array_equal(cv.D2, cv.D2.transpose(1, 0, 2))


@pytest.mark.parametrize(
    "chart", [ruled_chart(), sphere_chart(math.pi / 6), perturbed_ruled_chart(0.05, 3)],
    ids=lambda c: c.name,
)
def test_intrinsic_riemann_symmetries(chart):
    rng = np.random.default_rng(14)
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    for _ in range(5):
        q = tuple(float(x) for x in lo + (hi - lo) * rng.random(3))
        r = intrinsic_riemann(chart, q)
        scale = np.max(np.abs(r))
        assert np.array_equal(r, -r.transpose(1, 0, 2, 3))
        bianchi = r + r.transpose(1, 2, 0, 3) + r.transpose(2, 0, 1, 3)  # R_abcd + R_bcad + R_cabd
        assert np.max(np.abs(bianchi)) < 1e-12 * scale
        assert np.max(np.abs(r + r.transpose(0, 1, 3, 2))) < 1e-12 * scale
        assert np.max(np.abs(r - r.transpose(2, 3, 0, 1))) < 1e-12 * scale


def test_intrinsic_riemann_evaluates_the_metric_at_19_points():
    chart = ruled_chart()
    points = []

    def evaluate(*q):
        points.append(q)
        return chart.evaluate(*q)

    counted = dataclasses.replace(chart, evaluate=evaluate)
    r = intrinsic_riemann(counted, (0.6, 1.0, 2.0))
    assert len(points) == len(set(points)) == 19
    assert np.array_equal(r, intrinsic_riemann(chart, (0.6, 1.0, 2.0)))


def _per_point_intrinsic_riemann(chart, q, h=1e-3):
    """The curvature formula transcribed index by index on one
    ``induced_metric`` call per stencil point q + h k:
    R_abcd = (g_bd,ac + g_ac,bd - g_bc,ad - g_ad,bc) / 2
             + Gamma_{e,bd} Gamma^e_ac - Gamma_{e,ad} Gamma^e_bc."""
    E = np.eye(3, dtype=int)

    def g_at(*ks):
        return induced_metric(chart, tuple(x + h * i for x, i in zip(q, sum(ks, 0 * E[0]))))

    g = g_at()
    dg = np.zeros((3, 3, 3))  # dg[c, a, b] = d_c g_ab
    ddg = np.zeros((3, 3, 3, 3))  # ddg[a, c, b, d] = d_a d_c g_bd
    for a in range(3):
        dg[a] = (g_at(E[a]) - g_at(-E[a])) / (2.0 * h)
        for c in range(3):
            if a == c:
                ddg[a, a] = (g_at(E[a]) - 2.0 * g + g_at(-E[a])) / h**2
            else:
                ddg[a, c] = (
                    g_at(E[a], E[c]) - g_at(E[a], -E[c]) - g_at(-E[a], E[c]) + g_at(-E[a], -E[c])
                ) / (4.0 * h**2)
    gamma = _christoffel_loops(g, dg)
    r = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    s = 0.5 * (ddg[a, c, b, d] + ddg[b, d, a, c] - ddg[a, d, b, c] - ddg[b, c, a, d])
                    for e in range(3):
                        for f in range(3):
                            s += g[e, f] * (gamma[f, b, d] * gamma[e, a, c] - gamma[f, a, d] * gamma[e, b, c])
                    r[a, b, c, d] = s
    return r


_STENCIL_CHARTS = [ruled_chart(), sphere_chart(math.pi / 6), perturbed_ruled_chart(0.05, 3)]


def _sample_points(chart, n, seed):
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    rng = np.random.default_rng(seed)
    return [tuple(float(x) for x in row) for row in lo + (hi - lo) * rng.random((n, 3))]


@pytest.mark.parametrize(
    "chart", [sphere_chart(math.pi / 4), sphere_chart(math.pi / 6), ruled_chart()], ids=lambda c: c.name
)
def test_frame_pushed_plane_curvature_matches_the_metric_formula(chart):
    # plane_curvature of R_ijkl = C_ia C_jb C_kc C_ld R_abcd against the
    # coordinate formula R(x, y, y, x) / (g(x, x) g(y, y) - g(x, y)^2) at
    # xc = C^T x, yc = C^T y, on the holomorphic plane and a random plane
    rng = np.random.default_rng(17)
    for q in _sample_points(chart, 20, 17):
        s = shape_operator(chart, q)
        C = build_frame(chart, q).coeffs
        r = intrinsic_riemann(chart, q)
        R = np.einsum("ia,jb,kc,ld,abcd->ijkl", C, C, C, C, r)
        g = induced_metric(chart, q)
        m = rng.normal(size=3)
        for n in (s.xi, m / np.linalg.norm(m)):
            x, y = cv._plane_basis(n)
            xc, yc = C.T @ x, C.T @ y
            num = np.einsum("abcd,a,b,c,d->", r, xc, yc, yc, xc)
            expected = num / ((xc @ g @ xc) * (yc @ g @ yc) - (xc @ g @ yc) ** 2)
            assert abs(cv.plane_curvature(R, n) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("chart", _STENCIL_CHARTS, ids=lambda c: c.name)
def test_stencil_array_matches_the_per_point_stencil(chart):
    for q in _sample_points(chart, 100, 15):
        r = intrinsic_riemann(chart, q)
        expected = _per_point_intrinsic_riemann(chart, q)
        assert np.max(np.abs(r - expected)) <= 1e-9 * np.max(np.abs(expected))


@pytest.mark.parametrize("chart", _STENCIL_CHARTS, ids=lambda c: c.name)
def test_stacked_stencil_metrics_are_exactly_symmetric(chart):
    G, errors = cv._stencil_metric(chart, _sample_points(chart, 10, 16), 1e-3)
    assert G.shape == (10, 19, 3, 3) and errors == [None] * 10
    assert np.array_equal(G, G.swapaxes(-1, -2))


@pytest.mark.parametrize(
    "chart", [ruled_chart(), sphere_chart(math.pi / 4), perturbed_ruled_chart(0.05, 3)], ids=lambda c: c.name
)
def test_batched_riemann_equals_each_centre_alone(chart):
    qs = list(box_grid(chart.sample_box, 3))
    R, errors = cv.intrinsic_riemann_batch(chart, qs)
    assert R.shape == (27, 3, 3, 3, 3) and errors == [None] * 27
    for q, r in zip(qs, R):
        assert np.array_equal(r, intrinsic_riemann(chart, q))


def _mixed_chart():
    """The ruled chart with a declared singular locus at u = 1.2 only (so
    u = 0, where the metric is singular, is computed) and a NaN point at
    (0.6, 1.5, 2.0)."""
    base = ruled_chart()

    def evaluate(*q):
        return np.full(3, complex(math.nan)) if q == (0.6, 1.5, 2.0) else base.evaluate(*q)

    return dataclasses.replace(base, evaluate=evaluate, is_singular=lambda u, v, t: abs(u - 1.2) < 1e-3)


def test_a_batch_flags_exactly_its_bad_centres():
    chart = _mixed_chart()
    good = [(0.6, 1.0, 2.0), (0.9, 0.4, 1.1), (0.3, 2.0, 0.5)]
    bad = {
        (1.2, 1.0, 2.0): "stencil centre or axis neighbour in the singular locus",
        (0.6, 1.5, 2.0): "non-finite metric on the stencil",
        (0.0, 1.0, 2.0): "singular metric at the centre",
    }
    qs = [good[0], *bad, good[1], good[2]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        R, errors = cv.intrinsic_riemann_batch(chart, qs)
    for q, r, error in zip(qs, R, errors):
        if q in bad:
            assert error == f"chart 'ruled' at {q}: {bad[q]}"
            assert np.isnan(r).all()
            with pytest.raises(cv.SingularMetric, match=bad[q]):
                intrinsic_riemann(chart, q)
        else:
            assert error is None
            assert np.array_equal(r, intrinsic_riemann(chart, q))


def test_a_batch_calls_the_chart_19_times_per_evaluated_centre():
    calls = {"evaluate": [], "partials": []}

    def counted(name, f):
        return lambda *q: calls[name].append(q) or f(*q)

    base = _mixed_chart()
    chart = dataclasses.replace(
        base, evaluate=counted("evaluate", base.evaluate), partials=counted("partials", base.partials)
    )
    qs = [(0.6, 1.0, 2.0), (1.2, 1.0, 2.0), (0.9, 0.4, 1.1)]
    _, errors = cv.intrinsic_riemann_batch(chart, qs)
    assert [e is None for e in errors] == [True, False, True]
    stencils = [tuple(x) for q in (qs[0], qs[2]) for x in (np.array(q) + 1e-3 * cv.K).tolist()]
    assert calls["evaluate"] == calls["partials"] == stencils
    # No call at all for a batch of rejected centres, or of none.
    for h, rejected in ((1e-200, qs), (1e-3, [qs[1]]), (1e-3, [])):
        for made in calls.values():
            made.clear()
        R, errors = cv.intrinsic_riemann_batch(chart, rejected, h)
        assert R.shape == (len(rejected), 3, 3, 3, 3) and all(errors)
        assert calls == {"evaluate": [], "partials": []}


def _calls_of(functions, run):
    """``run()`` and the number of calls it made of each Python function in
    ``functions``, counted by the profiler hook (the functions stay as they are)."""
    counts = {f.__code__: 0 for f in functions}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in counts:
            counts[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, [counts[f.__code__] for f in functions]


def _replaced_charts(base):
    """``base`` with its evaluate replaced, with its partials replaced, and
    with both wrapped by ``functools.wraps`` (which copies the array-map record)."""

    def evaluate(*q):
        return base.evaluate(*q)

    def partials(*q):
        return base.partials(*q)

    @functools.wraps(base.evaluate)
    def wrapped_evaluate(*q):
        return base.evaluate(*q)

    @functools.wraps(base.partials)
    def wrapped_partials(*q):
        return base.partials(*q)

    assert wrapped_evaluate.array_jet == base.evaluate.array_jet
    return {
        "evaluate": dataclasses.replace(base, evaluate=evaluate),
        "partials": dataclasses.replace(base, partials=partials),
        "wrapped": dataclasses.replace(base, evaluate=wrapped_evaluate, partials=wrapped_partials),
    }


@pytest.mark.parametrize("base", [ruled_chart(), sphere_chart(math.pi / 4)], ids=lambda c: c.name)
@pytest.mark.parametrize("replaced", ["evaluate", "partials", "wrapped"])
def test_a_replaced_or_wrapped_builtin_chart_is_called_19_times_per_centre(base, replaced):
    chart = _replaced_charts(base)[replaced]
    lo, hi = np.array(base.sample_box.lo), np.array(base.sample_box.hi)
    qs = [tuple(lo + f * (hi - lo)) for f in (0.2, 0.5, 0.7)]
    (R, errors), calls = _calls_of(
        [chart.evaluate, chart.partials], lambda: cv.intrinsic_riemann_batch(chart, qs)
    )
    assert errors == [None] * 3 and calls == [19 * 3, 19 * 3]
    # Row by row, the same bits as the builtin array map.
    (expected, _), calls = _calls_of([base.evaluate, base.partials], lambda: cv.intrinsic_riemann_batch(base, qs))
    assert calls == [0, 0] and np.array_equal(R, expected)


@pytest.mark.parametrize("chart", [ruled_chart(), sphere_chart(math.pi / 4)], ids=lambda c: c.name)
def test_batched_gauss_pullback_equals_the_per_point_pullback_bitwise(chart):
    qs = [q for q in box_grid(chart.sample_box, 5) if not chart.is_singular(*q)]
    shapes = [shape_operator(chart, q) for q in qs]
    assert len(shapes) == 125
    C = np.array([build_frame(chart, q).coeffs for q in qs])
    T = np.array([cv._gauss_tensor(s) for s in shapes])
    R = cv.gauss_riemann_coords(C, T)
    assert R.shape == (125, 3, 3, 3, 3)
    assert R.tobytes() == np.array([gauss_riemann_per_shape(s, c) for s, c in zip(shapes, C)]).tobytes()
    assert cv.gauss_riemann_coords(C[7], T[7]).tobytes() == R[7].tobytes()


def _plane_basis_reference(n):
    """The plane basis by numpy's argmin, norm and cross product."""
    k = int(np.argmin(np.abs(n)))
    u = np.zeros(3)
    u[k] = 1.0
    x = u - (u @ n) * n
    x /= np.linalg.norm(x)
    return x, np.cross(n, x)


def test_plane_basis_is_bit_identical_to_the_numpy_reference():
    rng = np.random.default_rng(18)
    normals = list(rng.normal(size=(10_000, 3)))
    for a, b in rng.normal(size=(500, 2)):  # tied smallest components, either sign
        ties = [a, -a, 3.0 + abs(b)], [a, a, a], [b, 2.0 + abs(a), -b], [0.0, -0.0, b]
        normals += [np.array(v) for v in ties]
    normals += [np.eye(3)[k] * s for k in range(3) for s in (1.0, -1.0)]
    for n in normals:
        n = n / np.linalg.norm(n)
        got, want = cv._plane_basis(n), _plane_basis_reference(n)
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))


def test_stencil_tables():
    offsets = [k for k in np.ndindex(3, 3, 3) if sum(abs(i - 1) for i in k) <= 2]
    assert cv.K.shape == (19, 3)
    assert {tuple(k) for k in cv.K.tolist()} == {tuple(i - 1 for i in k) for k in offsets}
    assert cv.K[:7].tolist() == [
        [0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]
    ]
    assert cv.D1.shape == (3, 19) and cv.D2.shape == (3, 3, 19)


def test_intrinsic_riemann_converges_at_second_order():
    # The error against the shape-based tensor falls 4x per halving of h.
    for chart, q in ((ruled_chart(), (0.6, 1.0, 2.0)), (sphere_chart(math.pi / 4), (0.3, 0.7, 0.4))):
        exact = _gauss_coords(chart, q)
        errors = [np.max(np.abs(intrinsic_riemann(chart, q, h) - exact)) for h in (4e-3, 2e-3, 1e-3)]
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.9 < coarse / fine < 4.1


def test_singular_stencil_metric_raises_singular_metric():
    # u = 0.3 with h = 0.3 puts an axis neighbour on u = 0, where the
    # t-partial vanishes and the metric is singular.
    with pytest.raises(cv.SingularMetric):
        intrinsic_riemann(ruled_chart(), (0.3, 1.0, 2.0), h=0.3)
    with pytest.raises(cv.SingularMetric):
        intrinsic_riemann(perturbed_ruled_chart(math.nan, 0), (0.6, 1.0, 2.0))
    assert issubclass(cv.SingularMetric, RankDeficient)


@pytest.mark.parametrize("h", [1e-200, 1e-150, 1e-17])
def test_step_below_the_parameter_resolution_raises_singular_metric(h):
    # q +- h e_a rounds to q, so the differences would read 0 or 0/0.
    with pytest.raises(cv.SingularMetric, match="below the parameter resolution"):
        intrinsic_riemann(ruled_chart(), (0.6, 1.0, 2.0), h=h)
    with pytest.raises(cv.SingularMetric, match="below the parameter resolution"):
        intrinsic_riemann(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4), h=h)


@pytest.mark.parametrize(
    "chart", [ruled_chart(), sphere_chart(math.pi / 4), perturbed_ruled_chart(0.05, 0)], ids=lambda c: c.name
)
def test_a_non_finite_stencil_centre_or_step_is_flagged_quietly(chart):
    # A non-finite step fails every centre, a non-finite coordinate (on the
    # singular axis or off it) its own centre alone, before the step's
    # resolution or the singular locus is looked at: no warning, no exception,
    # and a finite centre of the same batch keeps its one-centre bits.
    message = "non-finite stencil centre, step or neighbour"
    good = (0.3, 0.7, 0.4) if chart.name.startswith("sphere") else (0.6, 1.0, 2.0)
    bad = [(*good[:a], x, *good[a + 1 :]) for x in (math.inf, -math.inf, math.nan) for a in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (math.inf, -math.inf, math.nan):
            R, errors = cv.intrinsic_riemann_batch(chart, [good], h)
            assert errors == [f"chart {chart.name!r} at {good}: {message}"] and np.isnan(R).all()
        R, errors = cv.intrinsic_riemann_batch(chart, [*bad, good])
    assert errors == [f"chart {chart.name!r} at {q}: {message}" for q in bad] + [None]
    assert np.isnan(R[:-1]).all() and np.array_equal(R[-1], intrinsic_riemann(chart, good))


def test_underflowing_step_squared_raises_singular_metric():
    # At q = 0 every neighbour +-h e_a is distinct from q, but h^2 is
    # subnormal; nothing is evaluated.
    def evaluate(*q):
        raise AssertionError("evaluated")

    chart = dataclasses.replace(ruled_chart(), evaluate=evaluate, is_singular=lambda *q: False)
    for h in (1e-160, 1e-155):
        with pytest.raises(cv.SingularMetric, match="below the parameter resolution"):
            intrinsic_riemann(chart, (0.0, 0.0, 0.0), h=h)


def test_singular_metric_at_the_centre_raises_singular_metric():
    # With no declared singular locus, the centre u = 0 is computed: its
    # t-partial vanishes, so the metric there has a zero row.
    chart = dataclasses.replace(ruled_chart(), is_singular=lambda *q: False)
    assert np.linalg.matrix_rank(induced_metric(chart, (0.0, 1.0, 2.0))) < 3
    with pytest.raises(cv.SingularMetric, match="singular metric at the centre"):
        intrinsic_riemann(chart, (0.0, 1.0, 2.0))


def test_stencil_centre_in_the_singular_locus_raises_singular_metric():
    # The centre (0.0005, 1, 2) is inside the ruled chart's declared singular
    # margin although its metric is invertible.
    chart = ruled_chart()
    assert chart.is_singular(0.0005, 1.0, 2.0)
    with pytest.raises(cv.SingularMetric):
        intrinsic_riemann(chart, (0.3005, 1.0, 2.0), h=0.3)


def test_ricci_selfcheck_runs():
    cv.ricci_selfcheck()
