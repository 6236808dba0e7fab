import dataclasses
import math
import warnings

import numpy as np
import pytest

from cp2ricci import cli, shape
from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.frames import RankDeficient, build_frame
from cp2ricci.shape import AsymmetryExceeded, ShapeData, shape_operator, shape_operator_grid
from helpers import box_grid, flip_normal, moved, near_singular_box, rephased

# Regression baseline: grid minimum of the Hopf defect over the default
# 16^3 ruled box, frozen after the first full run.
RULED_GRID_MIN_DEFECT = 0.3093362495989864


def invariant_residuals(s: ShapeData) -> dict[str, float]:
    """Deviations of ``s`` from the structural invariants of A, P and xi."""
    return {
        "P_skew": float(np.max(np.abs(s.P + s.P.T))),
        "P_xi": float(np.linalg.norm(s.P @ s.xi)),
        "P_squared": float(np.max(np.abs(s.P @ s.P + np.eye(3) - np.outer(s.xi, s.xi)))),
        "xi_unit": abs(float(np.linalg.norm(s.xi)) - 1.0),
        "A_symmetric": float(np.max(np.abs(s.A - s.A.T))),
    }


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
        for q in box_grid(chart.sample_box, 3):
            s = shape_operator(chart, q)
            res = invariant_residuals(s)
            assert res["P_skew"] < 1e-10
            assert res["P_xi"] < 1e-10
            assert res["P_squared"] < 1e-10
            assert res["xi_unit"] < 1e-10
            assert res["A_symmetric"] == 0.0
            assert s.asymmetry < 1e-6


def _flipped_shape_operator(monkeypatch, q):
    """``shape_operator`` at q with every frame's normal negated."""
    build = shape.build_frame

    def flipped(chart, q):
        frame = build(chart, q)
        rows = frame.rows * np.array([[1.0], [1.0], [1.0], [1.0], [-1.0]])
        rows.setflags(write=False)
        return dataclasses.replace(frame, rows=rows)

    with monkeypatch.context() as m:
        m.setattr(shape, "build_frame", flipped)
        return shape_operator(ruled_chart(), q)


def test_normal_sign_flip_negates_A_and_xi(monkeypatch):
    q = (0.6, 1.0, 2.0)
    a = shape_operator(ruled_chart(), q)
    b = _flipped_shape_operator(monkeypatch, q)
    assert np.max(np.abs(a.A + b.A)) < 1e-12
    assert np.max(np.abs(a.xi + b.xi)) < 1e-12
    assert np.max(np.abs(a.P - b.P)) == 0.0
    assert abs(a.hopf_defect - b.hopf_defect) < 1e-12
    eigs_a = np.sort(np.abs(np.linalg.eigvalsh(a.A)))
    eigs_b = np.sort(np.abs(np.linalg.eigvalsh(b.A)))
    assert np.max(np.abs(eigs_a - eigs_b)) < 1e-12


def test_flip_helper_matches_pipeline_flip(monkeypatch):
    q = (0.5, 2.5, 1.5)
    a = flip_normal(shape_operator(ruled_chart(), q))
    b = _flipped_shape_operator(monkeypatch, q)
    assert np.max(np.abs(a.A - b.A)) < 1e-12
    assert np.max(np.abs(a.xi - b.xi)) < 1e-12


def _with_stencil_normals(monkeypatch, normals):
    """``shape_operator`` on the ruled chart with the center normal set to
    e_0 of R^6, the six stencil normals (at q + h e_0, q - h e_0, q + h e_1,
    ...) set to ``normals``, and the asymmetry tolerance infinite."""
    build = shape.build_frame
    rows4 = iter([np.eye(6)[0], *normals])

    def patched(chart, q):
        frame = build(chart, q)
        rows = frame.rows.copy()
        rows[4] = next(rows4)
        rows.setflags(write=False)
        return dataclasses.replace(frame, rows=rows)

    with monkeypatch.context() as m:
        m.setattr(shape, "build_frame", patched)
        m.setattr(shape, "ASYM_TOL", math.inf)
        return shape_operator(ruled_chart(), (0.6, 1.0, 2.0))


def test_stencil_normals_are_flipped_only_where_their_dot_is_negative(monkeypatch):
    e = np.eye(6)  # the center normal is e[0]
    normals = [e[1], e[0] + e[3], e[2] - e[0], e[0] + e[3], 2.0 * e[4], e[0]]  # dots 0, 1, -1, 1, 0, 1
    aligned = [-m if m.dot(e[0]) < 0.0 else m for m in normals]
    # Adding e[0] to every aligned normal makes each dot positive and keeps
    # every difference exact, so no normal of the second call is flipped.
    got = _with_stencil_normals(monkeypatch, normals)
    want = _with_stencil_normals(monkeypatch, [m + e[0] for m in aligned])
    assert np.array_equal(got.A, want.A)
    assert not np.array_equal(got.A, _with_stencil_normals(monkeypatch, [m + e[0] for m in normals]).A)


def test_a_nan_stencil_normal_is_an_asymmetry(monkeypatch):
    e = np.eye(6)
    with pytest.raises(AsymmetryExceeded):
        _with_stencil_normals(monkeypatch, [e[1], np.full(6, np.nan), *e[2:6]])


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
    for q in box_grid(chart.sample_box, 5):
        s = shape_operator(chart, q)
        assert abs(s.hopf_defect - math.tan(q[0])) < 1e-8
        min_defect = min(min_defect, s.hopf_defect)
    assert min_defect > 0.0
    assert abs(min_defect - RULED_GRID_MIN_DEFECT) < 1e-8
    assert abs(RULED_GRID_MIN_DEFECT - math.tan(0.3)) < 1e-9


def test_sphere_charts_are_hopf():
    for r in (math.pi / 4, math.pi / 6):
        chart = sphere_chart(r)
        for q in box_grid(chart.sample_box, 3):
            assert shape_operator(chart, q).hopf_defect < 1e-8


def test_asymmetry_guard_raises(monkeypatch):
    monkeypatch.setattr(shape, "ASYM_TOL", 0.0)
    with pytest.raises(AsymmetryExceeded):
        shape_operator(ruled_chart(), (0.6, 1.0, 2.0))


def test_asymmetry_guard_fails_on_nan(monkeypatch):
    # a comparison with NaN is false, so the guard must fail on it
    monkeypatch.setattr(shape, "ASYM_TOL", float("nan"))
    with pytest.raises(AsymmetryExceeded):
        shape_operator(ruled_chart(), (0.6, 1.0, 2.0))


def test_from_matrices_derived_scalars():
    A = np.diag([0.0, 1.0, 1.0])
    xi = np.array([1.0, 0.0, 0.0])
    P = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    s = ShapeData.from_matrices(A, P, xi)
    assert s.alpha == 0.0
    assert s.hopf_defect == 0.0
    assert abs(s.mean_curvature - 2.0 / 3.0) < 1e-15
    assert max(invariant_residuals(s).values()) < 1e-15


# -- the batched kernel against the per-point shape operator ---------------------


def _grid_against_per_point(chart, qs, h=1e-5):
    """``shape_operator_grid`` at ``qs``, checked against ``shape_operator`` at
    each q: the same flag (the class name of the exception it raises, or
    ``ok``) and, where ``ok``, the same bits of A, P, xi and ``coeffs``;
    NaN where flagged.  Returns the flags."""
    g = shape_operator_grid(chart, qs, h)
    assert g.flags.shape == (len(qs),)
    for k, q in enumerate(qs):
        try:
            s = shape_operator(chart, q, h)
        except (RankDeficient, AsymmetryExceeded) as exc:
            assert g.flags[k] == type(exc).__name__, q
            assert all(np.isnan(x[k]).all() for x in (g.A, g.P, g.xi, g.coeffs)), q
            continue
        assert g.flags[k] == "ok", q
        assert np.array_equal(g.A[k], s.A) and np.array_equal(g.P[k], s.P), q
        assert np.array_equal(g.xi[k], s.xi) and np.array_equal(g.coeffs[k], build_frame(chart, q).coeffs), q
    return g.flags.tolist()


@pytest.mark.parametrize(
    "make",
    [
        ruled_chart,
        lambda: sphere_chart(math.pi / 4),
        lambda: sphere_chart(math.pi / 6),
        lambda: perturbed_ruled_chart(0.05, 0),
        lambda: perturbed_ruled_chart(0.2, 3),
        lambda: sphere_chart(1.57),
    ],
    ids=["ruled", "sphere:pi/4", "sphere:pi/6", "perturbed-ruled:0.05,0", "perturbed-ruled:0.2,3", "sphere:1.57"],
)
def test_shape_operator_grid_is_the_per_point_shape_operator_bitwise(make):
    chart = make()
    assert _grid_against_per_point(chart, list(box_grid(chart.sample_box, 4))) == ["ok"] * 64


def test_shape_operator_grid_aligns_a_stencil_normal_across_the_sign_rule():
    # Between t - h and t the normal's first component of largest modulus
    # changes, so the sign rule flips the stencil normal at t - h.
    chart, q = sphere_chart(math.pi / 4), (1.1, 1.2, 0.297095)
    n = build_frame(chart, q).rows[4]
    assert n.dot(build_frame(chart, (1.1, 1.2, q[2] - 1e-5)).rows[4]) < 0.0
    assert _grid_against_per_point(chart, [q, (1.1, 1.2, 0.3)]) == ["ok", "ok"]


def test_shape_operator_grid_flags_a_non_finite_chart_quietly():
    chart = perturbed_ruled_chart(math.nan, 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flags = _grid_against_per_point(chart, list(box_grid(chart.sample_box, 2)))
    assert flags == ["RankDeficient"] * 8


@pytest.mark.parametrize("make", [ruled_chart, lambda: sphere_chart(math.pi / 4)], ids=["ruled", "sphere"])
def test_a_non_finite_parameter_is_flagged_quietly_by_both_kernels(make):
    # math.cos of an infinity raises, so the per-point kernel rejects the
    # point before any chart call.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        flags = _grid_against_per_point(make(), [(math.inf, 1.0, 2.0), (0.6, -math.inf, 2.0)])
    assert flags == ["RankDeficient"] * 2


def test_a_gram_overflow_is_flagged_quietly_by_both_kernels():
    # Partials of order 1e160 overflow the Gram matrix W W^T of every frame.
    base = ruled_chart()
    chart = dataclasses.replace(base, partials=lambda *q: 1e160 * base.partials(*q))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _grid_against_per_point(chart, [(0.6, 1.0, 2.0)]) == ["RankDeficient"]


@pytest.mark.parametrize("make", [ruled_chart, lambda: sphere_chart(math.pi / 4)], ids=["ruled", "sphere"])
def test_shape_operator_grid_agrees_on_the_near_singular_box(make):
    # The declared-singular edge is computable, so every point is ok.
    chart = near_singular_box(make())
    assert _grid_against_per_point(chart, list(box_grid(chart.sample_box, 3))) == ["ok"] * 27


def test_shape_operator_grid_flags_each_rank_deficient_frame():
    # u = 0 fails at the centre; u = h only at the stencil point u - h = 0.
    qs = [(0.0, 1.0, 2.0), (1e-5, 1.0, 2.0), (0.6, 1.0, 2.0), (math.pi / 2, 1.0, 2.0)]
    flags = _grid_against_per_point(ruled_chart(), qs)
    assert flags == ["RankDeficient", "RankDeficient", "ok", "RankDeficient"]


def test_shape_operator_grid_flags_a_coarse_step_as_asymmetry():
    chart = ruled_chart()
    flags = _grid_against_per_point(chart, list(box_grid(chart.sample_box, 4)), h=2e-3)
    assert set(flags) == {"ok", "AsymmetryExceeded"}


def test_shape_operator_grid_of_no_points_is_empty():
    g = shape_operator_grid(ruled_chart(), [])
    assert g.flags.shape == (0,) and g.xi.shape == (0, 3)
    assert g.A.shape == g.P.shape == g.coeffs.shape == (0, 3, 3)


# The fibre gauge theta = 2 sin(u + 2 v) + t.  Per chart, the largest gaps
# that test_shape_operator_is_gauge_invariant_to_the_fd_floor measured on its
# 100 seeded points at the default step, both relative: the best-sign
# eigenvalue gap over max(1, max |eig|) and the deficit gap over
# max(1, |deficit|).  Each bound is GAUGE_FACTOR times its measured maximum.
GAUGE_FACTOR = 10.0
GAUGE_MEASURED = {
    "ruled": (1.44e-9, 4.44e-15),
    "sphere": (8.66e-10, 1.02e-9),
    "perturbed": (2.38e-9, 3.25e-9),
}


def _theta(q):
    u, v, t = q
    return 2.0 * math.sin(u + 2.0 * v) + t


def _dtheta(q):
    c = math.cos(q[0] + 2.0 * q[1])
    return np.array([2.0 * c, 4.0 * c, 1.0])


@pytest.mark.parametrize("name", GAUGE_MEASURED)
def test_shape_operator_is_gauge_invariant_to_the_fd_floor(name):
    # The rephased chart lifts the same hypersurface, so its principal
    # curvatures (up to sign) and deficit are those of the chart.  The FD
    # route meets that only to O(h^2), with a constant set by dtheta: about
    # 1e-9 at the default step, except the ruled deficit, at rounding.  So
    # is the asymmetry guard's verdict: a point flagged for either chart is
    # not compared (one point of the perturbed chart passes unrephased only).
    makers = {
        "ruled": ruled_chart,
        "sphere": lambda: sphere_chart(math.pi / 6),
        "perturbed": lambda: perturbed_ruled_chart(0.2, 3),
    }
    chart = makers[name]()
    moved = rephased(chart, _theta, _dtheta)
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    points = (lo + (hi - lo) * np.random.default_rng(0).uniform(size=(100, 3))).tolist()
    eig_gaps, deficit_gaps = [], []
    for q in points:
        try:
            a, b = shape_operator(chart, tuple(q)), shape_operator(moved, tuple(q))
        except AsymmetryExceeded:
            continue
        eigs = np.linalg.eigvalsh(a.A)
        gap, _ = cli._principal_deviation(np.linalg.eigvalsh(b.A), eigs)
        eig_gaps.append(gap / max(1.0, float(np.max(np.abs(eigs)))))
        deficit_gaps.append(abs(cv.deficit(a) - cv.deficit(b)) / max(1.0, abs(cv.deficit(a))))
    assert len(eig_gaps) >= 95
    eig_bound, deficit_bound = (GAUGE_FACTOR * m for m in GAUGE_MEASURED[name])
    assert max(eig_gaps) < eig_bound and max(deficit_gaps) < deficit_bound, (max(eig_gaps), max(deficit_gaps))


# Per chart, the largest relative gaps that
# test_shape_operator_grid_is_invariant_under_a_unitary_move measured on its 50
# seeded points: the best-sign eigenvalue gap over max(1, max |eig|), the
# deficit gap over max(1, |deficit|) and the Hopf defect gap over
# max(1, hopf defect).  Each bound is UNITARY_FACTOR times its measured maximum.
UNITARY_FACTOR = 10.0
UNITARY_MEASURED = {
    "ruled": (1.31e-11, 2.66e-15, 8.42e-12),
    "sphere": (8.66e-11, 9.12e-11, 6.69e-11),
    "perturbed": (1.52e-11, 7.01e-11, 1.99e-11),
}


@pytest.mark.parametrize("name", UNITARY_MEASURED)
def test_shape_operator_grid_is_invariant_under_a_unitary_move(name):
    # A seeded random unitary moves the lift, not the hypersurface's geometry:
    # the grid flags the same points, and at each ok point the principal
    # curvatures (up to sign), the deficit and the Hopf defect agree to the
    # FD route's rounding floor, about 1e-16 / h = 1e-11 relative.
    makers = {
        "ruled": ruled_chart,
        "sphere": lambda: sphere_chart(math.pi / 6),
        "perturbed": lambda: perturbed_ruled_chart(0.2, 3),
    }
    chart, rng = makers[name](), np.random.default_rng(0)
    U, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    U = U * (r.diagonal() / np.abs(r.diagonal()))  # Haar-distributed
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    points = [tuple(q) for q in (lo + (hi - lo) * rng.uniform(size=(50, 3))).tolist()]
    a, b = shape_operator_grid(chart, points), shape_operator_grid(moved(chart, U), points)
    assert a.flags.tolist() == b.flags.tolist()
    gaps = []
    for k in np.flatnonzero(a.flags == "ok").tolist():
        s, m = (ShapeData.from_matrices(g.A[k], g.P[k], g.xi[k]) for g in (a, b))
        eigs = np.linalg.eigvalsh(s.A)
        gap, _ = cli._principal_deviation(np.linalg.eigvalsh(m.A), eigs)
        gaps.append((
            gap / max(1.0, float(np.max(np.abs(eigs)))),
            abs(cv.deficit(s) - cv.deficit(m)) / max(1.0, abs(cv.deficit(s))),
            abs(s.hopf_defect - m.hopf_defect) / max(1.0, s.hopf_defect),
        ))
    assert len(gaps) >= 45
    worst = np.max(gaps, axis=0)
    assert (worst < UNITARY_FACTOR * np.array(UNITARY_MEASURED[name])).all(), worst
