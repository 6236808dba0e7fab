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
from helpers import box_grid, flip_normal, moved, near_singular_box, rephased, reparametrized

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


@pytest.mark.parametrize(
    "r, model",
    [(math.pi / 4, [0.0, 1.0, 1.0]), (math.pi / 6, [2.0 / math.sqrt(3.0), math.sqrt(3.0), math.sqrt(3.0)])],
    ids=["quarter_pi", "sixth_pi"],
)
def test_sphere_principal_curvatures(r, model):
    # classical oracle: 2 cot(2r) and cot(r) twice
    s = shape_operator(sphere_chart(r), (0.3, 0.7, 0.4))
    eigs = np.sort(np.linalg.eigvalsh(s.A))
    model = np.sort(model)
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


@pytest.mark.parametrize("tol", [0.0, math.nan], ids=["zero", "nan"])
def test_asymmetry_guard_raises(tol, monkeypatch):
    # a comparison with NaN is false, so the guard must fail on it too
    monkeypatch.setattr(shape, "ASYM_TOL", tol)
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


# -- each route's invariants under three moves of the chart ----------------------

# The charts of INVARIANCE_CASES, by the name their measured gaps are keyed by.
INVARIANCE_CHARTS = {
    "ruled": ruled_chart,
    "sphere": lambda: sphere_chart(math.pi / 6),
    "perturbed": lambda: perturbed_ruled_chart(0.2, 3),
}


def _theta(q):
    """The fibre gauge theta = 2 sin(u + 2 v) + t."""
    u, v, t = q
    return 2.0 * math.sin(u + 2.0 * v) + t


def _dtheta(q):
    c = math.cos(q[0] + 2.0 * q[1])
    return np.array([2.0 * c, 4.0 * c, 1.0])


def _f(Q: np.ndarray) -> np.ndarray:
    """The reparametrisation f(q) = (q0, q1 + 0.3 sin q0, q2 + 0.3 cos q1) of (..., 3) arrays."""
    q0, q1, q2 = np.moveaxis(Q, -1, 0)
    return np.stack([q0, q1 + 0.3 * np.sin(q0), q2 + 0.3 * np.cos(q1)], axis=-1)


def _jac(q: np.ndarray) -> np.ndarray:
    """The Jacobian of ``_f`` at q, row i the gradient of f_i."""
    return np.array([[1.0, 0.0, 0.0], [0.3 * math.cos(q[0]), 1.0, 0.0], [0.0, -0.3 * math.sin(q[1]), 1.0]])


def _haar_unitary(rng: np.random.Generator) -> np.ndarray:
    U, r = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    return U * (r.diagonal() / np.abs(r.diagonal()))  # Haar-distributed


# Each move, from the chart and the test's generator (the unitary draws its U
# before the points): the moved chart and the map f such that the moved chart
# at q lifts the chart's point at f(q), or None for f = identity.  The lift
# moves along its fibres (gauge), by an isometry of CP^2 (unitary) or under a
# change of parameters (reparam); the hypersurface and its geometry stay.
MOVES = {
    "gauge": lambda chart, rng: (rephased(chart, _theta, _dtheta), None),
    "unitary": lambda chart, rng: (moved(chart, _haar_unitary(rng)), None),
    "reparam": lambda chart, rng: (reparametrized(chart, _f, _jac), _f),
}


def _per_point_shapes(chart, qs):
    """``shape_operator`` at each q: flag ``ok`` and its ShapeData, or ``AsymmetryExceeded`` and None."""
    shapes = []
    for q in qs:
        try:
            shapes.append(shape_operator(chart, q))
        except AsymmetryExceeded:
            shapes.append(None)
    return ["AsymmetryExceeded" if s is None else "ok" for s in shapes], shapes


def _grid_shapes(chart, qs):
    """``shape_operator_grid`` at qs: its flags, and a ShapeData at each ``ok`` point, else None."""
    g = shape_operator_grid(chart, qs)
    flags = g.flags.tolist()
    return flags, [ShapeData.from_matrices(g.A[k], g.P[k], g.xi[k]) if f == "ok" else None for k, f in enumerate(flags)]


def _intrinsic_tensors(chart, qs):
    """``intrinsic_riemann_batch`` at qs and h = 1e-3: ``ok`` and R_abcd, or ``SingularMetric`` and None."""
    R, errors = cv.intrinsic_riemann_batch(chart, qs, 1e-3)
    return ["SingularMetric" if e else "ok" for e in errors], [None if e else r for r, e in zip(R, errors)]


# Each route: its values at points, the number of seeded points it is compared
# at and the least number of them where both charts must flag ok.
ROUTES = {
    "point": (_per_point_shapes, 100, 95),
    "grid": (_grid_shapes, 50, 45),
    "intrinsic": (_intrinsic_tensors, 50, 45),
}


def _invariant_gaps(a, b, J: np.ndarray) -> tuple[float, ...]:
    """The relative gaps between a route's value a on the chart and b on the moved chart at one
    point.  Of two shapes: the best-sign principal curvature gap over max(1, max |eig|), the deficit
    gap over max(1, |deficit|), the Hopf defect gap over max(1, hopf defect) and the Ricci eigenvalue
    gap over max(1, max |eig|).  Of two Riemann tensors: max |b - R| over max(1, max |R|), with R the
    tensor a pulled back by J = Jf (R_abcd = J_ia J_jb J_kc J_ld a_ijkl)."""
    if isinstance(a, ShapeData):
        eigs, ricci = np.linalg.eigvalsh(a.A), np.linalg.eigvalsh(cv.ricci_matrix(a))
        gap, _ = cli._principal_deviation(np.linalg.eigvalsh(b.A), eigs)
        return (
            gap / max(1.0, float(np.max(np.abs(eigs)))),
            abs(cv.deficit(a) - cv.deficit(b)) / max(1.0, abs(cv.deficit(a))),
            abs(a.hopf_defect - b.hopf_defect) / max(1.0, a.hopf_defect),
            np.max(np.abs(np.linalg.eigvalsh(cv.ricci_matrix(b)) - ricci)) / max(1.0, float(np.max(np.abs(ricci)))),
        )
    R = np.einsum("ia,jb,kc,ld,ijkl->abcd", J, J, J, J, a)
    return (float(np.max(np.abs(b - R))) / max(1.0, float(np.max(np.abs(R)))),)


# Per (route, move, chart), the largest of each gap of _invariant_gaps measured
# on its seeded points.  Each bound is FACTOR times its measured maximum.
# - The perturbed chart's grid Ricci maximum under the gauge comes from one
#   high-curvature point; its median there is 4.8e-10.
# - Its reparametrisation maxima come from one point where |A| is about 142
#   and the FD operator itself moves by about 3e-7 relative from h = 1e-5 to
#   1e-6; the median gap there is 2.9e-11.
# - The intrinsic route's reparametrisation gaps are the O(h^2) FD error of
#   its metric stencil at h = 1e-3 along the new directions (medians 6.9e-9,
#   2.8e-8 and 1.9e-6).
FACTOR = 10.0
INVARIANCE_CASES = {
    ("point", "gauge", "ruled"): (1.44e-9, 4.44e-15, 3.80e-10, 8.54e-10),
    ("point", "gauge", "sphere"): (8.66e-10, 1.02e-9, 1.62e-9, 4.76e-10),
    ("point", "gauge", "perturbed"): (2.38e-9, 3.25e-9, 6.87e-9, 5.29e-8),
    ("grid", "gauge", "ruled"): (1.41e-9, 4.44e-15, 3.66e-10, 8.54e-10),
    ("grid", "gauge", "sphere"): (8.07e-10, 1.02e-9, 1.52e-9, 4.76e-10),
    ("grid", "gauge", "perturbed"): (2.38e-9, 2.60e-9, 6.87e-9, 5.29e-8),
    ("grid", "unitary", "ruled"): (1.31e-11, 2.66e-15, 8.42e-12, 8.31e-12),
    ("grid", "unitary", "sphere"): (8.66e-11, 9.12e-11, 6.69e-11, 5.46e-11),
    ("grid", "unitary", "perturbed"): (1.52e-11, 7.01e-11, 1.99e-11, 4.56e-11),
    ("grid", "reparam", "ruled"): (2.37e-11, 3.56e-15, 1.75e-11, 1.71e-11),
    ("grid", "reparam", "sphere"): (8.14e-11, 8.69e-11, 1.10e-10, 4.60e-11),
    ("grid", "reparam", "perturbed"): (1.26e-7, 2.74e-7, 3.24e-7, 4.57e-8),
    ("intrinsic", "gauge", "ruled"): (7.24e-10,),
    ("intrinsic", "gauge", "sphere"): (3.23e-10,),
    ("intrinsic", "gauge", "perturbed"): (1.17e-9,),
    ("intrinsic", "unitary", "ruled"): (5.43e-10,),
    ("intrinsic", "unitary", "sphere"): (9.71e-11,),
    ("intrinsic", "unitary", "perturbed"): (7.20e-10,),
    ("intrinsic", "reparam", "ruled"): (1.41e-8,),
    ("intrinsic", "reparam", "sphere"): (2.34e-7,),
    ("intrinsic", "reparam", "perturbed"): (1.63e-5,),
}


@pytest.mark.parametrize("route, move, name", INVARIANCE_CASES)
def test_invariants_agree_under_a_move_of_the_chart(route, move, name):
    # The moved chart lifts the same hypersurface, so each route's invariants
    # are the chart's, to its FD floor: about 1e-16 / h = 1e-11 relative for
    # the shape routes under a unitary move or reparametrisation, though the
    # stencils then step along other directions; O(h^2) under the gauge, with
    # a constant set by dtheta, about 1e-9 (the ruled deficit at rounding).
    # The asymmetry guard is not gauge-invariant, so under the gauge the flags
    # are not compared: a point flagged for either chart is not compared (one
    # point of the perturbed chart passes unrephased only).
    chart, rng = INVARIANCE_CHARTS[name](), np.random.default_rng(0)
    other, f = MOVES[move](chart, rng)
    values, n, least = ROUTES[route]
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    Q = lo + (hi - lo) * rng.uniform(size=(n, 3))
    flags_a, a = values(chart, [tuple(q) for q in (Q if f is None else f(Q)).tolist()])
    flags_b, b = values(other, [tuple(q) for q in Q.tolist()])
    if move != "gauge":
        assert flags_a == flags_b
    ok = [k for k in range(n) if flags_a[k] == flags_b[k] == "ok"]
    assert len(ok) >= least
    worst = np.max([_invariant_gaps(a[k], b[k], np.eye(3) if f is None else _jac(Q[k])) for k in ok], axis=0)
    assert (worst < FACTOR * np.array(INVARIANCE_CASES[route, move, name])).all(), worst
