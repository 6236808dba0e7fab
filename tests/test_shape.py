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
from helpers import box_grid, calls_of, crosscheck_pairs, flip_normal, induced_metric, intrinsic_riemann, mixed_chart
from helpers import moved, near_singular_box, passthrough, rephased, reparametrized

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


# -- each batched kernel against its per-point reference ------------------------


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


def _batch_against_each_centre(chart, qs, h):
    """``intrinsic_riemann_batch`` at ``qs``, checked against each centre alone
    (``helpers.intrinsic_riemann``): the same bits, or NaN and the error that
    the centre alone raises as a ``SingularMetric`` (a ``RankDeficient``),
    prefixed "chart '<name>' at <q>: ".  Returns ``ok`` or each error's suffix."""
    R, errors = cv.intrinsic_riemann_batch(chart, qs, h)
    assert R.shape == (len(qs), 3, 3, 3, 3) and len(errors) == len(qs)
    for q, r, error in zip(qs, R, errors):
        if error is None:
            assert intrinsic_riemann(chart, q, h).tobytes() == r.tobytes(), q
            continue
        assert error.startswith(f"chart {chart.name!r} at {q}: ") and np.isnan(r).all(), q
        with pytest.raises(RankDeficient) as exc:
            intrinsic_riemann(chart, q, h)
        assert (type(exc.value), str(exc.value)) == (cv.SingularMetric, error), q
    return [error.split(": ", 1)[1] if error else "ok" for error in errors]


def _one_pass_against_each_chart(pairs, grid, step):
    """``cli._crosscheck_rows`` on the (chart, extra) ``pairs``: each chart's index range of
    its one shape pass and one Riemann pass is, bitwise, ``shape_operator_grid`` and
    ``intrinsic_riemann_batch`` on that chart alone, at its ok grid points and ``extra``.
    The pass inverts two finite matrix stacks, the metrics of the accepted stencil centres and
    the frame coeffs of the shaped rows, in that order.  A flagged point's gap is NaN; an ok
    gap and an ok plane's |curvature - 5| are below 1e-4 (h / 1e-3)^2, the crosscheck tolerance
    at its default step.  Returns each chart's grid flags, then each plane's error or ``ok``."""
    rows, calls = calls_of(
        lambda: cli._crosscheck_rows(pairs, grid, step),
        {"shape": cli._shape_grid, "riemann": cv._riemann, "inv": np.linalg.inv.__wrapped__},
    )
    (shape_args,), (riemann_args,) = ([a for name, a in calls if name == kernel] for kernel in ("shape", "riemann"))
    shapes, (R, errors) = cli._shape_grid(*shape_args), cv._riemann(*riemann_args)
    end, metrics, coeffs, flags, bound = 0, [], [], [], 1e-4 * (step / 1e-3) ** 2
    for (chart, extra), (chart_flags, gaps, planes) in zip(pairs, rows):
        params, grid_flags = cli._grid_points(chart, grid)
        qs = [q for q, f in zip(params, grid_flags) if f == "ok"] + extra  # the points that reach the kernels
        at, end = slice(end, end + len(qs)), end + len(qs)
        ref = shape_operator_grid(chart, qs)
        assert shapes.flags[at].tolist() == ref.flags.tolist()
        for got, want in zip((shapes.A, shapes.P, shapes.xi, shapes.coeffs), (ref.A, ref.P, ref.xi, ref.coeffs)):
            assert got[at].tobytes() == want.tobytes()
        ref_R, ref_errors = cv.intrinsic_riemann_batch(chart, qs, step)
        assert R[at].tobytes() == ref_R.tobytes()
        assert [e and f"chart {chart.name!r} at {q}: {e}" for q, e in zip(qs, errors[at])] == ref_errors
        metrics.append(cv._stencil_metric(chart, qs, step)[0][[e is None for e in ref_errors], 0])
        coeffs.append(ref.coeffs[ref.flags == "ok"])
        assert np.isnan(gaps[chart_flags != "ok"]).all() and (gaps[chart_flags == "ok"] < bound).all()
        assert all(abs(v - 5.0) < bound if d == {} else math.isnan(v) for v, d in planes)
        flags += [*chart_flags.tolist(), *(d.get("error", "ok") for _, d in planes)]
    stacks = [args[0] for name, args in calls if name == "inv" and args[0].ndim == 3]
    assert end == len(shapes.flags) == len(R) and all(np.isfinite(a).all() for a in stacks)
    assert [a.tobytes() for a in stacks] == [np.concatenate(metrics).tobytes(), np.concatenate(coeffs).tobytes()]
    return flags


def _box(n):
    """The points of a chart's sample box at n per axis."""
    return lambda chart: list(box_grid(chart.sample_box, n))


def _across_the_sign_rule(chart):
    """Two points of the sphere pi/4: between t - h and t the normal's first component of largest
    modulus changes at the first, so the sign rule flips its stencil normal at t - h."""
    q = (1.1, 1.2, 0.297095)
    assert build_frame(chart, q).rows[4].dot(build_frame(chart, (1.1, 1.2, q[2] - 1e-5)).rows[4]) < 0.0
    return [q, (1.1, 1.2, 0.3)]


def _beside_the_margin(chart):
    """The centre (0.3005, 1, 2), whose axis neighbour (0.0005, 1, 2) at h = 0.3 is inside the
    ruled chart's declared singular margin although its metric is invertible."""
    assert chart.singular(np.array([0.0005, 1.0, 2.0]))
    return [(0.3005, 1.0, 2.0)]


def _singular_centre(chart):
    """The centre (0, 1, 2), where the ruled chart's t-partial vanishes, so its metric has a zero row."""
    assert np.linalg.matrix_rank(induced_metric(chart, (0.0, 1.0, 2.0))) < 3
    return [(0.0, 1.0, 2.0)]


def _replaced(**fields):
    """A factory of the ruled chart with ``fields`` replaced."""
    return lambda: dataclasses.replace(ruled_chart(), **fields)


def _unevaluable(*q):
    """A chart point that fails the test wherever it is evaluated."""
    raise AssertionError("evaluated")


# The charts of KERNEL_CASES that no surface of ``cli.parse_surface`` names; a crosscheck
# chart is a list of cmd_crosscheck's (chart, extra) pairs.
KERNEL_CHARTS = {
    "sphere:pi/4": lambda: sphere_chart(math.pi / 4),
    "sphere:pi/6": lambda: sphere_chart(math.pi / 6),
    "gram-overflow": _replaced(partials=lambda *q: 1e160 * ruled_chart().partials(*q)),  # overflows every W W^T
    "no-locus": _replaced(is_singular=lambda Q: np.zeros(Q.shape[:-1], bool)),
    "unevaluable": _replaced(evaluate=_unevaluable, is_singular=lambda Q: np.zeros(Q.shape[:-1], bool)),
    "ruled-edge": lambda: near_singular_box(ruled_chart()),  # the edge is computable, so every point is ok
    "sphere-edge": lambda: near_singular_box(sphere_chart(math.pi / 4)),
    "mixed": mixed_chart,
    "pairs": crosscheck_pairs,
    "pairs, ruled-edge": lambda: crosscheck_pairs("ruled"),
    "pairs, sphere-edge": lambda: crosscheck_pairs("sphere"),
    "pairs, both edges": lambda: crosscheck_pairs("ruled", "sphere"),
    "pairs, row by row": lambda: [(passthrough(c, "evaluate", "partials"), e) for c, e in crosscheck_pairs()],
    "ruled alone": lambda: [(ruled_chart(), [])],
}
KERNELS = {"shape": _grid_against_per_point, "intrinsic": _batch_against_each_centre}
KERNELS["crosscheck"] = _one_pass_against_each_chart
RD, SM, OK = "RankDeficient", "SingularMetric", "ok"
LOCUS, NAN_METRIC = "stencil centre or axis neighbour in the singular locus", "non-finite metric on the stencil"
NON_FINITE_STENCIL = "non-finite stencil centre, step or neighbour"
RULED_Q, SPHERE_Q = (0.6, 1.0, 2.0), (0.3, 0.7, 0.4)
NON_FINITE = [(math.inf, 1.0, 2.0), (0.6, -math.inf, 2.0)]  # math.cos of inf raises before any chart call
# The grid rows of a near_singular_box on its edge: u (ruled) or s (sphere) at its lower end.
RULED_EDGE, SPHERE_EDGE = ["singular"] * 4 + [OK] * 4, (["singular"] * 2 + [OK] * 2) * 2
MIXED = {  # the mixed chart's centres, each with its error or ok
    RULED_Q: OK,
    (1.2, 1.0, 2.0): LOCUS,
    (0.6, 1.5, 2.0): NAN_METRIC,
    (0.0, 1.0, 2.0): "singular metric at the centre",
    (0.9, 0.4, 1.1): OK,
    (0.3, 2.0, 0.5): OK,
}


def _bad(q):
    """q with each coordinate in turn set to inf, -inf and nan."""
    return [(*q[:a], x, *q[a + 1 :]) for x in (math.inf, -math.inf, math.nan) for a in range(3)]


# Each batched kernel run, once: the kernel of KERNELS (its comparator), the chart of
# KERNEL_CHARTS, the points (a list, or a function of the chart; crosscheck: the grid),
# the step, and the batch's flags or errors.
KERNEL_CASES = {
    **{
        f"shape {name}": ("shape", name, _box(4), 1e-5, [OK] * 64)
        for name in ["ruled", "sphere:pi/4", "sphere:pi/6", "perturbed-ruled:0.05,0", "perturbed-ruled:0.2,3"]
        + ["sphere:1.57"]
    },
    "shape across the sign rule": ("shape", "sphere:pi/4", _across_the_sign_rule, 1e-5, [OK] * 2),
    "shape nan chart": ("shape", "perturbed-ruled:nan,0", _box(2), 1e-5, [RD] * 8),
    "shape ruled non-finite q": ("shape", "ruled", NON_FINITE, 1e-5, [RD] * 2),
    "shape sphere non-finite q": ("shape", "sphere:pi/4", NON_FINITE, 1e-5, [RD] * 2),
    "shape gram overflow": ("shape", "gram-overflow", [RULED_Q], 1e-5, [RD]),
    "shape ruled edge": ("shape", "ruled-edge", _box(3), 1e-5, [OK] * 27),
    "shape sphere edge": ("shape", "sphere-edge", _box(3), 1e-5, [OK] * 27),
    # u = 0 fails at the centre; u = h only at the stencil point u - h = 0.
    "shape rank-deficient frames": (
        "shape", "ruled", [(0.0, 1.0, 2.0), (1e-5, 1.0, 2.0), RULED_Q, (math.pi / 2, 1.0, 2.0)], 1e-5, [RD, RD, OK, RD]
    ),
    "shape coarse step": ("shape", "ruled", _box(4), 2e-3, [OK] * 48 + ["AsymmetryExceeded"] * 16),
    **{
        f"intrinsic {name}": ("intrinsic", name, _box(3), 1e-3, [OK] * 27)
        for name in ("ruled", "sphere:pi/4", "perturbed-ruled:0.05,3")
    },
    "intrinsic mixed": ("intrinsic", "mixed", list(MIXED), 1e-3, list(MIXED.values())),
    "intrinsic no locus": ("intrinsic", "no-locus", _singular_centre, 1e-3, ["singular metric at the centre"]),
    # u = 0.3 with h = 0.3 puts an axis neighbour on u = 0, where the metric is singular.
    "intrinsic coarse step": ("intrinsic", "ruled", [(0.3, 1.0, 2.0)], 0.3, [LOCUS]),
    "intrinsic beside the margin": ("intrinsic", "ruled", _beside_the_margin, 0.3, [LOCUS]),
    "intrinsic nan chart": ("intrinsic", "perturbed-ruled:nan,0", [RULED_Q], 1e-3, [NAN_METRIC]),
    # q +- h e_a rounds to q, or h^2 is subnormal (at q = 0, before any evaluation).
    **{
        f"intrinsic {name} step {h}": ("intrinsic", name, [q], h, [f"step {h!r} below the parameter resolution"])
        for name, q, steps in (
            ("ruled", RULED_Q, (1e-200, 1e-150, 1e-17)),
            ("sphere:pi/4", SPHERE_Q, (1e-200, 1e-150, 1e-17)),
            ("unevaluable", (0.0, 0.0, 0.0), (1e-160, 1e-155)),
        )
        for h in steps
    },
    # A non-finite step fails every centre, a non-finite coordinate (on the singular
    # axis or off it) its own centre alone, before the step's resolution or the
    # singular locus is looked at; a finite centre of the same batch keeps its bits.
    **{
        f"intrinsic {name} step {h}": ("intrinsic", name, [q], h, [NON_FINITE_STENCIL])
        for name, q in (("ruled", RULED_Q), ("sphere:pi/4", SPHERE_Q), ("perturbed-ruled:0.05,0", RULED_Q))
        for h in (math.inf, -math.inf, math.nan)
    },
    **{
        f"intrinsic {name} non-finite q": ("intrinsic", name, [*_bad(q), q], 1e-3, [NON_FINITE_STENCIL] * 9 + [OK])
        for name, q in (("ruled", RULED_Q), ("sphere:pi/4", SPHERE_Q), ("perturbed-ruled:0.05,0", RULED_Q))
    },
    "crosscheck ruled edge": ("crosscheck", "pairs, ruled-edge", 2, 1e-3, RULED_EDGE + [OK] * 9),
    "crosscheck sphere edge": ("crosscheck", "pairs, sphere-edge", 2, 1e-3, [OK] * 8 + SPHERE_EDGE + [OK]),
    "crosscheck both edges": ("crosscheck", "pairs, both edges", 2, 1e-3, RULED_EDGE + SPHERE_EDGE + [OK]),
    # A stencil axis neighbour at u = 1.57 (ruled) or s = 1.57 (sphere), in the singular margin about pi/2.
    "crosscheck step 0.37": ("crosscheck", "pairs", 2, 0.37, [OK] * 4 + [SM] * 4 + [OK, OK, SM, SM] * 2 + [OK]),
    "crosscheck row by row": ("crosscheck", "pairs, row by row", 2, 1e-3, [OK] * 17),
    # The ruled grid point u = 0.3 puts a stencil axis neighbour on u = 0.
    "crosscheck ruled alone step 0.3": ("crosscheck", "ruled alone", 2, 0.3, [SM] * 4 + [OK] * 4),
}


@pytest.mark.parametrize("kernel, chart, points, step, flags", KERNEL_CASES.values(), ids=list(KERNEL_CASES))
def test_a_batched_kernel_agrees_with_its_reference(kernel, chart, points, step, flags):
    chart = KERNEL_CHARTS[chart]() if chart in KERNEL_CHARTS else cli.parse_surface(chart)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert KERNELS[kernel](chart, points(chart) if callable(points) else points, step) == flags


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
