import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2ricci import charts, cli
from cp2ricci import curvature as cv
from cp2ricci.charts import (
    SurfaceChart,
    _ruled_partials,
    _ruled_point,
    _RULED_MODES,
    _TrigField,
    perturbed_ruled_chart,
    ruled_chart,
    sphere_chart,
)
from cp2ricci.frames import build_frame
from cp2ricci.shape import shape_operator
from helpers import box_grid, builtin_predicate_calls, intrinsic_riemann, perturbed_reference, trig_field_value

RULED_SAMPLES = [(0.6, 1.0, 2.0), (0.35, 5.9, 0.2), (1.1, 3.0, 4.5), (-0.8, 2.2, 1.3)]
SPHERE_SAMPLES = [(0.3, 0.7, 0.4), (5.0, 1.1, 2.0), (2.0, 0.5, 5.5)]


def _fd_partials(chart, q, h=1e-5):
    out = []
    for a in range(3):
        qp = list(q)
        qp[a] += h
        qm = list(q)
        qm[a] -= h
        out.append((chart.evaluate(*qp) - chart.evaluate(*qm)) / (2 * h))
    return out


def _check_chart_basics(chart, samples, tol_fd=1e-9):
    for q in samples:
        p = chart.evaluate(*q)
        assert abs(np.linalg.norm(p) - 1.0) < 1e-14
        parts = chart.partials(*q)
        for w in parts:
            assert abs(np.vdot(p, w).real) < 1e-14  # derivative of unit norm
        for w, fd in zip(parts, _fd_partials(chart, q)):
            assert np.max(np.abs(w - fd)) < tol_fd


def test_ruled_chart_point_and_partials():
    chart = ruled_chart()
    assert np.allclose(chart.evaluate(0.0, 0.0, 0.0), [1, 0, 0])
    _check_chart_basics(chart, RULED_SAMPLES)


def test_ruled_vertical_components():
    # hand differentiation: z_theta . conj(z) = i sin^2 u, z_u . conj(z) = 0
    chart = ruled_chart()
    for u, v, t in RULED_SAMPLES:
        p = chart.evaluate(u, v, t)
        du, dv, dt = chart.partials(u, v, t)
        ip = 1j * p
        assert abs(np.vdot(ip, dt).real - math.sin(u) ** 2) < 1e-14
        assert abs(np.vdot(ip, du).real) < 1e-14
        assert abs(np.vdot(ip, dv).real) < 1e-14


def test_sphere_chart_point_and_partials():
    chart = sphere_chart(math.pi / 4)
    s2 = math.sqrt(2) / 2
    assert np.allclose(chart.evaluate(0.0, math.pi / 4, 0.0), [s2, 0.5, 0.5])
    _check_chart_basics(chart, SPHERE_SAMPLES)


def test_sphere_first_component_modulus_is_cos_r():
    for r in (0.4, math.pi / 4, 1.2):
        chart = sphere_chart(r)
        for q in SPHERE_SAMPLES:
            assert abs(abs(chart.evaluate(*q)[0]) - math.cos(r)) < 1e-14


def test_sphere_phi_partial_vertical_component():
    # hand differentiation: z_phi . conj(z) = i cos^2 r
    for r in (0.5, math.pi / 4):
        chart = sphere_chart(r)
        for q in SPHERE_SAMPLES:
            p = chart.evaluate(*q)
            dphi = chart.partials(*q)[0]
            assert abs(np.vdot(1j * p, dphi).real - math.cos(r) ** 2) < 1e-14


def test_sphere_radius_domain():
    with pytest.raises(ValueError):
        sphere_chart(0.0)
    with pytest.raises(ValueError):
        sphere_chart(math.pi / 2)
    with pytest.raises(ValueError):
        sphere_chart(-0.3)


def test_singular_predicates():
    rc = ruled_chart()
    assert rc.is_singular(0.0, 1.0, 2.0)
    assert rc.is_singular(math.pi / 2, 1.0, 2.0)
    assert not rc.is_singular(0.6, 1.0, 2.0)
    sc = sphere_chart(0.7)
    assert sc.is_singular(1.0, 0.0, 2.0)
    assert sc.is_singular(1.0, math.pi / 2, 2.0)
    assert not sc.is_singular(1.0, 0.7, 2.0)
    # Within the margin of 0 and pi/2 on its own axis only, and not at twice it.
    m = charts.SINGULAR_MARGIN
    for chart, q, axis in ((rc, (0.6, 1.0, 2.0), 0), (sc, (1.0, 0.7, 2.0), 1)):
        for a in range(3):
            for x in (m, -m, math.pi / 2 + m, math.pi / 2 - m):
                assert chart.is_singular(*q[:a], x, *q[a + 1 :]) == (a == axis), (chart.name, a, x)
        assert not chart.is_singular(*q[:axis], 2 * m, *q[axis + 1 :])


BUILTIN_CHARTS = [ruled_chart(), sphere_chart(math.pi / 4), sphere_chart(math.pi / 6), perturbed_ruled_chart(0.05, 0)]


def _scalar_mask(chart, Q):
    """``chart.is_singular`` at each row of Q (..., 3): the mask's reference."""
    return np.array([chart.is_singular(*q) for q in Q.reshape(-1, 3).tolist()], bool).reshape(Q.shape[:-1])


@pytest.mark.parametrize("chart", BUILTIN_CHARTS, ids=lambda c: c.name)
def test_singular_mask_is_the_scalar_predicate_on_the_acceptance_grids(chart):
    # The grids of check ruled (16), scan (12) and crosscheck (5), and their
    # 19-point stencils at the crosscheck step and at the two coarse steps
    # of the tests that put a stencil neighbour in the singular locus.
    for grid in (16, 12, 5):
        Q = np.array(cli._grid_points(chart, grid)[0])
        assert chart.singular(Q).tolist() == _scalar_mask(chart, Q).tolist()
        for h in (1e-3, 0.3, 0.37):
            X = Q[:, None] + h * cv.K
            assert chart.singular(X).tolist() == _scalar_mask(chart, X).tolist(), (grid, h)


def _float_run(x: float, n: int = 100) -> np.ndarray:
    """The 2 n + 1 consecutive floats about x, by ``np.nextafter``."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(np.nextafter(below[-1], -np.inf))
        above.append(np.nextafter(above[-1], np.inf))
    return np.array(below[::-1] + above[1:])


@pytest.mark.parametrize("chart", BUILTIN_CHARTS, ids=lambda c: c.name)
def test_singular_mask_is_the_scalar_predicate_across_the_margin(chart):
    # Runs of consecutive floats across asin(SINGULAR_MARGIN), pi/2 less it
    # and their mirrors, on the chart's singular axis and off it, each
    # straddling the margin on that axis.
    edge, axis = math.asin(charts.SINGULAR_MARGIN), 1 if chart.name.startswith("sphere") else 0
    for x in (edge, -edge, math.pi / 2 - edge, math.pi / 2 + edge):
        for a in range(3):
            Q = np.tile([0.6, 0.7, 2.0], (201, 1))
            Q[:, a] = _float_run(x)
            mask = chart.singular(Q)
            assert mask.tolist() == _scalar_mask(chart, Q).tolist(), (x, a)
            assert (0 < mask.sum() < len(mask)) == (a == axis), (x, a)


@pytest.mark.parametrize("chart", BUILTIN_CHARTS, ids=lambda c: c.name)
def test_non_finite_parameters_are_singular_quietly(chart):
    # On the singular axis a non-finite parameter is singular to both the
    # scalar predicate and the mask; off it, to neither.  No call warns.
    axis = 1 if chart.name.startswith("sphere") else 0
    Q = np.array([[0.6, 0.7, 2.0]] * 9)
    for k, x in enumerate((math.inf, -math.inf, math.nan)):
        for a in range(3):
            Q[3 * k + a, a] = x
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mask, scalar = chart.singular(Q), _scalar_mask(chart, Q)
    assert mask.tolist() == scalar.tolist() == [a == axis for _ in range(3) for a in range(3)]


def test_a_replaced_or_wrapped_predicate_is_called_row_by_row():
    # A dataclasses.replace'd predicate, and a functools.wraps wrapper (which
    # copies the mask's record), both fall back to one call per row.
    base, Q = ruled_chart(), np.array([[0.0, 1.0, 2.0], [0.6, 1.0, 2.0], [math.pi / 2, 1.0, 2.0]])
    calls = []
    replaced = dataclasses.replace(base, is_singular=lambda *q: calls.append(q) or q[0] > 0.5)
    assert replaced.singular(Q[None]).tolist() == [[False, True, True]] and calls == list(map(tuple, Q.tolist()))

    @functools.wraps(base.is_singular)
    def wrapped(*q):
        return base.is_singular(*q)

    assert wrapped.array_mask[0] is base.is_singular
    with builtin_predicate_calls() as scalar:
        mask = dataclasses.replace(base, is_singular=wrapped).singular(Q)
        assert base.singular(Q).tolist() == mask.tolist() == [True, False, True]
    assert scalar == list(map(tuple, Q.tolist()))
    empty = dataclasses.replace(base, is_singular=wrapped).singular(np.empty((0, 7, 3)))
    assert empty.shape == (0, 7) and empty.dtype == bool


def test_sample_boxes_avoid_singular_loci():
    # Each sample box lies inside its chart's parameter domain: u in
    # [-pi/2, pi/2], v, t in [0, 2 pi] for the ruled chart; phi, t in
    # [0, 2 pi], s in [0, pi/2] for the sphere.
    tau = 2 * math.pi
    for chart, lo, hi in (
        (ruled_chart(), (-math.pi / 2, 0.0, 0.0), (math.pi / 2, tau, tau)),
        (sphere_chart(0.9), (0.0, 0.0, 0.0), (tau, math.pi / 2, tau)),
    ):
        for q in box_grid(chart.sample_box, 4):
            assert all(l <= x <= h for l, x, h in zip(lo, q, hi))
            assert not chart.is_singular(*q)


def test_perturbed_chart_is_exact_and_seeded():
    chart = perturbed_ruled_chart(0.05, seed=123)
    _check_chart_basics(chart, RULED_SAMPLES, tol_fd=1e-9)
    again = perturbed_ruled_chart(0.05, seed=123)
    other = perturbed_ruled_chart(0.05, seed=124)
    q = (0.6, 1.0, 2.0)
    assert np.array_equal(chart.evaluate(*q), again.evaluate(*q))
    assert not np.allclose(chart.evaluate(*q), other.evaluate(*q))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
def test_non_finite_perturbation_gives_nan_vectors_without_warnings(epsilon):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Scaling the weight table multiplies epsilon by zero weights.
        chart = perturbed_ruled_chart(epsilon, seed=0)
        vectors = [chart.evaluate(0.6, 1.0, 2.0), *chart.partials(0.6, 1.0, 2.0)]
    assert all(np.isnan(w.view(np.float64)).all() for w in vectors)


def test_builtin_charts_return_fresh_complex_arrays():
    for chart, q in (
        (ruled_chart(), RULED_SAMPLES[0]),
        (sphere_chart(math.pi / 6), SPHERE_SAMPLES[0]),
        (perturbed_ruled_chart(0.05, 3), RULED_SAMPLES[0]),
        (perturbed_ruled_chart(math.nan, 0), RULED_SAMPLES[0]),
    ):
        for call, shape in ((chart.evaluate, (3,)), (chart.partials, (3, 3))):
            first, second = call(*q), call(*q)
            assert type(first) is np.ndarray, chart.name
            assert first.dtype == np.complex128 and first.shape == shape, chart.name
            assert not np.shares_memory(first, second), chart.name


def test_nan_outputs_cannot_be_corrupted_through_a_returned_array():
    chart = perturbed_ruled_chart(math.nan, 0)
    q = RULED_SAMPLES[0]
    for call in (chart.evaluate, chart.partials):
        first = call(*q)
        if first.flags.writeable:
            first[...] = 0.0
        assert np.isnan(call(*q).view(np.float64)).all()


def test_zero_perturbation_is_the_ruled_chart():
    base = ruled_chart()
    chart = perturbed_ruled_chart(0.0, seed=5)
    for q in RULED_SAMPLES:
        assert np.array_equal(base.evaluate(*q), _ruled_point(*q))
        assert np.array_equal(base.partials(*q), _ruled_partials(*q))
        assert np.max(np.abs(chart.evaluate(*q) - _ruled_point(*q))) < 1e-15
        for w, wb in zip(chart.partials(*q), _ruled_partials(*q)):
            assert np.max(np.abs(w - wb)) < 1e-14


def test_custom_array_chart_gives_the_builtin_results_exactly():
    # The ruled map written as plain array lambdas, as a user chart would be.
    base = ruled_chart()
    cos, sin = math.cos, math.sin
    custom = SurfaceChart(
        name="custom-ruled",
        evaluate=lambda u, v, t: np.array(
            [cos(u) * cos(v), cos(u) * sin(v), sin(u) * complex(cos(t), sin(t))]
        ),
        partials=lambda u, v, t: np.array(
            [
                [-sin(u) * cos(v), -sin(u) * sin(v), cos(u) * complex(cos(t), sin(t))],
                [-cos(u) * sin(v), cos(u) * cos(v), 0.0],
                [0.0, 0.0, 1j * sin(u) * complex(cos(t), sin(t))],
            ]
        ),
        sample_box=base.sample_box,
        is_singular=base.is_singular,
    )
    for q in RULED_SAMPLES:
        a, b = build_frame(custom, q), build_frame(base, q)
        assert np.array_equal(a.p.z, b.p.z)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.coeffs, b.coeffs)
        sa, sb = shape_operator(custom, q), shape_operator(base, q)
        assert np.array_equal(sa.A, sb.A) and np.array_equal(sa.P, sb.P)
        assert np.array_equal(sa.xi, sb.xi)
        assert np.array_equal(intrinsic_riemann(custom, q), intrinsic_riemann(base, q))


def _jet_points():
    """1000 seeded points of [-7, 7]^3, then every triple of -0.0, 0.0, pi/2
    and 1.0, and rows with exact signed zeros beside random entries."""
    rng = np.random.default_rng(25)
    special = np.array([-0.0, 0.0, math.pi / 2, 1.0])
    grid = np.stack(np.meshgrid(special, special, special, indexing="ij"), axis=-1).reshape(-1, 3)
    mixed = rng.uniform(-7.0, 7.0, size=(60, 3))
    mixed[np.arange(60), np.arange(60) % 3] = np.where(np.arange(60) % 2, -0.0, 0.0)
    return np.vstack([rng.uniform(-7.0, 7.0, size=(1000, 3)), grid, mixed])


@pytest.mark.parametrize(
    "chart",
    [ruled_chart(), *(sphere_chart(r) for r in (math.pi / 4, math.pi / 6, 1.57))],
    ids=lambda c: c.name,
)
def test_builtin_jets_reproduce_the_scalar_callables_bytewise(chart, monkeypatch):
    Q = _jet_points()
    rows = Q.tolist()
    p = np.array([chart.evaluate(*x) for x in rows])
    D = np.array([chart.partials(*x) for x in rows])
    assert np.signbit(p.imag).any() and np.signbit(D.real[D == 0]).any()  # signed zeros are exercised
    monkeypatch.setattr(charts, "math", None)  # the array map calls no scalar callable
    jp, jD = chart.jet(Q)
    assert jp.shape == (len(Q), 3) and jD.shape == (len(Q), 3, 3)
    assert jp.dtype == jD.dtype == np.complex128
    assert jp.tobytes() == p.tobytes() and jD.tobytes() == D.tobytes()
    empty = chart.jet(np.empty((0, 3)))
    assert empty[0].shape == (0, 3) and empty[1].shape == (0, 3, 3)


def test_a_user_chart_jet_stacks_its_own_calls():
    base = ruled_chart()
    calls = []

    def evaluate(*q):
        calls.append(("evaluate", q))
        return base.evaluate(*q)

    def partials(*q):
        calls.append(("partials", q))
        return base.partials(*q)

    chart = SurfaceChart("user", evaluate, partials, base.sample_box, base.is_singular)
    Q = _jet_points()[:5]
    p, D = chart.jet(Q)
    rows = [tuple(x) for x in Q.tolist()]
    assert calls == [(name, q) for q in rows for name in ("evaluate", "partials")]
    assert p.tobytes() == base.jet(Q)[0].tobytes() and D.tobytes() == base.jet(Q)[1].tobytes()
    empty = chart.jet(np.empty((0, 3)))
    assert empty[0].shape == (0, 3) and empty[1].shape == (0, 3, 3) and len(calls) == 10


class _LoopField:
    """Reference for ``_TrigField``: the per-term loop it replaced, as six
    real components (Re c1, Im c1, Re c2, ...) of c * sin/cos(m . q)."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.terms = []
        for _ in range(6):
            comp = []
            for _ in range(3):
                coef = float(rng.uniform(-1.0, 1.0))
                freq = tuple(int(k) for k in rng.integers(-2, 3, size=3))
                while freq == (0, 0, 0):
                    freq = tuple(int(k) for k in rng.integers(-2, 3, size=3))
                use_sin = bool(rng.integers(0, 2))
                comp.append((coef, freq, use_sin))
            self.terms.append(comp)

    def value(self, q):
        out = np.zeros(6)
        for k, comp in enumerate(self.terms):
            acc = 0.0
            for coef, (m1, m2, m3), use_sin in comp:
                arg = m1 * q[0] + m2 * q[1] + m3 * q[2]
                acc += coef * (math.sin(arg) if use_sin else math.cos(arg))
            out[k] = acc
        return out[0::2] + 1j * out[1::2]

    def partial(self, q, axis):
        out = np.zeros(6)
        for k, comp in enumerate(self.terms):
            acc = 0.0
            for coef, freq, use_sin in comp:
                m = freq[axis]
                if m == 0:
                    continue
                arg = freq[0] * q[0] + freq[1] * q[1] + freq[2] * q[2]
                acc += coef * m * (math.cos(arg) if use_sin else -math.sin(arg))
            out[k] = acc
        return out[0::2] + 1j * out[1::2]


@pytest.mark.parametrize("seed", [0, 3, 123, 1950078598])
def test_trig_field_matches_the_per_term_loop(seed):
    field, loop = _TrigField.seeded(seed), _LoopField(seed)
    rng = np.random.default_rng(seed % 1000)
    for q in map(tuple, rng.uniform(-7.0, 7.0, size=(50, 3))):
        # A cosine mode is the sine of x + pi/2, and rounding that sum moves
        # the argument by up to half an ulp of |x| + pi/2.
        tol = 1e-15 * (1.0 + np.max(np.abs(field.freq @ q)))
        value, jet = field.jet(q)
        assert np.max(np.abs(value.view(np.complex128) - loop.value(q))) <= tol
        assert np.array_equal(trig_field_value(field, q), value)
        for a in range(3):
            assert np.max(np.abs(jet[a].view(np.complex128) - loop.partial(q, a))) <= tol


def test_ruled_modes_reproduce_the_ruled_map():
    rng = np.random.default_rng(0)
    for q in map(tuple, rng.uniform(-7.0, 7.0, size=(200, 3))):
        # The same argument rounding as in the seeded field.
        tol = 1e-15 * (1.0 + np.max(np.abs(_RULED_MODES.freq @ q)))
        value, jet = _RULED_MODES.jet(q)
        assert np.max(np.abs(value.view(np.complex128) - _ruled_point(*q))) <= tol
        assert np.max(np.abs(jet.view(np.complex128) - _ruled_partials(*q))) <= tol


def test_perturbed_chart_is_one_field_over_the_ruled_modes():
    # epsilon scales the seeded weights only; the first 8 modes are the ruled map's.
    chart = perturbed_ruled_chart(0.05, seed=3)
    field = _TrigField.seeded(3)
    for q in RULED_SAMPLES:
        y = _ruled_point(*q) + 0.05 * field.jet(q)[0].view(np.complex128)
        assert np.max(np.abs(chart.evaluate(*q) - y / np.linalg.norm(y))) < 1e-15


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_perturbed_partials_are_exact_over_seeds(seed, frac):
    chart = perturbed_ruled_chart(0.05, seed)
    box = chart.sample_box
    _check_chart_basics(chart, [tuple(lo + f * (hi - lo) for lo, f, hi in zip(box.lo, frac, box.hi))])


def test_huge_perturbation_partials_match_central_differences():
    # |y| ~ 1e120, so |y|^3 would overflow a float: the chain rule must not form it.
    _check_chart_basics(perturbed_ruled_chart(1e120, 0), RULED_SAMPLES)


def _perturbed_call_orders():
    """Sequences of (callable, q) that a per-q memo could answer wrongly."""
    rows = [tuple(x) for x in _jet_points().tolist()]
    q1, q2, nan_q = rows[0], rows[1], (math.nan, 0.7, 0.3)
    both = ("evaluate", "partials")
    return {
        "evaluate only": [("evaluate", q) for q in rows],
        "partials first": [(name, q) for q in rows for name in both[::-1]],
        "repeated q": [(name, q1) for name in both * 3],
        "alternating q1/q2": [(name, q) for q in (q1, q2) * 3 for name in both],
        "+0.0 after -0.0": [(name, (z, 0.7, 0.3)) for z in (-0.0, 0.0, -0.0) for name in both],
        "nan q": [(name, q) for q in (nan_q, nan_q, q1, nan_q) for name in both],
    }


@pytest.mark.parametrize("epsilon", [0.05, 1e308, math.nan, math.inf])
@pytest.mark.parametrize("order", list(_perturbed_call_orders()))
def test_perturbed_chart_answers_like_the_memo_free_reference_bytewise(epsilon, order):
    chart, ref = perturbed_ruled_chart(epsilon, 3), perturbed_reference(epsilon, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, q in _perturbed_call_orders()[order]:
            got, want = getattr(chart, name)(*q), getattr(ref, name)(*q)
            assert got.dtype == np.complex128 and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), (name, q)


@pytest.mark.parametrize("epsilon", [0.05, math.nan])
def test_perturbed_chart_returns_fresh_arrays(epsilon):
    chart, ref = perturbed_ruled_chart(epsilon, 0), perturbed_reference(epsilon, 0)
    q = RULED_SAMPLES[0]
    for name in ("evaluate", "partials", "evaluate"):
        getattr(chart, name)(*q)[...] = 7.0
        assert getattr(chart, name)(*q).tobytes() == getattr(ref, name)(*q).tobytes()


def test_a_perturbed_scan_takes_one_field_jet_per_parameter_point(monkeypatch):
    calls = []
    jet = _TrigField.jet

    def counted(self, q):
        calls.append(q)
        return jet(self, q)

    monkeypatch.setattr(_TrigField, "jet", counted)
    reports, rows = cli.cmd_scan("perturbed-ruled:0.05,0", grid=2)
    assert reports[0].status == "pass" and len(rows) == 8
    # The centre and its 6 stencil neighbours: 7 distinct triples per point, one jet each.
    assert len(calls) == len(set(calls)) == 7 * len(rows)


def test_grid_requires_two_points_per_axis():
    with pytest.raises(ValueError):
        ruled_chart().sample_box.axes(1)
    with pytest.raises(ValueError):
        cli._grid_points(ruled_chart(), 1)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("edge", ["lo", "hi"])
def test_a_non_finite_sample_box_edge_is_rejected_when_the_box_is_built(edge, value):
    # Box.axes would hand the edge to np.linspace, which warns and gives NaN
    # even at the finite edge; the box names the edge instead, quietly.
    corners = {"lo": (0.3, 0.1, 0.1), "hi": (1.2, 6.1, 6.1)}
    corners[edge] = (corners[edge][0], value, corners[edge][2])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^box edge {edge} = .* is not finite$"):
            charts.Box(**corners)
        with pytest.raises(ValueError, match=f"^box edge {edge} "):
            dataclasses.replace(ruled_chart().sample_box, **{edge: corners[edge]})
