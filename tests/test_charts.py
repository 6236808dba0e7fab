import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2ricci.charts import (
    SurfaceChart,
    _ruled_partials,
    _ruled_point,
    _TrigField,
    perturbed_ruled_chart,
    ruled_chart,
    sphere_chart,
)
from cp2ricci.curvature import intrinsic_riemann
from cp2ricci.frames import build_frame
from cp2ricci.shape import shape_operator

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


def test_sample_boxes_avoid_singular_loci():
    for chart in (ruled_chart(), sphere_chart(0.9)):
        for q in chart.sample_box.grid(4):
            assert chart.domain.contains(q)
            assert not chart.is_singular(*q)


def test_perturbed_chart_is_exact_and_seeded():
    chart = perturbed_ruled_chart(0.05, seed=123)
    _check_chart_basics(chart, RULED_SAMPLES, tol_fd=1e-9)
    again = perturbed_ruled_chart(0.05, seed=123)
    other = perturbed_ruled_chart(0.05, seed=124)
    q = (0.6, 1.0, 2.0)
    assert np.array_equal(chart.evaluate(*q), again.evaluate(*q))
    assert not np.allclose(chart.evaluate(*q), other.evaluate(*q))


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_non_finite_perturbation_gives_nan_vectors_without_warnings(epsilon):
    chart = perturbed_ruled_chart(epsilon, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
        domain=base.domain,
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


class _LoopField:
    """Reference for ``_TrigField``: the per-term loop it replaced, as six
    real components (Re c1, Im c1, Re c2, ...) of c * sin/cos(m . q)."""

    def __init__(self, seed: int, modes_per_component: int = 3):
        rng = np.random.default_rng(seed)
        self.terms = []
        for _ in range(6):
            comp = []
            for _ in range(modes_per_component):
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
    field, loop = _TrigField(seed), _LoopField(seed)
    rng = np.random.default_rng(seed % 1000)
    for q in map(tuple, rng.uniform(-7.0, 7.0, size=(50, 3))):
        # A cosine mode is the sine of x + pi/2, and rounding that sum moves
        # the argument by up to half an ulp of |x| + pi/2.
        tol = 1e-15 * (1.0 + np.max(np.abs(field.freq @ q)))
        value, jet = field.jet(q)
        assert np.max(np.abs(value - loop.value(q))) <= tol
        assert np.array_equal(field.value(q), value)
        for a in range(3):
            assert np.max(np.abs(jet[a] - loop.partial(q, a))) <= tol


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), frac=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_perturbed_partials_are_exact_over_seeds(seed, frac):
    chart = perturbed_ruled_chart(0.05, seed)
    box = chart.sample_box
    _check_chart_basics(chart, [tuple(lo + f * (hi - lo) for lo, f, hi in zip(box.lo, frac, box.hi))])


def test_huge_perturbation_partials_match_central_differences():
    # |y| ~ 1e120, so |y|^3 would overflow a float: the chain rule must not form it.
    _check_chart_basics(perturbed_ruled_chart(1e120, 0), RULED_SAMPLES)


def test_grid_requires_two_points_per_axis():
    with pytest.raises(ValueError):
        list(ruled_chart().sample_box.grid(1))
