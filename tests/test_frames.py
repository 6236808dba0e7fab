import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2ricci import frames
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.frames import RANK_TOL, RankDeficient, _horizontal_rows, build_frame
from helpers import box_grid, horizontalize


def frame_residuals(frame):
    """Worst-case deviations from the frame invariants: orthonormality of
    [p, i p, e_1, e_2, e_3, n] in R^6 and horizontality of n."""
    K = np.vstack([frame.p.z.view(np.float64), frame.rows])
    return {
        "orthonormality": float(np.abs(K.dot(K.T) - np.eye(6)).max()),
        "normal_horizontality": abs(float(frame.rows[4].dot(frame.rows[0]))),
    }


def test_ruled_frame_invariants():
    frame = build_frame(ruled_chart(), (0.6, 1.0, 2.0))
    res = frame_residuals(frame)
    assert res["orthonormality"] < 1e-12
    assert res["normal_horizontality"] < 1e-12


def test_rank_deficient_at_coordinate_singularity():
    with pytest.raises(RankDeficient):
        build_frame(ruled_chart(), (0.0, 1.0, 2.0))


def test_sphere_normal_is_horizontal():
    frame = build_frame(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4))
    n = frame.rows[4]
    assert abs(n.dot((1j * frame.p.z).view(np.float64))) < 1e-12
    assert abs(n.dot(frame.p.z.view(np.float64))) < 1e-12


def test_coeffs_express_frame_in_horizontalized_partials():
    chart = ruled_chart()
    q = (0.7, 2.0, 1.1)
    frame = build_frame(chart, q)
    p = chart.evaluate(*q)
    ws = [horizontalize(w, p) for w in chart.partials(*q)]
    for i, e in enumerate(frame.rows[1:4].view(np.complex128)):
        rebuilt = sum((frame.coeffs[i, a] * ws[a] for a in range(3)), np.zeros(3, complex))
        assert np.max(np.abs(rebuilt - e)) < 1e-12


def _random_unit(rng):
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z / np.linalg.norm(z)


def test_horizontalize_kills_vertical_direction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = _random_unit(rng)
        assert np.linalg.norm(horizontalize(1j * p, p)) < 1e-14
        assert np.linalg.norm(horizontalize(p, p)) < 1e-14


def test_horizontalize_fixes_horizontal_vectors_and_is_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = _random_unit(rng)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        hw = horizontalize(w, p)
        assert abs(np.vdot(p, hw).real) < 1e-14
        assert abs(np.vdot(1j * p, hw).real) < 1e-14
        again = horizontalize(hw, p)
        assert np.max(np.abs(again - hw)) < 1e-14


def test_batched_horizontal_rows_equal_the_per_point_projection():
    rng = np.random.default_rng(21)
    p = rng.normal(size=(25, 3)) + 1j * rng.normal(size=(25, 3))
    p /= np.linalg.norm(p, axis=1)[:, None]
    D = rng.normal(size=(25, 3, 3)) + 1j * rng.normal(size=(25, 3, 3))
    W = _horizontal_rows(p, D)
    assert W.shape == (25, 3, 6)
    for k in range(25):
        assert np.array_equal(W[k], _horizontal_rows(p[k], D[k]))
        ws = [horizontalize(w, p[k]) for w in D[k]]
        assert np.max(np.abs(W[k] - np.array(ws).view(np.float64))) < 1e-15


def test_stacked_inverse_cholesky_equals_the_per_point_closed_form_bitwise():
    # Random row triples, then ones with a zero first or last row or a NaN entry,
    # whose pivots are not positive: the NaN entries fall in the same places.
    rng = np.random.default_rng(5)
    X = rng.normal(size=(40, 3, 6))
    X[30, 0] = 0.0
    X[31, 2] = 0.0
    X[32, 1, 3] = math.nan
    C = frames._inverse_cholesky_stack(X.reshape(4, 10, 3, 6))
    assert C.shape == (4, 10, 3, 3)
    expected = np.array([frames._inverse_cholesky(x) for x in X])
    assert np.array_equal(C.reshape(40, 3, 3), expected, equal_nan=True)
    assert np.isnan(expected[30:33]).any(axis=(1, 2)).all()


def test_frame_determinism():
    a = build_frame(ruled_chart(), (0.6, 1.0, 2.0))
    b = build_frame(ruled_chart(), (0.6, 1.0, 2.0))
    assert np.array_equal(a.rows, b.rows)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_frame_invariants_on_grids_of_both_charts():
    for chart in (ruled_chart(), sphere_chart(math.pi / 6)):
        for q in box_grid(chart.sample_box, 3):
            res = frame_residuals(build_frame(chart, q))
            assert res["orthonormality"] < 1e-12
            assert res["normal_horizontality"] < 1e-12


def test_non_finite_chart_is_rank_deficient():
    with pytest.raises(RankDeficient):
        build_frame(perturbed_ruled_chart(float("nan"), 0), (0.6, 1.0, 2.0))


def test_one_nan_remainder_is_rank_deficient(monkeypatch):
    # A NaN last row of the second factor leaves e_1 and e_2 finite, so only
    # the third remainder is NaN; the guard must still fail.
    inverse, calls = frames._inverse_cholesky, []

    def nan_last_row_of_second(X):
        C = inverse(X)
        if calls:
            C[2] = np.nan
        calls.append(X)
        return C

    monkeypatch.setattr(frames, "_inverse_cholesky", nan_last_row_of_second)
    with pytest.raises(RankDeficient, match="remainder nan < 1.0e-08"):
        build_frame(ruled_chart(), (0.6, 1.0, 2.0))


_CHARTS = st.one_of(
    st.just(ruled_chart()),
    st.just(sphere_chart(math.pi / 6)),
    st.integers(0, 2**32 - 1).map(lambda seed: perturbed_ruled_chart(0.05, seed)),
)


@settings(max_examples=60, deadline=None)
@given(chart=_CHARTS, frac=st.tuples(*[st.floats(0.0, 1.0)] * 3))
def test_frame_invariants_and_bookkeeping_over_sample_boxes(chart, frac):
    box = chart.sample_box
    q = tuple(lo + f * (hi - lo) for lo, f, hi in zip(box.lo, frac, box.hi))
    frame = build_frame(chart, q)
    res = frame_residuals(frame)
    assert res["orthonormality"] <= 1e-12
    assert res["normal_horizontality"] <= 1e-12
    p = chart.evaluate(*q)
    ws = np.array([horizontalize(w, p) for w in chart.partials(*q)])
    for i, e in enumerate(frame.rows[1:4].view(np.complex128)):
        assert np.max(np.abs(frame.coeffs[i] @ ws - e)) <= 1e-12
    n = frame.rows[4]
    assert n[np.argmax(np.abs(n))] >= 0.0


def _gram_schmidt_frame(chart, q):
    """Reference transcription of the per-vector Gram-Schmidt frame kernel:
    the rows [e_1, e_2, e_3], ``coeffs`` and the normal, all real."""
    p = chart.evaluate(*q)
    K = np.empty((5, 6))  # the known rows [p, i p, e_1, e_2, e_3]
    K[:2] = np.array([p, 1j * p]).view(np.float64)
    W = chart.partials(*q).view(np.float64)
    W = W - W.dot(K[:2].T).dot(K[:2])
    coeffs = np.zeros((3, 3))
    for a in range(3):
        known = K[: 2 + a]
        y = W[a]
        row = np.zeros(3)
        row[a] = 1.0
        for _ in range(2):
            s = known.dot(y)
            y = y - s.dot(known)
            row -= s[2:].dot(coeffs[:a])
        norm = math.sqrt(y.dot(y))
        if not norm >= RANK_TOL:
            raise RankDeficient(f"Gram-Schmidt remainder {norm:.3e} < {RANK_TOL:.1e}")
        K[2 + a] = (1.0 / norm) * y
        coeffs[a] = row / norm
    best, best_norm2 = 0, -1.0
    for k, norm2 in enumerate((1.0 - (K * K).sum(axis=0)).tolist()):
        if norm2 > best_norm2 + 1e-15:
            best, best_norm2 = k, norm2
    n = -K[:, best].dot(K)
    n[best] += 1.0
    n -= K.dot(n).dot(K)
    n /= math.sqrt(n.dot(n))
    lead = int(abs(n).argmax())
    n *= 1.0 if n[lead] >= 0 else -1.0
    return K[2:], coeffs, n


@pytest.mark.parametrize(
    "chart",
    [ruled_chart(), sphere_chart(math.pi / 6), perturbed_ruled_chart(0.05, 1950078598)],
    ids=lambda c: c.name,
)
def test_cholesky_qr_frame_matches_gram_schmidt(chart):
    rng = np.random.default_rng(20)
    box = chart.sample_box
    for _ in range(300):
        q = tuple(rng.uniform(box.lo, box.hi).tolist())
        E, coeffs, n = _gram_schmidt_frame(chart, q)
        frame = build_frame(chart, q)
        assert np.max(np.abs(frame.rows[1:4] - E)) <= 1e-14
        assert np.max(np.abs(frame.coeffs - coeffs)) <= 1e-14
        assert np.max(np.abs(frame.rows[4] - n)) <= 1e-14


def _rank_verdict(build, chart, q):
    try:
        build(chart, q)
    except RankDeficient:
        return "RankDeficient"
    return "ok"


@pytest.mark.parametrize("d", [1e-6, 1e-7, 3e-8, 2e-8, 1.5e-8, 1.2e-8, 1.05e-8, 9e-9, 1e-9])
def test_rank_guard_agrees_with_gram_schmidt_near_singularities(d):
    # Ruled: the t-partial's horizontal part has norm sin u cos u at u = d.
    # Sphere: the horizontal phi- and t-partials become parallel at s = pi/2.
    for chart, q in (
        (ruled_chart(), (d, 1.0, 2.0)),
        (sphere_chart(math.pi / 6), (0.7, math.pi / 2 - d, 0.4)),
    ):
        expected = _rank_verdict(_gram_schmidt_frame, chart, q)
        assert _rank_verdict(build_frame, chart, q) == expected, (chart.name, d)


def test_frame_rows_are_read_only_and_start_with_the_fiber_direction():
    chart, q = sphere_chart(math.pi / 6), (0.3, 0.7, 0.4)
    frame = build_frame(chart, q)
    assert frame.rows.shape == (5, 6) and not frame.rows.flags.writeable
    assert np.array_equal(frame.p.z, chart.evaluate(*q))
    assert np.array_equal(frame.rows[0].view(np.complex128), 1j * frame.p.z)
