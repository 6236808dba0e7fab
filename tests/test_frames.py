import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.frames import RankDeficient, build_frame, frame_residuals, horizontalize


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
    assert abs(frame.normal.real_inner(frame.p.times_i())) < 1e-12
    assert abs(frame.normal.real_inner(frame.p)) < 1e-12


def test_coeffs_express_frame_in_horizontalized_partials():
    chart = ruled_chart()
    q = (0.7, 2.0, 1.1)
    frame = build_frame(chart, q)
    p = chart.evaluate(*q)
    ws = [horizontalize(w, p) for w in chart.partials(*q)]
    for i, e in enumerate(frame.tangent):
        rebuilt = sum((frame.coeffs[i, a] * ws[a].z for a in range(3)), np.zeros(3, complex))
        assert np.max(np.abs(rebuilt - e.z)) < 1e-12


def test_frame_determinism():
    a = build_frame(ruled_chart(), (0.6, 1.0, 2.0))
    b = build_frame(ruled_chart(), (0.6, 1.0, 2.0))
    assert np.array_equal(a.normal.z, b.normal.z)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_orient_flag_flips_normal_only():
    a = build_frame(ruled_chart(), (0.6, 1.0, 2.0))
    b = build_frame(ruled_chart(), (0.6, 1.0, 2.0), orient=-1)
    assert np.array_equal(a.normal.z, -b.normal.z)
    assert np.array_equal(a.coeffs, b.coeffs)


def test_frame_invariants_on_grids_of_both_charts():
    for chart in (ruled_chart(), sphere_chart(math.pi / 6)):
        for q in chart.sample_box.grid(3):
            res = frame_residuals(build_frame(chart, q))
            assert res["orthonormality"] < 1e-12
            assert res["normal_horizontality"] < 1e-12


def test_non_finite_chart_is_rank_deficient():
    with pytest.raises(RankDeficient):
        build_frame(perturbed_ruled_chart(float("nan"), 0), (0.6, 1.0, 2.0))


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
    ws = np.array([horizontalize(w, p).z for w in chart.partials(*q)])
    for i, e in enumerate(frame.tangent):
        assert np.max(np.abs(frame.coeffs[i] @ ws - e.z)) <= 1e-12
    comps = frame.normal.real_components()
    assert comps[np.argmax(np.abs(comps))] >= 0.0
    flipped = build_frame(chart, q, orient=-1)
    assert np.array_equal(flipped.normal.z, -frame.normal.z)
