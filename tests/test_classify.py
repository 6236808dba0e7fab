import math

import numpy as np
import pytest

from cp2ricci import classify as cl
from cp2ricci import cli
from cp2ricci import curvature as cv
from cp2ricci.charts import perturbed_ruled_chart, ruled_chart, sphere_chart
from cp2ricci.shape import ShapeData, shape_operator
from helpers import box_grid, flip_normal


def _adapted_basis(s):
    """Rows xi, U = (A xi - alpha xi) / beta, W = P U, built independently of
    ``equality_residuals``."""
    u = (s.A @ s.xi - s.alpha * s.xi) / s.hopf_defect
    return np.array([s.xi, u, s.P @ u])


def test_equality_basis_on_ruled_grid():
    chart = ruled_chart()
    for q in box_grid(chart.sample_box, 3):
        s = shape_operator(chart, q)
        block, balance, form = cl.equality_residuals(s)
        assert block < 1e-6 and balance < 1e-6 and form < 1e-6
        basis = _adapted_basis(s)
        a = basis @ s.A @ basis.T
        assert np.max(np.abs(np.diag(a))) < 1e-6
        assert abs(a[0, 1] - s.hopf_defect) < 1e-8
        # the basis is orthonormal and W = P U kills <P xi, U>
        assert np.max(np.abs(basis @ basis.T - np.eye(3))) < 1e-10
        assert abs((s.P @ basis[0]) @ basis[1]) < 1e-10


def test_equality_basis_rejects_hopf_points():
    s = shape_operator(sphere_chart(math.pi / 4), (0.3, 0.7, 0.4))
    with pytest.raises(cl.HopfPoint):
        cl.equality_residuals(s)


def test_ruled_check_on_grid_minimal_mode():
    chart = ruled_chart()
    for q in box_grid(chart.sample_box, 3):
        s = shape_operator(chart, q)
        assert max(cl.equality_residuals(s)[2], abs(s.alpha), abs(float(s.A.trace()))) < 1e-6


def test_perturbed_points_break_equality_with_deficit_oracle():
    # generic perturbations break equality; the deficit is the cross-check:
    # every point with deficit > 1e-3 must show a trace residual > 1e-6
    chart = perturbed_ruled_chart(0.05, seed=123)
    broken = generic = 0
    rng = np.random.default_rng(11)
    lo, hi = np.array(chart.sample_box.lo), np.array(chart.sample_box.hi)
    for _ in range(100):
        q = tuple(lo + (hi - lo) * rng.uniform(size=3))
        s = shape_operator(chart, q)
        d = cv.deficit(s)
        assert d >= -1e-6
        _, balance, _ = cl.equality_residuals(s)
        if d > 1e-3:
            assert balance > 1e-6
            broken += 1
        if balance > 1e-3:
            generic += 1
    assert broken > 50  # the perturbation genuinely leaves the equality set
    assert generic > 50  # and the trace residual is macroscopic generically


def test_perturbed_ruled_residual_matches_direct_aw_norm():
    chart = perturbed_ruled_chart(0.05, seed=123)
    generic = 0
    for q in [(0.4, 1.0, 2.0), (0.8, 4.0, 0.5), (1.1, 2.5, 5.0)]:
        s = shape_operator(chart, q)
        _, u, w = _adapted_basis(s)
        form = cl.equality_residuals(s)[2]
        direct = max(
            float(np.linalg.norm(s.A @ u - s.hopf_defect * s.xi)),
            float(np.linalg.norm(s.A @ w)),
        )
        assert abs(form - direct) < 1e-12
        if form > 1e-3:
            generic += 1
    assert generic >= 2


def test_residuals_invariant_under_normal_flip():
    s = shape_operator(ruled_chart(), (0.6, 1.0, 2.0))
    a, b = cl.equality_residuals(s), cl.equality_residuals(flip_normal(s))
    assert np.max(np.abs(np.subtract(a, b))) < 1e-12


def _in_adapted_basis(M, R):
    """Shape data whose adapted basis (xi, U, W) is the rows of the rotation R and whose shape
    operator has the entries M there: A = Rᵀ M R, P U = W, P W = -U, P xi = 0.  M[2, 0] must be 0,
    so that A xi - alpha xi is along U with beta = M[1, 0] > 0."""
    xi, u, w = R
    return ShapeData.from_matrices(R.T @ M @ R, np.outer(w, u) - np.outer(u, w), xi)


@pytest.mark.parametrize("a02", [0.0, 0.4], ids=["symmetric", "asymmetric"])
def test_equality_residuals_are_the_adapted_entries(a02):
    # a02 = <xi, A W> vanishes for a symmetric A; an asymmetric one sets it.
    # The trace balance |a00 + a11 - a22| is 0.625, against 0.125 for
    # a00 - a11 - a22 and 0.875 for a00 + a11 + a22.
    a00, beta, a11, a12, a22 = 0.5, 0.8, 0.25, 0.3, 0.125
    M = np.array([[a00, beta, a02], [beta, a11, a12], [0.0, a12, a22]])
    R, _ = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))
    s = _in_adapted_basis(M, R)
    assert abs(s.alpha - a00) < 1e-15 and abs(s.hopf_defect - beta) < 1e-15
    block, balance, form = cl.equality_residuals(s)
    assert abs(block - max(a02, a12)) < 1e-12
    assert abs(balance - 0.625) < 1e-12
    assert abs(form - max(math.hypot(a11, a12), math.hypot(a02, a12, a22))) < 1e-12  # |A U - beta xi|, |A W|


def test_ruled_check_reports_the_block_residual_when_it_is_the_largest_basis_term(monkeypatch):
    # In the basis (e1, e2, e3) the block residual |a12| = 0.375 exceeds the
    # trace balance |a00 + a11 - a22| = 0.125, so it sets ruled_equality_basis.
    M = np.array([[0.5, 0.8, 0.0], [0.8, 0.25, 0.375], [0.0, 0.375, 0.625]])
    s = _in_adapted_basis(M, np.eye(3))
    assert cl.equality_residuals(s)[:2] == (0.375, 0.125)
    monkeypatch.setattr(cli, "shape_operator", lambda chart, q, h: s)
    basis = {r.name: r for r in cli.cmd_check_ruled(grid=2)}["ruled_equality_basis"]
    assert basis.max_abs_residual == basis.details["block_residual"] == 0.375
    assert basis.details["trace_residual"] == 0.125 and basis.status == "fail"


def test_ruled_check_reports_alpha_when_it_is_the_largest_term(monkeypatch):
    # Basis (xi, U, W) = (e1, e2, e3) with P U = W: |A U - beta xi| = 0.1,
    # |A W| = 0.3, |tr A| = 0.3 and |alpha| = 0.5.  The ruled form leaves
    # minimality out; the ruled_form check adds it, so only alpha gives 0.5.
    s = _in_adapted_basis(np.array([[0.5, 0.8, 0.0], [0.8, 0.1, 0.0], [0.0, 0.0, -0.3]]), np.eye(3))
    assert s.alpha == 0.5 and s.hopf_defect == 0.8
    assert cl.equality_residuals(s)[2] == 0.3
    monkeypatch.setattr(cli, "shape_operator", lambda chart, q, h: s)
    reports = {r.name: r for r in cli.cmd_check_ruled(grid=2)}
    assert reports["ruled_form"].max_abs_residual == 0.5

