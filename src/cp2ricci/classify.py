"""Pointwise classification residuals at non-Hopf points.

At a non-Hopf point the equality-adapted basis is (xi, U, W) with
U = (A xi - alpha xi) / beta and W = P U.  Equality of the curvature bound at
the point is certified when the shape operator in this basis has vanishing
(1,3) and (2,3) entries and trace balance a11 + a22 = a33.
``equality_residuals`` builds the basis once and reports those two residuals
together with the distance from the ruled form A U = beta xi, A W = 0;
minimality (alpha = tr A = 0) is a separate residual of the caller.  The
Hopf models' equality radii are certified by ``exact.checks.check_hopf``.
"""

from __future__ import annotations

import math

import numpy as np

from .shape import ShapeData


class HopfPoint(RuntimeError):
    """The structure vector is principal here (beta below tolerance), so the
    non-Hopf basis construction does not apply."""


def equality_residuals(shape: ShapeData, tol: float = 1e-6) -> tuple[float, float, float]:
    """(block, trace_balance, ruled_form) in the adapted basis (xi, U, W).

    With U = (A xi - alpha xi) / beta and W = P U, and a_ij the entries of
    the shape operator in that basis, block = max(|a13|, |a23|),
    trace_balance = |a11 + a22 - a33| and ruled_form =
    max(|A U - beta xi|, |A W|).  Raises ``HopfPoint`` when the defect beta
    is below ``tol``; Hopf points are handled by the closed-form radii
    instead.
    """
    beta = shape.hopf_defect
    if beta <= tol:
        raise HopfPoint(f"hopf defect {beta:.3e} <= tol {tol:.1e}")
    A, xi = shape.A, shape.xi
    u = (A @ xi - shape.alpha * xi) / beta
    w = shape.P @ u
    basis = np.array([xi, u, w])
    (a00, _, a02), (_, a11, a12), (_, _, a22) = (basis @ A @ basis.T).tolist()
    au, aw = A @ u - beta * xi, A @ w
    ruled_form = math.sqrt(max(au.dot(au), aw.dot(aw)))  # max(|A U - beta xi|, |A W|)
    return max(abs(a02), abs(a12)), abs(a00 + a11 - a22), ruled_form

