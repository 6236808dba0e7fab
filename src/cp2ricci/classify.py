"""Pointwise classification residuals and the equality radii of Hopf models.

At a non-Hopf point the equality-adapted basis is e1 = xi,
e2 = (A xi - alpha xi) / beta, e3 = P e2.  Equality of the curvature bound at
the point is certified when the shape operator in this basis has vanishing
(1,3) and (2,3) entries and trace balance a11 + a22 = a33; those two residuals
are what ``equality_basis`` reports.  ``ruled_check`` measures the distance of
the shape operator from the ruled normal form A xi = alpha xi + beta U,
A U = beta xi, A W = 0, with minimality (alpha = tr A = 0).

For Hopf models the equality condition is solved in closed form:
``hopf_equality_radii`` returns the geodesic-sphere radius (analytically
pi/4) and the radius of the tube over a complex quadric curve (by bisection
on the classical type-B principal curvature model, cross-checked against the
arctangent closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .shape import ShapeData


class HopfPoint(RuntimeError):
    """The structure vector is principal here (beta below tolerance), so the
    non-Hopf basis construction does not apply."""


class NoRoot(RuntimeError):
    """Bisection bracket carries no sign change (wrong curvature model)."""


@dataclass(frozen=True)
class EqualityBasisReport:
    """Shape operator entries in the equality-adapted basis, plus residuals."""

    entries: dict[str, float]
    block_residual: float  # max(|a13|, |a23|)
    trace_residual: float  # |a11 + a22 - a33|
    basis: np.ndarray  # rows e1, e2, e3 in frame coordinates


def _adapted_basis(shape: ShapeData, tol: float) -> np.ndarray:
    beta = shape.hopf_defect
    if beta <= tol:
        raise HopfPoint(f"hopf defect {beta:.3e} <= tol {tol:.1e}")
    e1 = shape.xi
    e2 = (shape.A @ shape.xi - shape.alpha * shape.xi) / beta
    e3 = shape.P @ e2
    return np.vstack([e1, e2, e3])


def equality_basis(shape: ShapeData, tol: float = 1e-6) -> EqualityBasisReport:
    """Construct the equality-adapted basis and report the two residuals.

    Raises ``HopfPoint`` when the defect is below ``tol``; Hopf points are
    handled by the closed-form radii instead.
    """
    basis = _adapted_basis(shape, tol)
    a = basis @ shape.A @ basis.T
    entries = {
        "a11": float(a[0, 0]),
        "a12": float(a[0, 1]),
        "a13": float(a[0, 2]),
        "a22": float(a[1, 1]),
        "a23": float(a[1, 2]),
        "a33": float(a[2, 2]),
    }
    return EqualityBasisReport(
        entries=entries,
        block_residual=float(max(abs(a[0, 2]), abs(a[1, 2]))),
        trace_residual=float(abs(a[0, 0] + a[1, 1] - a[2, 2])),
        basis=basis,
    )


def ruled_check(shape: ShapeData, tol: float = 1e-6) -> float:
    """Residual of the minimal ruled normal form at a non-Hopf point.

    With U = (A xi - alpha xi)/beta and W = P U (a unit vector orthogonal to
    xi and U), returns max(|A U - beta xi|, |A W|, |alpha|, |tr A|).
    """
    basis = _adapted_basis(shape, tol)
    _, u, w = basis
    beta = shape.hopf_defect
    return max(
        float(np.linalg.norm(shape.A @ u - beta * shape.xi)),
        float(np.linalg.norm(shape.A @ w)),
        abs(shape.alpha),
        abs(float(np.trace(shape.A))),
    )


@dataclass(frozen=True)
class HopfRadii:
    """Equality radii of the two Hopf models, with provenance strings."""

    r_sphere: float
    r_tube: float
    r_tube_closed_form: float
    bisection_residual: float
    sphere_model: str
    tube_model: str

    @property
    def agreement(self) -> float:
        return abs(self.r_tube - self.r_tube_closed_form)


def tube_balance(r: float) -> float:
    """Trace balance 2 cot 2r + cot(r - pi/4) - cot(r + pi/4) for the tube
    model; its root in (0, pi/4) is the equality radius."""
    return (
        2.0 / math.tan(2.0 * r)
        + 1.0 / math.tan(r - math.pi / 4)
        - 1.0 / math.tan(r + math.pi / 4)
    )


def _bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo, fhi = fn(lo), fn(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise NoRoot(f"no sign change on [{lo}, {hi}]: f(lo)={flo:.3e}, f(hi)={fhi:.3e}")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def tube_radius_closed_form() -> float:
    """arctan((1 + sqrt 5 - sqrt(2 + 2 sqrt 5)) / 2), the exact root of the
    tube trace balance (substituting t = tan r turns the balance into the
    palindromic quartic t^4 - 2 t^3 - 2 t^2 - 2 t + 1)."""
    s5 = math.sqrt(5.0)
    return math.atan((1.0 + s5 - math.sqrt(2.0 + 2.0 * s5)) / 2.0)


def hopf_equality_radii() -> HopfRadii:
    """Radii at which the two Hopf model families attain equality.

    Geodesic sphere, principal curvatures (2 cot 2r, cot r, cot r): the trace
    balance forces 2 cot 2r = 0, i.e. r = pi/4 analytically.  Tube over a
    complex quadric curve, principal curvatures (2 cot 2r, cot(r - pi/4),
    cot(r + pi/4)): the balance is solved by bisection on (0.01, pi/4 - 0.01)
    to 1e-12 and cross-checked against the closed form.
    """
    r_tube = _bisect(tube_balance, 0.01, math.pi / 4 - 0.01, tol=1e-12)
    return HopfRadii(
        r_sphere=math.pi / 4,
        r_tube=r_tube,
        r_tube_closed_form=tube_radius_closed_form(),
        bisection_residual=abs(tube_balance(r_tube)),
        sphere_model="geodesic sphere: principal curvatures (2cot2r, cot r, cot r)",
        tube_model="tube over complex quadric curve: principal curvatures "
        "(2cot2r, cot(r-pi/4), cot(r+pi/4))",
    )
