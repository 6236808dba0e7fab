"""Pointwise classification residuals and the equality radii of Hopf models.

At a non-Hopf point the equality-adapted basis is (xi, U, W) with
U = (A xi - alpha xi) / beta and W = P U.  Equality of the curvature bound at
the point is certified when the shape operator in this basis has vanishing
(1,3) and (2,3) entries and trace balance a11 + a22 = a33.
``equality_residuals`` builds the basis once and reports those two residuals
together with the distance from the ruled form A U = beta xi, A W = 0;
minimality (alpha = tr A = 0) is a separate residual of the caller.

The equality radii of the Hopf models are closed forms, pi/4 for the
geodesic sphere and ``tube_radius_closed_form`` for the tube over a complex
quadric curve, which ``hopf_equality_radii`` certifies exactly on the
principal curvatures as rational functions of t = tan r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exact.mpoly import MPoly, exact_divide, variables
from .exact.sturm import sturm_count
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


Ratio = tuple[MPoly, MPoly]  # (numerator, denominator)


@dataclass(frozen=True)
class HopfRadii:
    """Equality radii of the two Hopf models, the cleared balances behind
    them, and the exact facts certifying them (name -> holds)."""

    r_sphere: float
    r_tube: float
    balances: dict[str, str]
    facts: dict[str, bool]


def sphere_model(t: MPoly) -> tuple[Ratio, Ratio, Ratio]:
    """(alpha, lambda, mu) = (2 cot 2r, cot r, cot r) of the geodesic sphere
    of radius r, in t = tan r."""
    return (1 - t**2, t), (t**0, t), (t**0, t)


def tube_model(t: MPoly) -> tuple[Ratio, Ratio, Ratio]:
    """(alpha, lambda, mu) = (2 cot 2r, cot(r - pi/4), cot(r + pi/4)) of the
    tube of radius r over a complex quadric curve, in t = tan r."""
    return (1 - t**2, t), (1 + t, t - 1), (1 - t, 1 + t)


def _balance(x: Ratio, y: Ratio, z: Ratio) -> MPoly:
    """x - y - z cleared by the product of their distinct denominators."""
    clear = math.prod({repr(d): d for _, d in (x, y, z)}.values())
    return sum(k * n * exact_divide(clear, d) for k, (n, d) in zip((1, -1, -1), (x, y, z)))


def _hopf_lemma(alpha: Ratio, lam: Ratio, mu: Ratio) -> bool:
    """lambda mu = (lambda + mu) alpha / 2 + 1, cleared of denominators."""
    (an, ad), (ln, ld), (mn, md) = alpha, lam, mu
    return 2 * ln * mn * ad == (ln * md + mn * ld) * an + 2 * ld * md * ad


def tube_radius_closed_form() -> float:
    """arctan((1 + sqrt 5 - sqrt(2 + 2 sqrt 5)) / 2), the root in (0, pi/4) of
    the tube balance, a palindromic quartic in t = tan r."""
    s5 = math.sqrt(5.0)
    return math.atan((1.0 + s5 - math.sqrt(2.0 + 2.0 * s5)) / 2.0)


def hopf_equality_radii() -> HopfRadii:
    """Radii at which the two Hopf models attain equality, certified exactly.

    Equality needs mu = alpha + lambda or lambda = alpha + mu.  Cleared in
    t = tan r, the tube's first balance Q has one root in (0, 1), i.e. r in
    (0, pi/4), and the second none; the sphere's has its one root in
    (0, inf) at t = 1, r = pi/4.  Modulo s^2 - 5, Q is (t^2 - (1+s)t + 1)
    (t^2 - (1-s)t + 1), the discriminants 2 + 2s and 2 - 2s < 0 (s = sqrt 5
    > 1), so the real roots of Q are (1 + s -+ sqrt(2 + 2s)) / 2, of product
    1, and the one in (0, 1) is tan of the closed form.  Both models satisfy
    the Hopf lemma.
    """
    s, t = variables("s t")
    alpha, lam, mu = tube_model(t)
    sphere_alpha, sphere_lam, sphere_mu = sphere_model(t)
    tube, other = _balance(mu, alpha, lam), _balance(lam, alpha, mu)
    sphere = _balance(sphere_mu, sphere_alpha, sphere_lam)
    near, far = t**2 - (1 + s) * t + 1, t**2 - (1 - s) * t + 1

    def congruent(x: MPoly, y: MPoly) -> bool:  # modulo s^2 - 5
        return exact_divide(x - y, s**2 - 5) is not None

    def discriminant(f: MPoly) -> MPoly:
        c, b, a = f.coefficients("t")
        return b**2 - 4 * a * c

    facts = {
        "tube_quartic_one_root_in_(0,1)": sturm_count(tube, "t", 0, 1) == 1,
        "other_tube_quartic_no_root_in_(0,1)": sturm_count(other, "t", 0, 1) == 0,
        "sphere_root_in_(0,inf)_only_at_1": sturm_count(sphere, "t", 0) == 1
        and sphere.evaluate({"s": 0, "t": 1}) == 0,
        "tube_root_is_the_closed_form": congruent(tube, near * far)
        and congruent(discriminant(near), 2 + 2 * s)
        and congruent(discriminant(far), 2 - 2 * s)
        and sturm_count(s**2 - 5, "s", 1) == 1,
        "hopf_lemma": _hopf_lemma(alpha, lam, mu)
        and _hopf_lemma(sphere_alpha, sphere_lam, sphere_mu),
    }
    balances = {"tube": repr(tube), "other_tube": repr(other), "sphere": repr(sphere)}
    return HopfRadii(math.pi / 4, tube_radius_closed_form(), balances, facts)
