"""The exact verification suite: the equality-case identities and the
equality radii of the Hopf models.

Each check returns ``(ok, detail)``.  The symbolic checks are named only by
their key in ``ALL_CHECKS``; ``check_hopf``, the certificate that ``check
tube`` reports, stands beside them.  Every check here is exact: a pass means
a polynomial identity holds with zero remainder over the rationals, or a
Sturm count is exact, never merely to numerical tolerance.  Derived
proportionality constants (the power of the common denominator and the
rational factor relating cleared numerators to their factored forms) are
computed by exact division and reported in ``detail``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import identities as ids
from .mpoly import MPoly, exact_divide, sum_of_products, variables
from .resultant import prs_resultant, sturm_count


def _multiple(w: MPoly, target: MPoly) -> dict:
    """How w is a multiple c * beta^m * D^k of ``target``: the detail
    {c, beta_power, denominator_power}, or {divisible: False} when target
    does not divide w, or {divisible: True, quotient} when the quotient has
    another shape, zero included."""
    quotient = exact_divide(w, target)
    if quotient is None:
        return {"divisible": False}
    q, powers = quotient, []
    for factor in (ids.D_DENOM, ids.BETA):
        powers.append(0)
        while q.terms and (nxt := exact_divide(q, factor)) is not None:
            q, powers[-1] = nxt, powers[-1] + 1
    if q.is_zero() or not q.is_constant():
        return {"divisible": True, "quotient": repr(quotient)}
    k, m = powers
    return {"c": str(q.constant_value()), "beta_power": m, "denominator_power": k}


def _cleared(relation: MPoly, k1: MPoly, k3: MPoly) -> MPoly:
    """D^d * relation at kappa1 = k1 / D, kappa3 = k3 / D, with D = D_DENOM and
    d the total degree of ``relation`` in (kappa1, kappa3): its term
    c * kappa1^a * kappa3^b becomes c * k1^a * k3^b * D^(d - a - b), so the
    result is a polynomial, and zero exactly when the relation holds, at any
    degree."""
    terms = [
        (c, a, b)
        for a, ca in enumerate(relation.coefficients("kappa1"))
        for b, c in enumerate(ca.coefficients("kappa3"))
        if c.terms
    ]
    d = max((a + b for _, a, b in terms), default=0)
    pairs = []
    for c, a, b in terms:
        rest = [x**n for x, n in zip((k1, k3, ids.D_DENOM), (a, b, d - a - b)) if n] or [c**0]
        pairs.append((c, math.prod(rest[1:], start=rest[0]), 1))
    return sum_of_products(relation.vars, pairs)


def _kappa_residuals(k1: MPoly, k3: MPoly) -> tuple[MPoly, MPoly]:
    """Both kappa relations cleared at the numerators k1, k3 over D_DENOM."""
    return (
        _cleared(ids.KAPPA_RELATION_A, k1, k3),
        _cleared(ids.KAPPA_RELATION_B, k1, k3),
    )


def check_kappa() -> tuple[bool, dict]:
    """Closed forms for kappa1, kappa3 satisfy both linear relations exactly."""
    ra, rb = _kappa_residuals(ids.KAPPA1_CLOSED, ids.KAPPA3_CLOSED)
    ok = ra.is_zero() and rb.is_zero()
    detail = {"residual_a": repr(ra), "residual_b": repr(rb)}
    return ok, detail


def cleared_gauss_numerator() -> MPoly:
    """Numerator of the combined curvature relation after inserting the
    derivative rules (one power of the common denominator cleared)."""
    pairs = (
        (ids.GAUSS_COEFF_DBETA, ids.E3_BETA, 1),
        (ids.GAUSS_COEFF_DGAMMA, ids.E3_GAMMA, 1),
        (ids.GAUSS_TAIL, ids.D_DENOM, 1),
    )
    return sum_of_products(ids.RING_VARS, pairs)


def check_f_emergence() -> tuple[bool, dict]:
    """The cleared curvature relation equals c * D^k * (mu - gamma) * F_POLY."""
    w = cleared_gauss_numerator()
    detail = _multiple(w, (ids.MU - ids.GAMMA) * ids.F_POLY)
    if "c" not in detail:
        return False, detail
    ok = detail["vanishes_at_mu_eq_gamma"] = w.subs_poly("mu", ids.GAMMA).is_zero()
    return ok, detail


def derivative_along_e3_numerator() -> MPoly:
    """Cleared numerator of dF/de3 = F_beta * e3(beta) + F_gamma * e3(gamma)."""
    fb = ids.F_POLY.derivative("beta")
    fg = ids.F_POLY.derivative("gamma")
    return sum_of_products(ids.RING_VARS, ((fb, ids.E3_BETA, 1), (fg, ids.E3_GAMMA, 1)))


def check_f_derivative() -> tuple[bool, dict]:
    """dF/de3, cleared, equals c * beta^m * D^k times the degree-six companion.

    On mismatch the leading-term ratio is used to form a best-guess multiple
    and the term-by-term difference is reported, which pinpoints a mutated
    coefficient in the transcribed companion polynomial.
    """
    w = derivative_along_e3_numerator()
    detail = _multiple(w, ids.F_E3_DERIVED)
    if detail.get("divisible") is False:
        # Best-guess multiple from the leading terms, then report the difference.
        (exp_w, c_w) = w.leading_term()
        (exp_g, c_g) = ids.F_E3_DERIVED.leading_term()
        delta = tuple(a - b for a, b in zip(exp_w, exp_g))
        if any(d < 0 for d in delta):
            detail["difference_terms"] = ["leading terms incompatible"]
        else:
            diff = w - MPoly(w.vars, {delta: Fraction(c_w, c_g)}) * ids.F_E3_DERIVED
            detail["difference_terms"] = [f"{coeff} * {exps}" for exps, coeff in diff.sorted_terms()]
    ok = "c" in detail
    return ok, detail


def check_resultant() -> tuple[bool, dict]:
    """Resultant of F_POLY and the companion w.r.t. gamma matches the target.

    The match is accepted up to overall sign (the determinant convention is
    ours); the sign actually found is reported.
    """
    res = prs_resultant(ids.F_POLY, ids.F_E3_DERIVED, "gamma")
    if res == ids.RESULTANT_TARGET:
        sign = 1
    elif res == -ids.RESULTANT_TARGET:
        sign = -1
    else:
        return False, {"computed_terms": len(res.terms), "matches": False}
    detail = {
        "sign": sign,
        "total_degree": res.total_degree(),
        "n_terms": len(res.terms),
        "factored_form": "202500*(mu^2-1)^4*beta^4*mu^6*(4*mu^2*beta^2+(mu^2-1)^2)^2",
        "resultant": repr(res),
    }
    return True, detail


def _discriminant(c, b, a):
    """Discriminant of a x^2 + b x + c, on Fractions or on ``MPoly``."""
    return b * b - 4 * a * c


def check_mu1() -> tuple[bool, dict]:
    """The mu = 1 branch: factorizations, the common root, and uniqueness.

    Uniqueness of the real solution (beta, gamma) = (0, 1) of the quartic
    display follows from positivity: both gamma-quadratics have negative
    discriminant and positive leading coefficient, so every summand of the
    quartic is nonnegative and simultaneous vanishing forces beta = 0,
    gamma = 1.  The companion is the quartic times its quotient, so the
    claim also needs that quotient to be the denominator (gamma - 1)^2 +
    beta^2, whose one real zero is the same point.
    """
    detail: dict = {}
    f1 = ids.F_POLY.subs_poly("mu", 1)
    d1 = ids.D_DENOM.subs_poly("mu", 1)
    factored = ids.MU1_QUADRATIC * d1
    detail["f_factorization_exact"] = f1 == factored

    g1 = ids.F_E3_DERIVED.subs_poly("mu", 1)
    q = exact_divide(g1, ids.MU1_QUARTIC)
    detail["companion_divisible"] = q is not None
    if q is not None:
        detail["companion_quotient"] = repr(q)
        detail["companion_quotient_is_denominator"] = q == d1

    point = {"beta": 0, "gamma": 1, "mu": 1, "kappa1": 0, "kappa3": 0}
    at_root = [ids.MU1_QUADRATIC.evaluate(point), ids.MU1_QUARTIC.evaluate(point)]
    detail["quadratic_at_root"], detail["quartic_at_root"] = map(str, at_root)
    root_ok = at_root == [0, 0]

    positivity = True
    for key, quad in (("disc_middle", ids.MU1_MIDDLE_QUAD), ("disc_tail", ids.MU1_TAIL_QUAD)):
        coeffs = quad.coefficients("gamma")
        if len(coeffs) != 3 or not all(k.is_constant() for k in coeffs):
            detail[key] = f"not a quadratic in gamma with constant coefficients: {quad!r}"
            positivity = False
            continue
        c, b, a = (k.constant_value() for k in coeffs)
        disc = _discriminant(c, b, a)
        detail[key] = str(disc)
        positivity = positivity and disc < 0 < a
    structural = ids.MU1_QUARTIC == (
        8 * ids.BETA**4
        + ids.MU1_MIDDLE_QUAD * ids.BETA**2
        + (ids.GAMMA - 1) ** 2 * ids.MU1_TAIL_QUAD
    )
    detail["quartic_structure_exact"] = structural
    unique = detail["unique_real_solution"] = positivity and structural and root_ok and q == d1
    return detail["f_factorization_exact"] and unique, detail


def check_mu0() -> tuple[bool, dict]:
    """The mu = 0 branch: F_POLY reduces to gamma * (1 + beta^2 + gamma^2).

    The cofactor of gamma is at least 1 on the real plane, so gamma = 0 for
    every real beta; both facts are exact identities over Q[beta, gamma]."""
    f0 = ids.F_POLY.subs_poly("mu", 0)
    cofactor = exact_divide(f0, ids.GAMMA)
    detail = {
        "reduction_exact": f0 == ids.MU0_PRODUCT,
        "cofactor_is_one_plus_squares": cofactor is not None
        and cofactor - 1 == ids.BETA**2 + ids.GAMMA**2,
    }
    return all(detail.values()), detail


Ratio = tuple[MPoly, MPoly]  # (numerator, denominator)


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
    pairs = [(n, exact_divide(clear, d), k) for k, (n, d) in zip((1, -1, -1), (x, y, z))]
    return sum_of_products(clear.vars, pairs)


def _hopf_lemma(alpha: Ratio, lam: Ratio, mu: Ratio) -> bool:
    """lambda mu = (lambda + mu) alpha / 2 + 1, cleared of denominators."""
    (an, ad), (ln, ld), (mn, md) = alpha, lam, mu
    return 2 * ln * mn * ad == (ln * md + mn * ld) * an + 2 * ld * md * ad


def tube_radius_closed_form() -> float:
    """arctan((1 + sqrt 5 - sqrt(2 + 2 sqrt 5)) / 2), the root in (0, pi/4) of
    the tube balance, a palindromic quartic in t = tan r."""
    s5 = math.sqrt(5.0)
    return math.atan((1.0 + s5 - math.sqrt(2.0 + 2.0 * s5)) / 2.0)


def check_hopf() -> tuple[bool, dict]:
    """Radii at which the two Hopf models attain equality, certified exactly.

    Equality needs mu = alpha + lambda or lambda = alpha + mu.  Cleared in
    t = tan r, the tube's first balance Q has one root in (0, 1), i.e. r in
    (0, pi/4), and the second none; the sphere's has its one root in
    (0, inf) at t = 1, r = pi/4.  Modulo s^2 - 5, Q is (t^2 - (1+s)t + 1)
    (t^2 - (1-s)t + 1), the discriminants 2 + 2s and 2 - 2s < 0 (s = sqrt 5
    > 1), so the real roots of Q are (1 + s -+ sqrt(2 + 2s)) / 2, of product
    1, and the one in (0, 1) is tan of the closed form.  Both models satisfy
    the Hopf lemma.  The detail: both radii, the balances, each fact's truth.
    """
    s, t = variables("s t")
    alpha, lam, mu = tube_model(t)
    sphere_alpha, sphere_lam, sphere_mu = sphere_model(t)
    tube, other = _balance(mu, alpha, lam), _balance(lam, alpha, mu)
    sphere = _balance(sphere_mu, sphere_alpha, sphere_lam)
    near, far = t**2 - (1 + s) * t + 1, t**2 - (1 - s) * t + 1

    def congruent(x: MPoly, y: MPoly) -> bool:  # modulo s^2 - 5
        return exact_divide(x - y, s**2 - 5) is not None

    facts = {
        "tube_quartic_one_root_in_(0,1)": sturm_count(tube, "t", 0, 1) == 1,
        "other_tube_quartic_no_root_in_(0,1)": sturm_count(other, "t", 0, 1) == 0,
        "sphere_root_in_(0,inf)_only_at_1": sturm_count(sphere, "t", 0) == 1
        and sphere.evaluate({"s": 0, "t": 1}) == 0,
        "tube_root_is_the_closed_form": congruent(tube, near * far)
        and congruent(_discriminant(*near.coefficients("t")), 2 + 2 * s)
        and congruent(_discriminant(*far.coefficients("t")), 2 - 2 * s)
        and sturm_count(s**2 - 5, "s", 1) == 1,
        "hopf_lemma": _hopf_lemma(alpha, lam, mu)
        and _hopf_lemma(sphere_alpha, sphere_lam, sphere_mu),
    }
    balances = {"tube": repr(tube), "other_tube": repr(other), "sphere": repr(sphere)}
    radii = {"r_sphere": math.pi / 4, "r_tube": tube_radius_closed_form()}
    return all(facts.values()), {**radii, "balances": balances, "facts": facts}


ALL_CHECKS = {
    "kappa": check_kappa,
    "f_emergence": check_f_emergence,
    "f_derivative": check_f_derivative,
    "resultant": check_resultant,
    "mu1": check_mu1,
    "mu0": check_mu0,
}
