import ast
import inspect
import json
import math
import operator
from fractions import Fraction

import numpy as np
import pytest

from cp2ricci import cli
from cp2ricci.exact import checks
from cp2ricci.exact import identities as ids
from cp2ricci.exact.mpoly import MPoly, exact_divide, variables
from cp2ricci.exact.resultant import prs_resultant, sturm_count
from cp2ricci.report import EXACT_ZERO, report_to_json, run_report
from sylvester import sylvester_resultant

EXACT_CHECKS = {**checks.ALL_CHECKS, "hopf": checks.check_hopf}


@pytest.mark.parametrize("name", EXACT_CHECKS)
def test_every_exact_check_holds_and_reports_exact_zero_in_standard_json(name):
    result = EXACT_CHECKS[name]()
    assert result[0] is True and isinstance(result[1], dict)
    report = cli._exact_report(name, result)
    assert report.status == "pass" and report.max_abs_residual == EXACT_ZERO
    text = report_to_json(run_report(name, {}, [report]))  # allow_nan=False
    assert json.loads(text)["reports"][0]["maxAbsResidual"] == EXACT_ZERO


def test_kappa_closed_forms_satisfy_both_relations():
    ok, detail = checks.check_kappa()
    assert ok
    assert detail == {"residual_a": "0", "residual_b": "0"}


def test_kappa_detects_mutated_numerator_sign():
    ra, rb = checks._kappa_residuals(-ids.KAPPA1_CLOSED, ids.KAPPA3_CLOSED)
    assert not (ra.is_zero() and rb.is_zero())


def test_kappa_clearing_is_exact_beyond_linear_relations():
    # kappa1^2 + kappa3^2 = S^2 / D at the closed forms, so D (kappa1^2 +
    # kappa3^2) - S^2 holds; times (1 + kappa1) its terms have kappa degrees
    # 0 to 3, and each needs its own power of D when cleared.
    s = ids.BETA**2 + ids.GAMMA**2 - 1
    quadratic = ids.D_DENOM * (ids.KAPPA1**2 + ids.KAPPA3**2) - s**2
    for relation in (quadratic, quadratic * (1 + ids.KAPPA1)):
        assert checks._cleared(relation, ids.KAPPA1_CLOSED, ids.KAPPA3_CLOSED).is_zero()
    assert not checks._cleared(
        quadratic + ids.KAPPA1, ids.KAPPA1_CLOSED, ids.KAPPA3_CLOSED
    ).is_zero()


def test_emergence_factorization_and_constants():
    ok, detail = checks.check_f_emergence()
    assert ok
    # regression: cleared relation = 2 * D * (mu - gamma) * F_POLY
    assert detail["c"] == "2"
    assert detail["denominator_power"] == 1
    assert detail["beta_power"] == 0
    assert detail["vanishes_at_mu_eq_gamma"] is True


@pytest.mark.parametrize(
    "check, numerator",
    [
        (checks.check_f_emergence, "cleared_gauss_numerator"),
        (checks.check_f_derivative, "derivative_along_e3_numerator"),
    ],
    ids=["f_emergence", "f_derivative"],
)
def test_a_vanishing_numerator_fails_its_check(monkeypatch, check, numerator):
    # Zero is a multiple of anything; peeling factors off a zero quotient
    # must stop, so the cap turns an endless loop into a failure.
    monkeypatch.setattr(checks, numerator, lambda: MPoly.zero(ids.RING_VARS))
    calls = []

    def capped(p, q):
        calls.append(q)
        if len(calls) > 20:
            raise RuntimeError("exact_divide called without bound")
        return exact_divide(p, q)

    monkeypatch.setattr(checks, "exact_divide", capped)
    ok, detail = check()
    assert ok is False and "c" not in detail
    assert detail == {"divisible": True, "quotient": "0"}


def test_emergence_cleared_numerator_vanishes_at_mu_eq_gamma():
    w = checks.cleared_gauss_numerator()
    assert w.subs_poly("mu", ids.GAMMA).is_zero()


def test_derivative_factorization_and_constants():
    ok, detail = checks.check_f_derivative()
    assert ok
    # regression: cleared derivative = beta * companion (no D power)
    assert detail["c"] == "1"
    assert detail["beta_power"] == 1
    assert detail["denominator_power"] == 0


def test_derivative_mutation_reports_single_term_difference(monkeypatch):
    # The derivative is beta times the companion, so the best-guess multiple
    # is beta times the mutated companion and the difference is -beta times
    # the mutation: an added term, or the coefficient 1 of mu^3 raised to 2.
    cases = [
        (ids.BETA**2 * ids.GAMMA**3, "-1 * (3, 3, 0, 0, 0)"),
        (ids.MU**3, "-1 * (1, 0, 3, 0, 0)"),
    ]
    for mutation, term in cases:
        with monkeypatch.context() as m:
            m.setattr(ids, "F_E3_DERIVED", ids.F_E3_DERIVED + mutation)
            ok, detail = checks.check_f_derivative()
        assert not ok
        assert detail == {"divisible": False, "difference_terms": [term]}


def test_derivative_mutation_with_a_higher_leading_term_is_reported_incompatible(monkeypatch):
    # kappa1^8 outranks every term of the derivative, which has no kappa1.
    monkeypatch.setattr(ids, "F_E3_DERIVED", ids.F_E3_DERIVED + ids.KAPPA1**8)
    ok, detail = checks.check_f_derivative()
    assert not ok
    assert detail == {"divisible": False, "difference_terms": ["leading terms incompatible"]}


def test_multiple_reports_the_monomial_factor_or_why_there_is_none():
    f = ids.F_POLY
    assert checks._multiple(Fraction(-3, 2) * ids.BETA**2 * ids.D_DENOM * f, f) == {
        "c": "-3/2", "beta_power": 2, "denominator_power": 1
    }
    assert checks._multiple(f * (ids.GAMMA + 1), f) == {
        "divisible": True, "quotient": repr(ids.GAMMA + 1)
    }
    assert checks._multiple(f + 1, f) == {"divisible": False}


@pytest.mark.parametrize(
    "target, ok, detail",
    [
        (lambda t: t, True, {"sign": 1, "total_degree": 26, "n_terms": 21}),  # our row order reproduces the sign
        (lambda t: -t, True, {"sign": -1, "total_degree": 26, "n_terms": 21}),
        (lambda t: t + 1, False, {"computed_terms": 21, "matches": False}),
    ],
    ids=["target", "negated-target", "target-plus-1"],
)
def test_resultant_matches_its_target_up_to_sign(target, ok, detail, monkeypatch):
    monkeypatch.setattr(ids, "RESULTANT_TARGET", target(ids.RESULTANT_TARGET))
    got_ok, got = checks.check_resultant()
    assert got_ok is ok and {k: got[k] for k in detail} == detail and (ok or got == detail)
    (report,) = cli.cmd_symbolic(["resultant"])
    assert (report.status, report.max_abs_residual) == (("pass", EXACT_ZERO) if ok else ("fail", math.inf))


def _arithmetic(text: str, names: dict):
    """Value of a string of names, integers, parentheses, +, -, * and ^ (power)."""
    ops = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Pow: operator.pow}

    def value(node):
        if isinstance(node, ast.BinOp) and type(node.op) in ops:
            return ops[type(node.op)](value(node.left), value(node.right))
        if isinstance(node, ast.Name):
            return names[node.id]
        if isinstance(node, ast.Constant) and type(node.value) is int:
            return node.value
        raise ValueError(f"not arithmetic: {ast.dump(node)}")

    return value(ast.parse(text.replace("^", "**"), mode="eval").body)


def test_resultant_factored_form_is_the_target():
    # The report states the factorisation as text; read back, it is the target.
    _, detail = checks.check_resultant()
    read = _arithmetic(detail["factored_form"], {"mu": ids.MU, "beta": ids.BETA})
    assert read == ids.RESULTANT_TARGET
    assert _arithmetic("(mu^2-1)^2", {"mu": ids.MU}) == ids.MU**4 - 2 * ids.MU**2 + 1


def test_resultant_direct_equality():
    for route in (sylvester_resultant, prs_resultant):
        assert route(ids.F_POLY, ids.F_E3_DERIVED, "gamma") == ids.RESULTANT_TARGET


def test_resultant_specializes_consistently():
    # spot-check the factored form at rational points through evaluation
    res = ids.RESULTANT_TARGET
    for beta, mu in [(Fraction(1, 2), Fraction(2)), (Fraction(3), Fraction(1, 3))]:
        point = {"beta": beta, "gamma": 0, "mu": mu, "kappa1": 0, "kappa3": 0}
        expected = (
            202500
            * (mu**2 - 1) ** 4
            * beta**4
            * mu**6
            * (4 * mu**2 * beta**2 + (mu**2 - 1) ** 2) ** 2
        )
        assert res.evaluate(point) == expected


def test_mu1_branch():
    ok, d = checks.check_mu1()
    assert ok
    assert d["f_factorization_exact"] is True
    assert d["companion_divisible"] is True
    assert d["companion_quotient_is_denominator"] is True  # quotient (g-1)^2 + b^2
    assert d["quadratic_at_root"] == "0" and d["quartic_at_root"] == "0"
    assert d["disc_middle"] == "-176" and d["disc_tail"] == "-336"
    assert d["unique_real_solution"] is True


def test_mu1_discriminants_come_from_the_quadratics(monkeypatch):
    # 8 g^2 + 12 g - 15: discriminant 144 + 480, so the tail is no longer positive.
    monkeypatch.setattr(ids, "MU1_TAIL_QUAD", 8 * ids.GAMMA**2 + 12 * ids.GAMMA - 15)
    ok, detail = checks.check_mu1()
    assert detail["disc_middle"] == "-176"
    assert detail["disc_tail"] == "624"
    assert detail["unique_real_solution"] is False
    assert not ok


def test_mu1_quartic_structure_catches_a_slip_in_a_quadratic(monkeypatch):
    # The quartic is written out term by term, not built from the quadratics
    # it is compared with, so a slip in the source of one of them is caught
    # although 16 g^2 - 4 g + 4 is still positive (discriminant -240).
    right = "MU1_MIDDLE_QUAD = 16 * GAMMA**2 - 4 * GAMMA + 3"
    source = inspect.getsource(ids)
    assert checks.check_mu1()[1]["quartic_structure_exact"] is True and right in source
    slipped = {"__name__": "slipped_identities", "__package__": "cp2ricci.exact"}
    exec(compile(source.replace(right, right[:-1] + "4"), ids.__file__, "exec"), slipped)
    for name in ("MU1_MIDDLE_QUAD", "MU1_QUARTIC"):
        monkeypatch.setattr(ids, name, slipped[name])
    ok, detail = checks.check_mu1()
    assert detail["disc_middle"] == "-240" and detail["disc_tail"] == "-336"
    assert detail["quartic_structure_exact"] is False
    assert detail["unique_real_solution"] is False
    assert not ok


@pytest.mark.parametrize(
    "tail",
    [ids.GAMMA**3 + 8 * ids.GAMMA**2 + 12 * ids.GAMMA + 15, 8 * ids.GAMMA**2 + 12 * ids.GAMMA + 15 + ids.BETA],
)
def test_mu1_malformed_quadratic_is_a_failed_check(monkeypatch, tail):
    monkeypatch.setattr(ids, "MU1_TAIL_QUAD", tail)
    ok, detail = checks.check_mu1()
    assert detail["disc_middle"] == "-176"
    assert detail["disc_tail"].startswith("not a quadratic in gamma with constant coefficients")
    assert detail["unique_real_solution"] is False
    assert not ok


def test_mu1_factorization_spelled_out():
    f1 = ids.F_POLY.subs_poly("mu", 1)
    product = ids.MU1_QUADRATIC * ((ids.GAMMA - 1) ** 2 + ids.BETA**2)
    assert f1 == product
    q = exact_divide(ids.F_E3_DERIVED.subs_poly("mu", 1), ids.MU1_QUARTIC)
    assert q == (ids.GAMMA - 1) ** 2 + ids.BETA**2


def test_mu1_fails_when_the_companion_quotient_has_other_real_zeros(monkeypatch):
    # The quotient becomes (gamma - 1)^2 + beta^2 (1 + gamma), which also
    # vanishes at (beta, gamma) = (3, -2), so (0, 1) is no longer the only
    # real solution although the quartic itself is unchanged.
    mutation = ids.MU1_QUARTIC * ids.GAMMA * ids.BETA**2
    monkeypatch.setattr(ids, "F_E3_DERIVED", ids.F_E3_DERIVED + mutation)
    (report,) = cli.cmd_symbolic(["mu1"])
    assert report.status == "fail" and report.max_abs_residual == math.inf
    assert report.details["companion_quotient_is_denominator"] is False
    assert report.details["unique_real_solution"] is False


def test_mu0_branch():
    ok, detail = checks.check_mu0()
    assert ok
    assert detail == {"reduction_exact": True, "cofactor_is_one_plus_squares": True}


def test_mu0_fails_when_the_gamma_cofactor_has_real_zeros(monkeypatch):
    # The mu = 0 slice becomes gamma * ((beta - 5)^2 + gamma^2 - 1/100): the
    # reduction still matches, but the cofactor vanishes on a small circle
    # around (5, 0), so gamma = 0 no longer follows for every real beta.
    shift = ids.GAMMA * (Fraction(2399, 100) - 10 * ids.BETA)
    monkeypatch.setattr(ids, "F_POLY", ids.F_POLY + shift)
    monkeypatch.setattr(ids, "MU0_PRODUCT", ids.MU0_PRODUCT + shift)
    assert ids.MU0_PRODUCT == ids.GAMMA * ((ids.BETA - 5) ** 2 + ids.GAMMA**2 - Fraction(1, 100))
    (report,) = cli.cmd_symbolic(["mu0"])
    assert report.status == "fail" and report.max_abs_residual == math.inf
    assert report.details["reduction_exact"] is True


def test_mu0_reduction_spelled_out():
    f0 = ids.F_POLY.subs_poly("mu", 0)
    assert f0 == ids.GAMMA**3 + (ids.BETA**2 + 1) * ids.GAMMA
    assert f0 == ids.MU0_PRODUCT


def test_symbolic_runs_every_check_exactly_in_registry_order():
    reports = cli.cmd_symbolic(None)
    names = ["kappa", "f_emergence", "f_derivative", "resultant", "mu1", "mu0"]
    assert [r.name for r in reports] == [f"symbolic_{n}" for n in names]
    assert all(r.status == "pass" and r.max_abs_residual == EXACT_ZERO for r in reports)
    assert [r.name for r in cli.cmd_symbolic(["all"])] == [r.name for r in reports]


def test_symbolic_subset_and_unknown_names():
    (report,) = cli.cmd_symbolic(["mu0"])
    assert report.name == "symbolic_mu0"
    with pytest.raises(ValueError, match="unknown symbolic checks: nope;"):
        cli.cmd_symbolic(["nope"])


def test_check_hopf_certifies_the_equality_radii():
    ok, detail = checks.check_hopf()
    assert ok and all(detail["facts"].values()) and len(detail["facts"]) == 5
    assert list(detail) == ["r_sphere", "r_tube", "balances", "facts"]
    assert detail["r_sphere"] == math.pi / 4
    assert detail["r_tube"] == checks.tube_radius_closed_form()
    assert abs(detail["r_tube"] - 0.33311971) < 1e-7  # regression value
    s5 = math.sqrt(5.0)
    assert detail["r_tube"] == math.atan((1 + s5 - math.sqrt(2 + 2 * s5)) / 2)
    assert checks.check_hopf not in checks.ALL_CHECKS.values()


def test_tube_balance_has_exactly_one_root_in_the_unit_interval():
    # mu = alpha + lambda cleared by t (t^2 - 1) is the quartic Q, whose one
    # root in (0, 1) lies in the sign change that a float scan sees; the
    # other balance keeps one sign on (0, 1).
    (t,) = variables("t")
    alpha, lam, mu = checks.tube_model(t)
    quartic = t**4 - 2 * t**3 - 2 * t**2 - 2 * t + 1
    assert checks._balance(mu, alpha, lam) == quartic
    assert sturm_count(quartic, "t", 0, 1) == 1
    assert checks._balance(lam, alpha, mu) == t**4 + 2 * t**3 - 2 * t**2 + 2 * t + 1
    assert checks.check_hopf()[1]["balances"] == {
        "tube": "t^4 - 2*t^3 - 2*t^2 - 2*t + 1",
        "other_tube": "t^4 + 2*t^3 - 2*t^2 + 2*t + 1",
        "sphere": "t^2 - 1",
    }
    ts = np.tan(np.linspace(0.01, math.pi / 4 - 0.01, 1000))
    signs = np.sign(ts**4 - 2 * ts**3 - 2 * ts**2 - 2 * ts + 1)
    assert int(np.sum(signs[:-1] * signs[1:] < 0)) == 1


def test_closed_form_radius_solves_quartic():
    # tan r satisfies t^4 - 2 t^3 - 2 t^2 - 2 t + 1 = 0
    t = math.tan(checks.tube_radius_closed_form())
    assert abs(t**4 - 2 * t**3 - 2 * t**2 - 2 * t + 1) < 1e-14


def test_check_tube_fails_on_a_wrong_tube_model(monkeypatch):
    # lambda = cot(r - pi/4) with its sign flipped breaks the Hopf lemma and
    # the balances, so the certificate must reject the model.
    model = checks.tube_model

    def flipped(t):
        alpha, (n, d), mu = model(t)
        return alpha, (-n, d), mu

    monkeypatch.setattr(checks, "tube_model", flipped)
    ok, detail = checks.check_hopf()
    assert not ok
    assert not detail["facts"]["hopf_lemma"] and not detail["facts"]["tube_root_is_the_closed_form"]
    [report] = cli.cmd_check_tube()
    assert report.status == "fail" and report.max_abs_residual == math.inf
    assert cli.main(["check", "tube"]) == 1
