import random
from collections import Counter
from fractions import Fraction

import pytest

from cp2ricci.exact import resultant
from cp2ricci.exact.mpoly import MPoly, variables
from cp2ricci.exact.resultant import DegenerateResultant, prs_resultant

import sylvester
from helpers import coeff_of, degree_in
from sylvester import bareiss_det, cofactor_det, sylvester_matrix, sylvester_resultant

VARS = ("x", "a", "b")
X, A, B = variables(VARS)


def test_linear_resultant_is_root_difference():
    assert sylvester_resultant(X - A, X - B, "x") == A - B


def test_common_root_gives_zero():
    assert sylvester_resultant(X**2 - 1, X - 1, "x") == MPoly.zero(VARS)


def test_sylvester_layout():
    m = sylvester_matrix(X**2 - 1, X - 1, "x")
    assert len(m) == 3 and all(len(row) == 3 for row in m)
    # first deg(q)=1 row carries p's coefficients, descending powers
    assert m[0][0] == 1 and m[0][1] == MPoly.zero(VARS) and m[0][2] == -1


def _random_poly(rng, max_deg_x=3, max_coef_deg=1):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        e = (rng.randint(0, max_deg_x), rng.randint(0, max_coef_deg), rng.randint(0, max_coef_deg))
        terms[e] = Fraction(rng.randint(-5, 5))
    return MPoly(VARS, terms)


def test_resultant_swap_sign_rule():
    rng = random.Random(7)
    done = 0
    while done < 12:
        p, q = _random_poly(rng), _random_poly(rng)
        dp, dq = degree_in(p, "x"), degree_in(q, "x")
        if dp < 1 or dq < 1:
            continue
        lhs = sylvester_resultant(p, q, "x")
        rhs = sylvester_resultant(q, p, "x")
        sign = -1 if (dp * dq) % 2 else 1
        assert lhs == sign * rhs
        done += 1


def test_bareiss_matches_cofactor_on_random_4x4():
    rng = random.Random(99)
    for trial in range(6):
        m = [[_random_poly(rng, max_deg_x=1) for _ in range(4)] for _ in range(4)]
        if trial % 2 == 0:
            m[0][0] = MPoly.zero(VARS)  # exercise the pivot swap
        assert bareiss_det(m) == cofactor_det(m)


def _random_entry(rng):
    """An integer polynomial in x, a, b of total degree at most two."""
    monomials = [(i, j, k) for i in range(3) for j in range(3) for k in range(3) if i + j + k <= 2]
    return MPoly(VARS, {e: rng.randint(-4, 4) for e in rng.sample(monomials, rng.randint(0, 4))})


def test_bareiss_matches_cofactor_on_random_5x5_degree_two():
    rng = random.Random(5)
    for trial in range(4):
        m = [[_random_entry(rng) for _ in range(5)] for _ in range(5)]
        if trial == 0:
            m[0][0] = MPoly.zero(VARS)  # zero pivot at the first step
        if trial == 1:
            # rows 0 and 1 proportional in the first two columns: the second
            # pivot is zero after one elimination step
            m[1][0], m[1][1] = 2 * m[0][0], 2 * m[0][1]
        assert bareiss_det(m) == cofactor_det(m)


def test_bareiss_singular_matrix():
    row = [X, A, B, X + A]
    m = [row, row, [_ * 2 for _ in row], [B, B, B, B]]
    assert bareiss_det(m) == MPoly.zero(VARS)


def test_degenerate_inputs_rejected():
    with pytest.raises(DegenerateResultant):
        sylvester_resultant(A, X - B, "x")
    with pytest.raises(DegenerateResultant):
        sylvester_resultant(X - A, B, "x")


def test_resultant_commutes_with_evaluation():
    # Specializing the coefficient variables before or after eliminating x
    # agrees as long as the leading coefficients stay nonzero.
    rng = random.Random(3)
    uni = ("x",)
    done = 0
    while done < 8:
        p, q = _random_poly(rng), _random_poly(rng)
        dp, dq = degree_in(p, "x"), degree_in(q, "x")
        if dp < 1 or dq < 1:
            continue
        point = {"a": Fraction(rng.randint(-4, 4)), "b": Fraction(rng.randint(-4, 4))}
        if coeff_of(p, "x", dp).evaluate({**point, "x": 0}) == 0:
            continue
        if coeff_of(q, "x", dq).evaluate({**point, "x": 0}) == 0:
            continue

        def specialize(poly):
            terms = {}
            for k in range(degree_in(poly, "x") + 1):
                c = coeff_of(poly, "x", k).evaluate({**point, "x": 0})
                if c:
                    terms[(k,)] = c
            return MPoly(uni, terms)

        for route in (sylvester_resultant, prs_resultant):
            full = route(p, q, "x").evaluate({**point, "x": 0})
            evaluated = route(specialize(p), specialize(q), "x").constant_value()
            assert full == evaluated
        done += 1


def test_bareiss_matches_cofactor_on_random_sparse_matrices():
    # Half the entries are zero, so many products in bareiss_det vanish;
    # some matrices start on a zero pivot and some are singular.
    rng = random.Random(11)
    zero = MPoly.zero(VARS)
    swaps = singular = 0
    for trial in range(40):
        n = rng.randint(2, 5)
        m = [[_random_entry(rng) if rng.random() < 0.5 else zero for _ in range(n)]
             for _ in range(n)]
        if trial % 4 == 1:
            m[0][0] = zero
            m[rng.randrange(1, n)][0] = X + 1
        if trial % 4 == 2:
            m[1] = [2 * e for e in m[0]]
        det = bareiss_det(m)
        assert det == cofactor_det(m)
        swaps += m[0][0].is_zero()
        singular += det.is_zero()
    assert swaps >= 10 and singular >= 10


def _random_in_x(rng, deg):
    """A polynomial of degree ``deg`` in x whose coefficients are nonzero
    combinations of 1, a, b; each lower power of x is missing half the time."""
    terms = {}
    for k in range(deg + 1):
        if k == deg or rng.random() < 0.5:
            for e in rng.sample([(0, 0), (1, 0), (0, 1)], rng.randint(1, 2)):
                terms[(k, *e)] = rng.choice([-3, -2, -1, 1, 2, 3])
    return MPoly(VARS, terms)


def test_prs_matches_sylvester_sign_included(monkeypatch):
    # Record how far each pseudo-remainder of the chain falls below its
    # divisor's degree, so the test can show it met degree gaps.
    drops = []

    def recording(a, b):
        r = real(a, b)
        drops.append(len(b) - len(r) if r else 0)
        return r

    real = resultant._pseudo_remainder
    monkeypatch.setattr(resultant, "_pseudo_remainder", recording)
    rng = random.Random(2024)
    seen = Counter()
    for trial in range(150):
        p, q = _random_in_x(rng, rng.randint(1, 5)), _random_in_x(rng, rng.randint(1, 5))
        if trial % 3 == 0:
            common = _random_in_x(rng, rng.randint(1, 2))
            p, q = p * common, q * common
        drops.clear()
        res = prs_resultant(p, q, "x")
        assert res == sylvester_resultant(p, q, "x")
        dp, dq = degree_in(p, "x"), degree_in(q, "x")
        seen["zero"] += res.is_zero()
        seen["degree gap"] += max(drops) >= 2
        seen["deg p < deg q, both odd"] += dp < dq and dp * dq % 2 == 1
    assert len(seen) == 3 and min(seen.values()) >= 5, seen
    for constant in (MPoly.const(3, VARS), A * B - 1):
        with pytest.raises(DegenerateResultant):
            prs_resultant(constant, X**2 - A, "x")
        with pytest.raises(DegenerateResultant):
            prs_resultant(X**2 - A, constant, "x")


def test_prs_gap_chain_matches_sylvester():
    # x^4 + a x + 1 by a x^3 + b leaves (a^3 - a b) x + a^2: the chain skips
    # degree 2, so the next step divides by g h^2 and sets h = g^2 / h, both
    # nontrivial since a x^3 + b is not monic.
    p, q = X**4 + A * X + 1, A * X**3 + B
    assert prs_resultant(p, q, "x") == sylvester_resultant(p, q, "x")
    assert prs_resultant(q, p, "x") == sylvester_resultant(q, p, "x")


def test_prs_inexact_division_raises(monkeypatch):
    monkeypatch.setattr(resultant, "exact_divide", lambda p, q: None)
    with pytest.raises(ArithmeticError):
        prs_resultant(X**4 + A * X + 1, A * X**3 + B, "x")


def test_bareiss_inexact_division_raises(monkeypatch):
    # Every Bareiss update divides exactly by the previous pivot; a failed
    # division is a broken invariant, even under -O.
    monkeypatch.setattr(sylvester, "exact_divide", lambda p, q: None)
    with pytest.raises(ArithmeticError):
        bareiss_det(sylvester_matrix(X**2 + A, X**2 + B * X + 1, "x"))
