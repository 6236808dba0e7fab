from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cp2ricci.exact import mpoly
from cp2ricci.exact.mpoly import (
    MAX_DEGREE,
    MPoly,
    exact_divide,
    sum_of_products,
    variables,
)

from helpers import coeff_of, degree_in

X, Y, Z = variables("x y z")
VARS = ("x", "y", "z")


@st.composite
def mpolys(draw, integral=False):
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(3))
        c = Fraction(draw(st.integers(-9, 9)), 1 if integral else draw(st.integers(1, 9)))
        terms[exps] = terms.get(exps, Fraction(0)) + c
    return MPoly(VARS, terms)


def test_derivative_of_cube():
    b, g, m, *_ = variables("beta gamma mu kappa1 kappa3")
    assert (g**3).derivative("gamma") == 3 * g**2


def test_difference_of_squares():
    b, g, *_ = variables("beta gamma mu kappa1 kappa3")
    assert (b + g) * (b - g) == b**2 - g**2


@settings(max_examples=60, deadline=None)
@given(mpolys(), mpolys(), mpolys())
def test_ring_axioms(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert (p * q) * r == p * (q * r)
    assert p * q == q * p


@settings(max_examples=60, deadline=None)
@given(mpolys())
def test_no_zero_coefficients_stored(p):
    q = p - p
    assert q.is_zero() and not q.terms
    for c in (p * 2 - p - p).terms.values():
        assert c != 0


@settings(max_examples=30, deadline=None)
@given(mpolys())
def test_pow_matches_repeated_multiplication(p):
    assert p**3 == p * p * p
    assert p**1 == p and p**2 == p * p
    assert p**0 == MPoly.const(1, VARS)


@pytest.mark.parametrize("c", [0, 3, -2, Fraction(5, 3), Fraction(4, 2)])
def test_equality_with_a_number_is_equality_with_the_constant(c):
    assert MPoly.const(c, VARS) == c
    assert MPoly.const(c + 1, VARS) != c and X + c != c and X * 0 == 0


@settings(max_examples=40, deadline=None)
@given(mpolys(), mpolys())
def test_exact_divide_recovers_factor(q, t):
    if q.is_zero():
        return
    got = exact_divide(q * t, q)
    assert got is not None and got == t


def _stored_form(p):
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in p.terms.values()
    )


@settings(max_examples=60, deadline=None)
@given(mpolys(), mpolys(), mpolys(integral=True), st.integers(0, 3))
def test_coefficients_are_int_when_integral(p, q, n, k):
    results = [p + q, p - q, p * q, p * n, n * n, p**k, n**k]
    results += [p.subs_poly("x", q), n.subs_poly("y", n), p.derivative("x"), n.derivative("z")]
    results += [sum_of_products(VARS, [(p, q, 1), (n, q, -1)]), sum_of_products(VARS, [(n, n, 1), (k * n, n, -1)])]
    results += [p.subs_poly("x", k), n.subs_poly("y", -k), n.subs_poly("z", Fraction(k, 2))]
    results += [p.subs_poly("y", 3 * Z**2), n.subs_poly("x", -2 * Y), n.subs_poly("z", Fraction(1, 2) * X)]
    results += [p.subs_poly("x", MPoly.const(k, VARS)), n.subs_poly("y", Fraction(k, 2) * X * Z)]
    results += [sum_of_products(VARS, [(p, q, 1), (n, n, -1), (q, p, -1)])]
    results += [sum_of_products(VARS, [(n, q, 1), (p, n, -1)]), sum_of_products(VARS, [])]
    for divisor in (q, n):
        if not divisor.is_zero():
            results += [exact_divide(p * divisor, divisor), exact_divide(n * divisor, divisor)]
    for r in results:
        assert _stored_form(r), r.terms


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_exact_divide_rejects_a_constant_offset(integral, data):
    q = data.draw(mpolys(integral))
    t = data.draw(mpolys(integral))
    c = data.draw(st.fractions(min_value=-9, max_value=9, max_denominator=1 if integral else 9))
    if q.is_constant() or c == 0:
        return
    # q | q*t + c would force q | c, impossible for non-constant q.
    assert exact_divide(q * t + c, q) is None
    assert exact_divide(q * t, q) == t


def test_constant_value_stays_a_fraction():
    p = 6 * X - 4 * Y
    assert all(type(c) is int for c in p.terms.values())
    for value in (MPoly.const(3, VARS).constant_value(), MPoly.zero(VARS).constant_value()):
        assert type(value) is Fraction
    # constant_coeff is the stored form: int when integral, else a Fraction.
    assert [type(MPoly.const(c, VARS).constant_coeff()) for c in (3, 0, Fraction(6, 2))] == [int] * 3
    assert MPoly.const(Fraction(-1, 3), VARS).constant_coeff() == Fraction(-1, 3)
    with pytest.raises(ValueError):
        (X + 1).constant_coeff()
    half = exact_divide(X + 1, MPoly.const(2, VARS))
    assert half == Fraction(1, 2) * X + Fraction(1, 2)
    assert all(type(c) is Fraction and c == Fraction(1, 2) for c in half.terms.values())


def test_exact_divide_by_constant():
    assert exact_divide(2 * X + 4, MPoly.const(2, VARS)) == X + 2


def test_degree_and_coeff_queries():
    p = 3 * X**2 * Y - X * Y + 5
    assert p.total_degree() == 3
    assert p.coefficients("x") == [MPoly.const(5, VARS), -Y, 3 * Y]
    assert p.coefficients("z") == [p]
    assert degree_in(p, "x") == 2 and degree_in(p, "z") == 0
    assert coeff_of(p, "x", 2) == 3 * Y and coeff_of(p, "x", 0) == MPoly.const(5, VARS)


@settings(max_examples=100, deadline=None)
@given(mpolys(), st.sampled_from(VARS))
def test_coefficients_rebuild_the_polynomial(p, name):
    cs = p.coefficients(name)
    v = MPoly.var(name, VARS)
    assert sum((c * v**k for k, c in enumerate(cs)), MPoly.zero(VARS)) == p
    assert len(cs) == degree_in(p, name) + 1
    assert not cs or not cs[-1].is_zero()
    for k, c in enumerate(cs):
        assert c == coeff_of(p, name, k)
        assert degree_in(c, name) <= 0


def test_subs_poly():
    p = X**2 - Y
    assert p.subs_poly("x", Y) == Y**2 - Y
    assert p.subs_poly("x", 3) == 9 - Y
    assert p.subs_poly("x", MPoly.zero(VARS)) == -Y == p.subs_poly("x", 0)


@pytest.mark.parametrize("x", [3, -2, 0, Fraction(-5, 3)])
@settings(max_examples=40, deadline=None)
@given(p=mpolys(), name=st.sampled_from(VARS))
def test_subs_poly_of_a_number_matches_the_polynomial_route(x, p, name):
    # A number is the constant monomial; both equal powers times coefficients.
    c = MPoly.const(x, VARS)
    assert p.subs_poly(name, x) == p.subs_poly(name, c) == _subs_reference(p, name, c)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.data())
def test_evaluate_at_int_points_matches_fraction_points(integral, data):
    p = data.draw(mpolys(integral))
    point = {v: data.draw(st.integers(-5, 5)) for v in VARS}
    got = p.evaluate(point)
    assert type(got) is Fraction
    assert got == p.evaluate({v: Fraction(x) for v, x in point.items()})


def test_evaluate_matches_substitution():
    p = X**2 * Y - Z + Fraction(1, 2)
    val = p.evaluate({"x": 2, "y": Fraction(1, 3), "z": -1})
    assert val == Fraction(4, 3) + 1 + Fraction(1, 2)


@st.composite
def exponents(draw, cap=MAX_DEGREE):
    """An exponent tuple in x, y, z of total degree at most ``cap``."""
    e = []
    for _ in VARS:
        e.append(draw(st.integers(0, cap - sum(e))))
    return tuple(draw(st.permutations(e)))


@st.composite
def term_maps(draw, cap=MAX_DEGREE):
    """A tuple-keyed term map whose exponents reach up to the field limit."""
    keys = draw(st.lists(exponents(cap), max_size=6, unique=True))
    return {e: Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9))) for e in keys}


def _grlex(exps):
    return sum(exps), exps


@settings(max_examples=100, deadline=None)
@given(term_maps())
def test_term_order_is_tuple_grlex(terms):
    p = MPoly(VARS, terms)
    expected = sorted(((e, c) for e, c in terms.items() if c), key=lambda t: _grlex(t[0]))[::-1]
    assert p.sorted_terms() == expected
    if expected:
        assert p.leading_term() == expected[0]
        assert p.total_degree() == sum(expected[0][0])
    for i, v in enumerate(VARS):
        assert len(p.coefficients(v)) - 1 == max((e[i] for e, _ in expected), default=-1)


@settings(max_examples=60, deadline=None)
@given(mpolys(), term_maps(cap=MAX_DEGREE - 9), st.fractions(-9, 9, max_denominator=9))
def test_exact_divide_near_the_field_limit(q, t_terms, c):
    # mpolys() has total degree at most 9, so q * t stays within the field.
    t = MPoly(VARS, t_terms)
    if q.is_zero():
        return
    assert exact_divide(q * t, q) == t
    if not q.is_constant() and c != 0:
        assert exact_divide(q * t + c, q) is None


@settings(max_examples=100, deadline=None)
@given(exponents(), exponents())
def test_monomial_divisibility_is_fieldwise(a, b):
    got = exact_divide(MPoly(VARS, {a: 3}), MPoly(VARS, {b: 2}))
    if all(x >= y for x, y in zip(a, b)):
        assert got == MPoly(VARS, {tuple(x - y for x, y in zip(a, b)): Fraction(3, 2)})
    else:
        assert got is None


def test_degrees_beyond_the_field_overflow_instead_of_wrapping():
    top = MPoly(VARS, {(MAX_DEGREE, 0, 0): 1})
    assert top.leading_term() == ((MAX_DEGREE, 0, 0), 1)
    assert repr(X ** (MAX_DEGREE - 1) * Y) == f"x^{MAX_DEGREE - 1}*y"
    for exps in [(MAX_DEGREE + 1, 0, 0), (0, 0, MAX_DEGREE + 1), (MAX_DEGREE, 1, 0), (1 << 40, 0, 0)]:
        with pytest.raises(OverflowError):
            MPoly(VARS, {exps: 1})
    for a, b in [(top, X), (top, Z + 1), (Y ** (MAX_DEGREE - 2) * Z, Y * Z)]:
        with pytest.raises(OverflowError):
            a * b
    for base, n in [(X, MAX_DEGREE + 1), (X * Y, MAX_DEGREE // 2 + 1), (Z**2 + 1, MAX_DEGREE)]:
        with pytest.raises(OverflowError):
            base**n
    assert (X * Y) ** (MAX_DEGREE // 2) == MPoly(VARS, {(MAX_DEGREE // 2,) * 2 + (0,): 1})
    assert MPoly.zero(VARS) ** (MAX_DEGREE + 1) == MPoly.zero(VARS)


def _schoolbook(p, q):
    """p * q term by term on exponent tuples, through the constructor, which
    raises OverflowError at the same total degrees as ``*``."""
    out = MPoly.zero(VARS)
    for e1, c1 in p.sorted_terms():
        for e2, c2 in q.sorted_terms():
            out = out + MPoly(VARS, {tuple(x + y for x, y in zip(e1, e2)): c1 * c2})
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fused_mul_sub_is_the_difference_of_products(data):
    caps = st.sampled_from([3, MAX_DEGREE // 2, MAX_DEGREE])
    a, b, c, d = (MPoly(VARS, data.draw(term_maps(data.draw(caps)))) for _ in range(4))
    try:
        expected = _schoolbook(a, b) - _schoolbook(c, d)
    except OverflowError:
        # Either product overflowing makes the fused form overflow.
        with pytest.raises(OverflowError):
            sum_of_products(VARS, ((a, b, 1), (c, d, -1)))
        return
    assert sum_of_products(VARS, ((a, b, 1), (c, d, -1))) == expected == a * b - c * d
    cancelled = sum_of_products(VARS, ((a, b, 1), (b, a, -1)))
    assert cancelled.is_zero() and not cancelled.terms


def _subs_reference(p, name, value):
    """The polynomial route: powers of the value times the coefficients.  A
    zero coefficient is skipped: the top power, whose coefficient is nonzero,
    overflows whenever a lower one does."""
    parts = (ck * value**k for k, ck in enumerate(p.coefficients(name)) if ck.terms)
    return sum(parts, MPoly.zero(VARS))


@st.composite
def monomials(draw, cap=3):
    """c * x^a y^b z^c of total degree at most ``cap``, c a nonzero int or Fraction."""
    c = draw(st.one_of(st.integers(-9, 9), st.fractions(-9, 9, max_denominator=9)).filter(bool))
    return MPoly(VARS, {draw(exponents(cap)): c})


@pytest.mark.parametrize(
    "value",
    [X, -3 * Y, Fraction(2, 3) * Z, MPoly.const(Fraction(-5, 7), VARS), Fraction(-1, 2) * X**2 * Y],
    ids=["variable", "negative-int", "fraction", "constant", "degree-3"],
)
@settings(max_examples=40, deadline=None)
@given(p=mpolys(), name=st.sampled_from(VARS))
def test_monomial_substitution_matches_the_polynomial_route(value, p, name):
    assert len(value.terms) == 1
    assert p.subs_poly(name, value) == _subs_reference(p, name, value)


def test_monomial_substitution_drops_cancelled_collisions():
    cases = [
        (X * Y - Y**2, "x", Y),
        (2 * X**2 - 8 * Y**2 * Z**2, "x", 2 * Y * Z),
        (X**2 - Fraction(1, 4) * Y**2 + Z, "x", Fraction(1, 2) * Y),
        (X**3 * Y + Fraction(27, 8) * Y, "x", MPoly.const(Fraction(-3, 2), VARS)),
    ]
    for p, name, value in cases:
        got = p.subs_poly(name, value)
        assert got == _subs_reference(p, name, value)
        assert 0 not in got.terms.values()
    assert not (X * Y - Y**2).subs_poly("x", Y).terms
    assert (X**2 - Fraction(1, 4) * Y**2 + Z).subs_poly("x", Fraction(1, 2) * Y) == Z


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_substitution_overflows_where_the_polynomial_route_does(data):
    p = MPoly(VARS, data.draw(term_maps(data.draw(st.sampled_from([3, MAX_DEGREE // 2, MAX_DEGREE])))))
    value = data.draw(monomials(data.draw(st.integers(0, 3))))
    name = data.draw(st.sampled_from(VARS))
    try:
        expected = _subs_reference(p, name, value)
    except OverflowError:
        with pytest.raises(OverflowError):
            p.subs_poly(name, value)
        return
    assert p.subs_poly(name, value) == expected


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_sum_of_products_is_the_chained_sum(data):
    caps = st.sampled_from([3, MAX_DEGREE // 2, MAX_DEGREE])
    pairs = [
        (
            MPoly(VARS, data.draw(term_maps(data.draw(caps)))),
            MPoly(VARS, data.draw(term_maps(data.draw(caps)))),
            data.draw(st.sampled_from([1, -1])),
        )
        for _ in range(data.draw(st.integers(0, 4)))
    ]
    try:
        expected = sum((sign * _schoolbook(a, b) for a, b, sign in pairs), MPoly.zero(VARS))
    except OverflowError:
        # Any product overflowing makes the sum overflow.
        with pytest.raises(OverflowError):
            sum_of_products(VARS, pairs)
        return
    assert sum_of_products(VARS, pairs) == expected
    assert expected == sum((sign * (a * b) for a, b, sign in pairs), MPoly.zero(VARS))
    cancelled = sum_of_products(VARS, pairs + [(b, a, -sign) for a, b, sign in pairs])
    assert cancelled.is_zero() and not cancelled.terms


def test_exact_divide_when_a_remainder_term_cancels_mid_division():
    # x^2 - y^2 by x + y: the first step leaves -x*y - y^2, and the second
    # step's y^2 term cancels the remainder's.
    assert exact_divide(X**2 - Y**2, X + Y) == X - Y
    half = Fraction(1, 2)
    assert exact_divide(half * X**2 - half * Y**2, 2 * X + 2 * Y) == Fraction(1, 4) * (X - Y)
    # After the same cancellation the remainder z is not divisible by x.
    assert exact_divide(X**2 - Y**2 + Z, X + Y) is None


# Each product and substitution checks its degree once, on its finished term
# map before zero terms are dropped (module docstring): a result past
# MAX_DEGREE raises even when its overflowing terms cancel.


def test_a_product_past_the_field_overflows_even_when_its_top_terms_cancel():
    top = MPoly(VARS, {(MAX_DEGREE, 0, 0): 1})
    for pairs in [
        ((top + 1, X, 1), (top, X, -1)),  # x^(MAX+1) cancels, x is left
        ((top, Y, 1), (Y, top, -1)),  # everything cancels
    ]:
        with pytest.raises(OverflowError):
            sum_of_products(VARS, pairs)
    near = X ** (MAX_DEGREE - 1)
    assert sum_of_products(VARS, ((near + 1, X, 1), (near, X, -1))) == X


def test_a_substitution_past_the_field_overflows_even_when_it_cancels():
    near = X * Y ** (MAX_DEGREE - 1)
    assert near.subs_poly("x", Y) == Y**MAX_DEGREE
    with pytest.raises(OverflowError):
        near.subs_poly("x", Y**2)
    # x^2 z^a and x y^2 z^a both move onto y^4 z^a, of degree MAX + 1, and cancel.
    a = MAX_DEGREE - 3
    p = X**2 * Z**a - X * Y**2 * Z**a
    assert p.subs_poly("x", Y) == Y**2 * Z**a - Y**3 * Z**a
    with pytest.raises(OverflowError):
        p.subs_poly("x", Y**2)


def test_an_overflowing_power_is_rejected_before_any_product(monkeypatch):
    # Without the check, binary powering would first build each power
    # base^(2^k) that fits, and those products would run for hours.
    def no_product(*args):
        raise AssertionError("a product was formed")

    cases = [(X + Y + 1, MAX_DEGREE + 1), (X**2 + Y + 1, MAX_DEGREE), (X * Y - Z, MAX_DEGREE // 2 + 1)]
    monkeypatch.setattr(mpoly, "sum_of_products", no_product)
    for base, n in cases:
        with pytest.raises(OverflowError):
            base**n


def test_exact_divide_by_a_monomial_rejects_a_lower_term_it_does_not_divide():
    q = Fraction(2, 3) * X * Y
    t = Fraction(1, 2) * X**2 - 4 * Y * Z**3 + 7
    assert exact_divide(q * t, q) == t
    assert exact_divide(q * t, MPoly.const(-3, VARS)) == Fraction(-1, 3) * (q * t)
    # q * t leads with x y^2 z^3; each added term is lower and not a multiple of x y.
    for extra in [X**2, Z, MPoly.const(1, VARS)]:
        assert exact_divide(q * t + extra, q) is None


@settings(max_examples=100, deadline=None)
@given(monomials(), mpolys(), exponents(cap=3))
def test_exact_divide_by_a_monomial_is_the_termwise_quotient(q, t, e):
    ((d, c),) = q.sorted_terms()
    got = exact_divide(q * t + MPoly(VARS, {e: 5}), q)
    if all(x >= y for x, y in zip(e, d)):
        assert got == t + MPoly(VARS, {tuple(x - y for x, y in zip(e, d)): Fraction(5) / c})
    else:
        assert got is None


(A,) = variables("a")

# Each input MPoly checks and each display it writes, once: an expression and the
# exception it raises, or its value.
MPOLY_INPUT_CASES = {
    "exponents of the wrong length": (lambda: MPoly(VARS, {(1, 2): 3}), ValueError),
    "a negative exponent": (lambda: MPoly(("x", "y"), {(-1, 2): 3}), ValueError),
    "a negative exponent of a zero coefficient": (lambda: MPoly(VARS, {(2, 0, -1): 0}), ValueError),
    "leading term of zero": (lambda: MPoly.zero(VARS).leading_term(), ValueError),
    "a negative power": (lambda: X**-1, ValueError),
    "a fractional power": (lambda: X**1.5, ValueError),
    "evaluate without y": (lambda: (X + Y).evaluate({"x": 1, "z": 2}), ValueError),
    "a sum across rings": (lambda: X + A, ValueError),
    **{f"sum_of_products across rings {k}": (lambda pairs=pairs: sum_of_products(VARS, pairs), ValueError)
       for k, pairs in enumerate(([(X, A, 1)], [(A, X, -1)], [(X, Y, 1), (X, A, 1)]))},
    "sum_of_products in another ring": (lambda: sum_of_products(("a",), [(X, Y, 1)]), ValueError),
    "exact_divide by zero": (lambda: exact_divide(X, MPoly.zero(VARS)), ZeroDivisionError),
    "exact_divide, not a factor": (lambda: exact_divide(X**2 + 1, X + 1), None),
    "exact_divide, not a factor of the constant": (lambda: exact_divide(X * Y + 1, X), None),
    "p + str": (lambda: X + "a", TypeError),
    "str - p": (lambda: "a" - X, TypeError),
    "p * str": (lambda: X * "a", TypeError),
    "subs_poly of a float": (lambda: (X**2 - Y).subs_poly("x", 2.5), TypeError),
    "p == str": (lambda: X == "a", False),
    "repr of x - y": (lambda: repr(X - Y), "x - y"),
    "repr of -x": (lambda: repr(-X), "-x"),
}


@pytest.mark.parametrize("expression, outcome", MPOLY_INPUT_CASES.values(), ids=list(MPOLY_INPUT_CASES))
def test_mpoly_input_checks_and_display(expression, outcome):
    if isinstance(outcome, type):
        with pytest.raises(outcome):
            expression()
    else:
        assert expression() == outcome and type(expression()) is type(outcome)
