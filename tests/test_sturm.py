import random
from fractions import Fraction

import pytest

from cp2ricci.exact.mpoly import MPoly, variables
from cp2ricci.exact import resultant
from cp2ricci.exact.resultant import sturm_count

X, Y = variables("x y")


def test_sqrt_two_in_unit_window():
    # x^2 - 2 on (0, 2)
    assert sturm_count(X**2 - 2, "x", 0, 2) == 1


def test_negative_discriminant_quadratic_has_no_real_roots():
    # 8 g^2 + 12 g + 15, discriminant 144 - 480 < 0
    assert sturm_count(8 * X**2 + 12 * X + 15, "x") == 0


def test_cubic_with_imaginary_pair():
    # g^3 + g = g (g^2 + 1)
    assert sturm_count(X**3 + X, "x") == 1


def test_square_free_reduction_counts_distinct_roots():
    # (x - 1)^2 (x + 2) has two distinct real roots, one of them double
    p = (X - 1) ** 2 * (X + 2)
    assert sturm_count(p, "x") == 2
    assert sturm_count(p, "x", 0, None) == 1
    assert sturm_count(p, "x", None, 0) == 1


def test_open_interval_excludes_endpoints():
    # x - 1 on (0, 1) and on (0, 2)
    assert sturm_count(X - 1, "x", 0, 1) == 0
    assert sturm_count(X - 1, "x", 0, 2) == 1
    assert sturm_count(X - 1, "x", 1, 2) == 0


def test_half_infinite_intervals():
    # x^2 - 2 has one root in (0, inf), one in (-inf, 0)
    assert sturm_count(X**2 - 2, "x", 0, None) == 1
    assert sturm_count(X**2 - 2, "x", None, 0) == 1
    assert sturm_count(X**2 - 2, "x", None, None) == 2


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        sturm_count(X**2 - 2, "x", 2, 2)
    with pytest.raises(ValueError):
        sturm_count(X**2 - 2, "x", 3, 2)


def test_non_univariate_input_is_rejected():
    with pytest.raises(ValueError):
        sturm_count(X * Y, "x")
    with pytest.raises(ValueError):
        sturm_count(X**2 + Y, "x")
    # A polynomial in the other variable alone is constant in x.
    assert sturm_count(MPoly.const(3, ("x", "y")), "x") == 0


def test_counts_match_factoring_oracle_on_random_products():
    """Products c * prod (x - r)^m with multiplicities up to 3, negative and
    fractional leading coefficients c, and endpoints drawn partly from the
    roots themselves, so that they land on simple and multiple roots."""
    rng = random.Random(20240817)
    for _ in range(200):
        n_roots = rng.randint(1, 5)
        roots = set()
        while len(roots) < n_roots:
            roots.add(Fraction(rng.randint(-12, 12), rng.randint(1, 6)))
        lead = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        p = MPoly.const(lead, ("x", "y"))
        for r in roots:
            p = p * (X - r) ** rng.randint(1, 3)
        ends = sorted(roots) + [Fraction(rng.randint(-60, 60), rng.randint(1, 4)) for _ in range(3)]
        lo, hi = sorted(rng.sample(ends, 2))
        if lo == hi:
            continue
        expected = sum(1 for r in roots if lo < r < hi)
        assert sturm_count(p, "x", lo, hi) == expected
        assert sturm_count(p, "x", lo, None) == sum(1 for r in roots if r > lo)
        assert sturm_count(p, "x", None, hi) == sum(1 for r in roots if r < hi)
        assert sturm_count(p, "x") == len(roots)


def test_gcd_that_does_not_divide_raises(monkeypatch):
    # (x - 1)^2 has a non-constant gcd with its derivative, so the count
    # divides by it; a failed division is a broken invariant, even under -O.
    monkeypatch.setattr(resultant, "exact_divide", lambda p, q: None)
    with pytest.raises(ArithmeticError):
        sturm_count((X - 1) ** 2, "x")
