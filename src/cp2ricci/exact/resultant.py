"""Resultants and real-root counts by polynomial remainder sequences.

Both routes take coefficient lists in one variable, with ``MPoly``
coefficients, and share one step, ``_pseudo_remainder``, whose updates
lead * c - top * b are fused products.  An inexact division in either would
mean a broken invariant and raises ``ArithmeticError``.

``prs_resultant`` is the subresultant polynomial remainder sequence (G. E.
Collins, "Subresultants and reduced polynomial remainder sequences", J. ACM
14 (1967); W. S. Brown and J. F. Traub, J. ACM 18 (1971); in the form of H.
Cohen, *A Course in Computational Algebraic Number Theory*, Alg. 3.3.7).
Each step takes one pseudo-remainder and divides it by g * h^delta; by the
subresultant theorem the quotients are the subresultants, so that division,
and the ones updating h and forming the final value, are exact in the
polynomial ring.  The sign convention is that of the Sylvester determinant
with the first polynomial's coefficient rows on top, the tests' reference
route.

``sturm_count(p, name, lo, hi)`` counts the distinct real roots of p, a
polynomial in ``name`` alone, over the open interval (lo, hi); ``None``
endpoints stand for -infinity / +infinity.  Its Sturm chain is p, p', and
then minus the pseudo-remainder of the two members before times the sign of
lc^(deg a - deg b + 1), so that each member is a positive multiple of minus
the Euclidean remainder.  The last member is then a constant multiple of
gcd(p, p'); when it is not constant, p is replaced by its square-free part
p / gcd and the chain is built again.  A member's value at an endpoint is
computed on ints when the endpoint is integral.
"""

from __future__ import annotations

from fractions import Fraction

from .mpoly import MPoly, exact_divide, sum_of_products


class DegenerateResultant(ValueError):
    """One of the inputs has no positive degree in the elimination variable."""


def _coefficients(p: MPoly, q: MPoly, name: str) -> tuple[list[MPoly], list[MPoly]]:
    """Coefficients of p and of q in ascending powers of ``name``; both
    degrees must be positive."""
    pc, qc = p.coefficients(name), q.coefficients(name)
    if len(pc) < 2 or len(qc) < 2:
        raise DegenerateResultant(f"inputs must have positive degree in {name}")
    return pc, qc


def _exact(num: MPoly, den: MPoly) -> MPoly:
    """num / den, a division the algorithm makes exact."""
    if den == 1:
        return num
    q = exact_divide(num, den)
    if q is None:
        raise ArithmeticError(f"division by {den!r} is not exact")
    return q


def _pseudo_remainder(a: list[MPoly], b: list[MPoly]) -> list[MPoly]:
    """Remainder of lc(b)^(deg a - deg b + 1) * a by b, for ascending
    coefficient lists with nonzero last entries, deg a >= deg b >= 1; the
    result is trimmed the same way (empty for a zero remainder)."""
    lead = b[-1]
    r = a
    e = len(a) - len(b) + 1
    while len(r) >= len(b):
        # lead * r - lc(r) * x^k * b: the top coefficient cancels.
        k, top = len(r) - len(b), r[-1]
        r = [
            sum_of_products(lead.vars, ((lead, c, 1), (top, b[i - k], -1))) if i >= k else lead * c
            for i, c in enumerate(r[:-1])
        ]
        while r and r[-1].is_zero():
            r.pop()
        e -= 1
    if e:
        factor = lead**e
        r = [factor * c for c in r]
    return r


def prs_resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Resultant of p and q with respect to ``name`` by the subresultant PRS,
    with the sign of the Sylvester determinant, p-rows first."""
    a, b = _coefficients(p, q, name)
    sign = 1
    if len(a) < len(b):
        # Res(p, q) = (-1)^(deg p * deg q) Res(q, p)
        a, b = b, a
        sign = -1 if (len(a) - 1) * (len(b) - 1) % 2 else 1
    g = h = MPoly.const(1, p.vars)
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            sign = -sign
        r = _pseudo_remainder(a, b)
        if not r:
            return MPoly.zero(p.vars)
        divisor = g * h**delta
        a, b = b, [_exact(c, divisor) for c in r]
        g = a[-1]
        if delta:  # h = h^(1 - delta) * g^delta
            h = _exact(g**delta, h ** (delta - 1))
    # b is the constant last subresultant: Res = lc(b)^deg(a) / h^(deg(a) - 1)
    res = _exact(b[0] ** (len(a) - 1), h ** (len(a) - 2))
    return res if sign == 1 else -res


def _chain(c: list[MPoly]) -> list[list[MPoly]]:
    """Sturm chain of the ascending coefficient list c, deg c >= 1."""
    chain = [c, [k * c[k] for k in range(1, len(c))]]
    while len(chain[-1]) > 1:
        a, b = chain[-2], chain[-1]
        r = _pseudo_remainder(a, b)
        if not r:
            break
        # r = lc(b)^(deg a - deg b + 1) * rem; that power is negative exactly
        # when lc(b) < 0 and the exponent is odd.
        negative = b[-1].constant_value() < 0 and (len(a) - len(b)) % 2 == 0
        chain.append(r if negative else [-x for x in r])
    return chain


def _value(c: list[MPoly], x: Fraction) -> Fraction:
    """Value at x by Horner's rule on the stored coefficients, on ints when
    x and the coefficients are integral."""
    t = x.numerator if x.denominator == 1 else x
    v: Fraction | int = 0
    for ck in reversed(c):
        v = v * t + ck.constant_coeff()
    return Fraction(v)


def _variations(chain: list[list[MPoly]], x: Fraction | None, plus_inf: bool) -> int:
    """Sign changes along the chain at x; x = None is +infinity when
    ``plus_inf``, else -infinity, where the sign is that of the leading
    coefficient, flipped at -infinity for odd degree."""
    signs = []
    for c in chain:
        if x is not None:
            v = _value(c, x)
        else:
            v = c[-1].constant_value() * (1 if plus_inf or len(c) % 2 else -1)
        if v:
            signs.append(v > 0)
    return sum(s != t for s, t in zip(signs, signs[1:]))


def sturm_count(
    p: MPoly, name: str, lo: Fraction | int | None = None, hi: Fraction | int | None = None
) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi)."""
    c = p.coefficients(name)
    if not all(ck.is_constant() for ck in c):
        raise ValueError(f"polynomial is not univariate in {name}")
    a = Fraction(lo) if lo is not None else None
    b = Fraction(hi) if hi is not None else None
    if a is not None and b is not None and a >= b:
        raise ValueError("empty interval")
    if len(c) < 2:
        return 0
    chain = _chain(c)
    if len(chain[-1]) > 1:
        x = MPoly.var(name, p.vars)
        gcd = sum((ck * x**k for k, ck in enumerate(chain[-1])), MPoly.zero(p.vars))
        chain = _chain(_exact(p, gcd).coefficients(name))
    count = _variations(chain, a, False) - _variations(chain, b, True)
    # Sturm counts (a, b]; the interval here is open on the right as well.
    if b is not None and _value(chain[0], b) == 0:
        count -= 1
    return count
