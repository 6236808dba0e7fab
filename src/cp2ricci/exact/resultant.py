"""Resultants of multivariate polynomials with respect to one variable.

Production route: ``prs_resultant``, the subresultant polynomial remainder
sequence (G. E. Collins, "Subresultants and reduced polynomial remainder
sequences", J. ACM 14 (1967); W. S. Brown and J. F. Traub, J. ACM 18 (1971);
in the form of H. Cohen, *A Course in Computational Algebraic Number Theory*,
Alg. 3.3.7).  Both inputs are coefficient lists in the eliminated variable,
with ``MPoly`` coefficients.  Each step takes one pseudo-remainder and divides
it by g * h^delta; by the subresultant theorem the quotients are the
subresultants, so that division, and the ones updating h and forming the
final value, are exact in the polynomial ring.  An inexact division would
mean a broken invariant and raises ``ArithmeticError``.  The sign
convention is that of the Sylvester determinant with the first polynomial's
coefficient rows on top, the tests' reference route.
"""

from __future__ import annotations

from .mpoly import MPoly, exact_divide


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
    """num / den, a division the subresultant theorem makes exact."""
    if den == 1:
        return num
    q = exact_divide(num, den)
    if q is None:
        raise ArithmeticError(f"subresultant division by {den!r} is not exact")
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
        r = [lead * c - top * b[i - k] if i >= k else lead * c for i, c in enumerate(r[:-1])]
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
