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
mean a broken invariant and raises ``ArithmeticError``.

Reference route, which tests compare the production route against:
``sylvester_resultant``, the determinant of the Sylvester matrix built with
the first polynomial's coefficient rows on top, by one-step Bareiss
elimination (``bareiss_det``: every intermediate entry stays in the ring, all
divisions are exact), itself checked against Laplace expansion
(``cofactor_det``).  Both routes use that sign convention.
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


def sylvester_matrix(p: MPoly, q: MPoly, name: str) -> list[list[MPoly]]:
    """Sylvester matrix of p and q with respect to ``name``, p-rows first.

    Row i < deg(q) holds the coefficients of p (descending powers) shifted i
    columns; the following deg(p) rows hold the coefficients of q likewise.
    """
    pc, qc = (c[::-1] for c in _coefficients(p, q, name))
    dp, dq = len(pc) - 1, len(qc) - 1
    zero = MPoly.zero(p.vars)
    return [[zero] * i + pc + [zero] * (dq - 1 - i) for i in range(dq)] + [
        [zero] * i + qc + [zero] * (dp - 1 - i) for i in range(dp)
    ]


def bareiss_det(matrix: list[list[MPoly]]) -> MPoly:
    """Determinant of a square polynomial matrix by fraction-free Bareiss."""
    n = len(matrix)
    if n == 0:
        raise ValueError("empty matrix")
    vars_ = matrix[0][0].vars
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix is not square")
    m = [row[:] for row in matrix]
    prev = MPoly.const(1, vars_)
    sign = 1
    for k in range(n - 1):
        if m[k][k].is_zero():
            pivot_row = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if pivot_row is None:
                return MPoly.zero(vars_)
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q = exact_divide(m[i][j] * pivot - m[i][k] * m[k][j], prev)
                if q is None:
                    raise ArithmeticError(f"Bareiss division by {prev!r} is not exact")
                m[i][j] = q
        prev = pivot
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def cofactor_det(matrix: list[list[MPoly]]) -> MPoly:
    """Determinant by Laplace expansion; the independent cross-check route."""
    n = len(matrix)
    vars_ = matrix[0][0].vars
    if n == 1:
        return matrix[0][0]
    det = MPoly.zero(vars_)
    for j in range(n):
        if matrix[0][j].is_zero():
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def sylvester_resultant(p: MPoly, q: MPoly, name: str) -> MPoly:
    """Resultant of p and q with respect to ``name``."""
    return bareiss_det(sylvester_matrix(p, q, name))


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
    """Resultant of p and q with respect to ``name`` by the subresultant PRS;
    equal to ``sylvester_resultant(p, q, name)``, sign included."""
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
