"""The reference resultant route, which tests compare ``prs_resultant`` against.

``sylvester_resultant`` is the determinant of the Sylvester matrix built with
the first polynomial's coefficient rows on top, by one-step Bareiss
elimination (``bareiss_det``: every intermediate entry stays in the ring, all
divisions are exact), itself checked against Laplace expansion
(``cofactor_det``).  ``prs_resultant`` uses the same sign convention.
"""

from cp2ricci.exact.mpoly import MPoly, exact_divide
from cp2ricci.exact.resultant import _coefficients


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
