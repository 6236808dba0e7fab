"""Sylvester resultants of multivariate polynomials by fraction-free elimination.

The Sylvester matrix is built with the first polynomial's coefficient rows on
top; its determinant is computed by one-step Bareiss elimination, which keeps
every intermediate entry inside the polynomial ring (all divisions are exact).
Sylvester matrices are sparse, so an update skips each product with a zero
factor, and skips the division when both products vanish.
"""

from __future__ import annotations

from .mpoly import MPoly, exact_divide


class DegenerateResultant(ValueError):
    """One of the inputs has no positive degree in the elimination variable."""


def sylvester_matrix(p: MPoly, q: MPoly, name: str) -> list[list[MPoly]]:
    """Sylvester matrix of p and q with respect to ``name``, p-rows first.

    Row i < deg(q) holds the coefficients of p (descending powers) shifted i
    columns; the following deg(p) rows hold the coefficients of q likewise.
    """
    dp, dq = p.degree_in(name), q.degree_in(name)
    if dp < 1 or dq < 1:
        raise DegenerateResultant(f"inputs must have positive degree in {name}")
    zero = MPoly.zero(p.vars)
    pc = [p.coeff_of(name, dp - k) for k in range(dp + 1)]
    qc = [q.coeff_of(name, dq - k) for k in range(dq + 1)]
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
            a = m[i][k]
            for j in range(k + 1, n):
                b, c = m[i][j], m[k][j]
                if a.terms and c.terms:
                    num = b * pivot - a * c if b.terms else -(a * c)
                elif b.terms:
                    num = b * pivot
                else:
                    continue  # both products vanish: the entry stays zero
                q = exact_divide(num, prev)
                assert q is not None, "Bareiss division must be exact"
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
