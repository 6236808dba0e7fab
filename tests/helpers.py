"""Helpers shared by several test modules."""

import numpy as np

from cp2ricci.exact.mpoly import MPoly
from cp2ricci.frames import _horizontal_rows
from cp2ricci.shape import ShapeData


def horizontalize(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The complex 3-vector w projected onto the horizontal space at the unit
    point p (orthogonal to p and i p), through ``frames._horizontal_rows``."""
    return _horizontal_rows(p, w[None])[0].view(np.complex128)


def flip_normal(s: ShapeData) -> ShapeData:
    """The same point with the opposite normal orientation."""
    return ShapeData.from_matrices(-s.A, s.P, -s.xi, s.asymmetry, s.frame)


def degree_in(p: MPoly, name: str) -> int:
    """Degree of p in ``name``, -1 for the zero polynomial, read from the
    exponent tuples rather than the packed monomials."""
    i = p.vars.index(name)
    return max((e[i] for e, _ in p.sorted_terms()), default=-1)


def coeff_of(p: MPoly, name: str, power: int) -> MPoly:
    """Coefficient of ``name**power`` as a polynomial in the same ring, read
    from the exponent tuples rather than the packed monomials."""
    i = p.vars.index(name)
    return MPoly(p.vars, {(*e[:i], 0, *e[i + 1 :]): c for e, c in p.sorted_terms() if e[i] == power})
