"""Helpers shared by several test modules."""

import numpy as np

from cp2ricci.frames import _horizontal_rows
from cp2ricci.shape import ShapeData


def horizontalize(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The complex 3-vector w projected onto the horizontal space at the unit
    point p (orthogonal to p and i p), through ``frames._horizontal_rows``."""
    return _horizontal_rows(p, w[None])[0].view(np.complex128)


def flip_normal(s: ShapeData) -> ShapeData:
    """The same point with the opposite normal orientation."""
    return ShapeData.from_matrices(-s.A, s.P, -s.xi, s.asymmetry, s.frame)
