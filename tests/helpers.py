"""Helpers shared by several test modules."""

import numpy as np

from cp2ricci.charts import ParamTriple, SurfaceChart
from cp2ricci.curvature import _gauss_tensor
from cp2ricci.exact.mpoly import MPoly
from cp2ricci.frames import _horizontal_rows
from cp2ricci.shape import ShapeData


def horizontalize(w: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The complex 3-vector w projected onto the horizontal space at the unit
    point p (orthogonal to p and i p), through ``frames._horizontal_rows``."""
    return _horizontal_rows(p, w[None])[0].view(np.complex128)


def riemann_gauss(shape: ShapeData, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R(X, Y)Z in frame coordinates, the Gauss equation written vector by
    vector: a reference for ``curvature._gauss_tensor``."""
    A, P = shape.A, shape.P
    px, py, pz = P @ x, P @ y, P @ z
    ax, ay = A @ x, A @ y
    return (
        (y @ z) * x
        - (x @ z) * y
        + (py @ z) * px
        - (px @ z) * py
        - 2.0 * (px @ y) * pz
        + (ay @ z) * ax
        - (ax @ z) * ay
    )


def induced_metric(chart: SurfaceChart, q: ParamTriple) -> np.ndarray:
    """Induced metric g_ab = <H dz_a, H dz_b> from exact partials at one point:
    a reference for ``curvature._stencil_metric``."""
    W = _horizontal_rows(chart.evaluate(*q), chart.partials(*q))
    return W.dot(W.T)


def gauss_riemann_per_shape(shape: ShapeData) -> np.ndarray:
    """The frame Gauss tensor of one point pulled back to chart coordinates,
    R[ab, cd] = (B x B)[ab, ij] T[ij, kl] (B x B)[cd, kl] with B the inverse
    of the frame's ``coeffs``: a reference for the batched
    ``curvature.gauss_riemann_coords``."""
    B = np.linalg.inv(shape.frame.coeffs)
    BB = (B[:, None, :, None] * B[None, :, None, :]).reshape(9, 9)
    return (BB @ _gauss_tensor(shape).reshape(9, 9) @ BB.T).reshape(3, 3, 3, 3)


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
