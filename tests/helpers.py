"""Helpers shared by several test modules."""

import dataclasses
import math
from typing import Callable, Iterator

import numpy as np

from cp2ricci.charts import SINGULAR_MARGIN, Box, ParamTriple, SurfaceChart, _RULED_MODES, _TrigField, ruled_chart
from cp2ricci.curvature import SingularMetric, _gauss_tensor, intrinsic_riemann_batch
from cp2ricci.exact.mpoly import MPoly
from cp2ricci.frames import _horizontal_rows
from cp2ricci.shape import ShapeData


def box_grid(box: Box, n: int) -> Iterator[ParamTriple]:
    """The points of ``box`` at ``n`` per axis as float triples, the last axis
    fastest: the rows of ``cli._grid_points``, one at a time."""
    a0, a1, a2 = box.axes(n)
    for x in a0:
        for y in a1:
            for z in a2:
                yield (float(x), float(y), float(z))


def scalar_singular(chart: SurfaceChart, Q: np.ndarray) -> np.ndarray:
    """The singular locus of a builtin chart at each row of Q (..., 3), one
    row at a time by ``math``: min(|sin|, |cos|) of its singular parameter (s
    of the sphere, else u) below ``SINGULAR_MARGIN``, or that parameter not
    finite.  The reference of the array predicate of ``charts._builtin_chart``."""
    axis = 1 if chart.name.startswith("sphere") else 0

    def one(x: float) -> bool:
        return not math.isfinite(x) or min(abs(math.sin(x)), abs(math.cos(x))) < SINGULAR_MARGIN

    return np.array([one(q[axis]) for q in Q.reshape(-1, 3).tolist()], bool).reshape(Q.shape[:-1])


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


def intrinsic_riemann(chart: SurfaceChart, q: ParamTriple, h: float = 1e-3) -> np.ndarray:
    """``curvature.intrinsic_riemann_batch`` at the one centre q; raises its
    ``SingularMetric``."""
    (R,), (error,) = intrinsic_riemann_batch(chart, [q], h)
    if error:
        raise SingularMetric(error)
    return R


def gauss_riemann_per_shape(shape: ShapeData, coeffs: np.ndarray) -> np.ndarray:
    """The frame Gauss tensor of one point pulled back to chart coordinates,
    R[ab, cd] = (B x B)[ab, ij] T[ij, kl] (B x B)[cd, kl] with B the inverse
    of the frame's ``coeffs``: a reference for the batched
    ``curvature.gauss_riemann_coords``."""
    B = np.linalg.inv(coeffs)
    BB = (B[:, None, :, None] * B[None, :, None, :]).reshape(9, 9)
    return (BB @ _gauss_tensor(shape).reshape(9, 9) @ BB.T).reshape(3, 3, 3, 3)


def trig_field_value(field: _TrigField, q: ParamTriple) -> np.ndarray:
    """The field's value alone, the sines of the mode arguments summed by
    weight: the first half of ``_TrigField.jet`` computed without the cosines."""
    return field.weight.dot(np.sin(field.freq.dot(q) + field.phase))


def perturbed_reference(epsilon: float = 0.05, seed: int = 0) -> SurfaceChart:
    """``charts.perturbed_ruled_chart`` without its per-q memo: ``evaluate``
    renormalizes ``trig_field_value`` and ``partials`` takes the field's jet,
    afresh at every call.  A byte reference for the memoized chart."""
    seeded = _TrigField.seeded(seed)
    eps = float(epsilon) if math.isfinite(epsilon) else math.nan
    scale = max(1.0, abs(eps))
    field = _TrigField(
        np.vstack([_RULED_MODES.freq, seeded.freq]),
        np.concatenate([_RULED_MODES.phase, seeded.phase]),
        np.hstack([_RULED_MODES.weight / scale, (eps / scale) * seeded.weight]),
    )
    nan = complex(math.nan, math.nan)

    def evaluate(u: float, v: float, t: float) -> np.ndarray:
        y = trig_field_value(field, (u, v, t))
        ny = math.hypot(*y.tolist())
        return (y / ny).view(np.complex128) if 0.0 < ny < math.inf else np.full(3, nan)

    def partials(u: float, v: float, t: float) -> np.ndarray:
        y, dy = field.jet((u, v, t))
        ny = math.hypot(*y.tolist())
        if not 0.0 < ny < math.inf:
            return np.full((3, 3), nan)
        n = y / ny
        return ((dy - dy.dot(n)[:, None] * n) / ny).view(np.complex128)

    base = ruled_chart()
    return SurfaceChart("perturbed-reference", evaluate, partials, base.sample_box, base.is_singular)


def rephased(
    chart: SurfaceChart, theta: Callable[[ParamTriple], float], dtheta: Callable[[ParamTriple], np.ndarray]
) -> SurfaceChart:
    """``chart`` moved along its fibres by the gauge e^{i theta(q)}: p -> e^{i theta} p and
    D -> e^{i theta} (D + i dtheta (x) p), so that row a of the partials gains i d_a theta p.
    The hypersurface in CP^2 is the same, so every invariant of its shape operator is too."""

    def evaluate(u: float, v: float, t: float) -> np.ndarray:
        return np.exp(1j * theta((u, v, t))) * chart.evaluate(u, v, t)

    def partials(u: float, v: float, t: float) -> np.ndarray:
        q = (u, v, t)
        D = chart.partials(*q) + 1j * np.outer(dtheta(q), chart.evaluate(*q))
        return np.exp(1j * theta(q)) * D

    return dataclasses.replace(chart, name=f"{chart.name}-rephased", evaluate=evaluate, partials=partials)


def moved(chart: SurfaceChart, U: np.ndarray) -> SurfaceChart:
    """``chart`` moved by the unitary U of C^3: p -> U p and D -> D U^T, so that
    row a of the partials is U times the chart's.  U is an isometry of S^5 that
    commutes with i, so it is one of CP^2 too: every invariant of the shape
    operator is the chart's.  The box and singular locus are the chart's."""

    def evaluate(u: float, v: float, t: float) -> np.ndarray:
        return U @ chart.evaluate(u, v, t)

    def partials(u: float, v: float, t: float) -> np.ndarray:
        return chart.partials(u, v, t) @ U.T

    return dataclasses.replace(chart, name=f"{chart.name}-moved", evaluate=evaluate, partials=partials)


def near_singular_box(chart: SurfaceChart) -> SurfaceChart:
    """``chart`` sampled on a box whose lower edge in the second singular
    coordinate (u of the ruled chart, s of the sphere) is 5e-4: inside
    ``SINGULAR_MARGIN``, although the metric is invertible there."""
    axis = 0 if chart.name == "ruled" else 1
    lo = list(chart.sample_box.lo)
    lo[axis] = 5e-4
    assert chart.singular(np.array(lo))
    return dataclasses.replace(chart, sample_box=Box(tuple(lo), chart.sample_box.hi))


def flip_normal(s: ShapeData) -> ShapeData:
    """The same point with the opposite normal orientation."""
    return ShapeData.from_matrices(-s.A, s.P, -s.xi, s.asymmetry)


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
