"""Shape operator, tangential complex structure, and structure vector.

The shape operator of the projected hypersurface is recovered from the lift:
the normal field is recomputed from scratch at six stencil points, sign-
aligned to the center, and differentiated centrally.  Chart partials may have
a vertical component, and the normal field rotates along the fiber (its
derivative in the fiber direction is i times the normal), so the coordinate
derivatives are corrected by the analytic fiber term before contraction into
the frame.  The result is symmetrized; the pre-symmetrization asymmetry is
recorded and guarded by ``ASYM_TOL``, since the true operator is symmetric
and asymmetry measures numerical error.  The normal and its sign are the
frame's (see ``frames``); a flipped normal negates A and xi.

The frames come from ``frames``: seven ``build_frame`` calls for
``shape_operator`` at one point, one ``_frame_stack`` call for
``shape_operator_grid`` at N points.  Both hand them to one finite-difference
tail on arrays with leading axes, ``_shape_tail``, and differ only in raising
where the second flags the point (``RankDeficient``, ``AsymmetryExceeded``).
Only ``ShapeGrid`` carries the frame ``coeffs``; its chart-free part,
``_shape_grid``, may take the stencil rows of several charts at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ParamTriple, SurfaceChart
from .frames import RankDeficient, _frame_stack, build_frame


ASYM_TOL = 1e-6  # the largest pre-symmetrization asymmetry a shape operator accepts


class AsymmetryExceeded(RuntimeError):
    """Pre-symmetrization asymmetry above ``ASYM_TOL``.

    Signals a too-large finite-difference step or a near-singular point."""


@dataclass(frozen=True)
class ShapeData:
    """Frame-coordinate curvature package at one point.

    A is the shape operator, P the tangential part of the complex structure,
    xi the structure vector, alpha = <A xi, xi>, hopf_defect the norm of
    A xi - alpha xi, and mean_curvature = tr A / 3.
    """

    A: np.ndarray
    P: np.ndarray
    xi: np.ndarray
    alpha: float
    hopf_defect: float
    mean_curvature: float
    asymmetry: float = 0.0

    @staticmethod
    def from_matrices(
        A: np.ndarray,
        P: np.ndarray,
        xi: np.ndarray,
        asymmetry: float = 0.0,
    ) -> "ShapeData":
        A = np.asarray(A, dtype=float)
        P = np.asarray(P, dtype=float)
        xi = np.asarray(xi, dtype=float)
        alpha = float(xi.dot(A).dot(xi))
        r = A.dot(xi) - alpha * xi
        return ShapeData(
            A=A,
            P=P,
            xi=xi,
            alpha=alpha,
            hopf_defect=math.sqrt(r.dot(r)),
            mean_curvature=float(A.trace() / 3.0),
            asymmetry=asymmetry,
        )


def _shape_tail(R: np.ndarray, N: np.ndarray, D: np.ndarray, coeffs: np.ndarray, h: float) -> tuple:
    """A, P, xi and A's asymmetry before symmetrization, from the centre
    frame's rows R (..., 5, 6) and ``coeffs`` (..., 3, 3), the normals N
    (..., 6, 6) of the frames at q + h e_0, q - h e_0, q + h e_1, ... (aligned
    in place) and the centre partials D (..., 3, 6) as real rows; leading
    axes batch."""
    iR = (1j * R.view(np.complex128)).view(np.float64)
    E, iE, n, i_n = R[..., 1:4, :], iR[..., 1:4, :], R[..., 4, :], iR[..., 4, :]
    vert = (D @ R[..., 0, :, None])[..., 0]  # vertical components of the partials (exact)
    # Centred normal derivatives along the coordinate axes, each stencil
    # normal sign-aligned to the centre (a zero or NaN dot keeps its sign).
    np.negative(N, out=N, where=N @ n[..., None] < 0.0)
    FD = (1.0 / (2.0 * h)) * (N[..., 0::2, :] - N[..., 1::2, :])
    # D_{W_a} n = FD_a - vert_a * i n, and A e_i = -H(D_{e_i} n).
    in_e = (E @ i_n[..., None])[..., 0]  # <i n, e_j>
    raw = -(FD @ E.swapaxes(-1, -2) - vert[..., None] * in_e[..., None, :])
    A_raw = coeffs @ raw
    asym = np.abs(A_raw - A_raw.swapaxes(-1, -2)).max(axis=(-2, -1))
    # P[i, j] = <i e_j, e_i>; xi holds the components of -i n in the frame.
    return 0.5 * (A_raw + A_raw.swapaxes(-1, -2)), E @ iE.swapaxes(-1, -2), -in_e, asym


def shape_operator(chart: SurfaceChart, q: ParamTriple, h: float = 1e-5) -> ShapeData:
    """Shape operator and companions at q by central differences of step h;
    a non-finite q or h is ``RankDeficient`` before any chart call."""
    if not all(map(math.isfinite, (*q, h))):
        raise RankDeficient(f"chart {chart.name!r} at {q}: non-finite parameter or step {h!r}")
    u, v, t = q
    stencil = (u + h, v, t), (u - h, v, t), (u, v + h, t), (u, v - h, t), (u, v, t + h), (u, v, t - h)
    with np.errstate(over="ignore", invalid="ignore"):
        frame = build_frame(chart, q)
        D = chart.partials(*q).view(np.float64)  # before the stencil: a chart may memoize the last q
        N = np.array([build_frame(chart, qs).rows[4] for qs in stencil])
        A, P, xi, asym = _shape_tail(frame.rows, N, D, frame.coeffs, h)
    asym = float(asym)
    if not asym <= ASYM_TOL:
        raise AsymmetryExceeded(f"chart {chart.name!r} at {q}: asymmetry {asym:.3e} > {ASYM_TOL:.1e}")
    return ShapeData.from_matrices(A, P, xi, asymmetry=asym)


@dataclass(frozen=True)
class ShapeGrid:
    """``shape_operator`` at N parameter points, stacked: per point its flag
    (``ok``, ``RankDeficient`` or ``AsymmetryExceeded``), A and P (N, 3, 3),
    xi (N, 3) and the frame ``coeffs`` (N, 3, 3), NaN at a flagged point."""

    flags: np.ndarray
    A: np.ndarray
    P: np.ndarray
    xi: np.ndarray
    coeffs: np.ndarray


def _shape_stencil(qs: list[ParamTriple], h: float = 1e-5) -> np.ndarray:
    """The rows (7 N, 3) q, q + h e_0, q - h e_0, q + h e_1, ... per q of ``qs``."""
    Q = np.repeat(np.asarray(qs, dtype=np.float64).reshape(-1, 1, 3), 7, axis=1)
    for a in range(3):  # rows 2a + 1 and 2a + 2 step coordinate a alone, by +h and -h
        Q[:, 2 * a + 1, a] += h
        Q[:, 2 * a + 2, a] -= h
    return Q.reshape(-1, 3)


def _shape_grid(p: np.ndarray, D: np.ndarray, h: float = 1e-5) -> ShapeGrid:
    """The ``ShapeGrid`` of N points from the chart's points p and partials D at
    their ``_shape_stencil`` rows, chart-free: one ``_frame_stack`` call builds
    the 7 N frames.  A point any of whose seven frames fails the rank guard is
    flagged ``RankDeficient``; one whose asymmetry is not within ``ASYM_TOL``,
    ``AsymmetryExceeded``; a flagged point's arrays are NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        D = D.reshape(-1, 7, 3, 3)
        R, C, full_rank = _frame_stack(p.reshape(-1, 7, 3), D)
        coeffs = C[:, 0]
        A, P, xi, asym = _shape_tail(R[:, 0], R[:, 1:, 4], D[:, 0].view(np.float64), coeffs, h)
    flags = np.where(full_rank.all(axis=1), np.where(asym <= ASYM_TOL, "ok", "AsymmetryExceeded"), "RankDeficient")
    bad = flags != "ok"
    for x in (A, P, xi, coeffs):
        x[bad] = math.nan
    return ShapeGrid(flags.astype(object), A, P, xi, coeffs)


def shape_operator_grid(chart: SurfaceChart, qs: list[ParamTriple], h: float = 1e-5) -> ShapeGrid:
    """``shape_operator`` at every point of ``qs``, with its bits at every ``ok``
    point: ``_shape_stencil``, one ``chart.jet`` call, then ``_shape_grid``."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _shape_grid(*chart.jet(_shape_stencil(qs, h)), h)
