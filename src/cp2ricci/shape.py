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

The frame is read as its real rows ``frame.rows`` = [i p, e_1, e_2, e_3, n]
and their images under i, one complex multiplication of the whole block.  The
six stencil normals (the last stencil frame rows) fill one (6, 6) array; one
masked negation flips those with a negative dot with the center normal (a
zero or NaN dot keeps the sign) and one strided subtraction differences them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ParamTriple, SurfaceChart
from .frames import RANK_TOL, MovingFrame, _horizontal_rows, _inverse_cholesky_stack, build_frame


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
    frame: MovingFrame | None = None

    @staticmethod
    def from_matrices(
        A: np.ndarray,
        P: np.ndarray,
        xi: np.ndarray,
        asymmetry: float = 0.0,
        frame: MovingFrame | None = None,
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
            frame=frame,
        )


def shape_operator(chart: SurfaceChart, q: ParamTriple, h: float = 1e-5) -> ShapeData:
    """Shape operator and companions at q by central differences of step h."""
    frame = build_frame(chart, q)
    R = frame.rows  # [i p, e_1, e_2, e_3, n]
    iR = (1j * R.view(np.complex128)).view(np.float64)
    E, iE, n, i_n = R[1:4], iR[1:4], R[4], iR[4]

    # Vertical components of the chart partials at the center (exact).
    W = chart.partials(*q).view(np.float64)
    vert = W.dot(R[0])

    # Centered normal derivatives along the coordinate axes, each stencil
    # normal sign-aligned to the center.
    u, v, t = q
    stencil = (u + h, v, t), (u - h, v, t), (u, v + h, t), (u, v - h, t), (u, v, t + h), (u, v, t - h)
    N = np.array([build_frame(chart, qs).rows[4] for qs in stencil])
    np.negative(N, out=N, where=(N.dot(n) < 0.0)[:, None])
    FD = (1.0 / (2.0 * h)) * (N[0::2] - N[1::2])
    # D_{W_a} n = FD_a - vert_a * i n, and A e_i = -H(D_{e_i} n).
    in_e = E.dot(i_n)  # <i n, e_j>
    raw = -(FD.dot(E.T) - vert[:, None] * in_e)

    A_raw = frame.coeffs @ raw
    asym = float(np.abs(A_raw - A_raw.T).max())
    if not asym <= ASYM_TOL:
        raise AsymmetryExceeded(
            f"chart {chart.name!r} at {q}: asymmetry {asym:.3e} > {ASYM_TOL:.1e}"
        )
    A = 0.5 * (A_raw + A_raw.T)
    P = E @ iE.T  # P[i, j] = <i e_j, e_i>
    xi = -in_e  # components of -i n in the frame

    return ShapeData.from_matrices(A, P, xi, asymmetry=asym, frame=frame)


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


def shape_operator_grid(chart: SurfaceChart, qs: list[ParamTriple], h: float = 1e-5) -> ShapeGrid:
    """``shape_operator`` at every point of ``qs`` in one pass over arrays, with
    its bits at every ``ok`` point.  One ``chart.jet`` call maps each centre
    and its six stencil points; the 7 N frames are ``build_frame``'s, by
    batched Cholesky-QR twice, each stacked ``@`` standing for a ``dot``.  A
    point any of whose seven frames fails the rank guard is flagged
    ``RankDeficient``; one whose asymmetry is not within ``ASYM_TOL``,
    ``AsymmetryExceeded``; a flagged point's arrays are NaN."""
    Q = np.repeat(np.asarray(qs, dtype=np.float64).reshape(-1, 1, 3), 7, axis=1)
    for a in range(3):  # rows 2a + 1 and 2a + 2 step coordinate a alone, by +h and -h
        Q[:, 2 * a + 1, a] += h
        Q[:, 2 * a + 2, a] -= h
    p, D = chart.jet(Q.reshape(-1, 3))
    p, D = p.reshape(-1, 7, 3), D.reshape(-1, 7, 3, 3)
    W = _horizontal_rows(p, D)
    C1 = _inverse_cholesky_stack(W)
    E1 = C1 @ W
    C2 = _inverse_cholesky_stack(E1)
    E = C2 @ E1
    full_rank = ((W * E).sum(axis=-1) >= RANK_TOL).all(axis=(1, 2))
    # The normal from the axial vector of <i e_j, e_k>, by build_frame's sign rule.
    iE = (1j * E.view(np.complex128)).view(np.float64)
    G = iE @ E.swapaxes(-1, -2)
    axial = [G[..., 1, 2] - G[..., 2, 1], G[..., 2, 0] - G[..., 0, 2], G[..., 0, 1] - G[..., 1, 0]]
    n = np.stack(axial, -1)[..., None, :] @ iE  # (N, 7, 1, 6)
    first_largest = np.take_along_axis(n, np.abs(n).argmax(axis=-1)[..., None], axis=-1)
    n *= 1.0 / np.copysign(np.sqrt(n @ n.swapaxes(-1, -2)), first_largest)

    # shape_operator's steps on the centre frame (index 0) and its stencil normals.
    n, N, E, iE = n[:, 0, 0], n[:, 1:, 0], E[:, 0], iE[:, 0]
    i_n = (1j * n.view(np.complex128)).view(np.float64)
    vert = (D[:, 0].view(np.float64) @ (1j * p[:, 0]).view(np.float64)[..., None])[..., 0]
    np.negative(N, out=N, where=(N @ n[..., None] < 0.0))
    FD = (1.0 / (2.0 * h)) * (N[:, 0::2] - N[:, 1::2])
    in_e = (E @ i_n[..., None])[..., 0]
    raw = -(FD @ E.swapaxes(-1, -2) - vert[..., None] * in_e[:, None, :])
    coeffs = C2[:, 0] @ C1[:, 0]
    A_raw = coeffs @ raw
    asym = np.abs(A_raw - A_raw.swapaxes(-1, -2)).max(axis=(1, 2))
    A, P, xi = 0.5 * (A_raw + A_raw.swapaxes(-1, -2)), E @ iE.swapaxes(-1, -2), -in_e
    flags = np.where(full_rank, np.where(asym <= ASYM_TOL, "ok", "AsymmetryExceeded"), "RankDeficient")
    bad = flags != "ok"
    for x in (A, P, xi, coeffs):
        x[bad] = math.nan
    return ShapeGrid(flags.astype(object), A, P, xi, coeffs)
