"""Shape operator, tangential complex structure, and structure vector.

The shape operator of the projected hypersurface is recovered from the lift:
the normal field is recomputed from scratch at six stencil points, sign-
aligned to the center, and differentiated centrally.  Chart partials may have
a vertical component, and the normal field rotates along the fiber (its
derivative in the fiber direction is i times the normal), so the coordinate
derivatives are corrected by the analytic fiber term before contraction into
the frame.  The result is symmetrized; the pre-symmetrization asymmetry is
recorded and guarded, since the true operator is symmetric and asymmetry
measures numerical error.

Frame vectors arrive as ``AmbientVector`` and are read as real 6-vectors
(``v.z.view(np.float64)``): the six stencil normals form one (3, 6)
difference block, and every contraction with the frame is a small matrix
product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .charts import ParamTriple, SurfaceChart
from .frames import MovingFrame, build_frame


class AsymmetryExceeded(RuntimeError):
    """Pre-symmetrization asymmetry above the configured bound.

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
        alpha = float(xi @ A @ xi)
        defect = float(np.linalg.norm(A @ xi - alpha * xi))
        return ShapeData(
            A=A,
            P=P,
            xi=xi,
            alpha=alpha,
            hopf_defect=defect,
            mean_curvature=float(np.trace(A) / 3.0),
            asymmetry=asymmetry,
            frame=frame,
        )

    def flip_normal(self) -> "ShapeData":
        """The same point with the opposite normal orientation."""
        return ShapeData.from_matrices(-self.A, self.P, -self.xi, self.asymmetry, self.frame)

    def invariant_residuals(self) -> dict[str, float]:
        """Deviations from the structural invariants, for testing."""
        eye = np.eye(3)
        return {
            "P_skew": float(np.max(np.abs(self.P + self.P.T))),
            "P_xi": float(np.linalg.norm(self.P @ self.xi)),
            "P_squared": float(np.max(np.abs(self.P @ self.P + eye - np.outer(self.xi, self.xi)))),
            "xi_unit": abs(float(np.linalg.norm(self.xi)) - 1.0),
            "A_symmetric": float(np.max(np.abs(self.A - self.A.T))),
        }


def shape_operator(
    chart: SurfaceChart,
    q: ParamTriple,
    h: float = 1e-5,
    asym_tol: float = 1e-6,
    rank_tol: float = 1e-8,
    orient: int = 1,
) -> ShapeData:
    """Shape operator and companions at q by central differences of step h."""
    frame = build_frame(chart, q, rank_tol=rank_tol, orient=orient)
    Z = np.array([e.z for e in frame.tangent])
    E, iE = Z.view(np.float64), (1j * Z).view(np.float64)
    n, i_n = frame.normal.z.view(np.float64), (1j * frame.normal.z).view(np.float64)

    # Vertical components of the chart partials at the center (exact).
    W = np.array([w.z for w in chart.partials(*q)]).view(np.float64)
    vert = W.dot(frame.vertical.z.view(np.float64))

    # Centered normal derivatives along the coordinate axes, each stencil
    # normal sign-aligned to the center.
    FD = np.empty((3, 6))
    for a in range(3):
        ends = []
        for step in (h, -h):
            qs = list(q)
            qs[a] += step
            m = build_frame(chart, tuple(qs), rank_tol=rank_tol).normal.z.view(np.float64)
            ends.append(-m if m.dot(n) < 0.0 else m)
        FD[a] = (1.0 / (2.0 * h)) * (ends[0] - ends[1])
    # D_{W_a} n = FD_a - vert_a * i n, and A e_i = -H(D_{e_i} n).
    in_e = E.dot(i_n)  # <i n, e_j>
    raw = -(FD.dot(E.T) - np.outer(vert, in_e))

    A_raw = frame.coeffs @ raw
    asym = float(np.max(np.abs(A_raw - A_raw.T)))
    if not asym <= asym_tol:
        raise AsymmetryExceeded(
            f"chart {chart.name!r} at {q}: asymmetry {asym:.3e} > {asym_tol:.1e}"
        )
    A = 0.5 * (A_raw + A_raw.T)
    P = E @ iE.T  # P[i, j] = <i e_j, e_i>
    xi = -in_e  # components of -i n in the frame

    return ShapeData.from_matrices(A, P, xi, asymmetry=asym, frame=frame)
