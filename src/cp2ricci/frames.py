"""Horizontal orthonormal frames and unit normals along chart lifts.

At a chart point p the fiber direction is i p.  The three chart partials are
projected onto the horizontal space (the orthogonal complement of p and i p),
orthonormalized by Gram-Schmidt with change-of-basis bookkeeping, and
completed by the unique horizontal unit normal, whose sign follows a
deterministic rule so that runs are reproducible.

``AmbientVector`` is the chart-interface type: charts hand it in and
``MovingFrame`` hands it out.  In between, the work is done on real
6-vectors, ``v.z.view(np.float64)``, stacked into small matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientVector
from .charts import ParamTriple, SurfaceChart


class RankDeficient(RuntimeError):
    """The horizontalized partials do not span a 3-space at this point."""


def _horizontal_rows(p: AmbientVector, ws) -> tuple[np.ndarray, np.ndarray]:
    """The rows [p, i p] and the horizontalized vectors ws, all real."""
    K = np.array([p.z, 1j * p.z]).view(np.float64)
    W = np.array([w.z for w in ws]).view(np.float64)
    return K, W - W.dot(K.T).dot(K)


def horizontalize(w: AmbientVector, p: AmbientVector) -> AmbientVector:
    """Project w onto the horizontal space at p (orthogonal to p and i p)."""
    return AmbientVector(_horizontal_rows(p, [w])[1][0].view(np.complex128))


@dataclass(frozen=True)
class MovingFrame:
    """Horizontal orthonormal tangent frame, unit normal, and bookkeeping.

    ``coeffs`` row i expresses e_i in the basis of horizontalized chart
    partials, so derivatives along coordinate directions can be contracted
    into frame directions.
    """

    p: AmbientVector
    vertical: AmbientVector
    e1: AmbientVector
    e2: AmbientVector
    e3: AmbientVector
    normal: AmbientVector
    coeffs: np.ndarray

    @property
    def tangent(self) -> tuple[AmbientVector, AmbientVector, AmbientVector]:
        return (self.e1, self.e2, self.e3)


def build_frame(
    chart: SurfaceChart,
    q: ParamTriple,
    rank_tol: float = 1e-8,
    orient: int = 1,
) -> MovingFrame:
    """Build the moving frame at a non-singular parameter point.

    Raises ``RankDeficient`` when the smallest Gram-Schmidt remainder norm
    falls below ``rank_tol`` or is NaN, which signals a coordinate
    singularity, a fiber-tangent direction or a non-finite chart value.
    ``orient`` (+1 or -1) multiplies the normal after the deterministic sign
    rule, for sign-consistency experiments.
    """
    p = chart.evaluate(*q)
    K = np.empty((5, 6))  # the known rows [p, i p, e_1, e_2, e_3]
    K[:2], W = _horizontal_rows(p, chart.partials(*q))

    # Two block Gram-Schmidt passes against the known rows give crisp
    # orthogonality.  (ndarray.dot beats @ on arrays this small.)
    coeffs = np.zeros((3, 3))
    for a in range(3):
        known = K[: 2 + a]
        y = W[a]
        row = np.zeros(3)
        row[a] = 1.0
        for _ in range(2):
            s = known.dot(y)
            y = y - s.dot(known)
            row -= s[2:].dot(coeffs[:a])
        norm = math.sqrt(y.dot(y))
        if not norm >= rank_tol:
            raise RankDeficient(
                f"chart {chart.name!r} at {q}: Gram-Schmidt remainder {norm:.3e} < {rank_tol:.1e}"
            )
        K[2 + a] = (1.0 / norm) * y
        coeffs[a] = row / norm

    # The real basis vector farthest from span K (first one on near-ties),
    # projected onto the complement of K twice.
    best, best_norm2 = 0, -1.0
    for k, norm2 in enumerate((1.0 - (K * K).sum(axis=0)).tolist()):
        if norm2 > best_norm2 + 1e-15:
            best, best_norm2 = k, norm2
    n = -K[:, best].dot(K)
    n[best] += 1.0
    n -= K.dot(n).dot(K)
    n /= math.sqrt(n.dot(n))
    lead = int(abs(n).argmax())
    n *= float(orient) * (1.0 if n[lead] >= 0 else -1.0)

    vertical, e1, e2, e3 = (AmbientVector(r.view(np.complex128)) for r in K[1:])
    return MovingFrame(
        p=p, vertical=vertical, e1=e1, e2=e2, e3=e3,
        normal=AmbientVector(n.view(np.complex128)), coeffs=coeffs,
    )


def frame_residuals(frame: MovingFrame) -> dict[str, float]:
    """Worst-case deviations from the frame invariants, for testing."""
    members = [frame.e1, frame.e2, frame.e3, frame.normal, frame.p, frame.vertical]
    ortho = 0.0
    for i, a in enumerate(members):
        for j, b in enumerate(members):
            target = 1.0 if i == j else 0.0
            ortho = max(ortho, abs(a.real_inner(b) - target))
    return {
        "orthonormality": ortho,
        "normal_horizontality": abs(frame.normal.real_inner(frame.vertical)),
    }
