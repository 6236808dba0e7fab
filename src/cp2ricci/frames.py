"""Horizontal orthonormal frames and unit normals along chart lifts.

At a chart point p the fiber direction is i p.  The three chart partials,
read as a (3, 3) complex array D, are projected onto the horizontal space
(the orthogonal complement of p and i p) by one complex projection,
D - (D conj(p)) p, and viewed as three real rows W of R^6.  Those rows are
orthonormalized by Cholesky-QR twice: with L1 the Cholesky factor of the
Gram matrix W W^T, E1 = L1^-1 W, and with L2 that of E1 E1^T, E = L2^-1 E1.
This is Gram-Schmidt with a positive diagonal, so row i of ``coeffs`` =
L2^-1 L1^-1 expresses e_i in the horizontalized partials.  L^-1 has one
closed form, on Python floats or on arrays.  The rank guard compares each
Gram-Schmidt remainder, read as diag(W E^T), with ``RANK_TOL`` (a NaN one
fails); that stays accurate where the Gram matrix is ill-conditioned.  The
frame is completed by the unique horizontal unit normal n, read off the
kernel of the skew matrix <i e_j, e_k>; its sign follows a deterministic
rule (the first component of largest modulus is >= 0) so that runs are
reproducible.

``build_frame`` builds one frame on Python floats, which are faster for one
point: a ``MovingFrame`` holding p as an ``AmbientVector`` and the real rows
[i p, e_1, e_2, e_3, n] as one read-only (5, 6) array.  ``_frame_stack``
builds a stack of frames on arrays with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ambient import AmbientVector
from .charts import ParamTriple, SurfaceChart


RANK_TOL = 1e-8  # the smallest Gram-Schmidt remainder a frame accepts


class RankDeficient(RuntimeError):
    """The horizontalized partials do not span a 3-space at this point."""


def _horizontal_rows(p: np.ndarray, D: np.ndarray) -> np.ndarray:
    """The complex rows D (..., m, 3) projected off [p, i p] at the unit
    points p (..., 3), as real rows of R^6 (..., m, 6); leading axes batch.

    For unit p the real projection onto span{p, i p} is w -> (w . conj p) p,
    so one complex outer product removes both directions."""
    D = D - np.matmul(D, p.conj()[..., None]) * p[..., None, :]
    return D.view(np.float64)


def _inverse_cholesky_entries(G, root):
    """The lower entries (m00, m10, m11, m20, m21, m22) of L^-1 for the lower
    Cholesky factor L of the symmetric 3x3 matrix G, entry by entry, so on
    Python floats or on arrays alike.  ``root`` is a pivot's square root, NaN
    where the pivot is not positive (or NaN), so every entry it reaches is
    NaN and fails the rank guard."""
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = G
    l00 = root(g00)
    l10, l20 = g01 / l00, g02 / l00
    l11 = root(g11 - l10 * l10)
    l21 = (g12 - l20 * l10) / l11
    l22 = root(g22 - l20 * l20 - l21 * l21)
    m00, m11, m22 = 1.0 / l00, 1.0 / l11, 1.0 / l22
    m10 = -l10 * m00 * m11
    return m00, m10, m11, -(l20 * m00 + l21 * m10) * m22, -l21 * m11 * m22, m22


def _inverse_cholesky(X: np.ndarray) -> np.ndarray:
    """L^-1 for the lower Cholesky factor L of the Gram matrix X X^T of three
    rows, on Python floats."""
    root = lambda d: math.sqrt(d) if d > 0.0 else math.nan  # noqa: E731
    m00, m10, m11, m20, m21, m22 = _inverse_cholesky_entries(X.dot(X.T).tolist(), root)
    return np.array([m00, 0.0, 0.0, m10, m11, 0.0, m20, m21, m22]).reshape(3, 3)


def _inverse_cholesky_stack(X: np.ndarray) -> np.ndarray:
    """``_inverse_cholesky`` of every stacked row triple X (..., 3, m), with
    its bits."""
    G = np.moveaxis(X @ X.swapaxes(-1, -2), (-2, -1), (0, 1))
    root = lambda d: np.sqrt(np.where(d > 0.0, d, math.nan))  # noqa: E731
    m00, m10, m11, m20, m21, m22 = _inverse_cholesky_entries(G, root)
    zero = np.zeros_like(m00)
    return np.stack([m00, zero, zero, m10, m11, zero, m20, m21, m22], axis=-1).reshape(*m00.shape, 3, 3)


def _frame_stack(p: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``build_frame`` at each stacked unit point p (..., 3) with chart
    partials D (..., 3, 3), each stacked ``@`` standing for a ``dot``: the
    rows (..., 5, 6), the ``coeffs`` (..., 3, 3) and whether the frame passes
    the rank guard (...), where a failed frame holds arbitrary values."""
    W = _horizontal_rows(p, D)
    C1 = _inverse_cholesky_stack(W)
    E1 = C1 @ W
    C2 = _inverse_cholesky_stack(E1)
    E = C2 @ E1
    full_rank = ((W * E).sum(axis=-1) >= RANK_TOL).all(axis=-1)
    iE = (1j * E.view(np.complex128)).view(np.float64)
    G = iE @ E.swapaxes(-1, -2)
    axial = [G[..., 1, 2] - G[..., 2, 1], G[..., 2, 0] - G[..., 0, 2], G[..., 0, 1] - G[..., 1, 0]]
    n = np.stack(axial, -1)[..., None, :] @ iE
    first_largest = np.take_along_axis(n, np.abs(n).argmax(axis=-1)[..., None], axis=-1)
    n *= 1.0 / np.copysign(np.sqrt(n @ n.swapaxes(-1, -2)), first_largest)
    ip = (1j * p)[..., None, :].view(np.float64)
    return np.concatenate([ip, E, n], axis=-2), C2 @ C1, full_rank


@dataclass(frozen=True)
class MovingFrame:
    """Horizontal orthonormal tangent frame, unit normal, and bookkeeping.

    ``rows`` holds the real 6-vectors [i p, e_1, e_2, e_3, n].  ``coeffs``
    row i expresses e_i in the basis of horizontalized chart partials, so
    derivatives along coordinate directions can be contracted into frame
    directions.
    """

    p: AmbientVector
    rows: np.ndarray
    coeffs: np.ndarray


def build_frame(chart: SurfaceChart, q: ParamTriple) -> MovingFrame:
    """Build the moving frame at a non-singular parameter point.

    Raises ``RankDeficient`` when a Gram-Schmidt remainder norm, an entry
    of diag(W E^T), falls below ``RANK_TOL`` or is NaN (a Cholesky pivot
    that is not positive makes it NaN), which signals a coordinate
    singularity, a fiber-tangent direction or a non-finite chart value.
    """
    p = chart.evaluate(*q)
    W = _horizontal_rows(p, chart.partials(*q))
    C1 = _inverse_cholesky(W)
    E1 = C1.dot(W)
    C2 = _inverse_cholesky(E1)
    R = np.empty((5, 6))  # the rows [i p, e_1, e_2, e_3, n]
    np.multiply(1j, p, out=R[0].view(np.complex128))
    E = R[1:4]
    C2.dot(E1, out=E)
    r0, r1, r2 = (W * E).sum(axis=1).tolist()
    if not (r0 >= RANK_TOL and r1 >= RANK_TOL and r2 >= RANK_TOL):
        raise RankDeficient(
            f"chart {chart.name!r} at {q}: Gram-Schmidt remainder"
            f" {np.min((r0, r1, r2)):.3e} < {RANK_TOL:.1e}"
        )

    # i n is tangent, so xi_j = <-i n, e_j> spans the kernel of the skew
    # matrix <i e_j, e_k>; its axial vector gives n = i sum_j xi_j e_j up to
    # sign.  Sign rule: the first component of largest modulus is >= 0.
    iE = (1j * E.view(np.complex128)).view(np.float64)
    (_, g01, g02), (g10, _, g12), (g20, g21, _) = iE.dot(E.T).tolist()
    n = R[4]
    np.array((g12 - g21, g20 - g02, g01 - g10)).dot(iE, out=n)
    n *= 1.0 / math.copysign(math.sqrt(n.dot(n)), max(n.tolist(), key=abs))
    R.setflags(write=False)
    return MovingFrame(p=AmbientVector(p), rows=R, coeffs=C2.dot(C1))
