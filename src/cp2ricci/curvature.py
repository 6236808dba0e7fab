"""Curvature from shape data, and the independent intrinsic cross-check.

The curvature tensor of the hypersurface is evaluated from frame data
(ambient holomorphic sectional curvature 4) by the Gauss equation

    R(X, Y)Z = <Y,Z>X - <X,Z>Y + <PY,Z>PX - <PX,Z>PY - 2<PX,Y>PZ
               + <AY,Z>AX - <AX,Z>AY,

written once, as the frame components R[x, y, z, w] = <R(e_x, e_y) e_z, e_w>
of ``_gauss_tensor``, at one point or at a stack of points (a
``shape.ShapeGrid``); ``plane_curvature(R, n)`` reads sectional curvatures
off them.

The Ricci tensor is produced both by direct double contraction and by the
closed form S(X, X) = 2 + 3|PX|^2 + tr(A) <AX, X> - |AX|^2; the two routes
are asserted against each other on every call, relative to the summands
that cancel in them, since the closed form is a derived contraction.  A
start-up self-check repeats that on seeded random data from the standard
library's generator.  The deficit is (9/4) |H|^2 + 5 - maxRic, nonnegative
for every hypersurface point and zero exactly on the classified models.

``intrinsic_riemann_batch`` recomputes the same tensor from the induced
metric alone, an oracle independent of the shape-operator pipeline, at all
centres q of a grid in one pass: the metric on the 19-point stencil q + h K
is one (N, 19, 3, 3) array, its central differences give dg and ddg at q,
and the textbook formula in g, dg and ddg gives R with error O(h^2).  Only
the stencil mask (``_stencil_points``) and one ``chart.jet`` call see the
chart; the Gram pass (``_stencil_gram``) and the Riemann pass (``_riemann``)
are chart-free, so ``crosscheck`` runs each once on the rows of both charts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .charts import ParamTriple, SurfaceChart
from .frames import RankDeficient, _horizontal_rows
# ``curvature.shape_operator`` stays bound: the benchmark's tracer tests read it.
from .shape import ShapeData, ShapeGrid, shape_operator  # noqa: F401


def _outer(S: np.ndarray) -> np.ndarray:
    """O[..., a, b, c, d] = S[..., a, b] S[..., c, d]; leading axes batch."""
    return S[..., None, None] * S[..., None, None, :, :]


def _wedge(O: np.ndarray) -> np.ndarray:
    """[..., x, y, z, w] -> S[z, y] T[w, x] - S[z, x] T[w, y] from the outer
    product O[..., a, b, c, d] = S[a, b] T[c, d]: the first term with x and y
    swapped is the second."""
    first = O.swapaxes(-4, -1).swapaxes(-2, -1)
    return first - first.swapaxes(-4, -3)


# The constant-curvature term of the Gauss equation, <Y,Z>X - <X,Z>Y.
_WEDGE_EYE = _wedge(_outer(np.eye(3)))
_TWO_EYE = 2.0 * np.eye(3)  # the constant term of the closed-form Ricci tensor


def _gauss_tensor(shape: ShapeData | ShapeGrid) -> np.ndarray:
    """R[..., x, y, z, w] = <R(e_x, e_y) e_z, e_w>, all 81 frame components at
    each point of ``shape`` (one, or stacked along leading axes), with the P
    and A wedges taken as one (``_wedge`` is linear) and the last P term read
    as P[y, x] P[w, z] off the same outer product P (x) P."""
    PP = _outer(shape.P)
    return _WEDGE_EYE + _wedge(PP + _outer(shape.A)) - 2.0 * PP.swapaxes(-4, -3).swapaxes(-2, -1)


class RicciMismatch(AssertionError):
    """The closed-form Ricci tensor deviates from the direct contraction."""


RICCI_TOL = 1e-12  # the relative gap allowed between the two Ricci routes


def ricci_matrix(shape: ShapeData) -> np.ndarray:
    """The Ricci tensor in frame coordinates.

    Both the direct contraction of the curvature tensor and the closed
    bilinear form are evaluated, guarding the closed form on every run: they
    must agree to ``RICCI_TOL`` times max(1, max |direct|, |A|_F^2), the size
    of the summands that cancel in them, or ``RicciMismatch`` is raised.
    """
    A, P = shape.A, shape.P
    closed = _TWO_EYE + 3.0 * (P.T @ P) + A.trace() * A - A @ A
    direct = np.einsum("ijki->jk", _gauss_tensor(shape))

    scale = max(1.0, float(np.abs(direct).max()), float((A * A).sum()))
    gap = float(np.abs(direct - closed).max())
    if not gap <= RICCI_TOL * scale:
        raise RicciMismatch(f"closed-form Ricci deviates from contraction by {gap:.3e}")
    return closed


def max_ricci(shape: ShapeData) -> float:
    return float(np.linalg.eigvalsh(ricci_matrix(shape))[-1])


def _ricci_bound(shape: ShapeData) -> float:
    """(9/4) |H|^2 + 5, the upper bound on maxRic that every deficit subtracts from."""
    return 2.25 * shape.mean_curvature**2 + 5.0


def deficit(shape: ShapeData) -> float:
    """(9/4) |H|^2 + 5 - maxRic; nonnegative up to numerical tolerance."""
    return _ricci_bound(shape) - max_ricci(shape)


def _plane_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y = n cross x), x the axis of n's least |component| made normal to n."""
    n0, n1, n2 = ns = n.tolist()
    k = min(range(3), key=lambda j: abs(ns[j]))
    x = np.array([float(j == k) - ns[k] * nj for j, nj in enumerate(ns)])
    x /= math.sqrt(x.dot(x))
    x0, x1, x2 = x.tolist()
    return x, np.array([n1 * x2 - n2 * x1, n2 * x0 - n0 * x2, n0 * x1 - n1 * x0])


def plane_curvature(R: np.ndarray, n: np.ndarray) -> float:
    """Sectional curvature R(x, y, y, x) of the plane with unit normal n, from
    the frame components R[x, y, z, w] = <R(e_x, e_y) e_z, e_w>."""
    x, y = _plane_basis(n)
    return float(np.einsum("abcd,a,b,c,d->", R, x, y, y, x))


@dataclass(frozen=True)
class CurvatureReport:
    """Pointwise curvature summary."""

    ricci_eigenvalues: np.ndarray  # ascending
    max_ricci: float
    scalar_curvature: float
    mean_curv_sq: float
    deficit: float
    min_sectional: float
    delta2: float
    min_plane_normal: np.ndarray


def curvature_report(shape: ShapeData) -> CurvatureReport:
    """Ricci spectrum, deficit and delta(2) = tau/2 - min K at one point.

    In dimension 3 the plane with unit normal n has K = tau/2 - Ric(n, n), so
    the least sectional curvature lies on the plane normal to the top Ricci
    eigenvector and delta(2) equals maxRic.  That K is read off the Gauss
    tensor by ``plane_curvature``, not off the Ricci spectrum, so
    delta2 - max_ricci tests the Ricci tensor.
    """
    eigs, vecs = np.linalg.eigh(ricci_matrix(shape))
    tau = float(np.sum(eigs))
    max_ric = float(eigs[-1])
    min_k = plane_curvature(_gauss_tensor(shape), vecs[:, -1])
    return CurvatureReport(
        ricci_eigenvalues=eigs,
        max_ricci=max_ric,
        scalar_curvature=tau,
        mean_curv_sq=shape.mean_curvature**2,
        deficit=_ricci_bound(shape) - max_ric,
        min_sectional=min_k,
        delta2=0.5 * tau - min_k,
        min_plane_normal=vecs[:, -1],
    )


# -- intrinsic (metric-only) curvature --------------------------------------


class SingularMetric(RankDeficient):
    """The induced metric on the stencil is singular or non-finite, the stencil
    meets the chart's declared singular locus, or its step is unresolved."""


def christoffel(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., d, a, b] = Gamma^d_{ab} = g^dc (d_a g_bc + d_b g_ac - d_c g_ab) / 2
    from the metric and dg[..., c, a, b] = d_c g_ab; leading axes batch."""
    t = dg + dg.swapaxes(-3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...dc,...abc->...dab", np.linalg.inv(g), t)


def _stencil() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stencil offsets K (19, 3) and the difference weights D1 (3, 19)
    and D2 (3, 3, 19).

    K holds every k in {-1, 0, 1}^3 with |k|_1 <= 2: row 0 is the centre,
    rows 1-6 its axis neighbours +e_0, -e_0, +e_1, -e_1, +e_2, -e_2, and
    rows 7-18 the points +-e_a +- e_c (a < c).  For f sampled at q + h K,
    D1 @ f / h is the central difference of d_c f, and D2 @ f / h^2 the
    second difference of d_a d_c f over +-e_a and the centre, or for
    a != c the four-point mixed difference; both are exact on quadratics."""
    E = np.eye(3, dtype=int)
    K = np.array([0 * E[0]] + [s * E[a] for a in range(3) for s in (1, -1)] + [
        s * E[a] + t * E[c] for a, c in ((0, 1), (0, 2), (1, 2)) for s in (1, -1) for t in (1, -1)
    ])
    k = np.ascontiguousarray(K.T, dtype=np.float64)  # k[a, n] = K[n, a]
    m = abs(k).sum(axis=0)
    kk = k[:, None] * k  # kk[a, c, n] = K[n, a] K[n, c]
    diagonal = np.eye(3, dtype=bool)[..., None]
    return K, 0.5 * k * (m == 1), np.where(diagonal, kk * (m == 1) - 2.0 * (m == 0), 0.25 * kk * (m == 2))


K, D1, D2 = _stencil()


def _stencil_points(chart: SurfaceChart, qs: list[ParamTriple], h: float) -> tuple[np.ndarray, list]:
    """The points q + h K (19 M, 3) of the M accepted centres q of ``qs`` and
    each centre's error or None.  A centre is rejected where its stencil is not
    finite, else where h^2 underflows or an axis neighbour q +- h e_a rounds to
    q (else all 19 points are distinct), else where one ``chart.singular`` mask
    puts q or an axis neighbour in the declared singular locus."""
    with np.errstate(invalid="ignore", over="ignore"):  # 0 * inf in h K, or q + h K beyond the float range
        X = np.asarray(qs, dtype=np.float64).reshape(-1, 1, 3) + h * K
    finite = np.isfinite(X).all(axis=(1, 2))
    coarse = (X[:, 1:7] == X[:, :1]).all(axis=2).any(axis=1) | (h * h < np.finfo(np.float64).tiny)
    singular, tested = np.zeros(len(X), dtype=bool), finite & ~coarse
    singular[tested] = chart.singular(X[tested, :7]).any(axis=1)
    errors = [
        "non-finite stencil centre, step or neighbour" if not f
        else f"step {h!r} below the parameter resolution" if c
        else "stencil centre or axis neighbour in the singular locus" if s else None
        for f, c, s in zip(finite.tolist(), coarse.tolist(), singular.tolist())
    ]
    return X[tested & ~singular].reshape(-1, 3), errors


def _stencil_gram(p: np.ndarray, D: np.ndarray, errors: list) -> np.ndarray:
    """The stencil metric G (N, 19, 3, 3) of the N centres of ``errors`` from
    the chart's points p and partials D at ``_stencil_points``, chart-free:
    NaN where a centre has an error, else one projection and one matmul."""
    W = _horizontal_rows(p.reshape(-1, 19, 3), D.reshape(-1, 19, 3, 3))
    G = np.full((len(errors), 19, 3, 3), math.nan)
    G[[e is None for e in errors]] = W @ W.swapaxes(-1, -2)
    return G


def _stencil_metric(chart: SurfaceChart, qs: list[ParamTriple], h: float) -> tuple[np.ndarray, list]:
    """``_stencil_points``, one ``chart.jet`` call, ``_stencil_gram``: (G, errors)."""
    X, errors = _stencil_points(chart, qs, h)
    return _stencil_gram(*chart.jet(X), errors), errors


def _riemann(G: np.ndarray, errors: list, h: float) -> tuple[np.ndarray, list]:
    """R_{abcd} = <R(d_a, d_b) d_c, d_d> (N, 3, 3, 3, 3) and each centre's
    error, chart-free, from the stencil metric G and errors of
    ``_stencil_metric``.  With g = G[0], dg = D1 G / h and ddg = D2 G / h^2
    (see ``_stencil``),

        R_abcd = (g_bd,ac + g_ac,bd - g_bc,ad - g_ad,bc) / 2
                 + Gamma_{e,bd} Gamma^e_ac - Gamma_{e,ad} Gamma^e_bc,

    with error O(h^2), taken as x - x^T over (a, b) for x_abcd = (g_bd,ac -
    g_bc,ad) / 2 + Gamma_{e,bd} Gamma^e_ac, so exactly antisymmetric there.
    A centre also fails where G is non-finite or g singular (R is NaN there);
    rows are independent, so every other R has its one-centre bits."""
    finite = np.isfinite(G).all(axis=(1, 2, 3)).tolist()
    errors = [e or (None if f else "non-finite metric on the stencil") for e, f in zip(errors, finite)]
    good = [k for k, e in enumerate(errors) if e is None]
    dg = np.einsum("cn,xnab->xcab", D1, G[good]) / h  # dg[x, c, a, b] = d_c g_ab
    try:
        gamma = christoffel(G[good, 0], dg)
    except np.linalg.LinAlgError:  # raised for the whole stack: find each singular g
        for k in good:
            try:
                np.linalg.inv(G[k, 0])
            except np.linalg.LinAlgError:
                errors[k] = "singular metric at the centre"
        dg = dg[[errors[k] is None for k in good]]
        good = [k for k in good if errors[k] is None]
        gamma = christoffel(G[good, 0], dg)
    g, G = G[good, 0], G[good]
    ddg = np.einsum("acn,xnbd->xacbd", D2, G) / (h * h)  # ddg[x, a, c, b, d] = d_a d_c g_bd
    x = 0.5 * (np.einsum("xacbd->xabcd", ddg) - np.einsum("xadbc->xabcd", ddg))
    x += np.einsum("xef,xfbd,xeac->xabcd", g, gamma, gamma)
    R = np.full((len(errors), 3, 3, 3, 3), math.nan)
    R[good] = x - x.swapaxes(1, 2)
    return R, errors


def intrinsic_riemann_batch(
    chart: SurfaceChart, qs: list[ParamTriple], h: float = 1e-3
) -> tuple[np.ndarray, list[str | None]]:
    """``_riemann`` at the centres q of ``qs`` on ``_stencil_metric``: R and per
    centre its ``SingularMetric`` message, prefixed "chart '<name>' at <q>: ",
    or None."""
    R, errors = _riemann(*_stencil_metric(chart, qs, h), h)
    return R, [e and f"chart {chart.name!r} at {q}: {e}" for q, e in zip(qs, errors)]


def gauss_riemann_coords(coeffs: np.ndarray, T: np.ndarray) -> np.ndarray:
    """The frame curvature tensors T (..., 3, 3, 3, 3) of ``_gauss_tensor``
    pulled back to chart coordinates; leading axes batch.  With C the frame's
    ``coeffs``, e_i = sum_a C[i, a] W_a over the horizontalized partials, so
    W_a = sum_i B[a, i] e_i with B = C^-1 and R[ab, cd] = (B x B)[ab, ij]
    T[ij, kl] (B x B)[cd, kl]: one stacked ``inv`` and one stacked matmul."""
    B = np.linalg.inv(coeffs)
    BB = (B[..., :, None, :, None] * B[..., None, :, None, :]).reshape(*B.shape[:-2], 9, 9)
    return (BB @ T.reshape(BB.shape) @ BB.swapaxes(-1, -2)).reshape(T.shape)


# -- closed-form oracles for geodesic spheres ---------------------------------


def geodesic_sphere_curvatures(r: float) -> np.ndarray:
    """Principal curvatures (2 cot 2r, cot r, cot r) of the radius-r sphere."""
    if not 0.0 < r < math.pi / 2:
        raise ValueError(f"radius must lie in (0, pi/2), got {r}")
    return np.array([2.0 / math.tan(2.0 * r), 1.0 / math.tan(r), 1.0 / math.tan(r)])


def geodesic_sphere_deficit(r: float) -> float:
    """Closed-form deficit a^2 / 4 = cot^2(2r) of the radius-r geodesic sphere.

    In the principal frame (xi, X, PX) the Ricci form is diagonal with
    entries 2 + tr(A) a - a^2 on the structure direction (a = 2 cot 2r) and
    5 + tr(A) c - c^2 on the holomorphic directions (c = cot r).  Since
    a = c - 1/c, the second exceeds the first by 3 + c^2 - ac = 4, and
    (9/4)(tr(A)/3)^2 + 5 minus it cancels to a^2 / 4.  On Python floats it
    overflows to inf near r = 0, without a warning.
    """
    a = float(geodesic_sphere_curvatures(r)[0])
    return 0.25 * a * a


def random_shape_data(rng: random.Random) -> ShapeData:
    """Synthetic frame data: random symmetric A and a structurally valid P
    built from a random unit structure vector, all from 15 normal draws of
    ``rng``."""
    g = np.reshape([rng.gauss(0.0, 1.0) for _ in range(15)], (5, 3))
    A = 0.5 * (g[:3] + g[:3].T)
    xi = g[3] / np.linalg.norm(g[3])
    u = g[4] - (g[4] @ xi) * xi
    u /= np.linalg.norm(u)
    v = np.cross(xi, u)
    P = np.outer(v, u) - np.outer(u, v)
    return ShapeData.from_matrices(A, P, xi)


def ricci_selfcheck() -> None:
    """Assert closed-form Ricci against the direct contraction on 25 seeded
    random shape data; run at startup of every command."""
    rng = random.Random(2024)
    for _ in range(25):
        ricci_matrix(random_shape_data(rng))
