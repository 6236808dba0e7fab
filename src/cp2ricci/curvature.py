"""Curvature from shape data, and the independent intrinsic cross-check.

The curvature tensor of the hypersurface is evaluated from frame data
(ambient holomorphic sectional curvature 4):

    R(X, Y)Z = <Y,Z>X - <X,Z>Y + <PY,Z>PX - <PX,Z>PY - 2<PX,Y>PZ
               + <AY,Z>AX - <AX,Z>AY.

The Ricci tensor is produced both by direct double contraction and by the
closed form S(X, X) = 2 + 3|PX|^2 + tr(A) <AX, X> - |AX|^2; the two routes
are asserted against each other on every call, since the closed form is a
derived contraction.  The deficit is (9/4) |H|^2 + 5 - maxRic, nonnegative
for every hypersurface point and zero exactly on the classified models.

``intrinsic_riemann`` recomputes the same tensor from the induced metric
alone, giving an oracle that is independent of the shape-operator pipeline.
The metric is evaluated exactly on a 25-point stencil q + h K of step h,
held as one (25, 3, 3) array: the stacked points and partials are projected
off p and i p by one complex contraction and their Gram matrices formed by
one batched matmul.  Christoffel symbols at the centre and its six
neighbours come from central differences read through the index tables
``PLUS`` and ``MINUS``, and the curvature from central differences of the
Christoffel symbols, so its error is O(h^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ParamTriple, SurfaceChart
from .frames import RankDeficient, _horizontal_rows
# ``curvature.shape_operator`` stays bound: the benchmark's tracer tests read it.
from .shape import ShapeData, shape_operator  # noqa: F401

def riemann_gauss(shape: ShapeData, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R(X, Y)Z in frame coordinates."""
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


def ricci_quadratic(shape: ShapeData, x: np.ndarray) -> float:
    """Closed-form S(X, X) = 2|X|^2 + 3|PX|^2 + tr(A)<AX,X> - |AX|^2."""
    px = shape.P @ x
    ax = shape.A @ x
    return float(2.0 * (x @ x) + 3.0 * (px @ px) + np.trace(shape.A) * (ax @ x) - ax @ ax)


def _wedge(O: np.ndarray) -> np.ndarray:
    """[x, y, z, w] -> S[z, y] T[w, x] - S[z, x] T[w, y] from the outer
    product O[a, b, c, d] = S[a, b] T[c, d]."""
    return O.transpose(3, 1, 0, 2) - O.transpose(1, 3, 0, 2)


# The constant-curvature term of the Gauss equation, <Y,Z>X - <X,Z>Y.
_WEDGE_EYE = _wedge(np.multiply.outer(np.eye(3), np.eye(3)))


def _gauss_tensor(shape: ShapeData) -> np.ndarray:
    """R[x, y, z, w] = <R(e_x, e_y) e_z, e_w>, all 81 frame components; the
    P terms read one outer product P (x) P, the last as P[y, x] P[w, z]."""
    A, P = shape.A, shape.P
    PP = np.multiply.outer(P, P)
    return (
        _WEDGE_EYE
        + _wedge(PP)
        - 2.0 * PP.transpose(1, 0, 3, 2)
        + _wedge(np.multiply.outer(A, A))
    )


def ricci_matrix(shape: ShapeData, check_tol: float = 1e-12) -> np.ndarray:
    """The Ricci tensor in frame coordinates.

    Both the direct contraction of the curvature tensor and the closed
    bilinear form are evaluated; they must agree to ``check_tol`` (scaled by
    the matrix magnitude), which guards the closed form on every run.
    """
    A, P = shape.A, shape.P
    closed = 2.0 * np.eye(3) + 3.0 * (P.T @ P) + np.trace(A) * A - A @ A
    direct = np.einsum("ijki->jk", _gauss_tensor(shape))

    scale = max(1.0, float(np.max(np.abs(direct))))
    gap = float(np.max(np.abs(direct - closed)))
    if not gap <= check_tol * scale:
        raise AssertionError(f"closed-form Ricci deviates from contraction by {gap:.3e}")
    return closed


def max_ricci(shape: ShapeData) -> float:
    return float(np.linalg.eigvalsh(ricci_matrix(shape))[-1])


def deficit(shape: ShapeData) -> float:
    """(9/4) |H|^2 + 5 - maxRic; nonnegative up to numerical tolerance."""
    return 2.25 * shape.mean_curvature**2 + 5.0 - max_ricci(shape)


def _plane_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    k = int(np.argmin(np.abs(n)))
    u = np.zeros(3)
    u[k] = 1.0
    x = u - (u @ n) * n
    x /= np.linalg.norm(x)
    y = np.cross(n, x)
    return x, y


def plane_curvature(shape: ShapeData, n: np.ndarray) -> float:
    """Sectional curvature of the plane with unit normal n (via R directly)."""
    x, y = _plane_basis(n)
    return float(riemann_gauss(shape, x, y, y) @ x)


def min_sectional(shape: ShapeData) -> tuple[float, np.ndarray]:
    """Minimum sectional curvature over all tangent planes.

    In dimension 3 the plane with unit normal n has K = tau/2 - Ric(n, n), so
    the minimum is tau/2 - maxRic, attained on the plane normal to the top
    Ricci eigenvector.  Returns the minimum and that plane normal.
    """
    eigs, vecs = np.linalg.eigh(ricci_matrix(shape))
    return 0.5 * float(np.sum(eigs)) - float(eigs[-1]), vecs[:, -1]


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
    eigs, vecs = np.linalg.eigh(ricci_matrix(shape))
    tau = float(np.sum(eigs))
    max_ric = float(eigs[-1])
    mean_sq = shape.mean_curvature**2
    min_k = 0.5 * tau - max_ric  # as in min_sectional
    return CurvatureReport(
        ricci_eigenvalues=eigs,
        max_ricci=max_ric,
        scalar_curvature=tau,
        mean_curv_sq=mean_sq,
        deficit=2.25 * mean_sq + 5.0 - max_ric,
        min_sectional=min_k,
        delta2=0.5 * tau - min_k,
        min_plane_normal=vecs[:, -1],
    )


# -- intrinsic (metric-only) curvature --------------------------------------


class SingularMetric(RankDeficient):
    """The induced metric at a stencil centre is singular or non-finite."""


def induced_metric(chart: SurfaceChart, q: ParamTriple) -> np.ndarray:
    """Induced metric g_ab = <H dz_a, H dz_b> from exact partials."""
    W = _horizontal_rows(chart.evaluate(*q), chart.partials(*q))
    return W.dot(W.T)


def christoffel(g: np.ndarray, dg: np.ndarray) -> np.ndarray:
    """Gamma[..., d, a, b] = Gamma^d_{ab} = g^dc (d_a g_bc + d_b g_ac - d_c g_ab) / 2
    from the metric and dg[..., c, a, b] = d_c g_ab; leading axes batch."""
    t = dg + dg.swapaxes(-3, -2) - np.moveaxis(dg, -3, -1)
    return 0.5 * np.einsum("...dc,...abc->...dab", np.linalg.inv(g), t)


def riemann_lower(g: np.ndarray, gamma: np.ndarray, dgamma: np.ndarray) -> np.ndarray:
    """R_{abcd} = g_ed R^e_{abc} from Gamma^d_{ab} and dgamma[a, d, b, c] =
    d_a Gamma^d_{bc}, where R^d_{abc} = d_a Gamma^d_bc - d_b Gamma^d_ac
    + Gamma^d_ae Gamma^e_bc - Gamma^d_be Gamma^e_ac."""
    m = dgamma.transpose(1, 0, 2, 3) + np.einsum("dae,ebc->dabc", gamma, gamma)
    return np.einsum("ed,eabc->abcd", g, m - m.transpose(0, 2, 1, 3))


def _stencil() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stencil offsets K (25, 3) and the index tables PLUS, MINUS (7, 3).

    Rows 0-6 of K are the Christoffel centres 0, +e_0, -e_0, +e_1, -e_1,
    +e_2, -e_2; the other 18 rows are their remaining neighbours
    +-e_a +- e_c (a < c) and +-2 e_a.  Row PLUS[c, a] (MINUS[c, a]) of K is
    centre c plus (minus) e_a."""
    E = np.eye(3, dtype=int)
    centres = [np.zeros(3, dtype=int), *(s * e for e in E for s in (1, -1))]
    index: dict[tuple[int, ...], int] = {}
    for k in [*centres, *(c + s * e for c in centres for e in E for s in (1, -1))]:
        index.setdefault(tuple(k.tolist()), len(index))
    PLUS, MINUS = (
        np.array([[index[tuple((c + s * e).tolist())] for e in E] for c in centres])
        for s in (1, -1)
    )
    return np.array(list(index)), PLUS, MINUS


K, PLUS, MINUS = _stencil()


def _stencil_metric(chart: SurfaceChart, q: ParamTriple, h: float) -> np.ndarray:
    """The induced metric at the 25 stencil points q + h K, as one (25, 3, 3)
    array: the points and partials are stacked, projected off p and i p by one
    complex contraction, and their Gram matrices formed by one batched matmul.
    Raises ``SingularMetric`` before evaluating anything when a centre lies in
    the chart's declared singular locus."""
    params = (np.asarray(q, dtype=np.float64) + h * K).tolist()
    if any(chart.is_singular(*x) for x in params[:7]):
        raise SingularMetric(
            f"chart {chart.name!r} at {q}: stencil centre in the singular locus"
        )
    p = np.array([chart.evaluate(*x) for x in params])
    D = np.array([chart.partials(*x) for x in params])
    W = _horizontal_rows(p, D)
    return W @ W.swapaxes(-1, -2)


def intrinsic_riemann(chart: SurfaceChart, q: ParamTriple, h: float = 1e-3) -> np.ndarray:
    """All-lower coordinate curvature R_{abcd} = <R(d_a, d_b) d_c, d_d>.

    The metric G is evaluated exactly at the 25 points q + h K of a stencil,
    K in {0, +-e_a, +-e_a +- e_c (a < c), +-2 e_a}, as one (25, 3, 3) array.
    Its first 7 rows are g at the Christoffel centres q, q +- h e_a, and
    dg = (G[PLUS] - G[MINUS]) / 2h gives their central differences, so
    Gamma follows at all 7 centres at once; central differences of Gamma
    give its derivatives at q.  Only derivatives are differenced, so the
    total error is O(h^2).  Raises ``SingularMetric`` when a centre lies in
    the chart's declared singular locus, a stencil value is non-finite or a
    centre metric is singular.
    """
    G = _stencil_metric(chart, q, h)
    g = G[:7]
    dg = (G[PLUS] - G[MINUS]) / (2.0 * h)  # dg[centre, a] = d_a g
    if not (np.isfinite(G).all() and np.isfinite(dg).all()):
        raise SingularMetric(f"chart {chart.name!r} at {q}: non-finite metric on the stencil")
    try:
        gamma = christoffel(g, dg)  # centres 0, +e_0, -e_0, +e_1, ...
    except np.linalg.LinAlgError:
        raise SingularMetric(f"chart {chart.name!r} at {q}: singular metric on the stencil") from None
    dgamma = (gamma[1::2] - gamma[2::2]) / (2.0 * h)  # dgamma[a, d, b, c] = d_a Gamma^d_{bc}
    return riemann_lower(g[0], gamma[0], dgamma)


def gauss_riemann_coords(shape: ShapeData) -> np.ndarray:
    """The frame curvature tensor pulled back to chart coordinates.

    Uses the frame bookkeeping: with W_a the horizontalized partials and
    B[a, i] = <W_a, e_i>, the coordinate components are the quadruple
    contraction of the frame components with B, done one index pair at a
    time: R[ab, cd] = (B x B)[ab, ij] T[ij, kl] (B x B)[cd, kl].
    """
    if shape.frame is None:
        raise ValueError("shape data carries no frame; compute it via shape_operator")
    # W_a = sum_i B[a, i] e_i inverts the frame bookkeeping e_i = sum_a C[i, a] W_a
    B = np.linalg.inv(shape.frame.coeffs)
    BB = (B[:, None, :, None] * B[None, :, None, :]).reshape(9, 9)
    return (BB @ _gauss_tensor(shape).reshape(9, 9) @ BB.T).reshape(3, 3, 3, 3)


def crosscheck_point(
    chart: SurfaceChart, q: ParamTriple, shape: ShapeData, h_metric: float = 1e-3
) -> float:
    """Max componentwise gap between the intrinsic curvature at q and the
    shape-based curvature of ``shape``, the shape data of ``chart`` at q."""
    return float(np.max(np.abs(intrinsic_riemann(chart, q, h_metric) - gauss_riemann_coords(shape))))


# -- closed-form oracles for geodesic spheres ---------------------------------


def geodesic_sphere_curvatures(r: float) -> np.ndarray:
    """Principal curvatures (2 cot 2r, cot r, cot r) of the radius-r sphere."""
    if not 0.0 < r < math.pi / 2:
        raise ValueError(f"radius must lie in (0, pi/2), got {r}")
    return np.array([2.0 / math.tan(2.0 * r), 1.0 / math.tan(r), 1.0 / math.tan(r)])


def geodesic_sphere_deficit(r: float) -> float:
    """Closed-form deficit of the radius-r geodesic sphere.

    In the principal frame (xi, X, PX) the Ricci form is diagonal with
    entries 2 + tr(A) a - a^2 on the structure direction (a = 2 cot 2r) and
    5 + tr(A) c - c^2 on the holomorphic directions (c = cot r).
    """
    a, c, _ = geodesic_sphere_curvatures(r)
    tr = a + 2.0 * c
    ric_xi = 2.0 + tr * a - a * a
    ric_hol = 5.0 + tr * c - c * c
    max_ric = max(ric_xi, ric_hol)
    return 2.25 * (tr / 3.0) ** 2 + 5.0 - max_ric


def random_shape_data(rng: np.random.Generator) -> ShapeData:
    """Synthetic frame data: random symmetric A and a structurally valid P
    built from a random unit structure vector."""
    m = rng.normal(size=(3, 3))
    A = 0.5 * (m + m.T)
    xi = rng.normal(size=3)
    xi /= np.linalg.norm(xi)
    u = rng.normal(size=3)
    u -= (u @ xi) * xi
    u /= np.linalg.norm(u)
    v = np.cross(xi, u)
    P = np.outer(v, u) - np.outer(u, v)
    return ShapeData.from_matrices(A, P, xi)


def ricci_selfcheck(n: int = 25, seed: int = 2024, tol: float = 1e-12) -> None:
    """Assert closed-form Ricci against the direct contraction on random data.

    Run at startup of every command; raises AssertionError on disagreement.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n):
        ricci_matrix(random_shape_data(rng), check_tol=tol)
