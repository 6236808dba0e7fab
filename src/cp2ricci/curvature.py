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
alone (Christoffel symbols by central differences of exact metric values),
giving an oracle that is independent of the shape-operator pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charts import ParamTriple, SurfaceChart
from .frames import horizontalize
from .shape import ShapeData, shape_operator

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


def _wedge(S: np.ndarray, T: np.ndarray) -> np.ndarray:
    """[x, y, z, w] -> S[z, y] T[w, x] - S[z, x] T[w, y]."""
    return np.einsum("zy,wx->xyzw", S, T) - np.einsum("zx,wy->xyzw", S, T)


def _gauss_tensor(shape: ShapeData) -> np.ndarray:
    """R[x, y, z, w] = <R(e_x, e_y) e_z, e_w>, all 81 frame components."""
    A, P = shape.A, shape.P
    return (
        _wedge(np.eye(3), np.eye(3))
        + _wedge(P, P)
        - 2.0 * np.einsum("yx,wz->xyzw", P, P)
        + _wedge(A, A)
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


def induced_metric(chart: SurfaceChart, q: ParamTriple) -> np.ndarray:
    """Induced metric g_ab = <H dz_a, H dz_b> from exact partials."""
    p = chart.evaluate(*q)
    ws = [horizontalize(w, p) for w in chart.partials(*q)]
    g = np.zeros((3, 3))
    for a in range(3):
        for b in range(a, 3):
            g[a, b] = g[b, a] = ws[a].real_inner(ws[b])
    return g


def christoffel(chart: SurfaceChart, q: ParamTriple, h: float) -> np.ndarray:
    """Christoffel symbols Gamma^d_{ab} with metric derivatives by central
    differences of exactly evaluated metric values."""
    g = induced_metric(chart, q)
    ginv = np.linalg.inv(g)
    dg = np.zeros((3, 3, 3))  # dg[c, a, b] = d_c g_ab
    for c in range(3):
        qp = list(q)
        qp[c] += h
        qm = list(q)
        qm[c] -= h
        dg[c] = (induced_metric(chart, tuple(qp)) - induced_metric(chart, tuple(qm))) / (2.0 * h)
    gamma = np.zeros((3, 3, 3))  # gamma[d, a, b] = Gamma^d_{ab}
    for d in range(3):
        for a in range(3):
            for b in range(3):
                s = 0.0
                for c in range(3):
                    s += ginv[d, c] * (dg[a, b, c] + dg[b, a, c] - dg[c, a, b])
                gamma[d, a, b] = 0.5 * s
    return gamma


def intrinsic_riemann(chart: SurfaceChart, q: ParamTriple, h: float = 1e-3) -> np.ndarray:
    """All-lower coordinate curvature R_{abcd} = <R(d_a, d_b) d_c, d_d>.

    Only derivatives of the metric are finite-differenced; metric values on
    the stencil are exact, so the total error is O(h^2).
    """
    g = induced_metric(chart, q)
    gamma0 = christoffel(chart, q, h)
    dgamma = np.zeros((3, 3, 3, 3))  # dgamma[a, d, b, c] = d_a Gamma^d_{bc}
    for a in range(3):
        qp = list(q)
        qp[a] += h
        qm = list(q)
        qm[a] -= h
        dgamma[a] = (christoffel(chart, tuple(qp), h) - christoffel(chart, tuple(qm), h)) / (2.0 * h)
    # R^d_{abc}: component d of R(d_a, d_b) d_c
    r_up = np.zeros((3, 3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    val = dgamma[a, d, b, c] - dgamma[b, d, a, c]
                    for e in range(3):
                        val += gamma0[d, a, e] * gamma0[e, b, c]
                        val -= gamma0[d, b, e] * gamma0[e, a, c]
                    r_up[d, a, b, c] = val
    return np.einsum("ed,eabc->abcd", g, r_up)


def gauss_riemann_coords(shape: ShapeData) -> np.ndarray:
    """The frame curvature tensor pulled back to chart coordinates.

    Uses the frame bookkeeping: with W_a the horizontalized partials and
    B[a, i] = <W_a, e_i>, the coordinate components are the quadruple
    contraction of the frame components with B.
    """
    if shape.frame is None:
        raise ValueError("shape data carries no frame; compute it via shape_operator")
    # W_a = sum_i B[a, i] e_i inverts the frame bookkeeping e_i = sum_a C[i, a] W_a
    B = np.linalg.inv(shape.frame.coeffs)
    return np.einsum("ai,bj,ck,dl,ijkl->abcd", B, B, B, B, _gauss_tensor(shape))


def crosscheck_point(
    chart: SurfaceChart,
    q: ParamTriple,
    h_metric: float = 1e-3,
    h_shape: float = 1e-5,
) -> float:
    """Max componentwise gap between intrinsic and shape-based curvature."""
    shape = shape_operator(chart, q, h=h_shape)
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
