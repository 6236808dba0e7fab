"""Parametrized hypersurface lifts of the projective plane in the 5-sphere.

A chart is a map from a 3-parameter box into the unit sphere of C^3 together
with exact analytic first partials and a singular-locus mask.  Charts fix
the fiber phase; the fiber direction is i p, analytically, so downstream
quantities are invariant under a phase change (to O(h^2) on the FD route).

Builtin families, each factory's signature also its ``cp2ricci scan`` surface
syntax: ``ruled_chart``, a minimal ruled hypersurface; ``sphere_chart``, the
geodesic sphere of radius r about the image of (1, 0, 0); and
``perturbed_ruled_chart``, the ruled chart displaced by a seeded smooth
trigonometric field and renormalized, for probing strict inequality away from
the classified cases.  The ruled and sphere maps are each written once, on the
cosines and sines of the parameters, for ``evaluate``, ``partials`` and
``SurfaceChart.jet`` alike, with the same bits except the sign of a zero entry
where a product underflows (rows with a nonzero parameter below about 1e-154,
where numpy's complex multiply rounds like a fused multiply-add and CPython's
does not); the perturbed chart is one 26-mode field.

User charts: construct a ``SurfaceChart`` directly with your own callables
(see ``SurfaceChart``): unit norm, exact partials, an honest singular mask.
``jet`` calls ``evaluate`` then ``partials`` at each row, so a chart may share
work between the two at one q.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Parameter points closer than this (in min |sin|, |cos| of the degenerate
# trig factor) to a coordinate singularity are flagged.
SINGULAR_MARGIN = 1e-3

ParamTriple = tuple[float, float, float]


@dataclass(frozen=True)
class Box:
    """A closed box in 3-parameter space; a non-finite edge is a ValueError."""

    lo: tuple[float, float, float]
    hi: tuple[float, float, float]

    def __post_init__(self) -> None:
        for edge, corner in (("lo", self.lo), ("hi", self.hi)):
            if not all(map(math.isfinite, corner)):
                raise ValueError(f"box edge {edge} = {corner} is not finite")

    def axes(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if n < 2:
            raise ValueError("grid size must be at least 2 per axis")
        return tuple(np.linspace(l, h, n) for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class SurfaceChart:
    """A hypersurface lift: evaluation map, exact partials, box, singular mask.

    ``evaluate(u, v, t)`` returns the unit point of C^3 as a fresh complex128
    array of shape (3,); ``partials(u, v, t)`` returns the exact first
    partials as a fresh complex128 array of shape (3, 3), row a being the
    derivative along parameter a.  ``is_singular(Q)`` maps a parameter
    array Q (..., 3) to the bool mask (...) of its rows in the singular locus."""

    name: str
    evaluate: Callable[[float, float, float], np.ndarray]
    partials: Callable[[float, float, float], np.ndarray]
    sample_box: Box
    is_singular: Callable[[np.ndarray], np.ndarray]

    def jet(self, Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Points (N, 3) and partials (N, 3, 3) at the rows of Q (N, 3): by the array map recorded on
        ``evaluate`` while both fields are the callables it names, else row by row, shapes checked."""
        e, d, array_map = getattr(self.evaluate, "array_jet", (None, None, None))
        if e is self.evaluate and d is self.partials:
            return array_map(Q)
        p, D = np.empty((len(Q), 3), np.complex128), np.empty((len(Q), 3, 3), np.complex128)
        for k, x in enumerate(Q.tolist()):
            a, b = self.evaluate(*x), self.partials(*x)
            if np.shape(a) != (3,) or np.shape(b) != (3, 3):  # a user chart is outside input
                raise ValueError(f"chart {self.name!r}: a {np.shape(a)} point and {np.shape(b)} partials at {x}")
            p[k], D[k] = a, b
        return p, D

    def singular(self, Q: np.ndarray) -> np.ndarray:
        """``is_singular(Q)``, the bool mask of the rows of Q (..., 3) in the singular locus: a
        user chart is outside input, so anything but a bool (...) mask is a ValueError naming it."""
        try:
            mask = np.asarray(self.is_singular(Q))
        except TypeError as exc:  # a predicate of three floats, say
            raise ValueError(f"chart {self.name!r}: is_singular cannot take a {Q.shape} parameter array") from exc
        if mask.dtype != bool or mask.shape != Q.shape[:-1]:
            raise ValueError(f"chart {self.name!r}: is_singular gave a {mask.dtype} {mask.shape} mask for {Q.shape}")
        return mask


def _cis(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """complex(c, s) at each entry of the (N,) arrays c and s, signed zeros kept (c + 1j * s drops them)."""
    z = np.empty((len(c), 2))
    z[:, 0], z[:, 1] = c, s
    return z.view(np.complex128)[:, 0]


def _builtin_chart(name: str, point: Callable, partials: Callable, box: Box, axis: int) -> SurfaceChart:
    """A builtin chart from its map written once: ``point(c0, c1, c2, s0, s1, s2, cis)`` and
    ``partials(..., cis, zero)`` give the 3 point and 9 partial entries from the parameters' cosines
    and sines, a constructor cis(cos, sin) of e^{ix} and a zero.  On floats (``complex``, 0.0) they
    are ``evaluate`` and ``partials``; on the rows of Q (``_cis``, zeros), the array map recorded on
    ``evaluate`` (see ``SurfaceChart.jet``).  The two agree bit for bit, except that a zero entry
    can differ in sign where a product underflows, on rows with a nonzero parameter below about
    1e-154.  Singular where parameter ``axis`` is not finite or min(|sin|, |cos|) of it is below
    ``SINGULAR_MARGIN``."""

    def evaluate(a: float, b: float, c: float) -> np.ndarray:
        cos, sin = math.cos, math.sin
        return np.array(point(cos(a), cos(b), cos(c), sin(a), sin(b), sin(c), complex))

    def partials_at(a: float, b: float, c: float) -> np.ndarray:
        cos, sin = math.cos, math.sin
        return np.array(partials(cos(a), cos(b), cos(c), sin(a), sin(b), sin(c), complex, 0.0)).reshape(3, 3)

    def jet(Q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        trig, zero = (*np.cos(Q.T), *np.sin(Q.T)), np.zeros(len(Q))
        p, D = np.stack(point(*trig, _cis), axis=-1), np.stack(partials(*trig, _cis, zero), axis=-1)
        return p, D.reshape(-1, 3, 3)

    def is_singular(Q: np.ndarray) -> np.ndarray:
        x = Q[..., axis]
        with np.errstate(invalid="ignore"):  # sin and cos of inf are NaN
            return ~np.isfinite(x) | (np.minimum(np.abs(np.sin(x)), np.abs(np.cos(x))) < SINGULAR_MARGIN)

    evaluate.array_jet = (evaluate, partials_at, jet)
    return SurfaceChart(name, evaluate, partials_at, box, is_singular)


def ruled_chart() -> SurfaceChart:
    """The ruled family (u, v, t) -> (cos u cos v, cos u sin v, sin u e^{it}).

    Coordinate singularities: u = 0 (the t-partial vanishes) and |u| = pi/2
    (the v-partial vanishes).  The u and v partials are horizontal; the
    t-partial has vertical component sin^2 u.
    """

    def point(cu, cv, ct, su, sv, st, cis):
        return cu * cv, cu * sv, su * cis(ct, st)

    def partials(cu, cv, ct, su, sv, st, cis, zero):
        eit = cis(ct, st)
        return -su * cv, -su * sv, cu * eit, -cu * sv, cu * cv, zero, zero, zero, 1j * su * eit

    box = Box((0.3, 0.1, 0.1), (1.2, 6.1, 6.1))
    return _builtin_chart("ruled", point, partials, box, axis=0)


def sphere_chart(radius: float) -> SurfaceChart:
    """Lift of the geodesic sphere of radius r (``radius``), for r in (0, pi/2).

    Chart (phi, s, t) -> (cos r e^{i phi}, sin r cos s, sin r sin s e^{it});
    the first component has modulus cos r everywhere, so the image consists of
    the points at distance r from the image of (1, 0, 0).  Singular at s near
    0 (the t-partial vanishes) and s near pi/2 (the horizontal parts of the
    phi- and t-partials become parallel).
    """
    if not 0.0 < radius < math.pi / 2:
        raise ValueError(f"radius must lie in (0, pi/2), got {radius}")
    cr, sr = math.cos(radius), math.sin(radius)

    def point(cphi, cs, ct, sphi, ss, st, cis):
        return cr * cis(cphi, sphi), sr * cs, sr * ss * cis(ct, st)

    def partials(cphi, cs, ct, sphi, ss, st, cis, zero):
        eiphi, eit = cis(cphi, sphi), cis(ct, st)
        return 1j * cr * eiphi, zero, zero, zero, -sr * ss, sr * cs * eit, zero, zero, 1j * sr * ss * eit

    box = Box((0.1, 0.3, 0.1), (6.1, 1.2, 6.1))
    return _builtin_chart(f"sphere:{radius:.12g}", point, partials, box, axis=1)


class _TrigField:
    """A C^3-valued trigonometric polynomial, one array entry per mode.

    Mode k is ``weight[:, k] sin(freq[k] . q + phase[k])``, a cosine being a
    sine with phase pi/2.  The rows of ``weight`` (6, n) are the real
    components Re c1, Im c1, Re c2, ... and ``dweight[a] = weight * freq[:, a]``
    (3, 6, n), so ``jet``, its one evaluation, gets the value and its three
    partials as real 6-vectors from one sin and one cos of the mode arguments.
    """

    def __init__(self, freq: np.ndarray, phase: np.ndarray, weight: np.ndarray):
        self.freq, self.phase, self.weight = freq, phase, weight
        self.dweight = weight * freq.T[:, None, :]

    @classmethod
    def seeded(cls, seed: int) -> "_TrigField":
        """Three modes c sin/cos(m . q) per real component with integer m in
        [-2, 2]^3, drawn again while zero; the seed fixes the field."""
        rng = np.random.default_rng(seed)
        n = 18
        coef, freq, use_sin = np.empty(n), np.empty((n, 3)), np.empty(n, dtype=bool)
        for j in range(n):
            coef[j] = rng.uniform(-1.0, 1.0)
            freq[j] = rng.integers(-2, 3, size=3)
            while not freq[j].any():
                freq[j] = rng.integers(-2, 3, size=3)
            use_sin[j] = rng.integers(0, 2)
        weight = np.zeros((6, n))
        weight[np.arange(n) // 3, np.arange(n)] = coef
        return cls(freq, np.where(use_sin, 0.0, math.pi / 2), weight)

    def jet(self, q: ParamTriple) -> tuple[np.ndarray, np.ndarray]:
        x = self.freq.dot(q) + self.phase
        return self.weight.dot(np.sin(x)), self.dweight.dot(np.cos(x))


# The ruled map as 8 modes, of u - v, u + v twice and u - t, u + t twice:
# cos u cos v = (cos(u - v) + cos(u + v)) / 2, cos u sin v = (sin(u + v) - sin(u - v)) / 2,
# sin u cos t = (sin(u - t) + sin(u + t)) / 2, sin u sin t = (cos(u - t) - cos(u + t)) / 2.
_RULED_MODES = _TrigField(
    np.array([[1, -1, 0], [1, 1, 0]] * 2 + [[1, 0, -1], [1, 0, 1]] * 2, dtype=float),
    (math.pi / 2) * np.array([1, 1, 0, 0, 0, 0, 1, 1]),
    0.5 * np.array([[1, 1, 0, 0, 0, 0, 0, 0], [0] * 8, [0, 0, -1, 1, 0, 0, 0, 0], [0] * 8,
                    [0, 0, 0, 0, 1, 1, 0, 0], [0, 0, 0, 0, 0, 0, 1, -1]]),
)


def perturbed_ruled_chart(epsilon: float = 0.05, seed: int = 0) -> SurfaceChart:
    """The ruled chart displaced by epsilon times a seeded smooth field.

    The displaced point y is one 26-mode field: the ruled map's 8 modes and
    the 18 seeded ones scaled by epsilon, or by NaN where epsilon is not
    finite (inf would put 0 * inf into the tables, with warnings).  Every
    weight is divided by max(1, |epsilon|), which leaves y/|y| and its
    partials unchanged and keeps the tables finite for any finite epsilon
    (for |epsilon| <= 1 it is the identity).  y is renormalized to the unit
    sphere, and the partials follow by the chain rule,
    d(y/|y|) = (dy - <dy, n> n) / |y| with n = y/|y|, so the result is
    again an exact chart.  |y| is a scaled norm (``math.hypot``), never
    cubed, so any finite y is normalized; where |y| is not a positive finite
    number, point and partials are fresh NaN arrays, found by one scalar test
    instead of a division.  ``evaluate`` and ``partials`` share one field jet
    per q: the point and partials of the last q, keyed by its bits, copied out.
    """
    base = ruled_chart()
    seeded = _TrigField.seeded(seed)
    eps = float(epsilon) if math.isfinite(epsilon) else math.nan
    scale = max(1.0, abs(eps))  # 1 for NaN
    field = _TrigField(
        np.vstack([_RULED_MODES.freq, seeded.freq]),
        np.concatenate([_RULED_MODES.phase, seeded.phase]),
        np.hstack([_RULED_MODES.weight / scale, (eps / scale) * seeded.weight]),
    )
    nan = complex(math.nan, math.nan)
    memo = (None, None, None)  # the bits of the last q, its point and partials: one tuple, rebound whole

    def normalized_jet(u: float, v: float, t: float) -> tuple:
        nonlocal memo
        key, m = struct.pack("3d", u, v, t), memo
        if m[0] != key:
            y, dy = field.jet((u, v, t))
            ny = math.hypot(*y.tolist())
            if not 0.0 < ny < math.inf:
                m = memo = key, np.full(3, nan), np.full((3, 3), nan)
            else:
                n = y / ny
                d = (dy - dy.dot(n)[:, None] * n) / ny
                m = memo = key, n.view(np.complex128), d.view(np.complex128)
        return m

    def evaluate(u: float, v: float, t: float) -> np.ndarray:
        return normalized_jet(u, v, t)[1].copy()

    def partials(u: float, v: float, t: float) -> np.ndarray:
        return normalized_jet(u, v, t)[2].copy()

    return SurfaceChart(
        name=f"perturbed-ruled:{epsilon:.12g},{seed}",
        evaluate=evaluate,
        partials=partials,
        sample_box=base.sample_box,
        is_singular=base.is_singular,
    )
