"""Vectors of complex 3-space with the real inner product of the 5-sphere.

Points and tangents of the unit 5-sphere live in C^3 viewed as R^6 with
<v, w> = Re sum_k v_k conj(w_k).  Multiplication by the imaginary unit is
the ambient complex structure: a real-linear isometry with i(i v) = -v.
The fiber direction of the circle fibration at a point p is i p.

``AmbientVector`` is the type of the chart interface (``SurfaceChart``
evaluate and partials) and of the ``MovingFrame`` members.  The numerical
pipeline does not compute with these objects: it reads each one as the real
6-vector ``v.z.view(np.float64)``, which has the layout of
``real_components()``, and works on small stacked matrices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class AmbientVector:
    """Three complex components, equivalently six real scalars."""

    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.array(self.z, dtype=np.complex128)
        if z.shape != (3,):
            raise ValueError(f"expected 3 complex components, got shape {z.shape}")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)

    @staticmethod
    def of(c1: complex, c2: complex, c3: complex) -> "AmbientVector":
        return AmbientVector(np.array([c1, c2, c3], dtype=np.complex128))

    @property
    def c1(self) -> complex:
        return complex(self.z[0])

    @property
    def c2(self) -> complex:
        return complex(self.z[1])

    @property
    def c3(self) -> complex:
        return complex(self.z[2])

    def herm_inner(self, other: "AmbientVector") -> complex:
        """Hermitian product sum_k self_k conj(other_k)."""
        return complex(np.vdot(other.z, self.z))

    def real_inner(self, other: "AmbientVector") -> float:
        """Real inner product of R^6, the real part of the Hermitian product."""
        return float(np.vdot(other.z, self.z).real)

    def times_i(self) -> "AmbientVector":
        return AmbientVector(1j * self.z)

    def norm(self) -> float:
        return float(np.linalg.norm(self.z))

    def normalized(self) -> "AmbientVector":
        n = self.norm()
        if n == 0.0:
            raise ZeroDivisionError("cannot normalize the zero vector")
        return AmbientVector(self.z / n)

    def real_components(self) -> np.ndarray:
        """The six real scalars (Re c1, Im c1, Re c2, Im c2, Re c3, Im c3)."""
        return self.z.view(np.float64).copy()

    def __add__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector(self.z + other.z)

    def __sub__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector(self.z - other.z)

    def __neg__(self) -> "AmbientVector":
        return AmbientVector(-self.z)

    def __mul__(self, s: float) -> "AmbientVector":
        return AmbientVector(self.z * float(s))

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"AmbientVector({self.z[0]:.6g}, {self.z[1]:.6g}, {self.z[2]:.6g})"
