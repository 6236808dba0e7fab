"""Vectors of complex 3-space with the real inner product of the 5-sphere.

Points and tangents of the unit 5-sphere live in C^3 viewed as R^6 with
<v, w> = Re sum_k v_k conj(w_k).  Multiplication by the imaginary unit is
the ambient complex structure: a real-linear isometry with i(i v) = -v.
The fiber direction of the circle fibration at a point p is i p.

Charts and the numerical pipeline compute with complex128 arrays and their
real 6-vector views (the layout of ``real_components()``).  An
``AmbientVector`` is built only for the point ``MovingFrame.p`` and when a
member of a frame is read.
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

    def real_components(self) -> np.ndarray:
        """The six real scalars (Re c1, Im c1, Re c2, Im c2, Re c3, Im c3)."""
        return self.z.view(np.float64).copy()

    def __repr__(self) -> str:
        return f"AmbientVector({self.z[0]:.6g}, {self.z[1]:.6g}, {self.z[2]:.6g})"
