"""The stored point type of a moving frame.

Points and tangents of the unit 5-sphere live in C^3 viewed as R^6 with
<v, w> = Re sum_k v_k conj(w_k); the fiber direction of the circle fibration
at a point p is i p.  Charts and the numerical pipeline compute with
complex128 arrays and their real 6-vector views.  An ``AmbientVector`` is
built only for the point ``MovingFrame.p``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class AmbientVector:
    """Three complex components, stored as a read-only complex128 array."""

    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.array(self.z, dtype=np.complex128)
        if z.shape != (3,):
            raise ValueError(f"expected 3 complex components, got shape {z.shape}")
        z.setflags(write=False)
        object.__setattr__(self, "z", z)
