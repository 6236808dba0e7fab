import numpy as np
import pytest

from cp2ricci.ambient import AmbientVector
from helpers import horizontalize


def test_component_access_and_shape_guard():
    v = AmbientVector([1, 2j, -3])
    assert v.z.dtype == np.complex128 and v.z.tolist() == [1, 2j, -3]
    assert not v.z.flags.writeable
    assert np.array_equal(v.z.view(np.float64), [1, 0, 0, 2, -3, 0])
    with pytest.raises(ValueError):
        AmbientVector(np.zeros(4))


def _random_unit(rng):
    z = rng.normal(size=3) + 1j * rng.normal(size=3)
    return z / np.linalg.norm(z)


def test_horizontalize_kills_vertical_direction():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p = _random_unit(rng)
        assert np.linalg.norm(horizontalize(1j * p, p)) < 1e-14
        assert np.linalg.norm(horizontalize(p, p)) < 1e-14


def test_horizontalize_fixes_horizontal_vectors_and_is_idempotent():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = _random_unit(rng)
        w = rng.normal(size=3) + 1j * rng.normal(size=3)
        hw = horizontalize(w, p)
        assert abs(np.vdot(p, hw).real) < 1e-14
        assert abs(np.vdot(1j * p, hw).real) < 1e-14
        again = horizontalize(hw, p)
        assert np.max(np.abs(again - hw)) < 1e-14
