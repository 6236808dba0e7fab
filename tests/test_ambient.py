import numpy as np
import pytest

from cp2ricci.ambient import AmbientVector
from cp2ricci.frames import horizontalize


def _random_vec(rng):
    return AmbientVector(rng.normal(size=3) + 1j * rng.normal(size=3))


def test_real_inner_is_real_part_of_hermitian():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v, w = _random_vec(rng), _random_vec(rng)
        assert abs(v.real_inner(w) - v.herm_inner(w).real) < 1e-15


def test_multiplication_by_i_is_isometry_with_square_minus_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        v = _random_vec(rng)
        iv = v.times_i()
        assert abs(iv.norm() - v.norm()) < 1e-14
        assert np.max(np.abs(iv.times_i().z + v.z)) == 0.0
        assert abs(v.real_inner(iv)) < 1e-14 * max(1.0, v.norm() ** 2)


def test_component_access_and_shape_guard():
    v = AmbientVector.of(1, 2j, -3)
    assert v.c1 == 1 and v.c2 == 2j and v.c3 == -3
    assert np.allclose(v.real_components(), [1, 0, 0, 2, -3, 0])
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
