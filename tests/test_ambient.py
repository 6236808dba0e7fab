import numpy as np
import pytest

from cp2ricci.ambient import AmbientVector


def test_component_access_and_shape_guard():
    v = AmbientVector([1, 2j, -3])
    assert v.z.dtype == np.complex128 and v.z.tolist() == [1, 2j, -3]
    assert not v.z.flags.writeable
    assert np.array_equal(v.z.view(np.float64), [1, 0, 0, 2, -3, 0])
    with pytest.raises(ValueError):
        AmbientVector(np.zeros(4))
