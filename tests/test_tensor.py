"""The read-only float64 array type models hand out."""

import numpy as np
import pytest

from deepseries.tensor import Tensor


def test_tensor_array_is_read_only():
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(ValueError):
        t.array[0, 0] = 9.0


def test_float64_everywhere():
    t = Tensor([[1, 2], [3, 4]])
    assert t.array.dtype == np.float64


def test_tensor_copies_its_source():
    src = np.array([[1.0, 2.0], [3.0, 4.0]])
    t = Tensor(src)
    src[0, 0] = 9.0
    assert t.array[0, 0] == 1.0
    assert t.shape == (2, 2)
