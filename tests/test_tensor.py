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


def test_numpy_reads_a_tensor_as_its_read_only_view():
    t = Tensor([[1.0, 2.0], [3.0, 4.0]])
    a = np.asarray(t)
    assert np.shares_memory(a, t.array) and not a.flags.writeable
    assert np.mean(t) == t.array.mean()
    assert np.full_like(t, 3.0).shape == t.shape


def test_numpy_copies_a_tensor_only_when_asked_or_cast():
    t = Tensor([1.0, 2.0])
    a = np.array(t)
    assert a.flags.writeable and not np.shares_memory(a, t.array)
    assert np.asarray(t, dtype=np.float32).dtype == np.float32
    with pytest.raises(ValueError, match="float32 needs a copy"):  # numpy 2's copy=False
        t.__array__(np.float32, copy=False)
