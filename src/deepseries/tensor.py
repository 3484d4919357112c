"""The read-only float64 array type the engine hands out at its boundaries.

A :class:`Tensor` wraps a private, write-protected copy of its values.
Layers and models compute on plain numpy arrays; :func:`as_array` unwraps a
tensor or coerces anything array-like on the way in.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


class Tensor:
    """Immutable dense float64 array; ``array`` is a read-only view of it,
    and numpy functions read a tensor as that view."""

    __slots__ = ("_a",)

    def __init__(self, values):
        a = np.array(values, dtype=DTYPE)
        a.setflags(write=False)
        self._a = a

    @property
    def shape(self) -> tuple[int, ...]:
        return self._a.shape

    @property
    def array(self) -> np.ndarray:
        """Read-only numpy view of the values."""
        return self._a

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        """The read-only view for numpy; a copy only when ``copy`` is true or
        ``dtype`` differs, and ``ValueError`` where ``copy=False`` forbids one."""
        if dtype is not None and np.dtype(dtype) != DTYPE:
            if copy is False:
                raise ValueError(f"Tensor values are float64; {np.dtype(dtype)} needs a copy")
            return self._a.astype(dtype)
        return self._a.copy() if copy else self._a

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def as_array(x) -> np.ndarray:
    """Coerce a tensor, numpy array, or nested sequence to a float64 array."""
    return np.asarray(x, dtype=DTYPE)
