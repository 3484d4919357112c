"""The read-only float64 array type the engine hands out at its boundaries.

A :class:`Tensor` wraps a private, write-protected copy of its values.
Layers and models compute on plain numpy arrays; :func:`as_array` unwraps a
tensor or coerces anything array-like on the way in.
"""

from __future__ import annotations

import numpy as np

DTYPE = np.float64


class Tensor:
    """Immutable dense float64 array; ``array`` is a read-only view of it."""

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

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def as_array(x) -> np.ndarray:
    """Coerce a tensor, numpy array, or nested sequence to a float64 array."""
    if isinstance(x, Tensor):
        return x.array
    return np.asarray(x, dtype=DTYPE)
