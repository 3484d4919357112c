"""Layer protocol, weight initialisation, and activation functions.

Layers are stateful in their parameters only.  ``forward`` writes whatever the
matching ``backward`` needs into a caller-supplied cache dict, so one layer
instance can safely appear in more than one model graph.  A model hands each
node the same dict on every training forward (its training workspace), so a
layer may take its large arrays from the previous forward's through
``Layer._buffer`` instead of allocating them again.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..errors import ParameterError, ShapeError

# -- activations -------------------------------------------------------------


def sigmoid(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Logistic function as ``0.5 + 0.5 * tanh(x / 2)``.

    Elementwise ufuncs only, with no masks or branches, so it costs a
    fraction of a two-branch ``exp`` form.  The result lies in [0, 1] for any
    ``x``, including +-inf (NaN stays NaN), and is within 2.2e-16 absolute
    of ``1 / (1 + exp(-x))``.  All four steps run in one buffer: ``out``
    when given (``x`` itself is allowed), else a new array.
    """
    out = np.multiply(x, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def softmax(x: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Row softmax over the last axis, computed in ``out`` (``x`` allowed) or a new array."""
    out = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


LEAKY_SLOPE = 0.01


def _leaky_relu(z: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    out = z.copy() if out is None else out  # entries not scaled keep z
    return np.multiply(out, LEAKY_SLOPE, out=out, where=~(out > 0.0))


# name -> (forward, backward).  Each forward maps the pre-activation ``z`` to
# the activation; ``forward(z)`` leaves ``z`` unchanged (linear returns ``z``
# itself), and ``forward(z, out=z)`` may overwrite ``z`` and return it, so a
# layer that has just made ``z`` can skip a second output-sized array.  Each
# backward maps the upstream gradient and the activation output ``a`` to the
# gradient at the input: relu and leaky relu are positive exactly where their
# input is, so ``a > 0`` masks as ``z > 0`` would (NaN included).
_ACTIVATIONS = {
    "linear": (lambda z, out=None: z, lambda da, a: da),
    "relu": (lambda z, out=None: np.maximum(z, 0.0, out=out), lambda da, a: da * (a > 0.0)),
    "leaky_relu": (_leaky_relu, lambda da, a: da * np.where(a > 0.0, 1.0, LEAKY_SLOPE)),
    "sigmoid": (sigmoid, lambda da, a: da * a * (1.0 - a)),
    "tanh": (lambda z, out=None: np.tanh(z, out=out), lambda da, a: da * (1.0 - a * a)),
    # row Jacobian: dz_i = a_i * (da_i - sum_j da_j a_j)
    "softmax": (softmax, lambda da, a: a * (da - (da * a).sum(axis=-1, keepdims=True))),
}


def activation_pair(name: str) -> tuple[Callable, Callable]:
    """The ``(forward, backward)`` pair for an activation name."""
    try:
        return _ACTIVATIONS[name]
    except KeyError:
        raise ParameterError(
            f"unknown activation {name!r}; expected one of {sorted(_ACTIVATIONS)}"
        ) from None


# -- initialisers ------------------------------------------------------------


def _snap(a: np.ndarray) -> np.ndarray:
    # Initial weights are snapped to float32-representable values so the
    # float32 weights file round-trips bit-exactly.
    return a.astype(np.float32).astype(np.float64)


def fan_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return _snap(rng.uniform(-limit, limit, size=shape))


def recurrent_uniform(rng: np.random.Generator, shape, units: int) -> np.ndarray:
    limit = 1.0 / np.sqrt(units)
    return _snap(rng.uniform(-limit, limit, size=shape))


# -- layer protocol ----------------------------------------------------------


class Layer:
    """Base class for all layers.

    Subclasses implement ``out_shape`` (static inference on per-sample shapes,
    batch axis excluded), ``_build`` (materialise parameters once input shapes
    are known), ``forward`` and ``backward``.  The node walk checks that a
    node has ``n_inputs`` inputs (``None``: two or more) before ``out_shape``
    runs, so ``out_shape`` checks only their shapes.  ``backward`` returns
    ``(input_gradients, parameter_gradients)`` where the first entry matches
    the structure of the forward inputs.
    """

    kind = "layer"
    n_inputs = 1

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}
        self.buffers: dict[str, np.ndarray] = {}
        self._in_shapes: Optional[list[tuple[int, ...]]] = None

    # static per-sample shape inference; raises ShapeError on bad input
    def out_shape(self, in_shapes: list[tuple[int, ...]]) -> tuple[int, ...]:
        raise NotImplementedError

    def _series(self, in_shapes) -> tuple[int, ...]:
        """The ``[time, channels]`` input shape; ShapeError otherwise."""
        if len(in_shapes[0]) != 2:
            raise ShapeError(f"{self.kind} expects a [time, channels] input, got {in_shapes}")
        return in_shapes[0]

    def _build(self, in_shapes: list[tuple[int, ...]], rng: np.random.Generator):
        pass

    def bind(self, in_shapes: list[tuple[int, ...]], rng: np.random.Generator) -> tuple[int, ...]:
        """Materialise parameters for the given list of per-sample input shapes.

        Returns the output shape.  Binding twice with the same shapes is a
        no-op, so layer instances can be shared between graphs without
        re-initialising their weights.
        """
        shapes = [tuple(s) for s in in_shapes]
        out = self.out_shape(shapes)  # validate before touching state
        if self._in_shapes is not None:
            if shapes != self._in_shapes:
                raise ShapeError(
                    f"{self.kind} already bound to {self._in_shapes}, got {shapes}"
                )
            return out
        self._build(shapes, rng)
        self._in_shapes = shapes
        return out

    @staticmethod
    def _buffer(cache: Optional[dict], key: str, shape: tuple) -> np.ndarray:
        """An uninitialised float array of ``shape`` for a forward to fill.

        With a ``cache``, the array it holds under ``key`` is reused when the
        shape matches, and a new one replaces it otherwise, so each key keeps
        one shape.  Without one (inference) the array is new.  A reused array
        is overwritten, so nothing a layer returns may be a view of one.
        """
        a = None if cache is None else cache.get(key)
        if a is None or a.shape != shape:
            a = np.empty(shape)
            if cache is not None:
                cache[key] = a
        return a

    def forward(self, x, train: bool = False, cache: Optional[dict] = None):
        raise NotImplementedError

    def backward(self, upstream, cache: dict):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}()"
