"""Convolution, pooling, dense, normalisation, dropout, and shape layers.

All feature-map layers exchange batched arrays shaped ``[batch, time,
channels]``; vector layers use ``[batch, features]``.  Shape inference in
``out_shape`` works on per-sample shapes (no batch axis).
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from ..errors import DegenerateBatchError, ParameterError, ShapeError
from .base import Layer, activation_pair, fan_uniform

PADDINGS = ("valid", "same", "full")
# Samples per inference block of Conv1D's window matrix.  At ExampleModel's
# second conv (47 steps of 3 x 16 values) a block is 0.3 MB, where the whole
# batch-256 matrix is 4.7 MB.  Blocks of 8 to 256 samples ran a batch-256
# ExampleModel predict equally fast; from 16 down its transient peak stays
# within 0.05 MiB of the other nodes' floor.
_BLOCK = 16


class Conv1D(Layer):
    """1-D convolution (cross-correlation, no kernel flip) over the time axis.

    Kernel shape is ``[kernel, in_channels, filters]``; the kernel moves one
    step at a time.  Output length:

    * ``valid``: ``time - kernel + 1``
    * ``same``:  ``time`` (``kernel - 1`` zeros split left/right, the extra
      one on the right)
    * ``full``:  ``time + kernel - 1`` (``kernel - 1`` zeros on both sides)

    The forward copies the padded input into a window matrix of
    ``kernel * in_channels + 1`` columns, one row per output step.  Each row
    is kernel-major (``x[t], x[t+1], ...``, all channels of one step
    together), the order of the kernel reshaped to ``[kernel * in_channels,
    filters]``, and ends in a one, so the convolution and its bias are one
    matrix product, with ``b`` stacked under the reshaped kernel and neither
    operand transposed.  Inference fills and multiplies the matrix in blocks
    of ``_BLOCK`` samples, each product written straight into the output, so
    its transient memory does not grow with the batch.  Training makes one
    block of the whole batch and caches it: its transpose times the output
    gradient gives the weight gradient, and the bias gradient in its last
    row.  That block is a workspace array, reused by the next training
    forward of the same batch size.  Every output row is one row of a
    product over the same columns, whichever block it falls in; the tests
    hold blocked inference to the training forward bit for bit.  Batch 1
    skips the copy: one sample's windows are a strided view of its padded
    input with no ones column, multiplied by the kernel, and the bias is
    added after.
    """

    kind = "conv1d"

    def __init__(self, filters: int, kernel: int, padding: str = "valid",
                 activation: str = "linear"):
        super().__init__()
        if filters < 1 or kernel < 1:
            raise ParameterError("filters and kernel must be >= 1")
        if padding not in PADDINGS:
            raise ParameterError(f"padding must be one of {PADDINGS}, got {padding!r}")
        self.filters = int(filters)
        self.kernel = int(kernel)
        self.padding = padding
        self._act, self._act_grad = activation_pair(activation)

    def _pad_amounts(self) -> tuple[int, int]:
        k = self.kernel
        if self.padding == "valid":
            return 0, 0
        if self.padding == "full":
            return k - 1, k - 1
        return (k - 1) // 2, k // 2

    def out_shape(self, in_shapes):
        time, _ = self._series(in_shapes)
        if self.padding == "valid" and time < self.kernel:
            raise ShapeError(f"time {time} shorter than kernel {self.kernel}")
        return (time + sum(self._pad_amounts()) - self.kernel + 1, self.filters)

    def _build(self, in_shapes, rng):
        _, ch = in_shapes[0]
        k, f = self.kernel, self.filters
        self.params["w"] = fan_uniform(rng, (k, ch, f), fan_in=k * ch, fan_out=k * f)
        self.params["b"] = np.zeros(f)

    def forward(self, x, train=False, cache=None):
        before, after = self._pad_amounts()
        b, time, ch = x.shape
        k, f = self.kernel, self.filters
        t_out = time + before + after - k + 1
        kc = k * ch
        w2 = self.params["w"].reshape(kc, f)
        if b == 1:  # one sample's windows are already a matrix view
            cols = _windows(_pad_time(x, before, after), t_out, kc)[0]
            z = (cols @ w2).reshape(1, t_out, f)
            z += self.params["b"]
        else:
            rows = b if cache is not None else min(b, _BLOCK)
            cols = self._buffer(cache, "cols", (rows * t_out, kc + 1))
            cols[:, kc] = 1.0  # the bias rides in the product
            wb = np.concatenate((w2, self.params["b"][None]))
            z = np.empty((b, t_out, f))
            for s in range(0, b, max(rows, 1)):  # rows is 0 only for an empty batch
                xp = _pad_time(x[s : s + rows], before, after)
                n = len(xp) * t_out
                np.copyto(cols[:n].reshape(len(xp), t_out, kc + 1)[..., :kc],
                          _windows(xp, t_out, kc))
                np.matmul(cols[:n], wb, out=z[s : s + rows].reshape(n, f))
        a = self._act(z, out=z)
        if cache is not None:
            cache.update(cols=cols, a=a, in_time=time)
        return a

    def backward(self, upstream, cache):
        dz = self._act_grad(upstream, cache["a"])
        t_out = dz.shape[1]
        w = self.params["w"]
        g = cache["cols"].T @ dz.reshape(-1, self.filters)
        if len(g) > w.shape[0] * w.shape[1]:  # a ones column: the bias gradient
            dw, db = g[:-1], g[-1]
        else:
            dw, db = g, dz.sum(axis=(0, 1))
        before, _ = self._pad_amounts()
        dxp = np.zeros((dz.shape[0], t_out + self.kernel - 1, w.shape[1]))
        for j in range(self.kernel):
            dxp[:, j : j + t_out] += dz @ w[j].T
        dx = dxp[:, before : before + cache["in_time"]]
        return dx, {"w": dw.reshape(w.shape), "b": db}


def _windows(xp: np.ndarray, t_out: int, kc: int) -> np.ndarray:
    """The ``[batch, t_out, kc]`` windows of a C-contiguous ``xp``, as a
    read-only strided view: from ``xp[i, s, 0]`` on, the next ``kc`` values
    are the window at step ``s``.  The channel stride is the item size, not
    ``xp.strides[2]``: a C-contiguous size-1 axis may carry any stride."""
    return np.ndarray((len(xp), t_out, kc), buffer=memoryview(xp).toreadonly(),
                      strides=(*xp.strides[:2], xp.itemsize))


def _pad_time(x: np.ndarray, before: int, after: int) -> np.ndarray:
    """``x`` with zero steps added before and after, as a C-contiguous array.

    Without padding ``x`` itself is returned when already C-contiguous.
    ``np.pad`` works out its pad widths and fill anew on every call, which
    at batch 1 costs many times the copy; zeroing only the pad steps, not a
    whole array that the copy then overwrites, keeps large batches as fast.
    """
    if not (before or after):
        return np.ascontiguousarray(x)
    b, t, ch = x.shape
    xp = np.empty((b, before + t + after, ch))
    xp[:, :before] = 0.0
    xp[:, before + t :] = 0.0
    xp[:, before : before + t] = x
    return xp


class Pool1D(Layer):
    """Max pooling over non-overlapping time windows, or global average.

    ``max`` windows tile the time axis (stride = window; a remainder shorter
    than the window is dropped) and are compared pairwise with
    ``np.maximum``, so a NaN anywhere in a window gives NaN.  Backward routes
    each window's gradient to the first maximal position (strict ``>``, so
    the first of tied maxima wins) with one product per window offset: the
    upstream gradient times whether that offset won.  Where a window's
    gradient is negative, its other positions hold ``-0.0``.  ``global_avg``
    averages the whole time axis away.
    """

    kind = "pool1d"

    def __init__(self, window: int = 2, op: str = "max"):
        super().__init__()
        if op not in ("max", "global_avg"):
            raise ParameterError(f"pool op must be max|global_avg, got {op!r}")
        if op == "max" and window < 1:
            raise ParameterError("pool window must be >= 1")
        self.op = op
        self.window = int(window)

    def out_shape(self, in_shapes):
        time, ch = self._series(in_shapes)
        if self.op == "global_avg":
            return (ch,)
        if time < self.window:
            raise ShapeError(f"time {time} shorter than pool window {self.window}")
        return (time // self.window, ch)

    def forward(self, x, train=False, cache=None):
        if self.op == "global_avg":
            if cache is not None:
                cache.update(in_shape=x.shape)
            return x.mean(axis=1)
        w = self.window
        stop = w * (x.shape[1] // w - 1) + 1
        out = x[:, :stop:w]  # offset j of every window is x[:, j : j + stop : w]
        arg = None if cache is None else np.zeros(out.shape, np.min_scalar_type(w - 1))
        for j in range(1, w):
            cand = x[:, j : j + stop : w]
            if arg is not None:  # j where cand wins, arg where it does not
                arg += (cand > out) * (j - arg)
            out = np.maximum(out, cand)
        if cache is not None:
            cache.update(arg=arg, in_shape=x.shape)
        return out

    def backward(self, upstream, cache):
        in_shape = cache["in_shape"]
        if self.op == "global_avg":
            return np.broadcast_to(upstream[:, None, :] / in_shape[1], in_shape).copy(), {}
        w, arg = self.window, cache["arg"]
        stop = w * (upstream.shape[1] - 1) + 1
        dx = np.zeros(in_shape)
        for j in range(w):
            np.multiply(upstream, arg == j, out=dx[:, j : j + stop : w])
        return dx, {}


class Dense(Layer):
    """Affine map on the last axis with an optional activation.

    The input is a feature vector or a ``[time, features]`` series, which
    is mapped step by step with the same weights.
    """

    kind = "dense"

    def __init__(self, units: int, activation: str = "linear"):
        super().__init__()
        if units < 1:
            raise ParameterError("units must be >= 1")
        self.units = int(units)
        self._act, self._act_grad = activation_pair(activation)

    def out_shape(self, in_shapes):
        if len(in_shapes[0]) not in (1, 2):
            raise ShapeError(
                f"dense expects a [features] or [time, features] input, got {in_shapes}"
            )
        return in_shapes[0][:-1] + (self.units,)

    def _build(self, in_shapes, rng):
        n = in_shapes[0][-1]
        self.params["w"] = fan_uniform(rng, (n, self.units), fan_in=n, fan_out=self.units)
        self.params["b"] = np.zeros(self.units)

    def forward(self, x, train=False, cache=None):
        z = x @ self.params["w"]
        z += self.params["b"]
        a = self._act(z, out=z)
        if cache is not None:
            cache.update(x=x, a=a)
        return a

    def backward(self, upstream, cache):
        w = self.params["w"]
        dz = self._act_grad(upstream, cache["a"])
        x2, dz2 = cache["x"].reshape(-1, w.shape[0]), dz.reshape(-1, self.units)
        return dz @ w.T, {"w": x2.T @ dz2, "b": dz2.sum(axis=0)}


class BatchNorm1D(Layer):
    """Per-channel batch normalisation for vectors or time series.

    Statistics are taken over the batch axis (and time axis for rank-3
    input) and normalise as ``(x - mean) / sqrt(var + epsilon)``.  Running
    buffers move as ``run <- (1 - momentum) * run + momentum * batch`` and
    are only touched in training mode.
    """

    kind = "batchnorm"
    momentum = 0.01
    epsilon = 1e-3

    def out_shape(self, in_shapes):
        if len(in_shapes[0]) not in (1, 2):
            raise ShapeError(f"batchnorm expects a rank-1/2 input, got {in_shapes}")
        return in_shapes[0]

    def _build(self, in_shapes, rng):
        ch = in_shapes[0][-1]
        self.params["gain"] = np.ones(ch)
        self.params["shift"] = np.zeros(ch)
        self.buffers["running_mean"] = np.zeros(ch)
        self.buffers["running_var"] = np.ones(ch)

    def forward(self, x, train=False, cache=None):
        axes = tuple(range(x.ndim - 1))
        if train:
            if x.shape[0] < 2:
                raise DegenerateBatchError(
                    f"batchnorm needs batch >= 2 in training mode, got {x.shape[0]}"
                )
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.buffers["running_mean"] *= 1.0 - self.momentum
            self.buffers["running_mean"] += self.momentum * mean
            self.buffers["running_var"] *= 1.0 - self.momentum
            self.buffers["running_var"] += self.momentum * var
        else:
            mean = self.buffers["running_mean"]
            var = self.buffers["running_var"]
        inv = 1.0 / np.sqrt(var + self.epsilon)
        xn = (x - mean) * inv
        out = self.params["gain"] * xn + self.params["shift"]
        if cache is not None:
            cache.update(xn=xn, inv=inv, train=train, axes=axes)
        return out

    def backward(self, upstream, cache):
        xn, inv, axes = cache["xn"], cache["inv"], cache["axes"]
        dgain = (upstream * xn).sum(axis=axes)
        dshift = upstream.sum(axis=axes)
        dxn = upstream * self.params["gain"]
        if not cache["train"]:
            return dxn * inv, {"gain": dgain, "shift": dshift}
        n = np.prod([xn.shape[a] for a in axes])
        dx = (inv / n) * (
            n * dxn
            - dxn.sum(axis=axes, keepdims=True)
            - xn * (dxn * xn).sum(axis=axes, keepdims=True)
        )
        return dx, {"gain": dgain, "shift": dshift}


class Dropout(Layer):
    """Inverted dropout: scales kept units by 1/(1-rate); identity in eval mode."""

    kind = "dropout"

    def __init__(self, rate: float, seed: Optional[int] = None):
        super().__init__()
        if not (0.0 <= rate < 1.0):
            raise ParameterError(f"dropout rate must lie in [0, 1), got {rate}")
        self.rate = float(rate)
        self.seed = seed
        self._rng = np.random.default_rng(0 if seed is None else int(seed))

    def _build(self, in_shapes, rng):
        # With no explicit seed the mask stream derives from the graph seed,
        # so whole-model training is reproducible from one number.
        if self.seed is None:
            self._rng = np.random.default_rng(int(rng.integers(2**63)))

    def reseed(self, seed: int):
        """Restart the mask stream; two identically reseeded layers draw identical masks."""
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def out_shape(self, in_shapes):
        return in_shapes[0]

    def forward(self, x, train=False, cache=None):
        if not train or self.rate == 0.0:
            if cache is not None:
                cache.update(mask=None)
            return x
        keep = 1.0 - self.rate
        mask = self._rng.random(x.shape) >= self.rate
        if cache is not None:
            cache.update(mask=mask)
        return x * mask / keep

    def backward(self, upstream, cache):
        mask = cache["mask"]
        if mask is None:
            return upstream, {}
        return upstream * mask / (1.0 - self.rate), {}


class ActivationLayer(Layer):
    """Standalone elementwise activation node."""

    kind = "activation"

    def __init__(self, activation: str):
        super().__init__()
        self._act, self._act_grad = activation_pair(activation)

    def out_shape(self, in_shapes):
        return in_shapes[0]

    def forward(self, x, train=False, cache=None):
        a = self._act(x)  # never out=x: x is another node's output
        if cache is not None:
            cache.update(a=a)
        return a

    def backward(self, upstream, cache):
        return self._act_grad(upstream, cache["a"]), {}


class Flatten(Layer):
    """Collapse all per-sample axes to one feature axis."""

    kind = "flatten"

    def out_shape(self, in_shapes):
        return (int(np.prod(in_shapes[0], dtype=np.int64)),)

    def forward(self, x, train=False, cache=None):
        if cache is not None:
            cache.update(in_shape=x.shape)
        # an explicit feature count, since -1 cannot be inferred for 0 rows
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, upstream, cache):
        return upstream.reshape(cache["in_shape"]), {}


class Reshape(Layer):
    """Reinterpret each sample with a new shape of equal element count."""

    kind = "reshape"

    def __init__(self, target: tuple[int, ...]):
        super().__init__()
        self.target = tuple(int(t) for t in target)
        if any(t < 1 for t in self.target):
            raise ParameterError(f"reshape target must be positive, got {self.target}")

    def out_shape(self, in_shapes):
        have = int(np.prod(in_shapes[0], dtype=np.int64))
        want = int(np.prod(self.target, dtype=np.int64))
        if have != want:
            raise ShapeError(f"cannot reshape {in_shapes[0]} ({have}) to {self.target} ({want})")
        return self.target

    def forward(self, x, train=False, cache=None):
        if cache is not None:
            cache.update(in_shape=x.shape)
        return x.reshape((x.shape[0],) + self.target)

    def backward(self, upstream, cache):
        return upstream.reshape(cache["in_shape"]), {}


class Add(Layer):
    """Elementwise sum of same-shaped inputs (skip connections)."""

    kind = "add"

    def __init__(self, n_inputs: int = 2):
        super().__init__()
        if n_inputs < 2:
            raise ParameterError("add needs at least two inputs")
        self.n_inputs = int(n_inputs)

    def out_shape(self, in_shapes):
        if any(s != in_shapes[0] for s in in_shapes[1:]):
            raise ShapeError(f"add inputs must share a shape, got {in_shapes}")
        return in_shapes[0]

    def forward(self, xs, train=False, cache=None):
        out = xs[0].copy()
        for x in xs[1:]:
            out += x
        return out

    def backward(self, upstream, cache):
        return [upstream] * self.n_inputs, {}


class Concat(Layer):
    """Join inputs along the last (channel or feature) axis."""

    kind = "concat"

    def __init__(self, n_inputs: int):
        super().__init__()
        if n_inputs < 2:
            raise ParameterError("concat needs at least two inputs")
        self.n_inputs = int(n_inputs)

    def out_shape(self, in_shapes):
        if not all(in_shapes) or any(s[:-1] != in_shapes[0][:-1] for s in in_shapes):
            raise ShapeError(f"concat inputs must differ only in the last axis, got {in_shapes}")
        return in_shapes[0][:-1] + (sum(s[-1] for s in in_shapes),)

    def forward(self, xs, train=False, cache=None):
        if cache is not None:
            cache.update(splits=[x.shape[-1] for x in xs])
        return np.concatenate(xs, axis=-1)

    def backward(self, upstream, cache):
        cuts = np.cumsum(cache["splits"])[:-1]
        return list(np.split(upstream, cuts, axis=-1)), {}


class Upsample1D(Layer):
    """Nearest-neighbour repeat along the time axis by an integer factor."""

    kind = "upsample"

    def __init__(self, factor: int):
        super().__init__()
        if factor < 1:
            raise ParameterError("upsample factor must be >= 1")
        self.factor = int(factor)

    def out_shape(self, in_shapes):
        t, c = self._series(in_shapes)
        return (t * self.factor, c)

    def forward(self, x, train=False, cache=None):
        return np.repeat(x, self.factor, axis=1)

    def backward(self, upstream, cache):
        b, tf, c = upstream.shape
        t = tf // self.factor
        return upstream.reshape(b, t, self.factor, c).sum(axis=2), {}


class Multiply(Layer):
    """Elementwise product of two inputs; a size-1 per-sample axis broadcasts."""

    kind = "multiply"
    n_inputs = 2

    def out_shape(self, in_shapes):
        if len(in_shapes[0]) != len(in_shapes[1]) \
                or any(p != q and 1 not in (p, q) for p, q in zip(*in_shapes)):
            raise ShapeError(f"multiply expects two inputs that broadcast, got {in_shapes}")
        return tuple(max(p, q) for p, q in zip(*in_shapes))

    def forward(self, xs, train=False, cache=None):
        a, b = xs
        if cache is not None:
            cache.update(a=a, b=b)
        return a * b

    def backward(self, upstream, cache):
        a, b = cache["a"], cache["b"]
        return [_unbroadcast(upstream * b, a.shape), _unbroadcast(upstream * a, b.shape)], {}


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` over the axes where ``shape`` was broadcast from size 1."""
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    return g.sum(axis=axes, keepdims=True) if axes else g


class ChannelMean(Layer):
    """Mean over channels, kept as one channel: ``[time, channels] -> [time, 1]``."""

    kind = "channel_mean"

    def out_shape(self, in_shapes):
        return (self._series(in_shapes)[0], 1)

    def forward(self, x, train=False, cache=None):
        if cache is not None:
            cache.update(channels=x.shape[2])
        return x.mean(axis=2, keepdims=True)

    def backward(self, upstream, cache):
        c = cache["channels"]
        return np.repeat(upstream / c, c, axis=2), {}


class SumTime(Layer):
    """Sum over time: ``[time, channels] -> [channels]``."""

    kind = "sum_time"

    def out_shape(self, in_shapes):
        return (self._series(in_shapes)[1],)

    def forward(self, x, train=False, cache=None):
        if cache is not None:
            cache.update(time=x.shape[1])
        return x.sum(axis=1)

    def backward(self, upstream, cache):
        return np.repeat(upstream[:, None], cache["time"], axis=1), {}


class PadTime(Layer):
    """Zero-pad the end of the time axis up to a fixed length."""

    kind = "pad_time"

    def __init__(self, length: int):
        super().__init__()
        if length < 1:
            raise ParameterError("pad length must be >= 1")
        self.length = int(length)

    def out_shape(self, in_shapes):
        t, c = self._series(in_shapes)
        if t > self.length:
            raise ShapeError(f"time {t} longer than pad length {self.length}")
        return (self.length, c)

    def forward(self, x, train=False, cache=None):
        if cache is not None:
            cache.update(time=x.shape[1])
        return _pad_time(x, 0, self.length - x.shape[1])

    def backward(self, upstream, cache):
        return upstream[:, : cache["time"]], {}


class ReverseTime(Layer):
    """Reverse the time axis."""

    kind = "reverse_time"

    def out_shape(self, in_shapes):
        return self._series(in_shapes)

    def forward(self, x, train=False, cache=None):
        return np.ascontiguousarray(x[:, ::-1])

    def backward(self, upstream, cache):
        return upstream[:, ::-1], {}
