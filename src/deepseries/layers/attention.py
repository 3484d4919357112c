"""Attention-style blocks: squeeze-excite, residual temporal attention,
spatial+temporal gating, and a tanh score pool over time."""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .base import Layer, fan_uniform, sigmoid
from .core import (ActivationLayer, Add, BatchNorm1D, ChannelMean, Conv1D, Multiply, PadTime,
                   Pool1D, Upsample1D)
from .subgraph import NodeSpec, Subgraph

__all__ = ["SEBlock", "RTABlock", "SpatialTemporalAttention", "TanhAttention"]


class SEBlock(Layer):
    """Squeeze-and-excite channel gate.

    Global average pool over time, a bottleneck dense pair
    (``max(1, channels // ratio)`` hidden units, relu then sigmoid), and a
    per-channel rescale of the input.
    """

    kind = "se_block"

    def __init__(self, ratio: int = 8):
        super().__init__()
        if ratio < 1:
            raise ParameterError("ratio must be >= 1")
        self.ratio = int(ratio)

    def out_shape(self, in_shapes):
        return self._series(in_shapes)

    def _build(self, in_shapes, rng):
        ch = in_shapes[0][1]
        red = max(1, ch // self.ratio)
        self.params["w1"] = fan_uniform(rng, (ch, red), ch, red)
        self.params["b1"] = np.zeros(red)
        self.params["w2"] = fan_uniform(rng, (red, ch), red, ch)
        self.params["b2"] = np.zeros(ch)

    def forward(self, x, train=False, cache=None):
        s = x.mean(axis=1)
        h_pre = s @ self.params["w1"] + self.params["b1"]
        h = np.maximum(h_pre, 0.0)
        g = sigmoid(h @ self.params["w2"] + self.params["b2"])
        if cache is not None:
            cache.update(x=x, s=s, h_pre=h_pre, h=h, g=g)
        return x * g[:, None, :]

    def backward(self, upstream, cache):
        x, s, h_pre, h, g = cache["x"], cache["s"], cache["h_pre"], cache["h"], cache["g"]
        t = x.shape[1]
        dx = upstream * g[:, None, :]
        dg = (upstream * x).sum(axis=1)
        dg_pre = dg * g * (1.0 - g)
        dw2 = h.T @ dg_pre
        db2 = dg_pre.sum(axis=0)
        dh = dg_pre @ self.params["w2"].T
        dh_pre = dh * (h_pre > 0.0)
        dw1 = s.T @ dh_pre
        db1 = dh_pre.sum(axis=0)
        ds = dh_pre @ self.params["w1"].T
        dx += ds[:, None, :] / t
        return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


class RTABlock(Subgraph):
    """Residual block with a temporal attention gate.

    Trunk: two conv-batchnorm-relu stages at full resolution (same padding).
    Attention: max pool, conv-batchnorm, nearest-neighbour upsample by the
    pool window, zero pad back to the trunk length, sigmoid.  The gate
    feeds ``trunk * (1 + gate)`` and a residual shortcut (1x1 conv when the
    channel count changes) is added:

        out = trunk * (1 + gate) + shortcut(x)

    The nodes compute it as ``trunk + trunk * gate + shortcut(x)``.
    """

    kind = "rta_block"

    def __init__(self, filters: int, kernel: int = 3, pool_window: int = 2):
        super().__init__()
        self.filters = int(filters)
        self.pool_window = int(pool_window)
        self.conv1 = Conv1D(filters, kernel, padding="same")
        self.bn1 = BatchNorm1D()
        self.conv2 = Conv1D(filters, kernel, padding="same")
        self.bn2 = BatchNorm1D()
        self.pool = Pool1D(pool_window)
        self.conv_a = Conv1D(filters, kernel, padding="same")
        self.bn_a = BatchNorm1D()

    @property
    def conv_s(self) -> Conv1D | None:
        short = self.nodes.get("short")
        return None if short is None else short.layer

    def _nodes(self, in_shape):
        t, ch = in_shape
        nodes = [
            NodeSpec("trunk1", self.conv1, ["x"]),
            NodeSpec("trunk1_bn", self.bn1, ["trunk1"]),
            NodeSpec("trunk1_relu", ActivationLayer("relu"), ["trunk1_bn"]),
            NodeSpec("trunk2", self.conv2, ["trunk1_relu"]),
            NodeSpec("trunk2_bn", self.bn2, ["trunk2"]),
            NodeSpec("trunk", ActivationLayer("relu"), ["trunk2_bn"]),
            NodeSpec("pool", self.pool, ["x"]),
            NodeSpec("att", self.conv_a, ["pool"]),
            NodeSpec("att_bn", self.bn_a, ["att"]),
            NodeSpec("att_up", Upsample1D(self.pool_window), ["att_bn"]),
            NodeSpec("att_pad", PadTime(t), ["att_up"]),
            NodeSpec("gate", ActivationLayer("sigmoid"), ["att_pad"]),
            NodeSpec("gated", Multiply(), ["trunk", "gate"]),
        ]
        shortcut = "x"
        if ch != self.filters:
            nodes.append(NodeSpec("short", Conv1D(self.filters, 1), ["x"]))
            shortcut = "short"
        return nodes + [NodeSpec("out", Add(3), ["trunk", "gated", shortcut])]


class SpatialTemporalAttention(Subgraph):
    """Sequential channel then time gating.

    Channel gate: an :class:`SEBlock` (global average over time, a
    bottleneck dense pair, sigmoid, broadcast over time).  Time gate: channel
    mean of the gated map, a same-padded 1-D conv (one filter, parameters
    ``t_w``/``t_b``), sigmoid, broadcast over channels.  With all-zero
    parameters both gates are 0.5, so the block returns x/4.
    """

    kind = "st_attention"

    def __init__(self, ratio: int = 8, kernel: int = 7):
        super().__init__([
            NodeSpec("", SEBlock(ratio), ["x"]),
            NodeSpec("mean", ChannelMean(), [""]),
            NodeSpec("t", Conv1D(1, kernel, padding="same"), ["mean"]),
            NodeSpec("gate", ActivationLayer("sigmoid"), ["t"]),
            NodeSpec("out", Multiply(), ["", "gate"]),
        ])


class TanhAttention(Layer):
    """Score-and-pool attention over time.

    Per-step scores come from a tanh dense layer followed by a linear
    projection to one logit; softmax over time yields weights and the output
    is the weighted sum of the input steps, shape ``[batch, channels]``.
    """

    kind = "tanh_attention"

    def __init__(self, att_units: int = 32):
        super().__init__()
        if att_units < 1:
            raise ParameterError("att_units must be >= 1")
        self.att_units = int(att_units)

    def out_shape(self, in_shapes):
        return (self._series(in_shapes)[1],)

    def _build(self, in_shapes, rng):
        ch, a = in_shapes[0][1], self.att_units
        self.params["w1"] = fan_uniform(rng, (ch, a), ch, a)
        self.params["b1"] = np.zeros(a)
        self.params["w2"] = fan_uniform(rng, (a, 1), a, 1)
        self.params["b2"] = np.zeros(1)

    def forward(self, x, train=False, cache=None):
        e = np.tanh(x @ self.params["w1"] + self.params["b1"])
        score = e @ self.params["w2"] + self.params["b2"]  # [b, t, 1]
        score = score - score.max(axis=1, keepdims=True)
        alpha = np.exp(score)
        alpha /= alpha.sum(axis=1, keepdims=True)
        if cache is not None:
            cache.update(x=x, e=e, alpha=alpha)
        return (alpha * x).sum(axis=1)

    def backward(self, upstream, cache):
        x, e, alpha = cache["x"], cache["e"], cache["alpha"]
        dalpha = (upstream[:, None, :] * x).sum(axis=2, keepdims=True)
        dx = alpha * upstream[:, None, :]
        dscore = alpha * (dalpha - (dalpha * alpha).sum(axis=1, keepdims=True))
        de = dscore @ self.params["w2"].T
        dw2 = np.tensordot(e, dscore, axes=([0, 1], [0, 1]))
        db2 = dscore.sum(axis=(0, 1))
        dpre = de * (1.0 - e * e)
        dw1 = np.tensordot(x, dpre, axes=([0, 1], [0, 1]))
        db1 = dpre.sum(axis=(0, 1))
        dx += dpre @ self.params["w1"].T
        return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}
