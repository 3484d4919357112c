"""Attention-style blocks: squeeze-excite, residual temporal attention,
spatial+temporal gating, and a tanh score pool over time."""

from __future__ import annotations

from ..errors import ParameterError
from .core import (ActivationLayer, Add, BatchNorm1D, ChannelMean, Conv1D, Dense, Multiply,
                   PadTime, Pool1D, Reshape, SumTime, Upsample1D)
from .subgraph import NodeSpec, Subgraph

__all__ = ["SEBlock", "RTABlock", "SpatialTemporalAttention", "TanhAttention"]


class SEBlock(Subgraph):
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

    def _nodes(self, in_shape):
        ch = in_shape[1]
        return [
            NodeSpec("squeeze", Pool1D(op="global_avg"), ["x"]),
            NodeSpec("fc1", Dense(max(1, ch // self.ratio), "relu"), ["squeeze"]),
            NodeSpec("fc2", Dense(ch, "sigmoid"), ["fc1"]),
            NodeSpec("gate", Reshape((1, ch)), ["fc2"]),
            NodeSpec("out", Multiply(), ["x", "gate"]),
        ]


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


class TanhAttention(Subgraph):
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

    def _nodes(self, in_shape):
        t = in_shape[0]
        return [
            NodeSpec("fc1", Dense(self.att_units, "tanh"), ["x"]),
            NodeSpec("fc2", Dense(1), ["fc1"]),
            NodeSpec("score", Reshape((t,)), ["fc2"]),
            NodeSpec("alpha", ActivationLayer("softmax"), ["score"]),
            NodeSpec("weight", Reshape((t, 1)), ["alpha"]),
            NodeSpec("weighted", Multiply(), ["x", "weight"]),
            NodeSpec("out", SumTime(), ["weighted"]),
        ]
