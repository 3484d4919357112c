"""Differentiable layer set for 1-D time-series models."""

from .base import (
    Layer,
    fan_uniform,
    recurrent_uniform,
    sigmoid,
    softmax,
)
from .core import (
    ActivationLayer,
    Add,
    BatchNorm1D,
    Concat,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1D,
    Pool1D,
    Reshape,
    Upsample1D,
)
from .recurrent import GRU, LSTM, Bidirectional
from .attention import RTABlock, SEBlock, SpatialTemporalAttention, TanhAttention

