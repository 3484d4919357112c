"""Central finite-difference checks for every layer family.

Each case builds a single-node graph on five seeds, perturbs random input and
parameter coordinates by 1e-5, and compares against backprop with relative
error |num - ana| / max(|num|, |ana|, 1e-3).  Batch statistics layers are
checked in training mode so both passes see the same normalization; the
evaluation-mode batchnorm path gets a dedicated layer-level check.
"""

import numpy as np
import pytest

from deepseries.layers import (
    GRU,
    LSTM,
    ActivationLayer,
    Add,
    BatchNorm1D,
    Bidirectional,
    Concat,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    Pool1D,
    Reshape,
    RTABlock,
    SEBlock,
    SpatialTemporalAttention,
    TanhAttention,
    Upsample1D,
)
from deepseries.layers.core import ChannelMean, Multiply, PadTime, ReverseTime, SumTime
from deepseries.layers.subgraph import NodeSpec, Subgraph
from conftest import layer_gradcheck, single_node_model, fd_gradcheck

TOL = 1e-4

CASES = [
    ("conv_valid", lambda: Conv1D(4, 3, activation="tanh"), (10, 2), {}),
    ("conv_same", lambda: Conv1D(3, 4, padding="same", activation="relu"),
     (11, 2), {}),
    ("conv_full", lambda: Conv1D(3, 4, padding="full",
                                 activation="leaky_relu"), (8, 2), {}),
    ("pool_max", lambda: Pool1D(2), (10, 3), {}),
    ("pool_max_w3", lambda: Pool1D(3), (10, 3), {}),
    ("pool_global_avg", lambda: Pool1D(op="global_avg"), (10, 3), {}),
    ("dense_sigmoid", lambda: Dense(5, activation="sigmoid"), (7,), {}),
    ("dense_softmax", lambda: Dense(5, activation="softmax"), (7,), {}),
    # the same weights on every step of a [time, features] series
    ("dense_series_tanh", lambda: Dense(4, activation="tanh"), (6, 3), {}),
    ("dense_series_softmax", lambda: Dense(3, activation="softmax"), (5, 2), {}),
    ("batchnorm_train", lambda: BatchNorm1D(), (8, 3), {"batch": 4}),
    ("lstm_last", lambda: LSTM(4), (7, 3), {}),
    ("lstm_sequences", lambda: LSTM(4, return_sequences=True), (7, 3), {}),
    ("gru_last", lambda: GRU(4), (7, 3), {}),
    ("gru_sequences", lambda: GRU(4, return_sequences=True), (7, 3), {}),
    ("bilstm", lambda: Bidirectional(LSTM(3)), (6, 2), {}),
    ("bigru_sequences", lambda: Bidirectional(GRU(3, return_sequences=True)),
     (6, 2), {}),
    ("se_block", lambda: SEBlock(2), (7, 6), {}),
    ("rta_block", lambda: RTABlock(5, 3, 2), (8, 3), {"batch": 4}),
    ("rta_block_channel_change", lambda: RTABlock(4, 3, 2), (9, 2), {"batch": 4}),
    ("spatial_temporal_attention", lambda: SpatialTemporalAttention(2, 3),
     (9, 4), {}),
    ("tanh_attention", lambda: TanhAttention(5), (8, 3), {}),
    ("activation", lambda: ActivationLayer("tanh"), (6, 2), {}),
    ("flatten", lambda: Flatten(), (5, 3), {}),
    ("reshape", lambda: Reshape((3, 10)), (5, 6), {}),
    ("upsample", lambda: Upsample1D(3), (5, 2), {}),
    ("bilstm_sequences", lambda: Bidirectional(LSTM(3, return_sequences=True)),
     (6, 2), {}),
    ("bigru_last", lambda: Bidirectional(GRU(3)), (6, 2), {}),
    ("channel_mean", lambda: ChannelMean(), (6, 3), {}),
    ("pad_time", lambda: PadTime(9), (6, 2), {}),
    ("reverse_time", lambda: ReverseTime(), (6, 2), {}),
    ("sum_time", lambda: SumTime(), (6, 3), {}),
    # x * mean_c(x): the [time, 1] operand broadcasts over channels
    ("multiply_broadcast", lambda: Subgraph([
        NodeSpec("m", ChannelMean(), ["x"]),
        NodeSpec("mul", Multiply(), ["x", "m"]),
    ]), (6, 3), {}),
]


@pytest.mark.parametrize("name,factory,shape,kw", CASES,
                         ids=[c[0] for c in CASES])
def test_layer_gradients(name, factory, shape, kw):
    worst = layer_gradcheck(factory, shape, **kw)
    assert worst < TOL, f"{name}: worst relative error {worst:.3e}"


@pytest.mark.parametrize("n_inputs,factory", [(2, lambda: Add(2)),
                                              (3, lambda: Concat(3)),
                                              (2, lambda: Multiply())],
                         ids=["add", "concat", "multiply"])
def test_multi_input_gradients(n_inputs, factory):
    worst = layer_gradcheck(factory, (6, 2), n_inputs=n_inputs)
    assert worst < TOL


def test_dropout_gradient_with_frozen_mask():
    # Reseeding before each forward pins the mask, making the mapping
    # differentiable; survivors carry 1/(1-rate), dropped entries zero.
    for seed in range(5):
        m = single_node_model(Dropout(0.4, seed=seed), (6, 2), seed=seed)
        L = m.nodes["L"].layer
        rng = np.random.default_rng(seed + 50)
        x = rng.normal(size=(3, 6, 2))
        w = rng.normal(size=(6, 2))

        L.reseed(seed)
        out = m.forward(x, train=True)
        m.backward(np.broadcast_to(w, out.shape).copy())
        g = m.last_input_grads["x0"]
        h = 1e-5
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            L.reseed(seed)
            lp = float(np.sum(w * np.asarray(m.forward(xp, train=True).array)))
            L.reseed(seed)
            lm = float(np.sum(w * np.asarray(m.forward(xm, train=True).array)))
            num = (lp - lm) / (2 * h)
            rel = abs(num - g[idx]) / max(abs(num), abs(g[idx]), 1e-3)
            assert rel < TOL


def test_batchnorm_eval_mode_gradient():
    # Running statistics act as constants, so the map is a per-channel affine.
    for seed in range(5):
        m = single_node_model(BatchNorm1D(), (6, 3), seed=seed)
        L = m.nodes["L"].layer
        rng = np.random.default_rng(seed + 90)
        for _ in range(3):  # move the running stats off their init
            m.forward(rng.normal(size=(5, 6, 3)), train=True)
            m.backward(np.zeros((5, 6, 3)))
        x = rng.normal(size=(4, 6, 3))
        w = rng.normal(size=(6, 3))
        cache = {}
        y = L.forward(x, train=False, cache=cache)
        dx, pg = L.backward(np.broadcast_to(w, y.shape).copy(), cache)

        def loss(xv):
            return float(np.sum(w * L.forward(xv, train=False)))

        h = 1e-5
        for _ in range(6):
            idx = tuple(rng.integers(0, s) for s in x.shape)
            xp, xm = x.copy(), x.copy()
            xp[idx] += h
            xm[idx] -= h
            num = (loss(xp) - loss(xm)) / (2 * h)
            rel = abs(num - dx[idx]) / max(abs(num), abs(dx[idx]), 1e-3)
            assert rel < TOL
        for pname in ("gain", "shift"):
            flat = L.params[pname]
            for j in range(flat.size):
                orig = flat[j]
                flat[j] = orig + h
                lp = loss(x)
                flat[j] = orig - h
                lm = loss(x)
                flat[j] = orig
                num = (lp - lm) / (2 * h)
                ana = pg[pname][j]
                assert abs(num - ana) / max(abs(num), abs(ana), 1e-3) < TOL


def test_fanout_gradients_sum():
    # One node feeding two consumers must receive the sum of both paths.
    from deepseries.graph import GraphBuilder

    b = GraphBuilder()
    x = b.input("x", (4, 2))
    h = b.add("shared", Conv1D(3, 2, activation="tanh"), x)
    p1 = b.add("left", Pool1D(op="global_avg"), h)
    p2 = b.add("right", Flatten(), h)
    cat = b.add("cat", Concat(2), [p1, p2])
    m = b.build(output=cat, seed=0)
    worst = fd_gradcheck(m, {"x": (4, 2)}, seed=123)
    assert worst < TOL
