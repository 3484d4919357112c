"""Attention blocks against independent inline recomputations."""

import numpy as np
import pytest

from deepseries.errors import ParameterError
from deepseries.layers import RTABlock, SEBlock, SpatialTemporalAttention, TanhAttention
from conftest import single_node_model


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def test_se_block_hand_composition():
    m = single_node_model(SEBlock(ratio=2), (3, 4), seed=2)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 4))
    out = np.asarray(m.forward(x).array)
    s = x.mean(axis=1)  # squeeze over time
    hidden = np.maximum(s @ L.params["w1"] + L.params["b1"], 0.0)
    gates = _sigmoid(hidden @ L.params["w2"] + L.params["b2"])
    np.testing.assert_allclose(out, x * gates[:, None, :], rtol=1e-12)


def test_se_block_bottleneck_width_floor():
    m = single_node_model(SEBlock(ratio=8), (3, 4), seed=0)
    assert m.nodes["L"].layer.params["w1"].shape == (4, 1)  # max(1, 4 // 8)


def test_se_block_preserves_shape():
    m = single_node_model(SEBlock(ratio=2), (6, 8), seed=1)
    assert m.output_shape == (6, 8)


def _run(L, node, x):
    return np.asarray(L.nodes[node].layer.forward(x))


def test_rta_block_composition_equation():
    # out = trunk * (1 + gate) + shortcut, recomputed from the sublayers
    m = single_node_model(RTABlock(3, 3, 2), (5, 2), seed=4)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(9)
    x = rng.normal(size=(2, 5, 2))
    out = np.asarray(m.forward(x).array)

    t1 = np.maximum(_run(L, "trunk1_bn", _run(L, "trunk1", x)), 0.0)
    trunk = np.maximum(_run(L, "trunk2_bn", _run(L, "trunk2", t1)), 0.0)

    a = _run(L, "att_bn", _run(L, "att", _run(L, "pool", x)))
    a = np.repeat(a, 2, axis=1)  # upsample, then zero-pad to the input length
    a = np.pad(a, ((0, 0), (0, 5 - a.shape[1]), (0, 0)))
    gate = _sigmoid(a)

    shortcut = _run(L, "short", x)
    np.testing.assert_allclose(out, trunk * (1.0 + gate) + shortcut, rtol=1e-10)


def test_rta_block_identity_shortcut_when_channels_match():
    m = single_node_model(RTABlock(2, 3, 2), (6, 2), seed=5)
    L = m.nodes["L"].layer
    assert "short" not in L.nodes
    assert not any(k.startswith("short_") for k in L.params)
    assert m.output_shape == (6, 2)


def test_rta_block_gate_reaches_zero_limit():
    # Strongly negative attention output drives the gate to 0, so the block
    # degenerates to trunk + shortcut.
    m = single_node_model(RTABlock(2, 3, 2), (6, 2), seed=6)
    L = m.nodes["L"].layer
    L.params["att_bn_shift"][...] = -60.0
    rng = np.random.default_rng(10)
    x = rng.normal(size=(2, 6, 2))
    out = np.asarray(m.forward(x).array)
    t1 = np.maximum(_run(L, "trunk1_bn", _run(L, "trunk1", x)), 0.0)
    trunk = np.maximum(_run(L, "trunk2_bn", _run(L, "trunk2", t1)), 0.0)
    np.testing.assert_allclose(out, trunk + x, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("args, name", [((0,), "filters"), ((4, 0), "kernel"),
                                        ((4, 3, 0), "pool_window")],
                         ids=["filters", "kernel", "pool_window"])
def test_rta_block_checks_its_arguments_at_construction(args, name):
    with pytest.raises(ParameterError, match=f"RTABlock {name} must be >= 1, got 0"):
        RTABlock(*args)


def test_spatial_temporal_attention_zero_params_quarter_signal():
    m = single_node_model(SpatialTemporalAttention(2, 3), (5, 4), seed=3)
    L = m.nodes["L"].layer
    for p in L.params.values():
        p[...] = 0.0
    x = np.random.default_rng(11).normal(size=(2, 5, 4))
    out = np.asarray(m.forward(x).array)
    np.testing.assert_allclose(out, x * 0.25, rtol=1e-12)


def test_spatial_temporal_attention_hand_composition():
    m = single_node_model(SpatialTemporalAttention(2, 3), (5, 4), seed=12)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(13)
    x = rng.normal(size=(2, 5, 4))
    out = np.asarray(m.forward(x).array)

    pooled = x.mean(axis=1)
    hidden = np.maximum(pooled @ L.params["w1"] + L.params["b1"], 0.0)
    ch_gate = _sigmoid(hidden @ L.params["w2"] + L.params["b2"])
    y = x * ch_gate[:, None, :]

    summary = y.mean(axis=2, keepdims=True)  # [b, t, 1]
    pad = np.pad(summary, ((0, 0), (1, 1), (0, 0)))
    w = L.params["t_w"][:, 0, 0]
    conv = np.stack([
        sum(w[k] * pad[:, t + k, 0] for k in range(3)) for t in range(5)
    ], axis=1) + L.params["t_b"][0]
    t_gate = _sigmoid(conv)[..., None]
    np.testing.assert_allclose(out, y * t_gate, rtol=1e-10)


def test_tanh_attention_hand_composition():
    m = single_node_model(TanhAttention(3), (4, 2), seed=14)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 4, 2))
    out = np.asarray(m.forward(x).array)
    assert out.shape == (2, 2)
    scores = np.tanh(x @ L.params["w1"] + L.params["b1"]) @ L.params["w2"] + L.params["b2"]
    scores = scores[..., 0]
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    att = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out, (x * att[..., None]).sum(axis=1), rtol=1e-12)


def test_tanh_attention_weights_sum_to_one_effect():
    # A constant-over-time signal must pass through unchanged.
    m = single_node_model(TanhAttention(4), (6, 3), seed=16)
    x = np.tile(np.array([1.5, -2.0, 0.25]), (2, 6, 1))
    out = np.asarray(m.forward(x).array)
    np.testing.assert_allclose(out, x[:, 0, :], rtol=1e-12)
