"""Convolution, pooling, dense, batchnorm, dropout, and shape ops against
hand-worked examples.  Weights are overwritten in place after binding so every
expected value below was computed by hand from the printed formulas."""

import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from deepseries.errors import DegenerateBatchError, ParameterError, ShapeError
from deepseries.graph import GraphBuilder
from deepseries.layers import (
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
    SEBlock,
    TanhAttention,
    Upsample1D,
    sigmoid,
)
from deepseries.layers.base import _ACTIVATIONS
from deepseries.layers.core import _BLOCK, PadTime
from conftest import single_node_model


def _conv(in_shape, **kw):
    m = single_node_model(Conv1D(**kw), in_shape)
    return m, m.nodes["L"].layer


X5 = np.array([1.0, 2.0, 3.0, 4.0, 5.0]).reshape(1, 5, 1)


def _edge_kernel(layer):
    # one filter [1, 0, -1] with bias 0.5: out[t] = x[t] - x[t+2] + 0.5
    layer.params["w"][...] = np.array([1.0, 0.0, -1.0]).reshape(3, 1, 1)
    layer.params["b"][...] = 0.5


def test_conv_valid_hand_example():
    m, L = _conv((5, 1), filters=1, kernel=3)
    _edge_kernel(L)
    out = m.forward(X5).array
    assert out.shape == (1, 3, 1)
    np.testing.assert_allclose(out.ravel(), [-1.5, -1.5, -1.5])


def test_conv_same_padding_splits_left_short():
    m, L = _conv((5, 1), filters=1, kernel=3, padding="same")
    _edge_kernel(L)
    out = m.forward(X5).array
    assert out.shape == (1, 5, 1)
    # padded series [0,1,2,3,4,5,0]
    np.testing.assert_allclose(out.ravel(), [-1.5, -1.5, -1.5, -1.5, 4.5])


def test_conv_full_padding_lengthens_output():
    m, L = _conv((5, 1), filters=1, kernel=3, padding="full")
    _edge_kernel(L)
    out = m.forward(X5).array
    assert out.shape == (1, 7, 1)
    # padded series [0,0,1,2,3,4,5,0,0]
    np.testing.assert_allclose(out.ravel(), [-0.5, -1.5, -1.5, -1.5, -1.5, 4.5, 5.5])


def test_conv_multichannel_contraction():
    m, L = _conv((3, 2), filters=1, kernel=2)
    L.params["w"][...] = np.array([[[1.0], [10.0]], [[100.0], [1000.0]]])
    L.params["b"][...] = 0.0
    x = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]).reshape(1, 3, 2)
    out = m.forward(x).array
    # out[t] = x[t,0]*1 + x[t,1]*10 + x[t+1,0]*100 + x[t+1,1]*1000
    np.testing.assert_allclose(out.ravel(), [1 + 20 + 300 + 4000, 3 + 40 + 500 + 6000])


def test_conv_relu_activation_applied():
    m, L = _conv((5, 1), filters=1, kernel=3, activation="relu")
    _edge_kernel(L)
    np.testing.assert_allclose(m.forward(X5).array.ravel(), [0.0, 0.0, 0.0])


def test_conv_rejects_short_input():
    with pytest.raises(ShapeError):
        single_node_model(Conv1D(1, 8), (5, 1))


def test_conv_rejects_bad_hyper():
    with pytest.raises(ParameterError):
        Conv1D(0, 3)
    with pytest.raises(ParameterError):
        Conv1D(1, 3, padding="reflect")


POOL_X = np.array([3.0, 1.0, 4.0, 1.0, 5.0, 9.0]).reshape(1, 6, 1)


def test_pool_max_and_avg():
    m = single_node_model(Pool1D(2), (6, 1))
    np.testing.assert_allclose(m.forward(POOL_X).array.ravel(), [3, 4, 9])
    m = single_node_model(Pool1D(op="global_avg"), (6, 1))
    np.testing.assert_allclose(m.forward(POOL_X).array.ravel(), [23 / 6])
    with pytest.raises(ParameterError):
        Pool1D(2, op="avg")


def test_pool_global_avg_drops_time():
    m = single_node_model(Pool1D(op="global_avg"), (4, 2))
    x = np.arange(8.0).reshape(1, 4, 2)
    out = m.forward(x).array
    assert out.shape == (1, 2)
    np.testing.assert_allclose(out.ravel(), [3.0, 4.0])  # column means


def test_pool_max_backward_routes_to_first_tie():
    m = single_node_model(Pool1D(2), (2, 1))
    x = np.array([[2.0], [2.0]]).reshape(1, 2, 1)
    m.forward(x, train=True)
    m.backward(np.ones((1, 1, 1)))
    np.testing.assert_allclose(m.last_input_grads["x0"].ravel(), [1.0, 0.0])


def _conv_reference(x, w, b, padding, upstream):
    """Output, dw, db and dx of a stride-1 convolution from window views and einsum."""
    k = w.shape[0]
    before, after = {"valid": (0, 0), "same": ((k - 1) // 2, k // 2),
                     "full": (k - 1, k - 1)}[padding]
    xp = np.pad(x, ((0, 0), (before, after), (0, 0)))
    win = sliding_window_view(xp, k, axis=1)  # [batch, t_out, channels, kernel]
    out = np.einsum("btck,kcf->btf", win, w) + b
    dw = np.einsum("btck,btf->kcf", win, upstream)
    # dxp[s] = sum over j of upstream[s - j] @ w[j].T: a full correlation of
    # the upstream gradient with the kernel reversed in time
    gwin = sliding_window_view(np.pad(upstream, ((0, 0), (k - 1, k - 1), (0, 0))), k, axis=1)
    dxp = np.einsum("bsfi,icf->bsc", gwin, w[::-1])
    return out, dw, upstream.sum(axis=(0, 1)), dxp[:, before : before + x.shape[1]]


CONV_LAYOUTS = {
    "contiguous": lambda a: a,
    "time_reversed": lambda a: np.ascontiguousarray(a[:, ::-1])[:, ::-1],
    "channel_slice": lambda a: np.pad(a, ((0, 0), (0, 0), (1, 2)))[:, :, 1:-2],
    "fortran": np.asfortranarray,
    # C-contiguous by numpy's flags: the stride of a size-1 axis is never read
    "zero_unit_strides": lambda a: as_strided(
        a, strides=[0 if n == 1 else st for n, st in zip(a.shape, a.strides)],
        writeable=False),
}


@pytest.mark.parametrize("layout", sorted(CONV_LAYOUTS))
@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("kernel", [1, 3, 7])
@pytest.mark.parametrize("padding", ["valid", "same", "full"])
def test_conv_matches_window_einsum_reference(padding, kernel, channels, layout):
    rng = np.random.default_rng(kernel * 10 + channels)
    layer = Conv1D(4, kernel, padding=padding)
    layer.bind([(9, channels)], rng)
    layer.params["b"][...] = rng.normal(size=4)
    w, b = layer.params["w"].copy(), layer.params["b"].copy()
    for batch in (0, 1, 5):
        base = rng.normal(size=(batch, 9, channels))
        x = CONV_LAYOUTS[layout](base.copy())
        np.testing.assert_array_equal(x, base)
        cache = {}
        out = layer.forward(x, train=True, cache=cache)
        up = rng.normal(size=out.shape)
        dx, grads = layer.backward(up, cache)
        ref_out, ref_dw, ref_db, ref_dx = _conv_reference(base, w, b, padding, up)
        tol = dict(rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(out, ref_out, **tol)
        np.testing.assert_array_equal(layer.forward(x), out)
        np.testing.assert_allclose(grads["w"], ref_dw, **tol)
        np.testing.assert_allclose(grads["b"], ref_db, **tol)
        np.testing.assert_allclose(dx, ref_dx, **tol)
        np.testing.assert_array_equal(x, base)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("padding", ["valid", "same", "full"])
def test_conv_folded_bias_matches_window_matrix_reference(padding, channels):
    # Past batch 1 the bias is a row of the product and its gradient a row of
    # the weight-gradient product; batch 1 adds it to a window view instead.
    rng = np.random.default_rng(channels)
    layer = Conv1D(4, 3, padding=padding, activation="relu")
    layer.bind([(9, channels)], rng)
    layer.params["b"][...] = rng.normal(size=4)
    w, b = layer.params["w"], layer.params["b"]
    before, after = layer._pad_amounts()
    for batch in (1, 5):
        x = rng.normal(size=(batch, 9, channels))
        xp = np.pad(x, ((0, 0), (before, after), (0, 0)))
        windows = np.stack([xp[:, s : s + 3].reshape(batch, -1)
                            for s in range(xp.shape[1] - 2)], axis=1)
        ref = np.maximum(windows @ w.reshape(-1, 4) + b, 0.0)
        cache = {}
        out = layer.forward(x, train=True, cache=cache)
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_array_equal(layer.forward(x), out)
        up = rng.normal(size=out.shape)
        _, grads = layer.backward(up, cache)
        dz = up * (out > 0.0)
        np.testing.assert_allclose(grads["b"], dz.sum((0, 1)), rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(grads["w"].reshape(-1, 4),
                                   windows.reshape(-1, windows.shape[2]).T @ dz.reshape(-1, 4),
                                   rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("activation", ["linear", "relu"])
def test_conv_training_reuses_its_window_matrix_and_returns_new_outputs(activation):
    # The cache a model hands back on the next training forward keeps the
    # window matrix for one batch size; outputs and gradients are new arrays.
    layer = Conv1D(4, 3, activation=activation)
    layer.bind([(9, 2)], np.random.default_rng(0))
    rng = np.random.default_rng(1)
    cache = {}
    out = layer.forward(rng.normal(size=(5, 9, 2)), train=True, cache=cache)
    cols = cache["cols"]
    dx, grads = layer.backward(rng.normal(size=out.shape), cache)
    kept = [a.copy() for a in (out, dx, *grads.values())]
    again = layer.forward(rng.normal(size=(5, 9, 2)), train=True, cache=cache)
    assert cache["cols"] is cols
    for a, want in zip((out, dx, *grads.values()), kept):
        np.testing.assert_array_equal(a, want)
        assert not np.shares_memory(a, cols) and not np.shares_memory(a, again)
    layer.forward(rng.normal(size=(3, 9, 2)), train=True, cache=cache)
    assert cache["cols"].shape == (3 * 7, 3 * 2 + 1)


@pytest.mark.parametrize("channels", [1, 3])
@pytest.mark.parametrize("padding", ["valid", "same", "full"])
def test_conv_inference_in_row_blocks_equals_the_one_block_training_forward(padding, channels):
    layer = Conv1D(5, 3, padding=padding, activation="relu")
    layer.bind([(11, channels)], np.random.default_rng(channels))
    layer.params["b"][...] = np.random.default_rng(7).normal(size=5)
    for batch in (_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1):
        x = np.random.default_rng(batch).normal(size=(batch, 11, channels))
        np.testing.assert_array_equal(layer.forward(x), layer.forward(x, train=True, cache={}))


def test_conv_inference_memory_above_its_output_does_not_grow_with_the_batch():
    layer = Conv1D(8, 3, padding="same")
    layer.bind([(40, 3)], np.random.default_rng(0))
    above = []
    for batch in (256, 1024):
        x = np.random.default_rng(batch).normal(size=(batch, 40, 3))
        layer.forward(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = layer.forward(x)
            above.append(tracemalloc.get_traced_memory()[1] - base - out.nbytes)
        finally:
            tracemalloc.stop()
    # the same blocks at both sizes, up to the loop's Python integers
    assert abs(above[1] - above[0]) <= 256
    assert above[0] < 256 * 40 * (3 * 3 + 1) * 8 / 4  # a quarter of one whole-batch matrix


# (window, stride): max-pool windows tile the series, so the stride is the window
POOL_SHAPES = [(w, w) for w in range(1, 5)]


def _max_pool_reference(x, w, s, upstream):
    """Window argmax (first maximum) for the value, ``np.add.at`` for the gradient."""
    t_out = (x.shape[1] - w) // s + 1
    win = sliding_window_view(x, w, axis=1)[:, ::s][:, :t_out]
    arg = win.argmax(axis=3)
    out = np.take_along_axis(win, arg[..., None], axis=3)[..., 0]
    dx = np.zeros(x.shape)
    bi, ti, ci = np.ogrid[: x.shape[0], :t_out, : x.shape[2]]
    np.add.at(dx, (bi, ti * s + arg, ci), upstream)
    return out, dx


@pytest.mark.parametrize("window,stride", POOL_SHAPES)
def test_pool_max_matches_argmax_reference(window, stride):
    rng = np.random.default_rng(window * 10 + stride)
    for time in (window, window + 1, 11, 12):
        x = rng.integers(0, 3, size=(3, time, 4)).astype(float)  # many ties
        layer = Pool1D(window)
        cache = {}
        out = layer.forward(x, train=True, cache=cache)
        up = rng.normal(size=out.shape)
        ref_out, ref_dx = _max_pool_reference(x, window, stride, up)
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(layer.forward(x), ref_out)
        np.testing.assert_array_equal(layer.backward(up, cache)[0], ref_dx)


@pytest.mark.parametrize("window,stride", POOL_SHAPES)
def test_pool_max_propagates_nan_at_any_offset(window, stride):
    x0 = np.arange(12.0).reshape(1, 12, 1)
    layer = Pool1D(window)
    t_out = (12 - window) // stride + 1
    for k in range(window):
        x = x0.copy()
        x[0, stride + k, 0] = np.nan  # offset k of the second window
        for train in (False, True):
            out = layer.forward(x, train=train, cache={} if train else None).ravel()
            hit = [t for t in range(t_out) if t * stride <= stride + k < t * stride + window]
            assert np.isnan(out[hit]).all()
            assert np.isfinite(np.delete(out, hit)).all()


def test_sigmoid_is_bounded_and_matches_two_branch_form():
    def two_branch(x):
        out = np.empty_like(x)
        pos = x >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        out[~pos] = ex / (1.0 + ex)
        return out

    extreme = sigmoid(np.array([-1e3, 1e3]))
    assert np.isfinite(extreme).all() and (extreme >= 0.0).all() and (extreme <= 1.0).all()
    np.testing.assert_array_equal(extreme, [0.0, 1.0])
    grid = np.linspace(-50.0, 50.0, 100001)
    assert np.abs(sigmoid(grid) - two_branch(grid)).max() <= 2.3e-16


def test_pool_rejects_short_input():
    with pytest.raises(ShapeError):
        single_node_model(Pool1D(4), (3, 1))


def test_dense_hand_example():
    m = single_node_model(Dense(2), (3,))
    L = m.nodes["L"].layer
    L.params["w"][...] = np.array([[1.0, 4.0], [2.0, 5.0], [3.0, 6.0]])
    L.params["b"][...] = np.array([0.5, -0.5])
    out = m.forward(np.array([[1.0, 10.0, 100.0]])).array
    np.testing.assert_allclose(out, [[1 + 20 + 300 + 0.5, 4 + 50 + 600 - 0.5]])


def test_dense_softmax_rows_sum_to_one():
    m = single_node_model(Dense(4, activation="softmax"), (6,), seed=3)
    out = m.forward(np.random.default_rng(0).normal(size=(5, 6))).array
    np.testing.assert_allclose(np.asarray(out).sum(axis=1), np.ones(5), atol=1e-12)


def test_dense_maps_each_step_of_a_series():
    m = single_node_model(Dense(3, activation="tanh"), (4, 2), seed=5)
    L = m.nodes["L"].layer
    assert m.output_shape == (4, 3)
    x = np.random.default_rng(1).normal(size=(2, 4, 2))
    out = np.asarray(m.forward(x).array)
    for t in range(4):
        np.testing.assert_allclose(out[:, t], np.tanh(x[:, t] @ L.params["w"] + L.params["b"]),
                                   rtol=1e-13)
    with pytest.raises(ShapeError, match=r"\[time, features\]"):
        single_node_model(Dense(3), (4, 2, 2))


def test_batchnorm_train_matches_hand_stats():
    m = single_node_model(BatchNorm1D(), (2, 1))
    L = m.nodes["L"].layer
    x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])  # batch 2, time 2
    out = m.forward(x, train=True).array
    mean, var = 2.5, 1.25  # stats over batch and time, biased variance
    expect = (x - mean) / np.sqrt(var + 1e-3)
    np.testing.assert_allclose(np.asarray(out), expect, rtol=1e-12)
    # running stats moved one step of momentum 0.01 from (0, 1)
    np.testing.assert_allclose(L.buffers["running_mean"], [0.99 * 0.0 + 0.01 * mean])
    np.testing.assert_allclose(L.buffers["running_var"], [0.99 * 1.0 + 0.01 * var])


def test_batchnorm_eval_uses_running_stats():
    m = single_node_model(BatchNorm1D(), (2, 1))
    x = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    out = m.forward(x).array  # running stats still (0, 1)
    np.testing.assert_allclose(np.asarray(out), x / np.sqrt(1 + 1e-3), rtol=1e-12)


def test_batchnorm_rejects_single_sample_training():
    m = single_node_model(BatchNorm1D(), (2, 1))
    with pytest.raises(DegenerateBatchError):
        m.forward(np.ones((1, 2, 1)), train=True)


def test_batchnorm_gain_shift_applied():
    m = single_node_model(BatchNorm1D(), (1, 2))
    L = m.nodes["L"].layer
    L.params["gain"][...] = np.array([2.0, 3.0])
    L.params["shift"][...] = np.array([10.0, 20.0])
    x = np.array([[[1.0, 1.0]], [[3.0, 5.0]]])
    out = np.asarray(m.forward(x, train=True).array)
    norm0 = (x[..., 0] - 2.0) / np.sqrt(1.0 + 1e-3)
    norm1 = (x[..., 1] - 3.0) / np.sqrt(4.0 + 1e-3)
    np.testing.assert_allclose(out[..., 0], norm0 * 2.0 + 10.0, rtol=1e-12)
    np.testing.assert_allclose(out[..., 1], norm1 * 3.0 + 20.0, rtol=1e-12)


def test_dropout_scales_survivors_and_matches_rate():
    m = single_node_model(Dropout(0.25, seed=11), (40, 5))
    x = np.ones((4, 40, 5))
    out = np.asarray(m.forward(x, train=True).array)
    kept = out != 0.0
    np.testing.assert_allclose(out[kept], 1.0 / 0.75)
    rate = 1.0 - kept.mean()
    assert 0.15 < rate < 0.35
    # evaluation is the identity
    np.testing.assert_array_equal(np.asarray(m.forward(x).array), x)


def test_dropout_reseed_reproduces_masks():
    m = single_node_model(Dropout(0.5, seed=3), (10, 2))
    L = m.nodes["L"].layer
    x = np.ones((2, 10, 2))
    a = np.asarray(m.forward(x, train=True).array)
    b = np.asarray(m.forward(x, train=True).array)
    L.reseed(3)
    c = np.asarray(m.forward(x, train=True).array)
    assert not np.array_equal(a, b)  # stream advances
    np.testing.assert_array_equal(a, c)  # reseed rewinds it


def test_dropout_derives_stream_from_build_seed():
    x = np.ones((2, 10, 2))
    a = np.asarray(single_node_model(Dropout(0.5), (10, 2), seed=5)
                   .forward(x, train=True).array)
    b = np.asarray(single_node_model(Dropout(0.5), (10, 2), seed=5)
                   .forward(x, train=True).array)
    c = np.asarray(single_node_model(Dropout(0.5), (10, 2), seed=6)
                   .forward(x, train=True).array)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dropout_rejects_bad_rate():
    with pytest.raises(ParameterError):
        Dropout(1.0)
    with pytest.raises(ParameterError):
        Dropout(-0.1)


def test_activation_layer_leaky_slope():
    m = single_node_model(ActivationLayer("leaky_relu"), (3, 1))
    x = np.array([-2.0, 0.0, 3.0]).reshape(1, 3, 1)
    np.testing.assert_allclose(m.forward(x).array.ravel(), [-0.02, 0.0, 3.0])


# values that probe every branch: signs, zeros of both signs, saturation, inf, NaN
EDGE = np.array([[-3.0, -0.0, 0.0, 2.5, 1e3], [-1e3, np.inf, -np.inf, np.nan, 5e-324]])


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("name", sorted(_ACTIVATIONS))
def test_activation_in_place_matches_a_new_array(name):
    # forward(z, out=z) may overwrite z, and must give forward(z)'s bits
    forward = _ACTIVATIONS[name][0]
    z = EDGE.copy()
    want = forward(z)
    np.testing.assert_array_equal(z, EDGE)
    got = forward(z, out=z)
    assert got is z
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("name", sorted(_ACTIVATIONS))
def test_activation_layer_leaves_its_input_unchanged(name, train):
    # the input is another node's output, which other nodes may still read
    layer = ActivationLayer(name)
    x = np.random.default_rng(5).normal(size=(3, 4, 2)) * 4.0
    x[0, 0] = [-1e3, 1e3]  # saturates every bounded activation
    keep = x.copy()
    out = layer.forward(x, train, {} if train else None)
    np.testing.assert_array_equal(x, keep)
    np.testing.assert_array_equal(out, _ACTIVATIONS[name][0](keep))


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("activation", sorted(_ACTIVATIONS))
@pytest.mark.parametrize("factory, in_shape", [
    (lambda a: Conv1D(3, 2, padding="same", activation=a), (6, 2)),
    (lambda a: Dense(5, activation=a), (6,)),
], ids=["conv1d", "dense"])
def test_bias_and_activation_in_place_match_a_linear_twin(factory, in_shape, activation, train):
    # Conv1D and Dense add b and activate in the product they just made; the
    # bits must equal the activation applied to a linear twin's output
    rng = np.random.default_rng(6)
    layer, twin = factory(activation), factory("linear")
    layer.bind([in_shape], rng)
    twin.bind([in_shape], rng)
    layer.params["b"][...] = rng.normal(size=layer.params["b"].shape)
    for k, v in layer.params.items():
        twin.params[k][...] = v
    x = rng.normal(size=(4, *in_shape))
    keep = x.copy()
    out = layer.forward(x, train, {} if train else None)
    np.testing.assert_array_equal(x, keep)
    np.testing.assert_array_equal(out, _ACTIVATIONS[activation][0](twin.forward(keep)))


@pytest.mark.parametrize("factory", [lambda a: Conv1D(2, 3, activation=a),
                                     lambda a: Dense(2, activation=a),
                                     ActivationLayer],
                         ids=["conv1d", "dense", "activation"])
def test_unknown_activation_rejected_at_construction(factory):
    with pytest.raises(ParameterError, match="unknown activation 'rleu'"):
        factory("rleu")


def test_flatten_and_reshape_roundtrip():
    m = single_node_model(Flatten(), (2, 3))
    x = np.arange(6.0).reshape(1, 2, 3)
    out = m.forward(x).array
    assert out.shape == (1, 6)
    np.testing.assert_array_equal(np.asarray(out).ravel(), np.arange(6.0))
    m2 = single_node_model(Reshape((3, 2)), (6,))
    back = m2.forward(np.asarray(out)).array
    assert back.shape == (1, 3, 2)


def test_reshape_rejects_element_count_change():
    with pytest.raises(ShapeError):
        single_node_model(Reshape((4, 2)), (6,))


def test_add_and_concat():
    m = single_node_model(Add(2), (2, 1), n_inputs=2)
    x = {"x0": np.ones((1, 2, 1)), "x1": 2 * np.ones((1, 2, 1))}
    np.testing.assert_allclose(m.forward(x).array.ravel(), [3.0, 3.0])
    m2 = single_node_model(Concat(2), (2, 2), n_inputs=2)
    out = m2.forward({"x0": np.zeros((1, 2, 2)), "x1": np.ones((1, 2, 2))}).array
    assert out.shape == (1, 2, 4)
    np.testing.assert_allclose(np.asarray(out)[0, 0], [0, 0, 1, 1])


@pytest.mark.parametrize("factory", [Add, Concat])
def test_joins_need_two_inputs(factory):
    # a one-input Concat once built, and the executor then handed it a bare
    # array where it expects a list
    for n in (0, 1):
        with pytest.raises(ParameterError, match="at least two inputs"):
            factory(n)


@pytest.mark.parametrize("factory, message", [
    (lambda: Dense(0), "units must be >= 1"),
    (lambda: Reshape((0,)), "reshape target must be positive, got (0,)"),
    (lambda: Upsample1D(0), "upsample factor must be >= 1"),
    (lambda: PadTime(0), "pad length must be >= 1"),
    (lambda: SEBlock(0), "ratio must be >= 1"),
    (lambda: TanhAttention(0), "att_units must be >= 1"),
    (lambda: Bidirectional(Dense(2)), "bidirectional wraps an LSTM or GRU layer"),
], ids=["dense", "reshape", "upsample", "pad_time", "se_block", "tanh_attention",
        "bidirectional"])
def test_constructors_reject_arguments_out_of_range(factory, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        factory()


@pytest.mark.parametrize("factory, in_shapes, message", [
    (lambda: Conv1D(2, 3), [(8,)], "conv1d expects a [time, channels] input, got [(8,)]"),
    (BatchNorm1D, [(4, 3, 2)], "batchnorm expects a rank-1/2 input, got [(4, 3, 2)]"),
    (lambda: Add(2), [(4, 3), (4, 2)], "add inputs must share a shape, got [(4, 3), (4, 2)]"),
    (lambda: Concat(2), [(4, 3), (5, 2)],
     "concat inputs must differ only in the last axis, got [(4, 3), (5, 2)]"),
], ids=["conv1d_rank", "batchnorm_rank", "add", "concat"])
def test_layers_reject_input_shapes_they_cannot_take(factory, in_shapes, message):
    b = GraphBuilder()
    ins = [b.input(f"x{i}", shape) for i, shape in enumerate(in_shapes)]
    b.add("L", factory(), ins if len(ins) > 1 else ins[0])
    with pytest.raises(ShapeError, match=f"^node 'L': {re.escape(message)}$"):
        b.build()


def test_upsample_repeats_steps():
    m = single_node_model(Upsample1D(3), (2, 1))
    x = np.array([1.0, 2.0]).reshape(1, 2, 1)
    np.testing.assert_allclose(m.forward(x).array.ravel(), [1, 1, 1, 2, 2, 2])


def test_upsample_backward_sums_blocks():
    m = single_node_model(Upsample1D(2), (2, 1))
    m.forward(np.ones((1, 2, 1)), train=True)
    m.backward(np.array([1.0, 2.0, 3.0, 4.0]).reshape(1, 4, 1))
    np.testing.assert_allclose(m.last_input_grads["x0"].ravel(), [3.0, 7.0])
