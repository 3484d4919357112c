"""LSTM / GRU / bidirectional forward passes against an independent
re-implementation of the recurrences written inline with plain numpy."""

import io

import numpy as np
import pytest

from deepseries.errors import ParameterError
from deepseries.layers import GRU, LSTM, Bidirectional
from deepseries.train import Adam, predict
from conftest import single_node_model


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def _lstm_reference(x, wx, wh, b, return_sequences):
    """Gates packed [input, forget, candidate, output]; zero initial state."""
    t_steps, _ = x.shape
    u = wh.shape[0]
    h = np.zeros(u)
    c = np.zeros(u)
    seq = []
    for t in range(t_steps):
        z = x[t] @ wx + h @ wh + b
        i = _sigmoid(z[0:u])
        f = _sigmoid(z[u:2 * u])
        g = np.tanh(z[2 * u:3 * u])
        o = _sigmoid(z[3 * u:4 * u])
        c = f * c + i * g
        h = o * np.tanh(c)
        seq.append(h.copy())
    return np.stack(seq) if return_sequences else h


def _gru_reference(x, wx, wh, b, return_sequences):
    """Gates packed [update, reset, candidate]; reset scales the hidden state
    before the candidate's recurrent product."""
    t_steps, _ = x.shape
    u = wh.shape[0]
    h = np.zeros(u)
    seq = []
    for t in range(t_steps):
        zx = x[t] @ wx + b
        zz = zx[0:u] + h @ wh[:, 0:u]
        zr = zx[u:2 * u] + h @ wh[:, u:2 * u]
        z = _sigmoid(zz)
        r = _sigmoid(zr)
        n = np.tanh(zx[2 * u:3 * u] + (r * h) @ wh[:, 2 * u:3 * u])
        h = (1.0 - z) * h + z * n
        seq.append(h.copy())
    return np.stack(seq) if return_sequences else h


# ``train=True`` runs the step loop with a backward cache, which keeps every
# step's blocks; without a cache it reuses one.  Each reference test checks both.
PATHS_AND_BATCHES = [(train, batch) for train in (False, True) for batch in (1, 3)]


@pytest.mark.parametrize("return_sequences", [False, True])
def test_lstm_matches_reference_recurrence(return_sequences):
    m = single_node_model(LSTM(3, return_sequences=return_sequences), (4, 2), seed=5)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(42)
    for train, batch in PATHS_AND_BATCHES:
        x = rng.normal(size=(batch, 4, 2))
        out = np.asarray(m.forward(x, train=train).array)
        for s in range(batch):
            ref = _lstm_reference(x[s], L.params["wx"], L.params["wh"], L.params["b"],
                                  return_sequences)
            np.testing.assert_allclose(out[s], ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("return_sequences", [False, True])
def test_gru_matches_reference_recurrence(return_sequences):
    m = single_node_model(GRU(3, return_sequences=return_sequences), (4, 2), seed=6)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(43)
    for train, batch in PATHS_AND_BATCHES:
        x = rng.normal(size=(batch, 4, 2))
        out = np.asarray(m.forward(x, train=train).array)
        for s in range(batch):
            ref = _gru_reference(x[s], L.params["wx"], L.params["wh"], L.params["b"],
                                 return_sequences)
            np.testing.assert_allclose(out[s], ref, rtol=1e-12, atol=1e-12)


def test_lstm_forget_gate_bias_starts_at_one():
    m = single_node_model(LSTM(4), (3, 2))
    b = m.nodes["L"].layer.params["b"]
    np.testing.assert_array_equal(b[4:8], np.ones(4))
    np.testing.assert_array_equal(b[:4], np.zeros(4))
    np.testing.assert_array_equal(b[8:], np.zeros(8))


def test_recurrent_output_shapes():
    assert single_node_model(LSTM(6), (5, 3)).output_shape == (6,)
    assert single_node_model(LSTM(6, return_sequences=True), (5, 3)).output_shape == (5, 6)
    assert single_node_model(GRU(2), (5, 3)).output_shape == (2,)


def test_bidirectional_concat_of_two_passes():
    m = single_node_model(Bidirectional(LSTM(3)), (4, 2), seed=8)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(44)
    for train, batch in PATHS_AND_BATCHES:
        x = rng.normal(size=(batch, 4, 2))
        out = np.asarray(m.forward(x, train=train).array)
        assert out.shape == (batch, 6)
        for s in range(batch):
            fwd = _lstm_reference(x[s], L.params["fwd_wx"], L.params["fwd_wh"],
                                  L.params["fwd_b"], False)
            bwd = _lstm_reference(x[s, ::-1], L.params["bwd_wx"], L.params["bwd_wh"],
                                  L.params["bwd_b"], False)
            np.testing.assert_allclose(out[s], np.concatenate([fwd, bwd]), rtol=1e-12)


def test_bidirectional_sequences_rereversed():
    m = single_node_model(Bidirectional(GRU(2, return_sequences=True)), (5, 1), seed=9)
    L = m.nodes["L"].layer
    rng = np.random.default_rng(45)
    for train, batch in PATHS_AND_BATCHES:
        x = rng.normal(size=(batch, 5, 1))
        out = np.asarray(m.forward(x, train=train).array)
        assert out.shape == (batch, 5, 4)
        for s in range(batch):
            fwd = _gru_reference(x[s], L.params["fwd_wx"], L.params["fwd_wh"],
                                 L.params["fwd_b"], True)
            bwd = _gru_reference(x[s, ::-1], L.params["bwd_wx"], L.params["bwd_wh"],
                                 L.params["bwd_b"], True)[::-1]
            np.testing.assert_allclose(out[s], np.concatenate([fwd, bwd], axis=1),
                                       rtol=1e-12)


CELLS = {
    "lstm": lambda seq: LSTM(5, return_sequences=seq),
    "gru": lambda seq: GRU(5, return_sequences=seq),
    "bilstm": lambda seq: Bidirectional(LSTM(4, return_sequences=seq)),
    "bigru": lambda seq: Bidirectional(GRU(4, return_sequences=seq)),
}


@pytest.mark.parametrize("batch", [1, 3, 64])
@pytest.mark.parametrize("return_sequences", [False, True])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_inference_step_matches_training_step(cell, return_sequences, batch):
    m = single_node_model(CELLS[cell](return_sequences), (7, 3), seed=11)
    x = np.random.default_rng(46).normal(size=(batch, 7, 3))
    infer = np.asarray(m.forward(x, train=False).array)
    trained = np.asarray(m.forward(x, train=True).array)
    assert infer.shape == trained.shape
    np.testing.assert_array_equal(infer, trained)


@pytest.mark.parametrize("return_sequences", [False, True])
@pytest.mark.parametrize("cell", [LSTM, GRU])
def test_gate_major_inference_matches_training_at_every_batch_size(cell, return_sequences):
    # One gate-major loop serves both modes, on [units, batch] states, so the
    # cached and uncached forwards agree bit for bit at every batch size, zero
    # rows included, and come back batch-major.  The backward of each cache
    # must give [batch, ...] input and parameter-shaped gradients.
    layer = cell(6, return_sequences=return_sequences)
    m = single_node_model(layer, (9, 4), seed=14)
    for name, p in m.parameters().items():
        p[...] = np.random.default_rng(len(name)).normal(scale=0.5, size=p.shape)
    want = (9, 6) if return_sequences else (6,)
    for batch in (0, 1, 2, 7, 64, 256):
        x = np.random.default_rng(batch).normal(size=(batch, 9, 4))
        infer = layer.forward(x)
        cache = {}
        trained = layer.forward(x, train=True, cache=cache)
        assert infer.shape == trained.shape == (batch, *want)
        assert infer.flags.c_contiguous
        np.testing.assert_array_equal(infer, trained)
        assert predict(m, x, batch_size=256).shape == (batch, *want)
        dx, grads = layer.backward(np.ones_like(trained), cache)
        assert dx.shape == x.shape and dx.flags.c_contiguous
        assert {k: g.shape for k, g in grads.items()} == {
            k: p.shape for k, p in layer.params.items()}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_inference_step_sees_in_place_parameter_updates(cell):
    m = single_node_model(CELLS[cell](False), (6, 2), seed=12)
    x = np.random.default_rng(47).normal(size=(3, 6, 2))
    before = np.asarray(m.forward(x, train=False).array)
    opt = Adam(m.parameters(), lr=0.05)
    out = m.forward(x, train=True)
    opt.step(m.backward(np.ones_like(out.array)))
    after_step = np.asarray(m.forward(x, train=False).array)
    assert np.abs(after_step - before).max() > 1e-3
    np.testing.assert_allclose(after_step, np.asarray(m.forward(x, train=True).array),
                               rtol=0, atol=1e-14)

    fresh = single_node_model(CELLS[cell](False), (6, 2), seed=13)
    fresh.forward(x, train=False)  # a forward before the load must not linger
    buf = io.BytesIO()
    m.save_weights(buf)
    buf.seek(0)
    fresh.load_weights(buf)
    loaded = np.asarray(fresh.forward(x, train=False).array)
    np.testing.assert_allclose(loaded, np.asarray(m.forward(x, train=True).array),
                               rtol=0, atol=1e-14)


def test_bidirectional_kind_tracks_inner_cell():
    assert Bidirectional(LSTM(2)).kind == "bilstm"
    assert Bidirectional(GRU(2)).kind == "bigru"


def test_bidirectional_halves_are_independent_params():
    m = single_node_model(Bidirectional(LSTM(2)), (3, 1), seed=1)
    L = m.nodes["L"].layer
    assert not np.array_equal(L.params["fwd_wx"], L.params["bwd_wx"])


def test_recurrent_rejects_bad_units():
    with pytest.raises(ParameterError):
        LSTM(0)
    with pytest.raises(ParameterError):
        GRU(-3)
