"""Composite blocks as subgraphs: pinned manifests, the primitives they are
built from, and node-list validation."""

import numpy as np
import pytest

from deepseries.errors import GraphError, ShapeError
from deepseries.layers import (
    GRU,
    LSTM,
    ActivationLayer,
    Bidirectional,
    RTABlock,
    SEBlock,
    SpatialTemporalAttention,
    TanhAttention,
)
from deepseries.layers.core import ChannelMean, Multiply, PadTime, ReverseTime
from deepseries.layers.subgraph import NodeSpec, Subgraph
from conftest import single_node_model

_BN = ("gain", "shift")


def _rta_params(ch, f, short):
    out = [("trunk1_w", (3, ch, f)), ("trunk1_b", (f,))]
    out += [(f"trunk1_bn_{p}", (f,)) for p in _BN]
    out += [("trunk2_w", (3, f, f)), ("trunk2_b", (f,))]
    out += [(f"trunk2_bn_{p}", (f,)) for p in _BN]
    out += [("att_w", (3, ch, f)), ("att_b", (f,))]
    out += [(f"att_bn_{p}", (f,)) for p in _BN]
    if short:
        out += [("short_w", (1, ch, f)), ("short_b", (f,))]
    return out


def _rta_buffers(f):
    return [(f"{node}_running_{s}", (f,))
            for node in ("trunk1_bn", "trunk2_bn", "att_bn") for s in ("mean", "var")]


def _rnn_params(ch, gates):
    return [(f"{d}_{p}", shape) for d in ("fwd", "bwd")
            for p, shape in (("wx", (ch, gates)), ("wh", (3, gates)), ("b", (gates,)))]


# squeeze-excite and tanh attention keep the w1 b1 w2 b2 names of their weights files
def _dense_pair(ch, hidden, out):
    return [("w1", (ch, hidden)), ("b1", (hidden,)), ("w2", (hidden, out)), ("b2", (out,))]


MANIFESTS = [
    ("rta_short", lambda: RTABlock(4, 3, 2), (8, 2), _rta_params(2, 4, True), _rta_buffers(4)),
    ("rta_identity", lambda: RTABlock(3, 3, 2), (8, 3), _rta_params(3, 3, False),
     _rta_buffers(3)),
    ("st_attention", lambda: SpatialTemporalAttention(2, 3), (9, 4),
     _dense_pair(4, 2, 4) + [("t_w", (3, 1, 1)), ("t_b", (1,))], []),
    ("se_block", lambda: SEBlock(2), (7, 6), _dense_pair(6, 3, 6), []),
    ("tanh_attention", lambda: TanhAttention(5), (8, 3), _dense_pair(3, 5, 1), []),
    ("bilstm", lambda: Bidirectional(LSTM(3)), (6, 2), _rnn_params(2, 12), []),
    ("bigru", lambda: Bidirectional(GRU(3, return_sequences=True)), (6, 2),
     _rnn_params(2, 9), []),
]


@pytest.mark.parametrize("name,factory,shape,params,buffers", MANIFESTS,
                         ids=[c[0] for c in MANIFESTS])
def test_composite_manifest_is_pinned(name, factory, shape, params, buffers):
    m = single_node_model(factory(), shape)
    assert [(k, v.shape) for k, v in m.parameters().items()] == \
        [(f"L/{k}", s) for k, s in params]
    assert [(k, v.shape) for k, v in m.buffers().items()] == \
        [(f"L/{k}", s) for k, s in buffers]


@pytest.mark.parametrize("name,factory,shape,params,buffers", MANIFESTS,
                         ids=[c[0] for c in MANIFESTS])
def test_composite_backward_names_every_param(name, factory, shape, params, buffers):
    layer = factory()
    single_node_model(layer, shape)
    cache = {}
    x = np.random.default_rng(1).normal(size=(3, *shape))
    y = layer.forward(x, train=True, cache=cache)
    dx, grads = layer.backward(np.ones_like(y), cache)
    assert dx.shape == x.shape
    assert sorted(grads) == sorted(layer.params)  # backward finds them in reverse order
    assert all(grads[k].shape == p.shape for k, p in layer.params.items())


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_composite_blocks_have_no_pass_of_their_own():
    # Every composite runs the shared node loops; none re-implements a
    # forward, a backward, a parameter build or shape inference.
    blocks = {c for c in _subclasses(Subgraph) if c.__module__.startswith("deepseries.layers")}
    assert {c.__name__ for c in blocks} == {
        "Bidirectional", "RTABlock", "SEBlock", "SpatialTemporalAttention", "TanhAttention"}
    own = {c.__name__: sorted({"forward", "backward", "_build", "out_shape"} & set(vars(c)))
           for c in blocks}
    assert own == {c.__name__: [] for c in blocks}


def test_subgraph_params_alias_the_inner_layers():
    layer = Bidirectional(GRU(2))
    single_node_model(layer, (4, 1))
    assert layer.params["fwd_wx"] is layer.fwd.params["wx"]
    assert layer.params["bwd_b"] is layer.bwd.params["b"]


def test_multiply_broadcasts_size_one_axes():
    m = single_node_model(Subgraph([NodeSpec("m", ChannelMean(), ["x"]),
                                    NodeSpec("mul", Multiply(), ["x", "m"])]), (5, 3))
    x = np.random.default_rng(0).normal(size=(2, 5, 3))
    out = np.asarray(m.forward(x).array)
    np.testing.assert_array_equal(out, x * x.mean(axis=2, keepdims=True))
    with pytest.raises(ShapeError):
        Multiply().out_shape([(5, 3), (5, 2)])


def test_pad_time_and_reverse_time():
    x = np.arange(12.0).reshape(1, 3, 4)
    padded = np.asarray(single_node_model(PadTime(5), (3, 4)).forward(x).array)
    assert padded.shape == (1, 5, 4)
    np.testing.assert_array_equal(padded[:, :3], x)
    assert not padded[:, 3:].any()
    with pytest.raises(ShapeError):
        PadTime(2).out_shape([(3, 4)])
    rev = np.asarray(single_node_model(ReverseTime(), (3, 4)).forward(x).array)
    np.testing.assert_array_equal(rev, x[:, ::-1])


@pytest.mark.parametrize("nodes", [
    [NodeSpec("a", ActivationLayer("relu"), ["ghost"])],
    [NodeSpec("a", ActivationLayer("relu"), ["b"]),
     NodeSpec("b", ActivationLayer("relu"), ["x"])],
    [NodeSpec("a", ActivationLayer("relu"), ["x"]),
     NodeSpec("a", ActivationLayer("tanh"), ["x"])],
    [NodeSpec("x", ActivationLayer("relu"), ["x"])],
    [],
], ids=["unknown", "forward_reference", "duplicate", "shadows_input", "empty"])
def test_subgraph_rejects_bad_node_lists(nodes):
    with pytest.raises(GraphError):
        Subgraph(nodes).out_shape([(4, 2)])
