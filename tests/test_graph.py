"""Graph assembly, execution order, fan-out gradients, and weights files."""

import functools
import io
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deepseries.container import read_records
from deepseries.errors import DegenerateBatchError, FormatError, GraphError, ShapeError, StateError
from deepseries.graph import WEIGHTS_MAGIC, GraphBuilder, Model, NodeSpec, build
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
from deepseries.train import predict
from deepseries.zoo import build_model, make_top, minimum_input_length


def tiny_model(seed=0):
    b = GraphBuilder()
    x = b.input("x", (8, 2))
    c = b.add("conv", Conv1D(3, 3, activation="relu"), x)
    p = b.add("pool", Pool1D(2), c)
    f = b.add("flat", Flatten(), p)
    d = b.add("head", Dense(4), f)
    return b.build(output=d, seed=seed)


# ----------------------------------------------------------------- assembly


def test_topological_order_follows_declaration_on_ties():
    # b and c are both ready once a is done; declaration order breaks the tie.
    b = GraphBuilder()
    x = b.input("x", (6, 1))
    b.add("a", ActivationLayer("linear"), x)
    b.add("c_first", ActivationLayer("linear"), "a")
    b.add("b_second", ActivationLayer("linear"), "a")
    b.add("join", Add(2), ["c_first", "b_second"])
    m = b.build(output="join")
    assert m.order == ["a", "c_first", "b_second", "join"]


def test_forward_reference_rejected():
    # Nodes run in declaration order, so a node must follow its inputs.
    nodes = [
        NodeSpec("second", ActivationLayer("relu"), ["first"]),
        NodeSpec("first", ActivationLayer("tanh"), ["x"]),
    ]
    with pytest.raises(GraphError, match="node 'second' reads 'first'.*follow"):
        build({"x": (4, 1)}, nodes, output="second")


def test_duplicate_node_name_rejected():
    nodes = [
        NodeSpec("a", ActivationLayer("relu"), ["x"]),
        NodeSpec("a", ActivationLayer("tanh"), ["x"]),
    ]
    with pytest.raises(GraphError, match="duplicate node name 'a'"):
        build({"x": (4, 1)}, nodes)


def test_node_shadowing_an_input_rejected():
    nodes = [NodeSpec("x", ActivationLayer("relu"), ["x"])]
    with pytest.raises(GraphError, match="duplicate node name 'x'"):
        build({"x": (4, 1)}, nodes)


def test_unknown_reference_rejected():
    nodes = [NodeSpec("a", ActivationLayer("relu"), ["ghost"])]
    with pytest.raises(GraphError, match="unknown node 'ghost'"):
        build({"x": (4, 1)}, nodes)


def test_cycle_rejected():
    nodes = [
        NodeSpec("a", ActivationLayer("relu"), ["b"]),
        NodeSpec("b", ActivationLayer("relu"), ["a"]),
    ]
    with pytest.raises(GraphError, match="cycle"):
        build({"x": (4, 1)}, nodes)


def test_no_inputs_anywhere_rejected():
    with pytest.raises(GraphError, match="at least one input"):
        build({}, [])
    with pytest.raises(GraphError, match="no inputs"):
        build({"x": (4, 1)}, [NodeSpec("a", ActivationLayer("relu"), [])])


def test_unknown_output_rejected():
    nodes = [NodeSpec("a", ActivationLayer("relu"), ["x"])]
    with pytest.raises(GraphError, match="output 'nope'"):
        build({"x": (4, 1)}, nodes, output="nope")


def test_default_output_is_last_in_order():
    m = tiny_model()
    assert m.output == "head"
    b = GraphBuilder()
    b.input("x", (6, 1))
    b.add("only", ActivationLayer("relu"), "x")
    assert b.build().output == "only"


def test_shape_inference_matches_runtime():
    m = tiny_model()
    assert m.node_shapes == {
        "x": (8, 2),
        "conv": (6, 3),
        "pool": (3, 3),
        "flat": (9,),
        "head": (4,),
    }
    assert m.output_shape == (4,)
    out = m.forward(np.zeros((5, 8, 2)))
    assert out.shape == (5, 4)


def test_shape_error_names_the_node():
    b = GraphBuilder()
    x = b.input("x", (2, 1))
    b.add("widekernel", Conv1D(4, 9), x)
    with pytest.raises(ShapeError, match="node 'widekernel'"):
        b.build()


def test_a_layer_bound_at_one_shape_is_rejected_at_another():
    conv = Conv1D(2, 3)
    first = GraphBuilder()
    first.add("c", conv, first.input("x", (8, 1)))
    first.build()
    again = GraphBuilder()
    again.add("c", conv, again.input("x", (9, 1)))
    with pytest.raises(ShapeError, match=re.escape(
            "node 'c': conv1d already bound to [(8, 1)], got [(9, 1)]")):
        again.build()


# (layer factory, inputs given): each single-input kind with two inputs,
# then the multi-input kinds with one input too many and one too few
WRONG_INPUT_COUNTS = [
    (f, 2) for f in (
        lambda: Conv1D(3, 3), lambda: Pool1D(2), lambda: Dense(3), BatchNorm1D,
        lambda: Dropout(0.5), lambda: ActivationLayer("tanh"), Flatten,
        lambda: Reshape((32,)), lambda: Upsample1D(2), ChannelMean, SumTime,
        lambda: PadTime(10), ReverseTime, lambda: LSTM(3), lambda: GRU(3),
        lambda: Bidirectional(GRU(3)), lambda: SEBlock(2), lambda: RTABlock(4),
        lambda: SpatialTemporalAttention(2, 3), lambda: TanhAttention(4),
    )
] + [(lambda: Add(2), 3), (lambda: Concat(2), 3), (Multiply, 3), (Multiply, 1)]


@pytest.mark.parametrize("factory, given", WRONG_INPUT_COUNTS,
                         ids=lambda v: v if isinstance(v, int) else v().kind)
def test_a_node_with_the_wrong_input_count_is_named(factory, given):
    layer = factory()
    b = GraphBuilder()
    ins = [b.input(f"x{i}", (8, 4)) for i in range(given)]
    b.add("wrong", layer, ins)
    with pytest.raises(ShapeError, match=f"^node 'wrong': {layer.kind} takes "
                                         f"{layer.n_inputs} inputs, got {given}$"):
        b.build()


# ----------------------------------------------------------------- execution


def test_input_coercion_forms():
    m = tiny_model()
    x = np.random.default_rng(0).normal(size=(3, 8, 2))
    a = np.asarray(m.forward(x).array)
    b = np.asarray(m.forward({"x": x}).array)
    c = np.asarray(m.forward([x]).array)
    assert np.array_equal(a, b) and np.array_equal(a, c)


def test_wrong_input_name_and_shape_raise():
    m = tiny_model()
    with pytest.raises(ShapeError, match="needs inputs"):
        m.forward({"y": np.zeros((3, 8, 2))})
    with pytest.raises(ShapeError, match=r"input 'x' must be \[batch, 8, 2\]"):
        m.forward(np.zeros((3, 7, 2)))
    with pytest.raises(ShapeError, match="must be"):
        m.forward(np.zeros((8, 2)))  # missing batch axis


def test_input_sequence_of_the_wrong_length_raises():
    # a surplus element must not be dropped silently; name the two counts
    m = tiny_model()
    x = np.zeros((3, 8, 2))
    for given in ([x, x], (x, x, x), []):
        with pytest.raises(ShapeError, match=f"model has 1 inputs, got {len(given)}$"):
            m.forward(given)
    b = GraphBuilder()
    b.add("cat", Concat(2), [b.input("p", (4, 1)), b.input("q", (4, 1))])
    with pytest.raises(ShapeError, match="model has 2 inputs, got 1$"):
        b.build(output="cat").forward([np.zeros((2, 4, 1))])


def test_nested_lists_are_one_batch_for_a_one_input_model():
    b = GraphBuilder()
    b.add("d", Dense(2), [b.input("x", (3,))])
    m = b.build(output="d")
    rows = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    want = m.forward(np.array(rows)).array
    for given in (rows, tuple(rows), [tuple(r) for r in rows], [rows[0]]):
        got = m.forward(given).array
        np.testing.assert_array_equal(got, want[: len(given)])
    # an array element still means one element per input
    np.testing.assert_array_equal(m.forward([np.array(rows)]).array, want)


def test_backward_without_training_forward_raises():
    m = tiny_model()
    with pytest.raises(StateError, match="training-mode forward"):
        m.backward(np.ones((3, 4)))
    m.forward(np.zeros((3, 8, 2)), train=False)
    with pytest.raises(StateError):
        m.backward(np.ones((3, 4)))


def test_backward_cache_is_consumed():
    m = tiny_model()
    m.forward(np.ones((2, 8, 2)), train=True)
    m.backward(np.ones((2, 4)))
    with pytest.raises(StateError):
        m.backward(np.ones((2, 4)))


def test_a_training_forward_that_fails_part_way_leaves_nothing_pending():
    # batchnorm, the middle node, rejects a one-row training batch
    b = GraphBuilder()
    h = b.add("conv", Conv1D(3, 3), b.input("x", (8, 2)))
    h = b.add("bn", BatchNorm1D(), h)
    b.add("head", Dense(2), b.add("flat", Flatten(), h))
    m = b.build()
    m.forward(np.ones((2, 8, 2)), train=True)
    with pytest.raises(DegenerateBatchError):
        m.forward(np.ones((1, 8, 2)), train=True)
    with pytest.raises(StateError, match="training-mode forward"):
        m.backward(np.ones((2, 2)))


def _example_model():
    return build_model("ExampleModel", (100, 1), top=make_top("forecast", horizon=10, features=1))


def _lstm_model():
    b = GraphBuilder()
    b.add("lstm", LSTM(5), b.input("x", (1, 3)))
    return b.build(seed=1)


def test_backward_differentiates_the_latest_training_forward():
    rng = np.random.default_rng(0)
    x1, x2 = rng.normal(size=(3, 100, 1)), rng.normal(size=(2, 100, 1))
    g = rng.normal(size=(2, 10, 1))
    m, fresh = _example_model(), _example_model()
    m.forward(x1, train=True)
    out = m.forward(x2, train=True).array
    grads = m.backward(g)
    want_out = fresh.forward(x2, train=True).array
    want = fresh.backward(g)
    np.testing.assert_array_equal(out, want_out)
    assert grads.keys() == want.keys()
    for name in want:
        np.testing.assert_array_equal(grads[name], want[name])
    np.testing.assert_array_equal(m.last_input_grads["x"], fresh.last_input_grads["x"])


@pytest.mark.parametrize("model,shape", [(_example_model, (4, 100, 1)), (_lstm_model, (1, 1, 3))])
def test_a_training_step_keeps_nothing_the_next_one_overwrites(model, shape):
    m = model()
    rng = np.random.default_rng(2)

    def step():
        out = m.forward(rng.normal(size=shape), train=True).array
        grads = m.backward(rng.normal(size=out.shape))
        return [out, *grads.values(), *m.last_input_grads.values()]

    first = step()
    kept = [a.copy() for a in first]
    second = step()
    for a, want in zip(first, kept):
        np.testing.assert_array_equal(a, want)
        assert not any(np.shares_memory(a, b) for b in second)


def test_the_training_workspace_persists_per_node_and_inside_subgraphs():
    b = GraphBuilder()
    h = b.add("conv", Conv1D(4, 3), b.input("x", (12, 2)))
    b.add("bi", Bidirectional(LSTM(3)), h)
    m = b.build()
    x = np.random.default_rng(0).normal(size=(5, 12, 2))
    m.forward(x, train=True)
    cols, stack = m._workspace["conv"]["cols"], m._workspace["bi"]["bwd"]["stack"]
    m.backward(np.ones((5, 6)))
    m.forward(x[:1], train=False)  # inference leaves the workspace alone
    m.forward(x, train=True)
    assert m._workspace["conv"]["cols"] is cols
    assert m._workspace["bi"]["bwd"]["stack"] is stack
    m.forward(x[:4], train=True)  # another batch size: new arrays, one shape per key
    assert m._workspace["bi"]["bwd"]["stack"].shape[2] == 4


@pytest.mark.parametrize("grad_shape", [(1, 10, 1), (3, 10), (3, 10, 2)])
def test_backward_rejects_a_gradient_of_the_wrong_shape(grad_shape):
    top = make_top("forecast", horizon=10, features=1)
    m = build_model("ExampleModel", (100, 1), top=top)
    m.forward(np.ones((3, 100, 1)), train=True)
    with pytest.raises(ShapeError, match=r"\(3, 10, 1\).*" + re.escape(str(grad_shape))):
        m.backward(np.ones(grad_shape))
    grads = m.backward(np.ones((3, 10, 1)))  # the pending forward is kept
    assert set(grads) == set(m.parameters())


def test_gradient_keys_cover_every_parameter():
    m = tiny_model()
    m.forward(np.ones((2, 8, 2)), train=True)
    grads = m.backward(np.ones((2, 4)))
    params = m.parameters()
    assert set(grads) == set(params)
    for k, g in grads.items():
        assert g.shape == params[k].shape


def test_fanout_gradient_is_sum_of_paths():
    # x feeds two linear branches that are added: d(out)/d(x) = 1 + 1.
    b = GraphBuilder()
    x = b.input("x", (5, 1))
    p = b.add("left", ActivationLayer("linear"), x)
    q = b.add("right", ActivationLayer("linear"), x)
    b.add("sum", Add(2), [p, q])
    m = b.build(output="sum")
    xs = np.random.default_rng(3).normal(size=(2, 5, 1))
    m.forward(xs, train=True)
    g = np.random.default_rng(4).normal(size=(2, 5, 1))
    m.backward(g)
    np.testing.assert_allclose(m.last_input_grads["x"], 2.0 * g, rtol=0, atol=0)


def test_off_path_node_gets_zero_gradients():
    # "side" does not reach the output; its params must get zero grads and
    # it must not contribute to the input gradient.
    b = GraphBuilder()
    x = b.input("x", (6, 1))
    b.add("side", Dense(3), b.add("sideflat", Flatten(), x))
    keep = b.add("keep", ActivationLayer("linear"), x)
    m = b.build(output=keep)
    xs = np.ones((2, 6, 1))
    m.forward(xs, train=True)
    grads = m.backward(np.ones((2, 6, 1)))
    assert np.all(grads["side/w"] == 0) and np.all(grads["side/b"] == 0)
    np.testing.assert_array_equal(m.last_input_grads["x"], np.ones((2, 6, 1)))


def test_multi_input_model_and_input_grads():
    b = GraphBuilder()
    p = b.input("p", (4, 1))
    q = b.input("q", (4, 1))
    b.add("cat", Concat(2), [p, q])
    m = b.build(output="cat")
    xs = {"p": np.ones((2, 4, 1)), "q": np.zeros((2, 4, 1))}
    out = m.forward(xs, train=True)
    assert out.shape == (2, 4, 2)
    g = np.zeros((2, 4, 2))
    g[:, :, 0] = 1.0
    m.backward(g)
    assert np.all(m.last_input_grads["p"] == 1.0)
    assert np.all(m.last_input_grads["q"] == 0.0)


def test_same_seed_same_weights_different_seed_differs():
    a, b, c = tiny_model(seed=7), tiny_model(seed=7), tiny_model(seed=8)
    for k, v in a.parameters().items():
        np.testing.assert_array_equal(v, b.parameters()[k])
    assert any(
        not np.array_equal(v, c.parameters()[k]) for k, v in a.parameters().items()
    )


def test_introspection_counts():
    m = tiny_model()
    assert m.kind_counts() == {"conv1d": 1, "pool1d": 1, "flatten": 1, "dense": 1}
    want = 3 * 2 * 3 + 3 + 9 * 4 + 4  # conv w+b, dense w+b
    assert m.param_count() == want


# A forward drops each value after its last reader and Conv1D/Dense activate
# in place.  These pin that no node reads a dropped or overwritten value.


def on_copies(m, x, train):
    """Every node's value, each layer run alone on copies of its inputs."""
    vals = {"x": x.copy()}
    for name, spec in m.nodes.items():
        ins = [vals[i].copy() for i in spec.inputs]
        vals[name] = spec.layer.forward(ins if spec.layer.n_inputs > 1 else ins[0],
                                        train, {} if train else None)
    return vals


def fanout_model():
    # The input, a Conv1D output and a Dense output each feed two nodes; the
    # first reader of each is an activation that must not write into it.
    b = GraphBuilder()
    x = b.input("x", (8, 2))
    b.add("x_tanh", ActivationLayer("tanh"), x)
    b.add("conv", Conv1D(3, 3, activation="relu"), x)
    b.add("conv_sig", ActivationLayer("sigmoid"), "conv")
    b.add("conv2", Conv1D(2, 1, activation="tanh"), "conv")
    b.add("cat", Concat(2), ["conv_sig", "conv2"])
    b.add("flat", Flatten(), "cat")
    b.add("dense", Dense(4, activation="relu"), "flat")
    b.add("dense_soft", ActivationLayer("softmax"), "dense")
    b.add("dense2", Dense(3, activation="sigmoid"), "dense")
    return b.build(output=b.add("out", Concat(2), ["dense_soft", "dense2"]), seed=4)


@pytest.mark.parametrize("train", [False, True])
def test_fanned_out_values_reach_every_reader_intact(train):
    m = fanout_model()
    for layer in ("conv", "dense"):
        m.nodes[layer].layer.params["b"][...] = 0.3  # keep some relu units live
    x = np.random.default_rng(8).normal(size=(3, 8, 2))
    want = on_copies(m, x, train)["out"]
    np.testing.assert_array_equal(m.forward(x, train=train).array, want)


@pytest.mark.parametrize("train", [False, True])
def test_output_read_by_later_nodes_is_returned_intact(train):
    b = GraphBuilder()
    x = b.input("x", (6,))
    b.add("mid", Dense(4, activation="tanh"), x)
    b.add("after", ActivationLayer("sigmoid"), "mid")
    b.add("last", Dense(2), "after")
    m = b.build(output="mid", seed=2)
    xs = np.random.default_rng(9).normal(size=(3, 6))
    want = on_copies(m, xs, train)["mid"]
    np.testing.assert_array_equal(m.forward(xs, train=train).array, want)


@pytest.mark.parametrize("train", [False, True])
def test_node_reading_one_value_twice(train):
    b = GraphBuilder()
    x = b.input("x", (8, 2))
    b.add("conv", Conv1D(3, 3, activation="sigmoid"), x)
    m = b.build(output=b.add("twice", Add(2), ["conv", "conv"]), seed=1)
    xs = np.random.default_rng(10).normal(size=(2, 8, 2))
    want = on_copies(m, xs, train)["twice"]
    out = m.forward(xs, train=train).array
    np.testing.assert_array_equal(out, want)
    if train:
        grads = m.backward(np.ones_like(out))
        a = out / 2.0
        np.testing.assert_allclose(grads["conv/b"], 2.0 * (a * (1.0 - a)).sum(axis=(0, 1)))


@pytest.mark.parametrize("train", [False, True])
def test_caller_arrays_are_never_modified(train):
    m = fanout_model()
    x = np.random.default_rng(11).normal(size=(5, 8, 2))
    keep = x.copy()
    m.forward(x, train=train)
    if not train:
        predict(m, x, batch_size=2)
    np.testing.assert_array_equal(x, keep)


@functools.lru_cache(maxsize=None)
def classifier(name):
    t = max(minimum_input_length(name), 32)
    return build_model(name, (t, 1), top=make_top("classify", classes=3))


@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(["ExampleModel", "ZhangJin", "YiboGao"]),
       rows=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       seed=st.integers(0, 2**32 - 1))
def test_eval_forward_is_reentrant(name, rows, seed):
    # No call leaves state behind: repeating a batch after another gives the
    # same bits, an earlier result is not overwritten, and inputs stay intact.
    m = classifier(name)  # ExampleModel, ZhangJin (ST attention, BiGRU), YiboGao (RTA)
    rng = np.random.default_rng(seed)
    xs = [{k: rng.normal(size=(n, *s)) for k, s in m.input_shapes.items()} for n in rows]
    keep = [{k: v.copy() for k, v in x.items()} for x in xs]
    first = [m.forward(x).array for x in xs]
    saved = [a.copy() for a in first]
    for x, a, want in zip(xs, first, saved):
        np.testing.assert_array_equal(m.forward(x).array, want)
        np.testing.assert_array_equal(a, want)
    for x, k in zip(xs, keep):
        for key in x:
            np.testing.assert_array_equal(x[key], k[key])


# ----------------------------------------------------------------- weights IO


def bn_model(seed=0):
    b = GraphBuilder()
    x = b.input("x", (6, 2))
    n = b.add("norm", BatchNorm1D(), x)
    f = b.add("flat", Flatten(), n)
    b.add("head", Dense(3), f)
    return b.build(seed=seed)


def test_state_lists_parameters_before_buffers():
    m = bn_model()
    names = list(m.state())
    p = set(m.parameters())
    first_buffer = names.index("norm/running_mean")
    assert all(n in p for n in names[:first_buffer])
    assert names[first_buffer:] == ["norm/running_mean", "norm/running_var"]


def test_save_load_roundtrip_bit_identical():
    rng = np.random.default_rng(0)
    m = bn_model(seed=1)
    # train a little so buffers and params move off init
    for _ in range(3):
        m.forward(rng.normal(size=(4, 6, 2)), train=True)
        for k, g in m.backward(rng.normal(size=(4, 3))).items():
            m.parameters()[k] -= 0.01 * g
    buf = io.BytesIO()
    m.save_weights(buf)
    blob = buf.getvalue()

    other = bn_model(seed=99)
    other.load_weights(io.BytesIO(blob))
    for k, v in m.state().items():
        np.testing.assert_array_equal(v, other.state()[k])
    # outputs agree bit for bit, and a re-save reproduces the same bytes
    x = rng.normal(size=(3, 6, 2))
    np.testing.assert_array_equal(
        np.asarray(m.forward(x).array), np.asarray(other.forward(x).array)
    )
    buf2 = io.BytesIO()
    other.save_weights(buf2)
    assert buf2.getvalue() == blob


def test_save_snaps_live_values_to_float32_grid():
    m = bn_model()
    w = m.parameters()["head/w"]
    w[0, 0] = 0.1  # not representable in float32
    m.save_weights(io.BytesIO())
    assert w[0, 0] == np.float64(np.float32(0.1))


def test_load_rejects_manifest_mismatch():
    m = tiny_model()
    buf = io.BytesIO()
    m.save_weights(buf)
    with pytest.raises(FormatError, match="manifest mismatch at entry 0"):
        bn_model().load_weights(io.BytesIO(buf.getvalue()))


def test_load_rejects_missing_and_extra_entries():
    m = bn_model()
    state = m.state()
    names = list(state)

    from deepseries.container import write_records
    from deepseries.graph import WEIGHTS_MAGIC

    short = io.BytesIO()
    write_records(WEIGHTS_MAGIC, {k: state[k] for k in names[:-1]}, short)
    with pytest.raises(FormatError, match="missing parameter 'norm/running_var'"):
        m.load_weights(io.BytesIO(short.getvalue()))

    extra = dict(state)
    extra["ghost/w"] = np.zeros(2)
    long = io.BytesIO()
    write_records(WEIGHTS_MAGIC, extra, long)
    with pytest.raises(FormatError, match="extra parameter 'ghost/w'"):
        m.load_weights(io.BytesIO(long.getvalue()))


def test_load_rejects_shape_mismatch():
    from deepseries.container import write_records
    from deepseries.graph import WEIGHTS_MAGIC

    m = bn_model()
    state = m.state()
    state["norm/gain"] = np.zeros(5)
    buf = io.BytesIO()
    write_records(WEIGHTS_MAGIC, state, buf)
    with pytest.raises(FormatError, match="shape mismatch for 'norm/gain'"):
        m.load_weights(io.BytesIO(buf.getvalue()))


def test_corrupt_byte_fails_checksum():
    m = tiny_model()
    buf = io.BytesIO()
    m.save_weights(buf)
    blob = bytearray(buf.getvalue())
    blob[len(blob) // 2] ^= 0xFF
    with pytest.raises(FormatError, match="checksum mismatch"):
        m.load_weights(io.BytesIO(bytes(blob)))


def test_bad_magic_and_truncation_rejected():
    m = tiny_model()
    buf = io.BytesIO()
    m.save_weights(buf)
    blob = buf.getvalue()
    with pytest.raises(FormatError, match="bad magic"):
        m.load_weights(io.BytesIO(b"???????" + blob[7:]))
    with pytest.raises(FormatError, match="truncated"):
        m.load_weights(io.BytesIO(blob[:5]))


def _with_checksum(body: bytes) -> io.BytesIO:
    return io.BytesIO(body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF))


@pytest.mark.parametrize("cut", [4, 1, 17])
def test_a_record_cut_short_under_a_valid_checksum_reads_as_truncated(cut):
    # the damage property test below always trips the checksum first
    buf = io.BytesIO()
    tiny_model().save_weights(buf)
    body = buf.getvalue()[:-4]
    with pytest.raises(FormatError, match="^file truncated: "):
        read_records(WEIGHTS_MAGIC, _with_checksum(body[:-cut]))


def test_trailing_bytes_under_a_valid_checksum_are_rejected():
    buf = io.BytesIO()
    tiny_model().save_weights(buf)
    body = buf.getvalue()[:-4]
    with pytest.raises(FormatError, match="^trailing bytes after the last record$"):
        read_records(WEIGHTS_MAGIC, _with_checksum(body + b"\0"))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flipped_bits_and_truncations_raise_only_format_error(data):
    # a file damaged on disk must read as a format problem (CLI exit 5),
    # never as a struct, Unicode or numpy error from the bytes after it
    m = tiny_model(seed=3)
    buf = io.BytesIO()
    m.save_weights(buf)
    blob = buf.getvalue()
    if data.draw(st.booleans(), label="truncate"):
        bad = blob[: data.draw(st.integers(0, len(blob) - 1), label="length")]
    else:
        bits = data.draw(st.lists(st.integers(0, 8 * len(blob) - 1), min_size=1,
                                  max_size=3, unique=True), label="bits")
        bad = bytearray(blob)
        for bit in bits:
            bad[bit // 8] ^= 1 << (bit % 8)
    before = {k: v.copy() for k, v in m.state().items()}
    with pytest.raises(FormatError):
        m.load_weights(io.BytesIO(bytes(bad)))
    for k, v in m.state().items():
        np.testing.assert_array_equal(v, before[k])


def test_load_rejects_non_finite_values_and_leaves_the_model_unchanged():
    from deepseries.container import write_records
    from deepseries.graph import WEIGHTS_MAGIC

    source = bn_model(seed=1)
    m = bn_model(seed=2)
    before = {k: v.copy() for k, v in m.state().items()}
    for bad in (np.nan, np.inf, -np.inf):
        state = {k: v.copy() for k, v in source.state().items()}
        state["norm/running_var"][1] = bad  # the last entry, after every other check
        buf = io.BytesIO()
        write_records(WEIGHTS_MAGIC, state, buf)
        with pytest.raises(FormatError, match="'norm/running_var' holds a non-finite value"):
            m.load_weights(io.BytesIO(buf.getvalue()))
        for k, v in m.state().items():
            np.testing.assert_array_equal(v, before[k])


def test_weights_file_path_roundtrip(tmp_path):
    m = tiny_model(seed=3)
    path = str(tmp_path / "weights.dsw")
    m.save_weights(path)
    fresh = tiny_model(seed=11)
    fresh.load_weights(path)
    for k, v in m.state().items():
        np.testing.assert_array_equal(v, fresh.state()[k])
