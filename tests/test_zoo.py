"""Architecture catalogue: contracts, family table, heads, autoencoder pair."""

import hashlib
import io

import numpy as np
import pytest

from deepseries import zoo
from deepseries.errors import ParameterError, RegistryError, ShapeError
from deepseries.layers import Dense
from deepseries.zoo import (
    build_autoencoder_pair,
    build_model,
    describe,
    family_counts,
    family_presence,
    get_descriptor,
    make_top,
    minimum_input_length,
)
from conftest import fd_gradcheck
from test_gradients import TOL

PAPER_NAMES = [
    "CaiWenjuan", "ChenChen", "FuJiangmeng", "GaoJunli", "GenMinxing",
    "HongTan", "HtetMyetLynn", "HuangMeiLing", "KhanZulfiqar", "KimTaeYoung",
    "KongZhengmin", "LihOhShu", "OhShuLih", "ShiHaotian", "WangKejun",
    "WeiXiaoyan", "YaoQihang", "YiboGao", "YildirimOzal", "ZhangJin",
    "ZhengZhenyu",
]

# Published capability table: (cnn, lstm, gru, bilstm, bigru) per entry.
FAMILY_TABLE = {
    "CaiWenjuan":   (True, False, False, False, False),
    "ChenChen":     (True, True, False, False, False),
    "FuJiangmeng":  (True, True, False, False, False),
    "GaoJunli":     (False, True, False, False, False),
    "GenMinxing":   (False, False, False, True, False),
    "HongTan":      (True, True, False, False, False),
    "HtetMyetLynn": (True, False, False, True, True),
    "HuangMeiLing": (True, False, False, False, False),
    "KhanZulfiqar": (True, False, True, False, False),
    "KimTaeYoung":  (True, True, False, False, False),
    "KongZhengmin": (True, True, False, False, False),
    "LihOhShu":     (True, True, False, False, False),
    "OhShuLih":     (True, True, False, False, False),
    "ShiHaotian":   (True, True, False, False, False),
    "WangKejun":    (True, True, False, False, False),
    "WeiXiaoyan":   (True, True, False, False, False),
    "YaoQihang":    (True, True, False, False, False),
    "YiboGao":      (True, False, False, False, False),
    "YildirimOzal": (True, True, False, False, False),
    "ZhangJin":     (True, False, False, False, True),
    "ZhengZhenyu":  (True, True, False, False, False),
}

MIN_LENGTHS = {
    "CaiWenjuan": 1, "ChenChen": 190, "FuJiangmeng": 4, "GaoJunli": 1,
    "GenMinxing": 1, "HongTan": 10, "HtetMyetLynn": 9, "HuangMeiLing": 10,
    "KhanZulfiqar": 5, "KimTaeYoung": 8, "KongZhengmin": 4, "LihOhShu": 96,
    "OhShuLih": 1, "ShiHaotian": 4, "WangKejun": 5, "WeiXiaoyan": 94,
    "YaoQihang": 214, "YiboGao": 2, "YildirimOzal": 4, "ZhangJin": 10,
    "ZhengZhenyu": 36, "ExampleModel": 10,
}

# SHA-256 of each entry's ordered ``name shape`` state lines at (256, 1), seed 0:
# the .dsw manifest (names, order, shapes) that saved weights are checked against.
MANIFEST_SHA256 = {
    "CaiWenjuan": "7790c45897b804a409550f2150305e5f067a1a850c4407029b670286fd3b8a2d",
    "ChenChen": "76b2baa925f69e755c8388583a53f9e581599173c5b89c4f78b024ee08982e63",
    "FuJiangmeng": "185681af0e964310c831731a1d30428b34584a57dc361f9c768c088bf5797822",
    "GaoJunli": "471238db9bf540d32009b34d0c5aa92e56288aa7e5971e07e2abb939f5ed7ef8",
    "GenMinxing": "5cf17c04ce9c3fd0121563fb33413caf65f5cd955cb4bf567df8dea64562617b",
    "HongTan": "9381d7bf44e0c96f5dabc62326259c12734f926933bc1882d47b34f8f9a52b33",
    "HtetMyetLynn": "fbf5870f6e5b4fdbdb2bc799dbae7bb803f62285318fd4fe00698558fe4765e0",
    "HuangMeiLing": "8de3826deac6fb58dadb1ec0cd78ca98c0780946567117e21a8db8c61e93c61f",
    "KhanZulfiqar": "a0de08fcb826bc935fa95e86e1631040886209c88a52e9c857c5bbcdf840d1f2",
    "KimTaeYoung": "881ac8a4fadb872c6c9d60bb83288c544b8d90da4f03beb92d5be6b965941a21",
    "KongZhengmin": "af0fbcb61896d91a4d9916efd9a9ef64063a0067fa895e4a5e45d50e26f05ccd",
    "LihOhShu": "2eb9b5e5e8f3d3600fc84d82c035fd9b71e9fa298d3694f35fcf4e40a04381c8",
    "OhShuLih": "1bd685f6826952c7bd94c12e34de762ac40a0d9504d98e0b0ba07638b761c244",
    "ShiHaotian": "a5112f8c55c04d93ba4f67951799b5cfbb2a97c3c6ff08391ff3fb1538ea7afd",
    "WangKejun": "1be8d887b97300e57eb04c8bc3a59f3744574b87e4a7659e0d9efcbb6d0da877",
    "WeiXiaoyan": "c569eb9ef1cf0c3a9487af1124ae37698e064bdb8e1a413ff36da161b11d9154",
    "YaoQihang": "9187651a601fec9ac823f4b685a3271a854f7d114112ed3f6e0eadb511a4c412",
    "YiboGao": "2751dfb84f54ce0c5e2945b58b39d7b7f362a46d97c9f207505385f68071ca89",
    "YildirimOzal": "294f81d7629038bb7df33c631f959b0eeb219b0266b8ab62bf37dd0cb72cc8bf",
    "ZhangJin": "d66e3ecd9413fc5c371dc79f77a9f3df0cccc582977d2ee3585275bf53631dc6",
    "ZhengZhenyu": "6d027b596b12f7c803ef5e617c8a9ff23ba179a0b47944b69f71dbb81f57b577",
    "ExampleModel": "ff324dbf0b06b279bb41621b04d09cc3408575f4c0e24ca1c04aeaf36db367f9",
    # the tanh attention head is off by default, so the zoo pin never builds it
    "YaoQihang attention=True":
        "b7d0a1ad32c04f9e4797e5a077c17bfff664385840f79a30fe210e409c3a7c03",
}


def _manifest_sha256(model) -> str:
    text = "\n".join(f"{k} {v.shape}" for k, v in model.state().items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalogue_contents():
    got = zoo.names()
    assert len(got) == 22
    assert set(got) == set(PAPER_NAMES) | {"ExampleModel"}
    assert len(zoo.list_models()) == 22


@pytest.mark.parametrize("name", zoo.names())
def test_family_contract_matches_built_graph(name):
    model = build_model(name, (256, 1))
    assert family_counts(model) == get_descriptor(name).family_contract


@pytest.mark.parametrize("name", zoo.names())
def test_weights_manifest_pinned(name):
    assert _manifest_sha256(build_model(name, (256, 1))) == MANIFEST_SHA256[name]


def test_attention_head_manifest_pinned():
    model = build_model("YaoQihang", (256, 1), attention=True)
    assert model.kind_counts()["tanh_attention"] == 1
    assert _manifest_sha256(model) == MANIFEST_SHA256["YaoQihang attention=True"]


@pytest.mark.parametrize("name", zoo.names())
def test_whole_model_gradients(name):
    # Backprop through the whole graph, subgraph blocks included, against
    # central differences; dropout is off so repeated passes agree.
    hyper = {"dropout": 0.0} if name == "KhanZulfiqar" else {}
    t = max(minimum_input_length(name), 16)
    model = build_model(name, (t, 1), top=make_top("classify", classes=3, dropout=0.0),
                        **hyper)
    worst = fd_gradcheck(model, model.input_shapes, h=1e-6, batch=2, probes=1)
    assert worst < TOL, f"{name}: worst relative error {worst:.3e}"


@pytest.mark.parametrize("name", PAPER_NAMES)
def test_capability_table(name):
    fams = get_descriptor(name).families
    assert (fams["cnn"], fams["lstm"], fams["gru"], fams["bilstm"],
            fams["bigru"]) == FAMILY_TABLE[name]


@pytest.mark.parametrize("name", zoo.names())
def test_built_presence_consistent_with_capabilities(name):
    # Every family the built default graph realizes must be a published
    # capability; HtetMyetLynn publishes both recurrent flavours but realizes
    # one per build.
    realized = family_presence(build_model(name, (256, 1)))
    declared = get_descriptor(name).families
    for fam, present in realized.items():
        if present:
            assert declared[fam], f"{name} realizes undeclared family {fam}"
    if name != "HtetMyetLynn":
        assert realized == declared


def test_recurrent_flavour_switch():
    gru_flavour = family_presence(build_model("HtetMyetLynn", (64, 1)))
    lstm_flavour = family_presence(
        build_model("HtetMyetLynn", (64, 1), recurrent="lstm")
    )
    assert gru_flavour["bigru"] and not gru_flavour["bilstm"]
    assert lstm_flavour["bilstm"] and not lstm_flavour["bigru"]
    with pytest.raises(ParameterError, match="recurrent"):
        build_model("HtetMyetLynn", (64, 1), recurrent="vanilla")


def test_unknown_architecture_and_hyper():
    with pytest.raises(RegistryError, match="unknown architecture 'NoSuch'"):
        build_model("NoSuch")
    with pytest.raises(RegistryError):
        get_descriptor("NoSuch")
    with pytest.raises(ParameterError, match="no hyperparameter 'banana'"):
        build_model("ExampleModel", (64, 1), banana=3)


def test_hyper_override_types_follow_defaults():
    for bad in ({"units": 2.5}, {"units": True}, {"filters": 16}, {"filters": [16, "x"]},
                {"pool": "2"}):
        with pytest.raises(ParameterError, match="takes a value like its default"):
            build_model("ExampleModel", (64, 1), **bad)
    with pytest.raises(ParameterError, match="'attention'.*got 1"):
        build_model("YaoQihang", (256, 1), attention=1)
    # numpy integers pass as ints, tuples as lists, ints as floats
    assert build_model("ExampleModel", (64, 1), units=np.int64(8)).output_shape == (8,)
    build_model("ExampleModel", (64, 1), filters=(8, 8))
    build_model("KhanZulfiqar", (64, 1), dropout=0)


@pytest.mark.parametrize("build,n", [
    (lambda: build_model("YaoQihang", (256, 1), filters=[16, 16]), 5),
    (lambda: build_model("YaoQihang", (256, 1), filters=[8] * 6), 5),
    (lambda: build_model("KimTaeYoung", (64, 1), filters=[16]), 2),
    (lambda: build_model("KimTaeYoung", (64, 1), filters=[16, 32, 64]), 2),
    (lambda: build_model("YildirimOzal", (64, 1), filters=[16]), 2),
    (lambda: build_autoencoder_pair((64, 1), filters=[16, 32, 64]), 2),
    (lambda: build_model("ShiHaotian", (64, 1), filters=[]), 1),
    (lambda: build_model("ShiHaotian", (64, 1), filters=[16, 32]), 1),
], ids=["yao_short", "yao_long", "kim_short", "kim_long", "yildirim_short",
        "autoencoder_long", "shi_empty", "shi_long"])
def test_positional_filters_need_their_length(build, n):
    # These builders read filters by position, so any other length is an error.
    with pytest.raises(ParameterError, match=f"filters must list {n} values"):
        build()


def test_bad_input_shape():
    with pytest.raises(ShapeError, match=r"\[time, channels\]"):
        build_model("ExampleModel", (64,))
    with pytest.raises(ShapeError):
        build_model("ExampleModel", (0, 1))


@pytest.mark.parametrize("name", zoo.names())
def test_minimum_input_length_pinned(name):
    assert minimum_input_length(name) == MIN_LENGTHS[name]


def test_too_short_error_reports_threshold():
    with pytest.raises(ShapeError, match="ChenChen needs time >= 190"):
        build_model("ChenChen", (100, 1))
    # at exactly the threshold the build goes through
    assert build_model("ChenChen", (190, 1)).output_shape == (64,)


def test_multi_input_entry():
    m = build_model("ShiHaotian", (64, 1))
    assert m.input_names == ["x1", "x2", "x3"]
    assert get_descriptor("ShiHaotian").multi_input == 3
    rng = np.random.default_rng(0)
    xs = {k: rng.normal(size=(2, 64, 1)) for k in m.input_names}
    out = m.forward(xs, train=True)
    assert out.shape == (2, 64)
    grads = m.backward(np.ones((2, 64)))
    assert set(grads) == set(m.parameters())
    assert all(np.isfinite(g).all() for g in grads.values())


def test_embedding_output_without_head():
    m = build_model("ExampleModel", (64, 1))
    assert m.output_shape == (20,)


def test_same_seed_reproduces_weights():
    a = build_model("ExampleModel", (64, 1), seed=5)
    b = build_model("ExampleModel", (64, 1), seed=5)
    for k, v in a.parameters().items():
        np.testing.assert_array_equal(v, b.parameters()[k])


def test_describe_report():
    d = describe("ZhangJin", (128, 1))
    assert d["name"] == "ZhangJin"
    assert d["multi_input"] == 1
    assert d["families"]["attention"] == 2
    assert d["presence"]["bigru"] is True
    assert d["param_count"] > 0
    assert d["output_shape"] == (128,)  # bidirectional doubles the units
    assert "summary" in d and "citation" in d and "default_hyper" in d


# ------------------------------------------------------------------- heads


def test_forecast_head_shape():
    top = make_top("forecast", horizon=10, features=1)
    m = build_model("ExampleModel", (100, 1), top=top)
    assert m.output_shape == (10, 1)
    out = m.forward(np.random.default_rng(0).normal(size=(3, 100, 1)))
    assert out.shape == (3, 10, 1)


def test_classify_head_shape_and_softmax():
    top = make_top("classify", classes=5)
    m = build_model("ExampleModel", (100, 1), top=top)
    assert m.output_shape == (5,)
    out = np.asarray(m.forward(np.random.default_rng(0).normal(size=(4, 100, 1))).array)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out > 0).all()


@pytest.mark.parametrize("kind,head", [("forecast", {"horizon": 10, "features": 2}),
                                       ("classify", {"classes": 3})])
@pytest.mark.parametrize("name", zoo.names())
def test_zero_row_forward_keeps_output_shape(name, kind, head):
    m = build_model(name, (256, 2), top=make_top(kind, **head))
    x = np.zeros((0, 256, 2))
    out = m.forward(x if len(m.input_names) == 1 else {k: x for k in m.input_names})
    assert out.shape == (0, *m.output_shape)


def test_anomaly_head_shape():
    top = make_top("anomaly", steps=4, features=2)
    m = build_model("ExampleModel", (96, 2), top=top)
    assert m.output_shape == (4, 2)


def test_custom_head():
    top = make_top("custom", layers=(("probe", lambda: Dense(7)),))
    m = build_model("ExampleModel", (64, 1), top=top)
    assert m.output_shape == (7,)
    assert "top_probe" in m.order


def test_head_parameter_validation():
    with pytest.raises(ParameterError):
        make_top("forecast", horizon=0, features=1)
    with pytest.raises(ParameterError):
        make_top("classify", classes=1)
    with pytest.raises(ParameterError):
        make_top("anomaly", steps=4, features=0)
    with pytest.raises(ParameterError):
        make_top("custom")
    with pytest.raises(ParameterError, match="unknown head kind"):
        make_top("segment")


def test_head_instantiate_gives_fresh_layers():
    top = make_top("classify", classes=3)
    a = dict(top.instantiate())
    b = dict(top.instantiate())
    assert all(a[k] is not b[k] for k in a)


# ------------------------------------------------------- autoencoder pair


def test_autoencoder_pair_shares_encoder():
    pair = build_autoencoder_pair((64, 1), top=make_top("classify", classes=3))
    assert pair.encoder_params == (
        "enc_conv1/w", "enc_conv1/b", "enc_conv2/w", "enc_conv2/b"
    )
    for node in ("enc_conv1", "enc_conv2", "enc_pool1", "enc_pool2"):
        assert pair.autoencoder.nodes[node].layer is pair.classifier.nodes[node].layer
    assert pair.autoencoder.output_shape == (64, 1)
    assert pair.classifier.output_shape == (3,)


def test_autoencoder_training_moves_classifier_encoder():
    pair = build_autoencoder_pair((64, 1))
    before = {
        k: pair.classifier.parameters()[k].copy() for k in pair.encoder_params
    }
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 64, 1))
    pair.autoencoder.forward(x, train=True)
    grads = pair.autoencoder.backward(
        np.asarray(pair.autoencoder.forward(x, train=True).array) - x
    )
    params = pair.autoencoder.parameters()
    for k, g in grads.items():
        params[k] -= 0.05 * g
    after = pair.classifier.parameters()
    assert any(not np.array_equal(before[k], after[k]) for k in pair.encoder_params)


def test_autoencoder_needs_divisible_time():
    with pytest.raises(ShapeError, match="divisible by 4"):
        build_autoencoder_pair((65, 1))


def test_autoencoder_hyper_override():
    pair = build_autoencoder_pair((48, 1), filters=[8, 12], units=10)
    assert pair.classifier.output_shape == (10,)
    assert pair.autoencoder.parameters()["enc_conv1/w"].shape == (3, 1, 8)
