"""Architecture catalogue: contracts, family table, heads, autoencoder pair."""

import hashlib
import io

import numpy as np
import pytest

from deepseries import zoo
from deepseries.errors import ParameterError, RegistryError, ShapeError
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


# SHA-256 of each entry's ordered ``name kind inputs`` node lines at (256, 1):
# the wiring (node order, layer kinds, edges) that the manifest does not see.
NODES_SHA256 = {
    "CaiWenjuan": "90512de86d630f86b069162673ec895617dcce3681ee0be106117da3ab073548",
    "ChenChen": "8ee7b0af09b26b43108448b33c1f7393abb3fb767236304223662049ff1301eb",
    "FuJiangmeng": "59b3daf721780e39e4529c859d1d408ad16dd6648893e29f337b18068c6c87cd",
    "GaoJunli": "c25d1e5d402e375c7ba46bec392b14e4bd9f8570863d06c93c318b2bd80d6302",
    "GenMinxing": "3cb8da016ab098e0efea0ab972a0304c0e1663bb85e0c9902d69f52ec71a735a",
    "HongTan": "fa6d2a3a038c30fc08871075c9de8db9b713156e1252d75c081031cf4297575d",
    "HtetMyetLynn": "c3c9ccb9877f69fe33f76518e8de6aed7442962fd6b473d79ccaa12b06875f76",
    "HuangMeiLing": "d4e08ed2e80686b8f5ec6bf9e8746e811c0bd2c5fe622013267668434c484bea",
    "KhanZulfiqar": "cba76f6169e5305f75fa47115adc71bd2f4535c15d8af4091a9d5589dd561076",
    "KimTaeYoung": "90b0c3a93839cea2a597032e6f79eaa4aed482e3755b01a222678b9173b5c7f9",
    "KongZhengmin": "cc971c6234110722b3895004dfb6df3b5d90897bfc27a3d063212d90cab1cb52",
    "LihOhShu": "6a440bc772ec1bcc22595fd0d00a0263179508034271232f504e1e96c8220b91",
    "OhShuLih": "a02c95196cc713ccced0ca6c02edec56cdf4e9bb6f82c9b8a849a68e6268f9a6",
    "ShiHaotian": "9e181f58ff45681c907bcf2f0495763287e055ed83068d48a2e446368949875e",
    "WangKejun": "6bc868f8454ffd3266995ea4193034e1553d75d7770335ca07f2d883abc121b1",
    "WeiXiaoyan": "60b0165ddf9ca1e42669abd3dab9a31ffb04d071c3f179ec903a7a59fc8867f9",
    "YaoQihang": "d8a6509af72ebd9d3af54163f6361bd16dd3423d218fbceca16c66614428fe8c",
    "YiboGao": "6946ba001d683cb846848390b278cb4759137da12835325befcdd6f39dd975d0",
    "YildirimOzal": "b06bffc8a16b426a0093f76ee6dc5aa64f29d9f65972cc855349489149ffead6",
    "ZhangJin": "9788f3d930286cd77969933ed84e73b0758d1b77367ea989db86e9564df4e237",
    "ZhengZhenyu": "edcb3771e2f9be0ff97a9100103a2e1ec3a29ffc5b47514b836f9f813ce4d537",
    "ExampleModel": "96750a772d116889d24aa40652f32abf8337b6f5a51909ffb9eafe80b9dd8618",
    "YaoQihang attention=True":
        "c9fa0dc2558835374a5b193dde7fb1b25519be17bc59b7dec51b0af451f1cbe2",
    # build_autoencoder_pair((256, 1)); its classifier is the YildirimOzal entry
    "autoencoder": "6c0d6ec3e29a75ffc764e568fd8f6302a49f58413e1e5008bb584bd915a42a9b",
}


def _manifest_sha256(model) -> str:
    text = "\n".join(f"{k} {v.shape}" for k, v in model.state().items())
    return hashlib.sha256(text.encode()).hexdigest()


def _nodes_sha256(model) -> str:
    text = "\n".join(f"{name} {spec.layer.kind} {','.join(spec.inputs)}"
                     for name, spec in model.nodes.items())
    return hashlib.sha256(text.encode()).hexdigest()


def test_catalogue_contents():
    got = zoo.names()
    assert len(got) == 22
    assert set(got) == set(PAPER_NAMES) | {"ExampleModel"}
    assert len(zoo.list_models()) == 22


@pytest.mark.parametrize("name", zoo.names())
def test_weights_manifest_pinned(name):
    assert _manifest_sha256(build_model(name, (256, 1))) == MANIFEST_SHA256[name]


def test_attention_head_manifest_pinned():
    model = build_model("YaoQihang", (256, 1), attention=True)
    assert model.kind_counts()["tanh_attention"] == 1
    assert _manifest_sha256(model) == MANIFEST_SHA256["YaoQihang attention=True"]


@pytest.mark.parametrize("name", zoo.names())
def test_node_list_pinned(name):
    assert _nodes_sha256(build_model(name, (256, 1))) == NODES_SHA256[name]


def test_attention_head_node_list_pinned():
    model = build_model("YaoQihang", (256, 1), attention=True)
    assert _nodes_sha256(model) == NODES_SHA256["YaoQihang attention=True"]


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
    # The published row is what the built graph realizes; HtetMyetLynn
    # publishes both of its recurrent flavours and builds one at a time.
    fams = family_presence(build_model(name, (256, 1)))
    if name == "HtetMyetLynn":
        lstm = family_presence(build_model(name, (256, 1), recurrent="lstm"))
        fams = {fam: present or lstm[fam] for fam, present in fams.items()}
    assert tuple(fams[f] for f in ("cnn", "lstm", "gru", "bilstm", "bigru")) == FAMILY_TABLE[name]


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
    for bad in ({"units": 2.5}, {"units": True}, {"filters": 16.0}, {"filters": [16, "x"]},
                {"pool": "2"}):
        with pytest.raises(ParameterError, match="takes a value like its default"):
            build_model("ExampleModel", (64, 1), **bad)
    with pytest.raises(ParameterError, match="'attention'.*got 1"):
        build_model("YaoQihang", (256, 1), attention=1)
    # numpy integers pass as ints, tuples as lists, ints as floats, each
    # converted to the default's type; a scalar for a list is a one-value list
    assert build_model("ExampleModel", (64, 1), units=np.int64(8)).output_shape == (8,)
    filters = build_model("ExampleModel", (64, 1), filters=(8, np.int64(8))).hyper["filters"]
    assert filters == [8, 8] and all(type(f) is int for f in filters)
    assert type(build_model("KhanZulfiqar", (64, 1), dropout=0).hyper["dropout"]) is float
    assert build_model("FuJiangmeng", (64, 1), filters=32).hyper["filters"] == [32]


@pytest.mark.parametrize("build,n", [
    (lambda: build_model("YaoQihang", (256, 1), filters=[16, 16]), 5),
    (lambda: build_model("YaoQihang", (256, 1), filters=[8] * 6), 5),
    (lambda: build_model("YildirimOzal", (64, 1), filters=[16]), 2),
    (lambda: build_autoencoder_pair((64, 1), filters=[16, 32, 64]), 2),
    (lambda: build_model("ShiHaotian", (64, 1), filters=[]), 1),
    (lambda: build_model("ShiHaotian", (64, 1), filters=[16, 32]), 1),
], ids=["yao_short", "yao_long", "yildirim_short",
        "autoencoder_long", "shi_empty", "shi_long"])
def test_positional_filters_need_their_length(build, n):
    # These builders read filters by position, so any other length is an error.
    with pytest.raises(ParameterError, match=f"filters must list {n} values"):
        build()


def test_pooled_between_takes_any_filter_count():
    model = build_model("KimTaeYoung", (64, 1), filters=[8, 8, 8])
    assert model.order == ["conv1", "pool1", "conv2", "pool2", "conv3", "lstm"]


def test_counts_may_be_zero_but_not_negative():
    assert family_counts(build_model("CaiWenjuan", (64, 1), blocks=0))["se_block"] == 0
    with pytest.raises(ParameterError, match="'pool' must be >= 0"):
        build_autoencoder_pair((64, 1), pool=-2)
    with pytest.raises(ParameterError, match="'filters' must be >= 0"):
        build_model("FuJiangmeng", (64, 1), filters=-1)
    with pytest.raises(ParameterError, match="^setting 'seed' must be >= 0, got -1$"):
        zoo.typed_override("setting", "seed", 0, -1)
    with pytest.raises(ParameterError, match="pool window"):  # not a division by zero
        build_autoencoder_pair((64, 1), pool=0)


def test_one_entry_kernel_is_rejected_at_build():
    # one entry conv leaves nothing to concatenate; this once built and then
    # failed in the first forward with a raw ValueError inside Conv1D
    with pytest.raises(ShapeError, match="^node 'entry_cat': concat takes two or more "
                                         "inputs, got 1$"):
        build_model("CaiWenjuan", (64, 1), entry_kernels=[3])


def test_an_error_no_length_cures_is_raised_after_two_builds(monkeypatch):
    # the failed build, then one probe at the longest length
    builds = []
    assemble = zoo._assemble

    def counted(*args, **kwargs):
        builds.append(args)
        return assemble(*args, **kwargs)

    monkeypatch.setattr(zoo, "_assemble", counted)
    with pytest.raises(ShapeError, match="^node 'entry_cat'"):
        build_model("CaiWenjuan", (1000, 1), entry_kernels=[3])
    assert len(builds) <= 2


def test_bad_input_shape():
    with pytest.raises(ShapeError, match=r"\[time, channels\]"):
        build_model("ExampleModel", (64,))
    with pytest.raises(ShapeError):
        build_model("ExampleModel", (0, 1))
    with pytest.raises(ShapeError, match=r"\[time, channels\]"):
        build_autoencoder_pair((64,))


@pytest.mark.parametrize("name", zoo.names())
def test_minimum_input_length_pinned(name):
    assert minimum_input_length(name) == MIN_LENGTHS[name]


def test_too_short_error_reports_threshold():
    with pytest.raises(ShapeError, match="ChenChen needs time >= 190"):
        build_model("ChenChen", (100, 1))
    # at exactly the threshold the build goes through
    assert build_model("ChenChen", (190, 1)).output_shape == (64,)


def test_registry_rejections_keep_their_own_messages():
    with pytest.raises(ParameterError, match="^KhanZulfiqar hyperparameter 'dropout' "
                                             "is out of range, got 1000"):
        build_model("KhanZulfiqar", (64, 1), dropout=10**400)
    with pytest.raises(ShapeError, match="^ExampleModel accepts no input up to time 65536$"):
        minimum_input_length("ExampleModel", 0)
    # no channels is a malformed shape, so no minimum length is appended
    with pytest.raises(ShapeError,
                       match=r"^input_shape must be \[time, channels\], got \(10, 0\)$"):
        build_model("ExampleModel", (10, 0))


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


def test_head_parameter_validation():
    with pytest.raises(ParameterError):
        make_top("forecast", horizon=0, features=1)
    with pytest.raises(ParameterError):
        make_top("classify", classes=1)
    with pytest.raises(ParameterError):
        make_top("anomaly", steps=4, features=0)
    with pytest.raises(ParameterError, match="unknown head kind"):
        make_top("segment")


def test_head_gives_fresh_layers_on_every_build():
    top = make_top("classify", classes=3)
    a, b = (build_model("ExampleModel", (64, 1), top=top) for _ in range(2))
    heads = [name for name in a.order if name.startswith("top_")]
    assert heads == [f"top_{suffix}" for suffix, _ in top]
    assert all(a.nodes[n].layer is not b.nodes[n].layer for n in heads)


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


def test_autoencoder_pair_node_lists_pinned():
    pair = build_autoencoder_pair((256, 1))
    assert _nodes_sha256(pair.autoencoder) == NODES_SHA256["autoencoder"]
    assert _nodes_sha256(pair.classifier) == NODES_SHA256["YildirimOzal"]


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
