"""Registry of ready-made 1-D time-series architectures and task heads.

Every entry builds an embedding graph (no task head) from a ``[time,
channels]`` input shape; :func:`make_top` describes a forecasting,
classification, or anomaly head that :func:`build_model` can append.
Hyperparameters have working defaults and can be overridden per build.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import ParameterError, RegistryError, ShapeError
from .graph import GraphBuilder, Model
from .layers import (
    GRU,
    LSTM,
    ActivationLayer,
    BatchNorm1D,
    Bidirectional,
    Concat,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    GlobalAvgPool1D,
    Pool1D,
    Reshape,
    RTABlock,
    SEBlock,
    SpatialTemporalAttention,
    TanhAttention,
    Upsample1D,
)

FAMILY_KEYS = ("conv1d", "lstm", "gru", "bilstm", "bigru", "pool1d",
               "batchnorm", "dropout", "se_block", "rta_block", "attention")


def family_counts(model: Model) -> dict[str, int]:
    """Collapse a model's node kinds into the family-count vocabulary.

    Each family counts the nodes of its own kind, except ``attention``,
    which counts both attention kinds.
    """
    kinds = model.kind_counts()
    counts = {fam: kinds.get(fam, 0) for fam in FAMILY_KEYS}
    counts["attention"] = kinds.get("st_attention", 0) + kinds.get("tanh_attention", 0)
    return counts


def family_presence(model: Model) -> dict[str, bool]:
    """CNN/LSTM/GRU/BiLSTM/BiGRU presence booleans for a built graph.

    Residual temporal-attention blocks are convolutional, so they count
    toward CNN presence.
    """
    c = family_counts(model)
    return {
        "cnn": (c["conv1d"] + c["rta_block"]) > 0,
        "lstm": c["lstm"] > 0,
        "gru": c["gru"] > 0,
        "bilstm": c["bilstm"] > 0,
        "bigru": c["bigru"] > 0,
    }


@dataclass(frozen=True)
class ArchitectureDescriptor:
    """Registry metadata for one architecture; its node families are read
    off a build (:func:`describe`)."""

    name: str
    summary: str
    default_hyper: dict
    multi_input: int = 1
    citation: str = ""


def make_top(kind: str, *, horizon: int = 0, features: int = 0, classes: int = 0,
             steps: int = 0, dropout: float = 0.2) -> tuple:
    """A task head: ``(suffix, factory)`` pairs, in order, whose layers
    :func:`build_model` appends as ``top_<suffix>``, fresh on every build.

    * ``forecast``: flatten, dense(horizon*features, relu), reshape.
    * ``classify``: flatten, dropout, dense(20, relu), dense(10, relu),
      dense(classes, softmax).
    * ``anomaly``: flatten, dense(32), dense(64), dense(features),
      dense(steps*features, linear), reshape to [steps, features].
    """
    if kind == "forecast":
        if horizon < 1 or features < 1:
            raise ParameterError("forecast head needs horizon >= 1 and features >= 1")
        return (
            ("flatten", Flatten),
            ("dense", lambda: Dense(horizon * features, activation="relu")),
            ("reshape", lambda: Reshape((horizon, features))),
        )
    if kind == "classify":
        if classes < 2:
            raise ParameterError("classify head needs classes >= 2")
        rate = float(dropout)
        return (
            ("flatten", Flatten),
            ("dropout", lambda: Dropout(rate)),
            ("dense1", lambda: Dense(20, activation="relu")),
            ("dense2", lambda: Dense(10, activation="relu")),
            ("out", lambda: Dense(classes, activation="softmax")),
        )
    if kind == "anomaly":
        if steps < 1 or features < 1:
            raise ParameterError("anomaly head needs steps >= 1 and features >= 1")
        return (
            ("flatten", Flatten),
            ("dense1", lambda: Dense(32, activation="relu")),
            ("dense2", lambda: Dense(64, activation="relu")),
            ("dense3", lambda: Dense(features, activation="relu")),
            ("dense4", lambda: Dense(steps * features)),
            ("reshape", lambda: Reshape((steps, features))),
        )
    raise ParameterError(f"unknown head kind {kind!r}")


# -- builders -------------------------------------------------------------------
#
# Each builder wires nodes into a GraphBuilder and returns the output node
# name.  ``h`` is the merged hyperparameter dict.


def _filters(h, n: int) -> list:
    """``h["filters"]`` for a builder that reads it by position: ``n`` values."""
    if len(h["filters"]) != n:
        raise ParameterError(f"filters must list {n} values, got {list(h['filters'])}")
    return h["filters"]


def _stages(b, cur, h, *after, activation="relu"):
    """``conv{i}`` for each of ``h["filters"]``, each followed by the ``(tag,
    factory)`` pairs of ``after`` as ``{tag}{i}``; the first conv takes
    ``h["first_kernel"]`` when the entry has one."""
    for i, f in enumerate(h["filters"], 1):
        k = h["first_kernel"] if i == 1 and "first_kernel" in h else h["kernel"]
        cur = b.add(f"conv{i}", Conv1D(f, k, activation=activation), cur)
        for tag, factory in after:
            cur = b.add(f"{tag}{i}", factory(), cur)
    return cur


def _cai_wenjuan(b, inp, h):
    entries = []
    for i, k in enumerate(h["entry_kernels"]):
        entries.append(b.add(
            f"entry{i + 1}",
            Conv1D(h["entry_filters"], k, padding="same", activation="relu"),
            inp[0],
        ))
    cur = b.add("entry_cat", Concat(), entries)
    g = h["growth"]
    for bi in range(h["blocks"]):
        for li in range(h["block_depth"]):
            tag = f"b{bi + 1}u{li + 1}"
            y = b.add(f"{tag}_bn1", BatchNorm1D(), cur)
            y = b.add(f"{tag}_act1", ActivationLayer("relu"), y)
            y = b.add(f"{tag}_conv1", Conv1D(4 * g, 1), y)
            y = b.add(f"{tag}_bn2", BatchNorm1D(), y)
            y = b.add(f"{tag}_act2", ActivationLayer("relu"), y)
            y = b.add(f"{tag}_conv2", Conv1D(g, h["kernel"], padding="same"), y)
            cur = b.add(f"{tag}_cat", Concat(), [cur, y])
        cur = b.add(f"se{bi + 1}", SEBlock(h["se_ratio"]), cur)
    return b.add("gap", GlobalAvgPool1D(), cur)


def _conv_lstm(b, inp, h, lstms=1):
    """Conv/max-pool stages into ``lstms`` stacked LSTMs (``lstm``, or
    ``lstm1``..``lstmN``); only the last one returns a single step."""
    cur = _stages(b, inp[0], h, ("pool", partial(Pool1D, h["pool"])))
    for i in range(lstms):
        name = "lstm" if lstms == 1 else f"lstm{i + 1}"
        cur = b.add(name, LSTM(h["units"], return_sequences=i < lstms - 1), cur)
    return cur


def _gao_junli(b, inp, h):
    return b.add("lstm", LSTM(h["units"]), inp[0])


def _gen_minxing(b, inp, h):
    return b.add("bilstm", Bidirectional(LSTM(h["units"])), inp[0])


def _htet_myet_lynn(b, inp, h):
    cur = _stages(b, inp[0], h)
    if h["recurrent"] not in ("gru", "lstm"):
        raise ParameterError("recurrent must be 'gru' or 'lstm'")
    inner = LSTM(h["units"]) if h["recurrent"] == "lstm" else GRU(h["units"])
    return b.add("birnn", Bidirectional(inner), cur)


def _khan_zulfiqar(b, inp, h):
    cur = _stages(b, inp[0], h, ("drop", partial(Dropout, h["dropout"])))
    cur = b.add("gru1", GRU(h["units"], return_sequences=True), cur)
    return b.add("gru2", GRU(h["units"]), cur)


def _pooled_between(b, inp, h, padding="valid"):
    """Convolutions with ``pool{i}`` between them (none after the last), then an LSTM."""
    cur = inp[0]
    for i, f in enumerate(h["filters"], 1):
        if i > 1:
            cur = b.add(f"pool{i - 1}", Pool1D(h["pool"]), cur)
        cur = b.add(f"conv{i}", Conv1D(f, h["kernel"], padding=padding, activation="relu"),
                    cur)
    return b.add("lstm", LSTM(h["units"]), cur)


def _shi_haotian(b, inp, h):
    (f,) = _filters(h, 1)
    branches = []
    for i, x in enumerate(inp):
        y = b.add(f"branch{i + 1}_conv", Conv1D(f, h["kernel"], activation="relu"), x)
        y = b.add(f"branch{i + 1}_pool", Pool1D(h["pool"]), y)
        branches.append(y)
    cur = b.add("concat", Concat(), branches)
    return b.add("lstm", LSTM(h["units"]), cur)


def _wang_kejun(b, inp, h):
    cur = b.add("lstm1", LSTM(h["units"], return_sequences=True), inp[0])
    cur = b.add("lstm2", LSTM(h["units"], return_sequences=True), cur)
    return _stages(b, cur, h)


def _wei_xiaoyan(b, inp, h):
    cur = _stages(b, inp[0], h, ("pool", partial(Pool1D, h["pool"])), ("bn", BatchNorm1D),
                  activation="leaky_relu")
    cur = b.add("lstm1", LSTM(h["units"], return_sequences=True), cur)
    cur = b.add("bn_rnn", BatchNorm1D(), cur)
    return b.add("lstm2", LSTM(h["units"]), cur)


def _yao_qihang(b, inp, h):
    cur = inp[0]
    idx = 0
    filters = _filters(h, len(h["block_convs"]))
    for bi, (f, depth) in enumerate(zip(filters, h["block_convs"])):
        for _ in range(depth):
            idx += 1
            k = h["first_kernel"] if idx == 1 else h["kernel"]
            cur = b.add(f"conv{idx}", Conv1D(f, k), cur)
            cur = b.add(f"bn{idx}", BatchNorm1D(), cur)
            cur = b.add(f"act{idx}", ActivationLayer("relu"), cur)
        cur = b.add(f"pool{bi + 1}", Pool1D(h["pool"]), cur)
    cur = b.add("lstm1", LSTM(h["units"], return_sequences=True), cur)
    cur = b.add("lstm2", LSTM(h["units"], return_sequences=bool(h["attention"])), cur)
    if h["attention"]:
        cur = b.add("attention", TanhAttention(h["att_units"]), cur)
    return cur


def _yibo_gao(b, inp, h):
    cur = inp[0]
    for i, f in enumerate(h["filters"]):
        cur = b.add(f"rta{i + 1}",
                    RTABlock(f, h["kernel"], h["rta_pool"]), cur)
    return b.add("gap", GlobalAvgPool1D(), cur)


def _yildirim_ozal(b, inp, h):
    """The ``enc_*`` conv/pool encoder that :func:`build_autoencoder_pair`
    shares with its autoencoder, into an LSTM."""
    f1, f2 = _filters(h, 2)
    cur = b.add("enc_conv1", Conv1D(f1, h["kernel"], padding="same", activation="relu"),
                inp[0])
    cur = b.add("enc_pool1", Pool1D(h["pool"]), cur)
    cur = b.add("enc_conv2", Conv1D(f2, h["kernel"], padding="same", activation="relu"), cur)
    cur = b.add("enc_pool2", Pool1D(h["pool"]), cur)
    return b.add("lstm", LSTM(h["units"]), cur)


def _zhang_jin(b, inp, h):
    cur = _stages(b, inp[0], h, ("pool", partial(Pool1D, h["pool"])),
                  ("att", partial(SpatialTemporalAttention, h["se_ratio"], h["att_kernel"])))
    return b.add("bigru", Bidirectional(GRU(h["units"])), cur)


def _zheng_zhenyu(b, inp, h):
    cur = inp[0]
    idx = 0
    for bi, f in enumerate(h["filters"]):
        for _ in range(2):
            idx += 1
            cur = b.add(f"conv{idx}", Conv1D(f, h["kernel"], activation="relu"), cur)
            cur = b.add(f"bn{idx}", BatchNorm1D(), cur)
        cur = b.add(f"pool{bi + 1}", Pool1D(h["pool"]), cur)
    return b.add("lstm", LSTM(h["units"]), cur)


# name -> (descriptor, builder)
_REGISTRY: dict[str, tuple[ArchitectureDescriptor, Callable]] = {}


def _register(name, summary, hyper, builder, multi_input=1, citation=None):
    _REGISTRY[name] = (
        ArchitectureDescriptor(name, summary, hyper, multi_input, citation or name),
        builder,
    )


_register(
    "CaiWenjuan",
    "parallel entry convolutions, two dense concat blocks with squeeze-excite, global pool",
    {"entry_kernels": [3, 5, 7], "entry_filters": 8, "growth": 8, "blocks": 2,
     "block_depth": 4, "kernel": 3, "se_ratio": 8},
    _cai_wenjuan,
)
_register(
    "ChenChen",
    "six conv/max-pool stages into two stacked LSTMs",
    {"filters": [16, 32, 64, 128, 128, 128], "kernel": 3, "pool": 2, "units": 64},
    partial(_conv_lstm, lstms=2),
)
_register(
    "FuJiangmeng",
    "one conv/max-pool stage into an LSTM",
    {"filters": [16], "kernel": 3, "pool": 2, "units": 64},
    partial(_conv_lstm, lstms=1),
)
_register(
    "GaoJunli",
    "a single LSTM over the raw series",
    {"units": 64},
    _gao_junli,
)
_register(
    "GenMinxing",
    "a single bidirectional LSTM over the raw series",
    {"units": 64},
    _gen_minxing,
)
_register(
    "HongTan",
    "two conv/max-pool stages into three stacked LSTMs",
    {"filters": [16, 32], "kernel": 3, "pool": 2, "units": 64},
    partial(_conv_lstm, lstms=3),
)
_register(
    "HtetMyetLynn",
    "four convolutions into a bidirectional recurrent layer (GRU or LSTM)",
    {"filters": [16, 32, 64, 128], "kernel": 3, "units": 64, "recurrent": "gru"},
    _htet_myet_lynn,
)
_register(
    "HuangMeiLing",
    "two conv/max-pool stages, convolution only",
    {"filters": [16, 32], "kernel": 3, "pool": 2},
    partial(_conv_lstm, lstms=0),
)
_register(
    "KhanZulfiqar",
    "two conv+dropout stages into two stacked GRUs",
    {"filters": [16, 32], "kernel": 3, "dropout": 0.2, "units": 64},
    _khan_zulfiqar,
)
_register(
    "KimTaeYoung",
    "two convolutions with max pooling between, then an LSTM",
    {"filters": [16, 32], "kernel": 3, "pool": 2, "units": 64},
    _pooled_between,
)
_register(
    "KongZhengmin",
    "one conv/max-pool stage into two stacked LSTMs",
    {"filters": [16], "kernel": 3, "pool": 2, "units": 64},
    partial(_conv_lstm, lstms=2),
)
_register(
    "LihOhShu",
    "five conv/max-pool stages (wide first kernel) into an LSTM",
    {"filters": [16, 32, 64, 128, 128], "kernel": 3, "first_kernel": 5,
     "pool": 2, "units": 64},
    partial(_conv_lstm, lstms=1),
)
_register(
    "OhShuLih",
    "three full-padded convolutions with pooling between, then an LSTM",
    {"filters": [16, 32, 64], "kernel": 3, "pool": 2, "units": 64},
    partial(_pooled_between, padding="full"),
)
_register(
    "ShiHaotian",
    "three parallel conv/max-pool branches concatenated into an LSTM",
    {"filters": [16], "kernel": 3, "pool": 2, "units": 64},
    _shi_haotian,
    multi_input=3,
)
_register(
    "WangKejun",
    "two sequence LSTMs followed by two convolutions",
    {"filters": [32, 64], "kernel": 3, "units": 64},
    _wang_kejun,
)
_register(
    "WeiXiaoyan",
    "five conv(leaky)/pool/batchnorm blocks, then LSTM-batchnorm-LSTM",
    {"filters": [16, 32, 64, 128, 128], "kernel": 3, "pool": 2, "units": 64},
    _wei_xiaoyan,
)
_register(
    "YaoQihang",
    "thirteen conv-batchnorm-relu layers in five pooled blocks, two LSTMs, "
    "optional tanh attention head",
    {"filters": [16, 32, 64, 128, 128], "block_convs": [2, 2, 3, 3, 3],
     "kernel": 3, "first_kernel": 5, "pool": 2, "units": 64,
     "attention": False, "att_units": 32},
    _yao_qihang,
)
_register(
    "YiboGao",
    "three stacked residual temporal-attention blocks with a global pool",
    {"filters": [16, 32, 64], "kernel": 3, "rta_pool": 2},
    _yibo_gao,
)
_register(
    "YildirimOzal",
    "convolutional encoder (trainable as an autoencoder) into an LSTM",
    {"filters": [16, 32], "kernel": 3, "pool": 2, "units": 64},
    _yildirim_ozal,
)
_register(
    "ZhangJin",
    "conv/pool stages gated by spatial-temporal attention, then a bidirectional GRU",
    {"filters": [16, 32], "kernel": 3, "pool": 2, "units": 64,
     "se_ratio": 8, "att_kernel": 7},
    _zhang_jin,
)
_register(
    "ZhengZhenyu",
    "three blocks of two conv-batchnorm pairs with max pooling, then an LSTM",
    {"filters": [16, 32, 64], "kernel": 3, "pool": 2, "units": 64},
    _zheng_zhenyu,
)
_register(
    "ExampleModel",
    "two conv/max-pool stages into a compact LSTM",
    {"filters": [16, 32], "kernel": 3, "pool": 2, "units": 20},
    partial(_conv_lstm, lstms=1),
    citation="worked example",
)


# -- public API -----------------------------------------------------------------


def names() -> list[str]:
    return list(_REGISTRY)


def list_models() -> list[ArchitectureDescriptor]:
    return [desc for desc, _ in _REGISTRY.values()]


def get_descriptor(name: str) -> ArchitectureDescriptor:
    try:
        return _REGISTRY[name][0]
    except KeyError:
        raise RegistryError(
            f"unknown architecture {name!r}; the catalogue lists the valid names"
        ) from None


def _same_kind(default, val) -> bool:
    """Whether a scalar has the type of a scalar default (ints pass as floats)."""
    if isinstance(default, bool) or isinstance(val, bool):
        return isinstance(default, bool) and isinstance(val, bool)
    kind = {int: numbers.Integral, float: numbers.Real}.get(type(default), type(default))
    return isinstance(val, kind)


def typed_override(what: str, key: str, default, val):
    """``val`` as an override of ``default``, converted to the default's type.

    It must be of the default's kind (ints pass as floats); a scalar given
    for a list default becomes a one-value list.  Integers, and the elements
    of integer lists, are counts and sizes, so they must be >= 0.  Errors
    read ``"<what> '<key>' ..."``.
    """
    is_list = isinstance(default, list)
    values = list(val) if is_list and isinstance(val, (list, tuple)) else [val]
    kind = default[0] if is_list else default
    if not all(_same_kind(kind, v) for v in values):
        raise ParameterError(
            f"{what} {key!r} takes a value like its default {default!r}, got {val!r}")
    try:
        values = [type(kind)(v) for v in values]
    except OverflowError:  # an integer too large for a float
        raise ParameterError(f"{what} {key!r} is out of range, got {val}") from None
    if type(kind) is int and min(values, default=0) < 0:
        raise ParameterError(f"{what} {key!r} must be >= 0, got {val!r}")
    return values if is_list else values[0]


def checked_overrides(owner: str, kind: str, defaults: dict, overrides: dict) -> dict:
    """``overrides`` of ``defaults``, each converted by :func:`typed_override`.

    A key with no default raises ``ParameterError``, read ``"<owner> has no
    <kind> '<key>'; allowed: [...]"``; type errors read ``"<owner> <kind>
    '<key>' ..."``.
    """
    checked = {}
    for key, val in overrides.items():
        if key not in defaults:
            raise ParameterError(
                f"{owner} has no {kind} {key!r}; allowed: {sorted(defaults)}")
        checked[key] = typed_override(f"{owner} {kind}", key, defaults[key], val)
    return checked


def _assemble(name: str, input_shape, hyper: dict, top: tuple, seed: int) -> Model:
    desc = get_descriptor(name)
    h = {**desc.default_hyper,
         **checked_overrides(name, "hyperparameter", desc.default_hyper, hyper)}
    shape = tuple(int(s) for s in input_shape)
    if len(shape) != 2 or min(shape) < 1:
        raise ShapeError(f"input_shape must be [time, channels], got {input_shape}")
    b = GraphBuilder()
    if desc.multi_input == 1:
        inputs = [b.input("x", shape)]
    else:
        inputs = [b.input(f"x{i + 1}", shape) for i in range(desc.multi_input)]
    out = _REGISTRY[name][1](b, inputs, h)
    for suffix, factory in top:
        out = b.add(f"top_{suffix}", factory(), out)
    model = b.build(seed=seed)
    model.hyper = h
    return model


def build_model(name: str, input_shape=(1000, 1), top: tuple = (), seed: int = 0,
                **hyper) -> Model:
    """Build a registry architecture, optionally with a task head appended.

    Without a head the model ends at the embedding output.  On a too-short
    input the error reports the smallest workable time extent.
    """
    try:
        return _assemble(name, input_shape, hyper, top, seed)
    except ShapeError as exc:
        minimum = None
        try:
            if len(input_shape) == 2:  # a series too short, not a malformed shape
                minimum = minimum_input_length(name, int(input_shape[1]), **hyper)
        except (ShapeError, ParameterError, TypeError):
            pass
        if minimum is not None and input_shape[0] < minimum:
            raise ShapeError(
                f"{exc}; {name} needs time >= {minimum} with these hyperparameters"
            ) from None
        raise


def minimum_input_length(name: str, channels: int = 1, **hyper) -> int:
    """Smallest time extent the architecture accepts, found by probing:
    time 65536 first, so an error that no length cures is raised at once."""
    def fits(t: int) -> bool:
        try:
            _assemble(name, (t, channels), hyper, (), seed=0)
            return True
        except ShapeError:
            return False

    if not fits(65536):
        raise ShapeError(f"{name} accepts no input up to time 65536")
    hi = 1
    while not fits(hi):
        hi *= 2
    lo = max(1, hi // 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if fits(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def describe(name: str, input_shape=(1000, 1), **hyper) -> dict:
    """Structured report: families, default and built hyper, parameter count, shapes."""
    desc = get_descriptor(name)
    model = build_model(name, input_shape, seed=0, **hyper)
    return {
        "name": desc.name,
        "summary": desc.summary,
        "citation": desc.citation,
        "multi_input": desc.multi_input,
        "families": family_counts(model),
        "presence": family_presence(model),
        "default_hyper": desc.default_hyper,
        "hyper": model.hyper,
        "param_count": model.param_count(),
        "output_shape": model.output_shape,
    }


# -- the autoencoder pair -----------------------------------------------------------


@dataclass
class AutoencoderPair:
    """Two graphs sharing encoder layer instances, plus the frozen-name list."""

    autoencoder: Model
    classifier: Model
    encoder_params: tuple


def build_autoencoder_pair(input_shape=(1000, 1), top: tuple = (), seed: int = 0,
                           **hyper) -> AutoencoderPair:
    """Reconstruction and classification graphs for the encoder+LSTM entry.

    The autoencoder mirrors the encoder with conv/upsample stages back to the
    input shape (time must divide by pool^2); the classifier runs the shared
    encoder into an LSTM and the optional task head.  Training the autoencoder
    moves the classifier's encoder weights because the layer instances are
    shared.
    """
    classifier = build_model("YildirimOzal", input_shape, top=top, seed=seed, **hyper)
    h, shape = classifier.hyper, classifier.input_shapes["x"]
    down = h["pool"] * h["pool"]  # the build has rejected a zero pool
    if shape[0] % down:
        raise ShapeError(
            f"autoencoder mirror needs time divisible by {down}, got {shape[0]}"
        )

    # The encoder nodes lead both graphs, so the classifier build drew their
    # weights from the same seed children an autoencoder build would use.
    ab = GraphBuilder()
    ab.input("x", shape)
    encoder = [spec for name, spec in classifier.nodes.items() if name.startswith("enc_")]
    for spec in encoder:
        ab.add(spec.name, spec.layer, spec.inputs)
    cur = ab.add("dec_conv1", Conv1D(h["filters"][1], h["kernel"], padding="same",
                                     activation="relu"), encoder[-1].name)
    cur = ab.add("dec_up1", Upsample1D(h["pool"]), cur)
    cur = ab.add("dec_conv2", Conv1D(h["filters"][0], h["kernel"], padding="same",
                                     activation="relu"), cur)
    cur = ab.add("dec_up2", Upsample1D(h["pool"]), cur)
    ab.add("dec_out", Conv1D(shape[1], h["kernel"], padding="same"), cur)
    autoencoder = ab.build(seed=seed)

    frozen = tuple(f"{spec.name}/{p}" for spec in encoder for p in spec.layer.params)
    return AutoencoderPair(autoencoder, classifier, frozen)
