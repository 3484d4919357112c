"""Spans around the engine's public calls, installed from outside the engine.

``Tracer.install`` replaces public functions and methods of the deepseries
modules with timing wrappers; ``Tracer.uninstall`` puts every original back,
so untraced code runs the library exactly as shipped.  Spans stay in memory
until the run ends.  Layer spans are node level: a composite layer (a
bidirectional wrapper, an attention block) is one span, and the sub-layer
calls inside it are not recorded separately.
"""

from __future__ import annotations

import functools
import io
import json
import os
from time import perf_counter

import numpy as np

from deepseries import cli, data, graph, train, zoo
from deepseries.layers.base import Layer

from stats import Span, self_times

# Data preparation entry points; nested calls (anomaly_windows -> windowize)
# count once, under the outer call.
DATA_PREP = ("sine_mix", "labeled_segments", "traffic_with_anomalies", "chrono_split",
             "windowize", "zscore", "split_pairs", "anomaly_windows")

# Every node kind the workloads run (ExampleModel, ZhangJin and their heads).
KINDS = ("conv1d", "pool1d", "dense", "dropout", "flatten", "reshape", "lstm", "bigru",
         "st_attention")


def per_layer_catalog():
    """``(name, unit, better)`` for every per-layer metric, in report order."""
    out = [("graph.forward_s", "s"), ("graph.backward_s", "s"), ("graph.self_s", "s"),
           ("graph.build_s", "s"), ("graph.node_calls", "count")]
    for k in KINDS:
        out += [(f"layers.{k}.fwd_s", "s"), (f"layers.{k}.bwd_s", "s"),
                (f"layers.{k}.calls", "count"), (f"layers.{k}.cache_bytes", "B")]
    out += [("train.fit_s", "s"), ("train.adam_step_s", "s"), ("train.adam_steps", "count"),
            ("train.loss_s", "s"), ("train.val_s", "s"), ("train.predict_s", "s"),
            ("train.nonfinite", "count"),
            ("data.prep_s", "s"), ("data.harness_s", "s"), ("data.harness_self_s", "s"),
            ("container.save_s", "s"), ("container.load_s", "s"), ("container.bytes", "B"),
            ("zoo.build_s", "s"), ("zoo.builds", "count"),
            ("cli.train_s", "s"), ("cli.self_s", "s"),
            ("trace.coverage", "ratio"), ("trace.overhead_ratio", "ratio")]
    return [(n, u, "higher" if n == "trace.coverage" else "lower") for n, u in out]


def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory (views and strided windows resolve to it)."""
    root, base = a, a.base
    while base is not None:
        if isinstance(base, np.ndarray):
            root = base
        base = getattr(base, "base", None)
    return root


def _file_bytes(f) -> int:
    """Size of a weights file given as a path, or bytes written to a stream."""
    if isinstance(f, (str, os.PathLike)):
        return os.path.getsize(f)
    return f.tell() if isinstance(f, io.IOBase) and f.seekable() else 0


def _nonfinite(a) -> int:
    return int(a.size - np.count_nonzero(np.isfinite(a)))


class Tracer:
    """Records spans while installed; ``op`` tags spans with the current operation."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []
        self._layer_depth = 0
        self._seen: set[int] = set()  # buffers already counted in this forward
        self._undo: list[tuple] = []

    # -- wrappers ------------------------------------------------------------------

    def _open(self, name) -> Span:
        span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, name, before=None, extra=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            span = tracer._open(name)
            span.start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._stack.pop()
            if extra is not None:
                span.extra = extra(args, kwargs, out)
            return out

        return traced

    def _wrap_layer(self, fn, phase):
        tracer = self

        @functools.wraps(fn)
        def traced(layer, *args, **kwargs):
            if tracer._layer_depth:  # inside a composite node: one span for the node
                return fn(layer, *args, **kwargs)
            span = tracer._open(f"layers.{layer.kind}.{phase}")
            tracer._layer_depth += 1
            span.start = perf_counter()
            try:
                out = fn(layer, *args, **kwargs)
            finally:
                span.end = perf_counter()
                tracer._layer_depth -= 1
                tracer._stack.pop()
            if phase == "fwd":
                cache = args[2] if len(args) > 2 else kwargs.get("cache")
                if cache is not None:
                    span.extra = tracer._cache_bytes(cache)
            return out

        return traced

    def _cache_bytes(self, obj) -> int:
        """Bytes of the distinct buffers a training cache holds, each counted
        once per model forward (by the first node that caches it)."""
        if isinstance(obj, np.ndarray):
            root = _owner(obj)
            if id(root) in self._seen:
                return 0
            self._seen.add(id(root))
            return root.nbytes
        if isinstance(obj, dict):
            return sum(self._cache_bytes(v) for v in obj.values())
        if isinstance(obj, (list, tuple)):
            return sum(self._cache_bytes(v) for v in obj)
        return 0

    def _patch(self, owner, attr, wrapper_for):
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, wrapper_for(original))
        self._undo.append((owner, attr, original))

    # -- install / uninstall --------------------------------------------------------

    def install(self):
        def forward_start(args, kwargs):
            self._seen = set()

        def train_flag(args, kwargs, out):
            return bool(args[2] if len(args) > 2 else kwargs.get("train", False))

        def loss_nonfinite(args, kwargs, out):
            return 0 if np.isfinite(out[0]) else 1

        def pred_nonfinite(args, kwargs, out):
            return _nonfinite(np.asarray(out))

        def sink_bytes(args, kwargs, out):
            return _file_bytes(args[2] if len(args) > 2 else kwargs["sink"])

        def source_bytes(args, kwargs, out):
            return _file_bytes(args[1] if len(args) > 1 else kwargs["source"])

        plain = [
            (graph.Model, "backward", "graph.backward", None, None),
            (graph, "build", "graph.build", None, None),
            (graph, "write_records", "container.save", None, sink_bytes),
            (graph, "read_records", "container.load", None, source_bytes),
            (train, "fit", "train.fit", None, None),
            (train, "predict", "train.predict", None, pred_nonfinite),
            (train, "loss_and_grad", "train.loss", None, loss_nonfinite),
            (train.Adam, "step", "train.adam_step", None, None),
            (data, "anomaly_harness", "data.harness", None, None),
            (zoo, "build_model", "zoo.build", None, None),
            (cli, "main", "cli.main", None, None),
            (graph.Model, "forward", "graph.forward", forward_start, train_flag),
        ] + [(data, f, "data.prep", None, None) for f in DATA_PREP]
        for owner, attr, name, before, extra in plain:
            self._patch(owner, attr,
                        lambda fn, n=name, b=before, e=extra: self._wrap(fn, n, b, e))
        for cls in _layer_classes():
            for method, phase in (("forward", "fwd"), ("backward", "bwd")):
                if method in cls.__dict__:
                    self._patch(cls, method, lambda fn, p=phase: self._wrap_layer(fn, p))

    def uninstall(self) -> bool:
        """Restore every original; True when each one is back in place."""
        undo, self._undo = self._undo, []
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        return all(
            (owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr))
            is original
            for owner, attr, original in undo
        )

    def dump(self, path: str, header: dict):
        """Write the spans as JSON: a header, then one list per span."""
        with open(path, "w") as fh:
            json.dump({**header, "fields": ["name", "start", "end", "parent", "op", "extra"],
                       "spans": [s.as_list() for s in self.spans]}, fh)


def _layer_classes():
    out, todo = [], [Layer]
    while todo:
        cls = todo.pop()
        out.append(cls)
        todo.extend(cls.__subclasses__())
    return out


# -- per-layer metrics ------------------------------------------------------------


def _outermost(spans, name):
    """Indices of spans called ``name`` with no ancestor of the same name."""
    out = []
    for i, s in enumerate(spans):
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            out.append(i)
    return out


def _under(spans, i, name) -> bool:
    p = spans[i].parent
    while p >= 0:
        if spans[p].name == name:
            return True
        p = spans[p].parent
    return False


def per_layer_metrics(spans, wall_s: float, overhead_ratio: float) -> dict:
    """Reduce spans to the per-layer catalogue (every name, zero when unused)."""
    selfs = self_times(spans)

    def dur(i):
        return spans[i].end - spans[i].start

    def total(name):
        return sum(dur(i) for i in _outermost(spans, name))

    def self_total(name):
        return sum(selfs[i] for i in _outermost(spans, name))

    m = {name: 0 for name, _, _ in per_layer_catalog()}
    graph_ix = [i for i, s in enumerate(spans) if s.name in ("graph.forward", "graph.backward")]
    m["graph.forward_s"] = total("graph.forward")
    m["graph.backward_s"] = total("graph.backward")
    m["graph.self_s"] = sum(selfs[i] for i in graph_ix)
    m["graph.build_s"] = total("graph.build")

    per_forward: dict[int, dict[str, int]] = {}  # training forward -> kind -> bytes
    for i, s in enumerate(spans):
        if not s.name.startswith("layers."):
            continue
        _, kind, phase = s.name.split(".")
        if phase == "fwd":
            m["graph.node_calls"] += 1
        if kind not in KINDS:  # a kind the listed workloads never run
            continue
        m[f"layers.{kind}.{phase}_s"] += dur(i)
        if phase == "fwd":
            m[f"layers.{kind}.calls"] += 1
            if s.extra:
                fwd = per_forward.setdefault(s.parent, {})
                fwd[kind] = fwd.get(kind, 0) + s.extra
    for kinds in per_forward.values():
        for kind, nbytes in kinds.items():
            key = f"layers.{kind}.cache_bytes"
            m[key] = max(m[key], nbytes)

    m["train.fit_s"] = total("train.fit")
    m["train.adam_step_s"] = total("train.adam_step")
    m["train.adam_steps"] = len(_outermost(spans, "train.adam_step"))
    m["train.loss_s"] = total("train.loss")
    m["train.val_s"] = sum(dur(i) for i, s in enumerate(spans)
                           if s.name == "graph.forward" and s.extra is False
                           and _under(spans, i, "train.fit"))
    m["train.predict_s"] = total("train.predict")
    m["train.nonfinite"] = sum(s.extra or 0 for s in spans
                               if s.name in ("train.loss", "train.predict"))
    m["data.prep_s"] = total("data.prep")
    m["data.harness_s"] = total("data.harness")
    m["data.harness_self_s"] = self_total("data.harness")
    m["container.save_s"] = total("container.save")
    m["container.load_s"] = total("container.load")
    m["container.bytes"] = sum(s.extra or 0 for s in spans
                               if s.name in ("container.save", "container.load"))
    m["zoo.build_s"] = total("zoo.build")
    m["zoo.builds"] = len(_outermost(spans, "zoo.build"))
    m["cli.train_s"] = total("cli.main")
    m["cli.self_s"] = self_total("cli.main")
    roots = sum(dur(i) for i, s in enumerate(spans) if s.parent < 0)
    m["trace.coverage"] = roots / wall_s if wall_s > 0 else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m


def layer_shares(m: dict) -> dict:
    """Each kind's share of total layer time (forward plus backward)."""
    times = {k: m[f"layers.{k}.fwd_s"] + m[f"layers.{k}.bwd_s"] for k in KINDS}
    whole = sum(times.values())
    return {k: (t / whole if whole else 0.0) for k, t in times.items()}
