"""Tests of the benchmark's own rules: the tail percentile, span self time,
the per-layer reduction, tracer install/uninstall, and BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import json
import math
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

from stats import (  # noqa: E402
    Span, median, percentile, self_times, tail_percentile, union_length,
)


# -- tail percentile ------------------------------------------------------------------


def test_tail_is_p99_with_ten_samples_beyond_at_1000():
    xs = list(range(1000))
    p, v = tail_percentile(xs)
    assert (p, v) == (99, 989)
    assert sum(x > v for x in xs) == 10


@pytest.mark.parametrize("n, want", [(500, 98), (200, 95), (100, 90), (11, 9)])
def test_tail_drops_to_highest_percentile_keeping_ten_beyond(n, want):
    xs = [float(i) for i in range(n)]
    p, v = tail_percentile(xs)
    assert p == want
    assert sum(x > v for x in xs) >= 10
    rank = math.ceil((p + 1) * n / 100)  # one percentile higher leaves fewer than ten
    assert n - rank < 10


def test_tail_undefined_below_eleven_samples():
    assert tail_percentile(list(range(10))) == (None, None)


def test_failed_requests_count_against_the_tail():
    ok = [1.0] * 989
    assert tail_percentile(ok + [math.inf] * 11) == (99, math.inf)
    assert tail_percentile(ok + [2.0] + [math.inf] * 10) == (99, 2.0)


def test_median_and_percentile():
    assert median([3, 1, 2]) == 2 and median([4, 1, 2, 3]) == 2.5 and median([]) is None
    assert percentile(range(1, 101), 90) == 90 and percentile([7.0], 90) == 7.0


# -- self time ------------------------------------------------------------------------


def test_union_length_merges_overlaps_and_clips():
    assert union_length([(1, 3), (2, 4), (9, 12)], 0, 10) == pytest.approx(4.0)
    assert union_length([]) == 0.0
    assert union_length([(5, 5), (6, 4)]) == 0.0


def test_self_time_subtracts_union_of_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0),
        Span("a", 1.0, 3.0, parent=0),
        Span("b", 2.0, 4.0, parent=0),      # overlaps a: covered once
        Span("c", 9.0, 12.0, parent=0),     # clipped to the parent's end
        Span("a.1", 1.5, 2.5, parent=1),    # grandchild: charged to a, not root
    ]
    got = self_times(spans)
    assert got == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])


# -- per-layer reduction and the tracer -------------------------------------------------


def test_per_layer_metrics_on_synthetic_spans():
    from tracer import per_layer_catalog, per_layer_metrics

    spans = [
        Span("cli.main", 0.0, 10.0),
        Span("train.fit", 1.0, 7.0, parent=0),
        Span("graph.forward", 1.0, 3.0, parent=1, extra=True),
        Span("layers.lstm.fwd", 1.5, 2.5, parent=2, extra=800),
        Span("layers.conv1d.fwd", 2.5, 2.75, parent=2, extra=200),
        Span("graph.backward", 3.0, 4.0, parent=1),
        Span("layers.lstm.bwd", 3.0, 3.5, parent=5),
        Span("graph.forward", 5.0, 6.0, parent=1, extra=False),
        Span("layers.lstm.fwd", 5.0, 5.5, parent=7),
        Span("data.harness", 8.0, 9.0, parent=0),
        Span("graph.forward", 8.2, 8.6, parent=9, extra=False),
        Span("data.prep", 11.0, 12.0),
    ]
    m = per_layer_metrics(spans, wall_s=12.5, overhead_ratio=1.1)
    assert set(m) == {name for name, _, _ in per_layer_catalog()}
    assert m["graph.forward_s"] == pytest.approx(3.4)
    assert m["graph.backward_s"] == pytest.approx(1.0)
    # forward/backward minus their layer children: (2-1.25) + (1-0.5) + (1-0.5) + 0.4
    assert m["graph.self_s"] == pytest.approx(2.15)
    assert m["layers.lstm.fwd_s"] == pytest.approx(1.5)
    assert m["layers.lstm.calls"] == 2
    assert m["layers.lstm.cache_bytes"] == 800
    assert m["graph.node_calls"] == 3
    assert m["train.val_s"] == pytest.approx(1.0)  # the eval forward inside fit only
    assert m["data.harness_self_s"] == pytest.approx(0.6)
    assert m["cli.self_s"] == pytest.approx(10.0 - 6.0 - 1.0)
    assert m["trace.coverage"] == pytest.approx(11.0 / 12.5)
    assert m["trace.overhead_ratio"] == 1.1


def test_tracer_records_node_spans_and_restores_every_original():
    from deepseries import graph, layers, train
    from tracer import Tracer, per_layer_metrics

    forward, fit = graph.Model.forward, train.fit
    b = graph.GraphBuilder()
    x = b.input("x", (12, 2))
    h = b.add("conv", layers.Conv1D(4, 3), x)
    h = b.add("bigru", layers.Bidirectional(layers.GRU(3)), h)
    tracer = Tracer()
    tracer.install()
    try:
        model = b.build(seed=0)
        out = model.forward(np.ones((2, 12, 2)), train=True)
        model.backward(np.ones(out.shape))
    finally:
        assert tracer.uninstall()
    assert graph.Model.forward is forward and train.fit is fit
    assert "forward" not in layers.GRU.__dict__ or \
        not hasattr(layers.GRU.__dict__["forward"], "__wrapped__")
    names = [s.name for s in tracer.spans]
    assert names.count("layers.bigru.fwd") == 1
    assert not any(n.startswith("layers.gru.") for n in names)  # inside the composite
    m = per_layer_metrics(tracer.spans, wall_s=1.0, overhead_ratio=1.0)
    assert m["graph.build_s"] > 0 and m["layers.bigru.bwd_s"] > 0
    assert m["layers.conv1d.cache_bytes"] > 0
    n_spans = len(tracer.spans)
    model.forward(np.ones((2, 12, 2)))
    assert len(tracer.spans) == n_spans  # nothing recorded once uninstalled


# -- BENCHMARK.json -------------------------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    import workloads
    from tracer import per_layer_catalog

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    listed = [w["name"] for w in spec["workloads"]]
    assert len(listed) >= 2 and set(listed) <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == \
        workloads.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        per_layer_catalog()
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
