"""The A/B driver in tools/: its run parser and its summary, on fixed inputs."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

END_TO_END = [
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "setup", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rss", "unit": "MB", "better": "lower", "bound": 0.15},
]


def _output(metrics, gates=(), attempted=100, failed=0):
    lines = ['env {"blas_threads": 2, "seed": 1}']
    lines += [f"metric {k} {v!r} u" for k, v in metrics.items()]
    lines += [f"gate {name} {'PASS' if ok else 'FAIL'} some detail" for name, ok in gates]
    lines.append(json.dumps({
        "correct": all(ok for _, ok in gates) and failed == 0, "attempted": attempted,
        "failed": failed, "metrics": {k: {"value": v, "unit": "u"} for k, v in metrics.items()}}))
    return "\n".join(lines) + "\n"


def test_parse_run_reads_env_gates_and_the_final_line():
    run = ab.parse_run(_output({"rate": 10.0, "p90": None}, [("a", True), ("b", False)],
                               attempted=7, failed=1), code=1)
    assert run["env"] == {"blas_threads": 2, "seed": 1}
    assert run["metrics"] == {"rate": 10.0, "p90": None}
    assert run["failed_gates"] == ["b"]
    assert (run["exit"], run["correct"], run["attempted"], run["failed"]) == (1, False, 7, 1)
    crashed = ab.parse_run("", code=2, stderr="Traceback ...")
    assert crashed["metrics"] == {} and crashed["stderr"] == "Traceback ..."


def test_usage_delta_reads_minor_faults_and_system_seconds():
    before = SimpleNamespace(ru_minflt=1000, ru_stime=2.5, ru_majflt=7)
    after = SimpleNamespace(ru_minflt=4500, ru_stime=3.75, ru_majflt=9)
    assert ab.usage_delta(before, after) == {"minor_faults": 3500, "sys_s": 1.25}


def _runs(parent, change, change_gates=(), change_failed=0, usage=None):
    """Four pairs of ``workload`` runs from per-metric value lists, with
    ``usage[side][pair]`` as each run's ``(minor_faults, sys_s)`` (zero when
    not given)."""
    runs = []
    for pair in range(4):
        for side, values in (("parent", parent), ("change", change)):
            gates = change_gates if side == "change" and pair == 2 else ()
            failed = change_failed if side == "change" else 0
            out = _output({k: v[pair] for k, v in values.items()}, gates, failed=failed)
            extra = dict(zip(ab.USAGE, (0, 0.0) if usage is None else usage[side][pair]))
            runs.append({"workload": "w", "pair": pair, "seed": 5 + pair, "side": side,
                         **ab.parse_run(out), **extra})
    return runs


def test_summary_gives_each_sides_median_faults_and_system_seconds():
    values = {"rate": [100, 100, 100, 100]}
    usage = {"parent": [(9000, 0.5), (1000, 0.25), (3000, 0.75), (5000, 1.0)],
             "change": [(100, 0.0), (300, 0.5), (200, 0.25), (400, 0.0)]}
    s = ab.summarise(_runs(values, values, usage=usage), END_TO_END[:1])["w"]
    assert s["usage_median"] == {"parent": {"minor_faults": 4000.0, "sys_s": 0.625},
                                 "change": {"minor_faults": 250.0, "sys_s": 0.125}}
    assert ("  per run, median: parent 4000 minor faults, 0.62 s system; "
            "change 250 minor faults, 0.12 s system") in ab.summary_lines({"w": s})


def test_summary_gives_medians_wins_and_a_verdict_per_metric():
    parent = {"rate": [100, 102, 98, 101], "p90": [1.0, 1.0, 1.0, 1.0],
              "setup": [1.0, 2.0, 1.0, 2.0], "rss": [50, 50, 50, 50]}
    change = {"rate": [120, 119, 125, 121], "p90": [1.5, 1.5, 1.5, 1.5],
              "setup": [1.1, 1.9, 1.2, 1.8], "rss": [52, 52, 52, 52]}
    s = ab.summarise(_runs(parent, change), END_TO_END)["w"]
    assert s["pairs"] == 4
    rate, p90, setup, rss = (s["metrics"][m["name"]] for m in END_TO_END)
    assert rate["parent"]["median"] == pytest.approx(100.5)
    assert rate["parent"]["iqr"] == pytest.approx(101.25 - 99.5)
    assert rate["change"]["median"] == pytest.approx(120.5)
    assert rate["wins"] == 4 and rate["worse_by"] < 0
    assert rate["verdict"] == "within bound" and rate["gain_rule_met"]
    assert p90["wins"] == 0 and p90["worse_by"] == pytest.approx(0.5)
    assert p90["verdict"] == "regressed" and not p90["gain_rule_met"]
    # the parent's own runs spread over 2/3 of their median, wider than the bound
    assert setup["parent_spread"] == pytest.approx(1.0 / 1.5)
    assert setup["verdict"] == "unresolved"
    assert rss["worse_by"] == pytest.approx(0.04) and rss["verdict"] == "within bound"
    assert s["failed_gates"] == [] and not s["failed_ops_rose"]
    lines = ab.summary_lines({"w": s})
    assert lines[0] == "w: 4 pairs"
    assert any(line.startswith("  p90 ") and line.endswith(": regressed") for line in lines)


def test_a_spread_is_resolved_when_every_change_run_reads_better():
    parent = {"setup": [1.0, 2.0, 1.0, 2.0]}
    change = {"setup": [0.5, 0.6, 0.5, 0.6]}
    s = ab.summarise(_runs(parent, change), END_TO_END[2:3])["w"]
    assert s["metrics"]["setup"]["verdict"] == "within bound"


def test_summary_lists_failed_gates_and_a_rise_in_failed_operations():
    values = {"rate": [100, 100, 100, 100]}
    s = ab.summarise(_runs(values, values, [("auc", False), ("ok", True)], change_failed=3),
                     END_TO_END[:1])["w"]
    assert s["failed_gates"] == ["change seed 7: auc"]
    assert s["failed_ops_share"] == {"parent": 0.0, "change": 0.03}
    assert s["failed_ops_rose"]
    assert s["metrics"]["rate"]["wins"] == 0  # ties count for neither side
    assert "  FAILED change seed 7: auc" in ab.summary_lines({"w": s})
