"""The equivalence digest script in tools/: deterministic, sensitive to a weight,
its CLI lines (train and eval, synthetic and CSV), and its batch-partition and
thread-count modes."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

from deepseries import zoo

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

SUBSET = ["ShiHaotian", "ExampleModel"]  # registry order; three inputs, then one
RUN_LINES = len(digest.CLI_ARTIFACTS) + 2  # each artifact, then eval's stdout and metrics.txt
# the subset's CLI lines: list, two describes, the three synthetic ExampleModel
# runs and the three CSV ones
CLI_LINES = 1 + len(SUBSET) + 6 * RUN_LINES


def test_digest_lines_repeat_in_and_across_processes():
    lines = digest.lines(SUBSET)
    assert len(lines) == len(SUBSET) * len(digest.HEADS) * 6 + CLI_LINES + 1
    assert lines[0].startswith("ShiHaotian classify predict_b1 ")
    assert lines[-1].startswith("total ")
    assert digest.lines(SUBSET) == lines
    run = subprocess.run([sys.executable, str(SCRIPT), "--entries", *SUBSET],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == lines


def test_cli_lines_name_each_output_and_its_digest():
    lines = digest.cli_lines(SUBSET)
    assert [line.rsplit(" ", 1)[0] for line in lines] == [
        "cli list stdout",
        "cli describe ShiHaotian stdout",
        "cli describe ExampleModel stdout",
        *(line
          for source in ("", " csv")
          for task in ("forecast", "classify", "anomaly")
          for line in [*(f"cli train {task} ExampleModel{source} {name}"
                         for name in digest.CLI_ARTIFACTS),
                       f"cli eval {task} ExampleModel{source} stdout",
                       f"cli eval {task} ExampleModel{source} metrics.txt"]),
    ]
    assert all(re.fullmatch("[0-9a-f]{64}", line.rsplit(" ", 1)[1]) for line in lines)
    assert len(set(lines)) == len(lines)
    every = [line.rsplit(" ", 1)[0] for line in digest.cli_lines()]
    runs = len(digest.CLI_RUNS) + len(digest.CSV_RUNS)
    assert len(every) == 1 + len(zoo.names()) + runs * RUN_LINES
    assert "cli eval forecast FuJiangmeng metrics.txt" in every


def test_changing_one_weight_changes_the_gradient_line():
    before = digest.model_digests(*digest.build("ExampleModel", {}, "forecast"))
    model, x = digest.build("ExampleModel", {}, "forecast")
    w = next(iter(model.parameters().values()))
    w.flat[0] += 1e-3
    after = digest.model_digests(model, x)
    assert after["param_grads"] != before["param_grads"]
    assert after["predict_empty"] == before["predict_empty"]


def test_partition_prints_one_spread_per_case_and_the_largest():
    lines = digest.partition_lines(SUBSET)
    assert len(lines) == len(SUBSET) * len(digest.HEADS) + 1
    assert lines[0].startswith("ShiHaotian classify ")
    spreads = [float(line.rsplit(" ", 1)[1]) for line in lines[:-1]]
    assert lines[-1] == f"max {max(spreads):.3g}"
    # the batch-1 vs batch-256 bound the benchmark gates on
    assert all(0.0 <= s <= 1e-9 for s in spreads)


def test_threads_prints_each_differing_check_and_a_count():
    lines = digest.thread_lines(SUBSET)
    checks = len(SUBSET) * len(digest.HEADS) * 6 + CLI_LINES
    differ = lines[:-1]
    # the BLAS thread count may still move the bytes, so no count is demanded
    assert lines[-1] == f"differ {len(differ)} of {checks}"
    every = [line.rsplit(" ", 1)[0] for line in digest.lines(SUBSET)[:-1]]
    assert set(differ) <= set(every)
    assert differ == [case for case in every if case in differ]  # in digest order
