"""The equivalence digest script in tools/: deterministic, and sensitive to a weight."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "digest.py"
_spec = importlib.util.spec_from_file_location("digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

SUBSET = ["ShiHaotian", "ExampleModel"]  # registry order; three inputs, then one


def test_digest_lines_repeat_in_and_across_processes():
    lines = digest.lines(SUBSET)
    assert len(lines) == len(SUBSET) * len(digest.HEADS) * 6 + 1
    assert lines[0].startswith("ShiHaotian classify predict_b1 ")
    assert lines[-1].startswith("total ")
    assert digest.lines(SUBSET) == lines
    run = subprocess.run([sys.executable, str(SCRIPT), "--entries", *SUBSET],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == lines


def test_changing_one_weight_changes_the_gradient_line():
    before = digest.model_digests(*digest.build("ExampleModel", {}, "forecast"))
    model, x = digest.build("ExampleModel", {}, "forecast")
    w = next(iter(model.parameters().values()))
    w.flat[0] += 1e-3
    after = digest.model_digests(model, x)
    assert after["param_grads"] != before["param_grads"]
    assert after["predict_empty"] == before["predict_empty"]
