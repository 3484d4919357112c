"""Print SHA-256 digests of what the engine computes, to compare two trees.

    python3 tools/digest.py [--entries NAME ...] [--partition | --threads]

Run from the repository root; the engine is imported from ``src/`` next to
this script.  Each registry entry, and YaoQihang with ``attention=True``, is
built at ``max(minimum_input_length, 64)`` steps and one channel, seed 0,
under each head.  One line per (entry, head, check) gives the SHA-256 of:

* ``predict_b1`` / ``predict_b256``: ``predict`` of the same rows at batch
  size 1 and 256;
* ``predict_empty``: ``predict`` of zero rows (its shape);
* ``train_out``: a training-mode forward of those rows;
* ``param_grads`` / ``input_grads``: the backward of a fixed upstream
  gradient, every parameter gradient by name, then the gradient at each
  graph input.

Then one ``cli ...`` line per CLI output gives the SHA-256 of:

* ``cli list stdout``: what ``deepseries list`` prints;
* ``cli describe <entry> stdout``: what ``deepseries describe`` prints for
  each entry;
* ``cli train <task> <model> <artifact>``: each of ``CLI_ARTIFACTS`` from
  the short ``train`` runs of ``CLI_RUNS``, one per task plus a FuJiangmeng
  forecast, all written to ``--out run`` in one temporary directory, since
  ``manifest.txt`` records the path;
* ``cli eval <task> <model> stdout|metrics.txt``: what ``eval`` of that
  run's ``weights.dsw`` prints, and the ``metrics.txt`` it writes to ``ev``;
* ``cli train|eval <task> <model> csv ...``: the same for the runs of
  ``CSV_RUNS``, each on the CSV file that ``csv_text`` writes for its task.

The last line is the SHA-256 of all lines before it.  Run the script on two
trees and diff the outputs: equal lines mean equal bytes.  The values depend
on the numpy and BLAS build, so compare runs made on one machine.

``--partition`` prints instead, per (entry, head), the largest
``|predict at batch 1 - predict at batch 7, 64 and 256|`` over
``PARTITION_ROWS`` rows, then the largest of all: how far a row's output
depends on the rows it is batched with.

``--threads`` runs the digest again in two child processes, one with
``OPENBLAS_NUM_THREADS=1`` and one with ``2`` (set only in the child's
environment), and prints each (entry, head, check) whose digests differ
between the two, then ``differ <n> of <lines>``: how far the bytes depend on
the BLAS thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from deepseries import cli, zoo  # noqa: E402
from deepseries.train import predict  # noqa: E402

ROWS = 6
PARTITION_ROWS = 300  # every batch size below splits them unevenly
PARTITION_SIZES = (7, 64, 256)
THREADS = (1, 2)  # OPENBLAS_NUM_THREADS of the two --threads children
HEADS = {
    "classify": zoo.make_top("classify", classes=3),
    "forecast": zoo.make_top("forecast", horizon=2, features=1),
}
VARIANTS = [(name, {}) for name in zoo.names()] + [("YaoQihang", {"attention": True})]
CLI_RUNS = [  # (task, model, flags) of each digested `train` run
    ("forecast", "ExampleModel", "--synth sine:length=400 --window 20 --horizon 2"),
    ("classify", "ExampleModel", "--synth segments:classes=3,count=20 --window 32"),
    ("anomaly", "ExampleModel", "--synth traffic:length=800"),
    ("forecast", "FuJiangmeng", "--synth sine:length=400 --window 20 --horizon 2"),
]
CSV_RUNS = [  # (task, model, flags) of each `train` run on the task's csv_text
    ("forecast", "ExampleModel", "--column value --window 20 --horizon 2"),
    ("classify", "ExampleModel", "--window 16"),
    ("anomaly", "ExampleModel", "--window 16 --steps 2"),
]
CLI_ARTIFACTS = ("weights.dsw", "history.txt", "metrics.txt", "manifest.txt")


def _hash(*named: tuple[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name, a in named:
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def model_digests(model, x: np.ndarray) -> dict[str, str]:
    """One digest per check for ``model`` on the rows ``x`` (every input reads ``x``)."""
    feed = x if len(model.input_names) == 1 else [x] * len(model.input_names)
    out = model.forward(feed, train=True).array
    upstream = np.random.default_rng(1).normal(size=out.shape)
    grads = model.backward(upstream)
    return {
        "predict_b1": _hash(("out", predict(model, x, batch_size=1))),
        "predict_b256": _hash(("out", predict(model, x, batch_size=256))),
        "predict_empty": _hash(("out", predict(model, x[:0]))),
        "train_out": _hash(("out", out)),
        "param_grads": _hash(*grads.items()),
        "input_grads": _hash(*model.last_input_grads.items()),
    }


def _cli(*argv: str) -> bytes:
    """What one CLI call prints; it must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"deepseries {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def csv_text(task: str) -> str:
    """The CSV file that the ``task`` run of ``CSV_RUNS`` reads."""
    rng = np.random.default_rng(0)
    if task == "forecast":  # a step column, then the column forecast
        rows = ["step,value"] + [f"{i},{np.sin(i / 7.0) + 2.0:.6f}" for i in range(400)]
    elif task == "classify":  # 16 features, then labels 0..2 shifting the mean
        rows = [",".join(f"f{j}" for j in range(16)) + ",label"]
        rows += [",".join(f"{v + i % 3:.4f}" for v in rng.normal(size=16)) + f",{i % 3}"
                 for i in range(30)]
    else:  # a load column with a spike every 97 steps, then its 0/1 label
        rows = ["load,label"] + [
            f"{np.sin(i / 5.0) + 0.1 * rng.normal() + 3.0 * (i % 97 == 40):.6f},"
            f"{int(i % 97 == 40)}" for i in range(600)]
    return "\n".join(rows) + "\n"


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _run_lines(label: str, run_flags: list[str]) -> list[str]:
    """Train into ``run``, evaluate its weights into ``ev``, and digest both."""
    _cli("train", *run_flags, "--epochs", "2", "--out", "run")
    out = [f"cli train {label} {name} {_sha(_read(os.path.join('run', name)))}"
           for name in CLI_ARTIFACTS]
    stdout = _cli("eval", *run_flags, "--weights", os.path.join("run", "weights.dsw"),
                  "--out", "ev")
    metrics = _read(os.path.join("ev", "metrics.txt"))
    return out + [f"cli eval {label} stdout {_sha(stdout)}",
                  f"cli eval {label} metrics.txt {_sha(metrics)}"]


def cli_lines(entries=None) -> list[str]:
    """The ``cli ...`` lines; ``entries`` limits the ``describe`` lines and
    the runs to those entries."""
    out = [f"cli list stdout {_sha(_cli('list'))}"]
    out += [f"cli describe {name} stdout {_sha(_cli('describe', name))}"
            for name in zoo.names() if entries is None or name in entries]
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for task, model, flags in CLI_RUNS:
                if entries is None or model in entries:
                    out += _run_lines(f"{task} {model}",
                                      ["--task", task, "--model", model, *flags.split()])
            for task, model, flags in CSV_RUNS:
                if entries is None or model in entries:
                    with open(f"{task}.csv", "w") as fh:
                        fh.write(csv_text(task))
                    out += _run_lines(f"{task} {model} csv",
                                      ["--task", task, "--model", model, "--csv", f"{task}.csv",
                                       *flags.split()])
        finally:
            os.chdir(home)
    return out


def partition_spread(model, x: np.ndarray) -> float:
    """The largest ``|predict at batch 1 - predict at each PARTITION_SIZES|``."""
    one = predict(model, x, batch_size=1)
    return max(float(np.abs(predict(model, x, batch_size=n) - one).max())
               for n in PARTITION_SIZES)


def build(name: str, hyper: dict, head: str, rows: int = ROWS):
    """The model for one case and the rows it is checked on."""
    steps = max(zoo.minimum_input_length(name, **hyper), 64)
    model = zoo.build_model(name, (steps, 1), HEADS[head], seed=0, **hyper)
    x = np.random.default_rng(0).normal(size=(rows, steps, 1))
    return model, x


def _cases(entries):
    for name, hyper in VARIANTS:
        if entries is None or name in entries:
            label = " ".join([name, *(f"{k}={v}" for k, v in hyper.items())])
            for head in HEADS:
                yield f"{label} {head}", name, hyper, head


def lines(entries=None) -> list[str]:
    """Every digest line, then the total, for the named entries (all by default)."""
    out = []
    for case, name, hyper, head in _cases(entries):
        digests = model_digests(*build(name, hyper, head))
        out += [f"{case} {check} {d}" for check, d in digests.items()]
    out += cli_lines(entries)
    return out + [f"total {_sha(chr(10).join(out).encode())}"]


def partition_lines(entries=None) -> list[str]:
    """One batch-partition spread per case, then the largest of all."""
    spreads = {case: partition_spread(*build(name, hyper, head, PARTITION_ROWS))
               for case, name, hyper, head in _cases(entries)}
    return ([f"{case} {d:.3g}" for case, d in spreads.items()]
            + [f"max {max(spreads.values()):.3g}"])


def thread_lines(entries=None) -> list[str]:
    """The (entry, head, check) lines whose digests differ between the
    ``THREADS`` child runs, then their count."""
    argv = [sys.executable, os.path.abspath(__file__)]
    if entries:
        argv += ["--entries", *entries]
    runs = []
    for n in THREADS:
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(n)}
        run = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
        runs.append([line.rsplit(" ", 1) for line in run.stdout.splitlines()[:-1]])
    differ = [case for (case, a), (_, b) in zip(*runs) if a != b]
    return differ + [f"differ {len(differ)} of {len(runs[0])}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--entries", nargs="+", metavar="NAME",
                   help="registry names to digest (default: all)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--partition", action="store_true",
                      help="print batch-partition spreads instead of digests")
    mode.add_argument("--threads", action="store_true",
                      help="print the checks whose digests differ between "
                           "BLAS thread counts 1 and 2")
    args = p.parse_args(argv)
    unknown = sorted(set(args.entries or ()) - set(zoo.names()))
    if unknown:
        p.error(f"unknown entries {unknown}")
    show = partition_lines if args.partition else thread_lines if args.threads else lines
    print("\n".join(show(args.entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
