"""Print SHA-256 digests of what the engine computes, to compare two trees.

    python3 tools/digest.py [--entries NAME ...]

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

The last line is the SHA-256 of all lines before it.  Run the script on two
trees and diff the outputs: equal lines mean equal bytes.  The values depend
on the numpy and BLAS build, so compare runs made on one machine.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from deepseries import zoo  # noqa: E402
from deepseries.train import predict  # noqa: E402

ROWS = 6
HEADS = {
    "classify": zoo.make_top("classify", classes=3),
    "forecast": zoo.make_top("forecast", horizon=2, features=1),
}
VARIANTS = [(name, {}) for name in zoo.names()] + [("YaoQihang", {"attention": True})]


def _hash(*named: tuple[str, np.ndarray]) -> str:
    h = hashlib.sha256()
    for name, a in named:
        a = np.ascontiguousarray(a)
        h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
        h.update(a.tobytes())
    return h.hexdigest()


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


def build(name: str, hyper: dict, head: str):
    """The model for one case and the rows it is checked on."""
    steps = max(zoo.minimum_input_length(name, **hyper), 64)
    model = zoo.build_model(name, (steps, 1), HEADS[head], seed=0, **hyper)
    x = np.random.default_rng(0).normal(size=(ROWS, steps, 1))
    return model, x


def lines(entries=None) -> list[str]:
    """Every digest line, then the total, for the named entries (all by default)."""
    out = []
    for name, hyper in VARIANTS:
        if entries is not None and name not in entries:
            continue
        label = " ".join([name, *(f"{k}={v}" for k, v in hyper.items())])
        for head in HEADS:
            digests = model_digests(*build(name, hyper, head))
            out += [f"{label} {head} {check} {d}" for check, d in digests.items()]
    return out + [f"total {hashlib.sha256(chr(10).join(out).encode()).hexdigest()}"]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--entries", nargs="+", metavar="NAME",
                   help="registry names to digest (default: all)")
    args = p.parse_args(argv)
    unknown = sorted(set(args.entries or ()) - set(zoo.names()))
    if unknown:
        p.error(f"unknown entries {unknown}")
    print("\n".join(lines(args.entries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
