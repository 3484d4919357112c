"""Command-line front end: registry inspection, task presets, evaluation.

Commands
--------
* ``list``                         catalogue of registered architectures
* ``describe <model>``             one descriptor as ``key: value`` lines
* ``train --task T --model M ...`` preset pipeline, writes run artifacts
* ``eval --task T --model M --weights F ...``  test metric from saved weights

Exit codes: 0 ok, 2 usage, 3 training diverged, 4 data problem, 5 weights
file problem.  Every train run writes ``weights.dsw``, ``history.txt``,
``metrics.txt``, and ``manifest.txt`` into the output directory; the manifest
echoes the resolved configuration and library versions so a run can be
reproduced exactly.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from typing import Optional

import numpy as np

from . import __version__, data, train, zoo
from .errors import (
    ContractError,
    DataError,
    DegenerateBatchError,
    DegenerateSegmentError,
    FormatError,
    MetricUndefinedError,
    ParameterError,
    RegistryError,
    ShapeError,
    TrainingDivergedError,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_DATA = 4
EXIT_WEIGHTS = 5

_USAGE_ERRORS = (RegistryError, ParameterError)
_DATA_ERRORS = (
    DataError,
    DegenerateBatchError,
    DegenerateSegmentError,
    ContractError,
    MetricUndefinedError,
    OSError,
)

# Per-task presets; command-line flags and config files override these.
_TASK_DEFAULTS = {
    "forecast": {
        "window": 100, "horizon": 10, "smooth_window": 0, "smooth_iters": 5,
        "loss": "mse", "batch_size": 256, "epochs": 150, "patience": 2,
        "delta": 0.0, "lr": 1e-3, "metric": "mae",
        "synth": "sine", "csv_window": 1000, "csv_horizon": 50,
        "csv_smooth_window": 50,
    },
    "classify": {
        "window": 128, "loss": "cross_entropy", "batch_size": 256,
        "epochs": 150, "patience": 3, "delta": 0.0, "lr": 1e-3,
        "metric": "accuracy", "synth": "segments", "csv_window": 1000,
    },
    "anomaly": {
        "window": 48, "steps": 4, "loss": "mse", "batch_size": 256,
        "epochs": 150, "patience": 3, "delta": 0.0, "lr": 1e-3,
        "metric": "auc", "synth": "traffic",
    },
}


def _parse_value(text: str):
    s = text.strip()
    low = s.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(s)
    except ValueError:
        pass
    try:
        return float(s)
    except ValueError:
        pass
    if "+" in s:
        return [_parse_value(p) for p in s.split("+")]
    return s


def _parse_kv_list(text: str) -> dict:
    """``a=1,b=2.5,c=x`` into a dict with int/float/bool coercion."""
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ParameterError(f"expected key=value, got {part!r}")
        key, val = part.split("=", 1)
        out[key.strip()] = _parse_value(val)
    return out


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; ``#`` comments and blank lines ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParameterError(f"{path}:{lineno}: expected key = value")
            key, val = line.split("=", 1)
            out[key.strip().replace("-", "_")] = _parse_value(val)
    return out


def _parse_synth(spec: str):
    """``name[:key=value,...]`` into (name, options)."""
    name, _, rest = spec.partition(":")
    return name.strip(), _parse_kv_list(rest) if rest else {}


def _synth_option(opts: dict, key: str, default):
    """Pop one synth option; it must be a value like its default (ints pass as floats)."""
    val = opts.pop(key, default)
    if not zoo._same_kind(default, val):
        raise ParameterError(f"synth option {key!r} takes a value like {default!r}, got {val!r}")
    if isinstance(default, int) and val < 0:  # counts, lengths and seeds
        raise ParameterError(f"synth option {key!r} must be >= 0, got {val}")
    return type(default)(val)


class _Run:
    """Resolved run configuration: presets < config file < explicit flags."""

    def __init__(self, args):
        self.task = args.task
        if self.task not in _TASK_DEFAULTS:
            raise ParameterError(f"unknown task {args.task!r}")
        merged = dict(_TASK_DEFAULTS[self.task])
        merged.update({"model": None, "csv": None, "seed": 0, "out": "run",
                       "hyper": {}, "column": None})
        self.explicit: set = set()
        if getattr(args, "config", None):
            file_cfg = _read_config_file(args.config)
            hyper = file_cfg.pop("hyper", None)
            if hyper is not None:
                merged["hyper"] = _parse_kv_list(str(hyper))
            merged.update(file_cfg)
            self.explicit |= set(file_cfg)
        for key in ("model", "csv", "synth", "seed", "out", "window",
                    "horizon", "steps", "smooth_window", "smooth_iters",
                    "epochs", "batch_size", "patience", "delta", "lr",
                    "column"):
            val = getattr(args, key, None)
            if val is not None:
                merged[key] = val
                self.explicit.add(key)
        if getattr(args, "hyper", None):
            merged["hyper"] = {**merged["hyper"], **_parse_kv_list(args.hyper)}
        if not merged.get("model"):
            raise ParameterError("--model is required")
        if merged.get("csv") and getattr(args, "synth", None):
            raise ParameterError("give either --csv or --synth, not both")
        self.cfg = merged

    def __getitem__(self, key):
        return self.cfg[key]

    def get(self, key, default=None):
        return self.cfg.get(key, default)

    def train_config(self) -> train.TrainConfig:
        c = self.cfg
        return train.TrainConfig(
            loss=c["loss"], batch_size=int(c["batch_size"]),
            max_epochs=int(c["epochs"]), patience=int(c["patience"]),
            min_delta=float(c["delta"]), lr=float(c["lr"]),
            seed=int(c["seed"]),
        )


# -- dataset assembly per task ---------------------------------------------------


def _forecast_sets(run: _Run):
    c = run.cfg
    smooth_window = int(c["smooth_window"])
    if c["csv"]:
        columns = [c["column"]] if c["column"] is not None else None
        series = data.load_csv(c["csv"], columns=columns)
        if "window" not in run.explicit:
            c["window"] = c["csv_window"]
        if "horizon" not in run.explicit:
            c["horizon"] = c["csv_horizon"]
        if "smooth_window" not in run.explicit:
            smooth_window = int(c["csv_smooth_window"])
    else:
        name, opts = _parse_synth(c["synth"])
        if name != "sine":
            raise ParameterError(f"forecast preset expects synth 'sine', got {name!r}")
        period = _synth_option(opts, "period", 40.0)
        if not period > 0.0:
            raise ParameterError(f"sine period must be > 0, got {period}")
        series = data.sine_mix(
            freqs=[1.0 / period],
            noise=_synth_option(opts, "noise", 0.0),
            length=_synth_option(opts, "length", 2000),
            seed=_synth_option(opts, "seed", int(c["seed"])),
            offset=_synth_option(opts, "offset", 2.0),
        )
        if opts:
            raise ParameterError(f"unknown sine options {sorted(opts)}")
    if smooth_window > 1:
        series = data.smooth(series, smooth_window, int(c["smooth_iters"]))
    window, horizon = int(c["window"]), int(c["horizon"])
    parts = data.chrono_split(series, (0.7, 0.2, 0.1))
    sets = tuple(data.windowize(p, window, horizon) for p in parts)
    features = series.shape[1]
    top = zoo.make_top("forecast", horizon=horizon, features=features)
    return sets, (window, features), top, {"window": window, "horizon": horizon,
                                           "features": features,
                                           "smooth_window": smooth_window}


def _classify_sets(run: _Run):
    c = run.cfg
    if c["csv"]:
        raw = data.load_csv(c["csv"])
        arr = np.asarray(raw.array)
        if arr.shape[1] < 2:
            raise DataError("classify CSV needs feature columns plus a final label column")
        feats, labels = arr[:, :-1], arr[:, -1].astype(int)
        if labels.min() < 0:
            raise DataError("class labels must be non-negative integers")
        classes = int(labels.max()) + 1
        if classes < 2:
            raise DataError("classify needs at least two classes")
        length = int(c["window"]) if "window" in run.explicit else int(c["csv_window"])
        segs = np.stack([
            np.asarray(data.pad_or_truncate(row[:, None], length).array)
            for row in feats
        ])
        onehot = np.eye(classes)[labels]
        ds = data.SeriesDataset(segs, onehot)
    else:
        name, opts = _parse_synth(c["synth"])
        if name != "segments":
            raise ParameterError(f"classify preset expects synth 'segments', got {name!r}")
        classes = _synth_option(opts, "classes", 5)
        length = _synth_option(opts, "length", int(c["window"]))
        ds = data.labeled_segments(
            classes, length, _synth_option(opts, "count", 60),
            seed=_synth_option(opts, "seed", int(c["seed"])),
            noise=_synth_option(opts, "noise", 0.05),
        )
        if opts:
            raise ParameterError(f"unknown segments options {sorted(opts)}")
    normalized = np.stack([
        np.asarray(data.zscore(seg).array) for seg in np.asarray(ds.inputs.array)
    ])
    ds = data.SeriesDataset(normalized, ds.targets, ds.note)
    sets = data.split_pairs(ds, (0.7, 0.2, 0.1), seed=int(c["seed"]))
    shape = tuple(np.asarray(ds.inputs.array).shape[1:])
    top = zoo.make_top("classify", classes=classes)
    return sets, shape, top, {"classes": classes, "window": shape[0]}


def _anomaly_sets(run: _Run):
    c = run.cfg
    if c["csv"]:
        raw = np.asarray(data.load_csv(c["csv"]).array)
        if raw.shape[1] < 2:
            raise DataError("anomaly CSV needs feature columns plus a final 0/1 label column")
        series, labels = raw[:, :-1], raw[:, -1]
    else:
        name, opts = _parse_synth(c["synth"])
        if name != "traffic":
            raise ParameterError(f"anomaly preset expects synth 'traffic', got {name!r}")
        series, labels = data.traffic_with_anomalies(
            _synth_option(opts, "features", 3), _synth_option(opts, "length", 2000),
            _synth_option(opts, "rate", 0.02),
            seed=_synth_option(opts, "seed", int(c["seed"])),
        )
        series = np.asarray(series.array)
        labels = np.asarray(labels.array)
        if opts:
            raise ParameterError(f"unknown traffic options {sorted(opts)}")
    window, steps = int(c["window"]), int(c["steps"])
    ds, anom, clean = data.anomaly_windows(series, labels, window, steps, stride=steps)
    anom, clean = np.asarray(anom).astype(bool), np.asarray(clean).astype(bool)
    # Clean windows from the leading 70% of the stream train the forecaster,
    # clean windows from the next 20% validate it, and every window of the
    # stream is scored (the anomalous ones were never trained on).
    n = series.shape[0]
    n_train, n_val = int(n * 0.7), int(n * 0.2)
    starts = np.arange(ds.n) * steps
    ends = starts + window + steps
    in_train = ends <= n_train
    in_val = (starts >= n_train) & (ends <= n_train + n_val)
    if (in_train & clean).sum() < 2 or (in_val & clean).sum() < 1:
        raise DataError("not enough clean windows to train on")
    train_set = ds.take(np.flatnonzero(in_train & clean))
    val_set = ds.take(np.flatnonzero(in_val & clean))
    features = series.shape[1]
    top = zoo.make_top("anomaly", steps=steps, features=features)
    extra = {"window": window, "steps": steps, "features": features,
             "scored_windows": int(ds.n), "anomalous_windows": int(anom.sum())}
    return (train_set, val_set, (ds, anom)), (window, features), top, extra


# -- artifacts --------------------------------------------------------------------


def _write_lines(path: str, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _manifest_lines(run: _Run, extra: dict) -> list[str]:
    c = {k: v for k, v in run.cfg.items() if not k.startswith("_")}
    c["task"] = run.task
    c.update(extra)
    hyper = c.pop("hyper", {})
    lines = [f"{k} = {c[k]}" for k in sorted(c) if c[k] is not None]
    lines += [f"hyper.{k} = {v}" for k, v in sorted(hyper.items())]
    lines += [
        f"deepseries = {__version__}",
        f"numpy = {np.__version__}",
        f"python = {platform.python_version()}",
    ]
    return lines


def _metric_lines(pairs) -> list[str]:
    return [f"metric {name} value {value:.10g}" for name, value in pairs]


# -- commands ---------------------------------------------------------------------


def cmd_list(_args) -> int:
    for desc in zoo.list_models():
        print(f"{desc.name}: {desc.summary}")
    return EXIT_OK


def cmd_describe(args) -> int:
    hyper = _parse_kv_list(args.hyper) if args.hyper else {}
    report = zoo.describe(args.model, **hyper)
    for key in ("name", "summary", "citation", "multi_input", "param_count",
                "output_shape"):
        print(f"{key}: {report[key]}")
    for fam, count in report["families"].items():
        print(f"{fam}: {count}")
    for fam, present in report["presence"].items():
        print(f"has_{fam}: {str(present).lower()}")
    for key, val in report["hyper"].items():
        print(f"hyper.{key}: {val}")
    return EXIT_OK


def _prepare(run: _Run):
    if run.task == "forecast":
        (tr, va, te), shape, top, extra = _forecast_sets(run)
        test = (te, None)
    elif run.task == "classify":
        (tr, va, te), shape, top, extra = _classify_sets(run)
        test = (te, None)
    else:
        (tr, va, test), shape, top, extra = _anomaly_sets(run)
    model = zoo.build_model(run["model"], shape, top=top,
                            seed=int(run["seed"]), **run["hyper"])
    return tr, va, test, model, extra


def _test_metrics(run: _Run, model, test) -> list[tuple[str, float]]:
    if run.task == "anomaly":
        te, te_anom = test
        k = int(te_anom.sum())
        if k == 0 or k == te.n:
            raise MetricUndefinedError(
                "test part has a single class; cannot score anomalies")
        scores, labels, score = data.anomaly_harness(model, te, te_anom, top_k=k)
        return [("auc", score), ("top_k", float(k))]
    te, _ = test
    pred = train.predict(model, te.inputs, batch_size=int(run["batch_size"]))
    value = train.evaluate(run["metric"], pred, te.targets)
    return [(run["metric"], value)]


def cmd_train(args) -> int:
    run = _Run(args)
    tr, va, test, model, extra = _prepare(run)
    history = train.fit(model, tr, va, run.train_config())
    out = run["out"]
    os.makedirs(out, exist_ok=True)
    model.save_weights(os.path.join(out, "weights.dsw"))
    metrics = _test_metrics(run, model, test)
    metrics.append(("val_loss", history.epochs[history.best_epoch]["val_loss"]))
    _write_lines(os.path.join(out, "history.txt"), history.lines())
    _write_lines(os.path.join(out, "metrics.txt"), _metric_lines(metrics))
    _write_lines(os.path.join(out, "manifest.txt"), _manifest_lines(run, extra))
    for line in _metric_lines(metrics):
        print(line)
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    run = _Run(args)
    tr, va, test, model, extra = _prepare(run)
    try:
        model.load_weights(args.weights)
    except (FormatError, OSError) as exc:
        raise _WeightsProblem(str(exc)) from None
    metrics = _test_metrics(run, model, test)
    for line in _metric_lines(metrics):
        print(line)
    if getattr(args, "out", None):
        os.makedirs(args.out, exist_ok=True)
        _write_lines(os.path.join(args.out, "metrics.txt"), _metric_lines(metrics))
    return EXIT_OK


class _WeightsProblem(Exception):
    """Weights-file failure, distinguished from CSV format errors (exit 5)."""


# -- argument parsing --------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser, with_weights: bool):
    p.add_argument("--task", required=True, choices=("forecast", "classify", "anomaly"))
    p.add_argument("--model", help="registry architecture name")
    src = p.add_argument_group("data source (exactly one)")
    src.add_argument("--csv", help="CSV input path")
    src.add_argument("--synth", help="synthetic spec, e.g. sine:length=2000,noise=0.1")
    p.add_argument("--column", help="CSV column to forecast (name or index)")
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--hyper", help="architecture overrides, e.g. units=32,kernel=5")
    p.add_argument("--seed", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--smooth-window", dest="smooth_window", type=int)
    p.add_argument("--smooth-iters", dest="smooth_iters", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--delta", type=float)
    p.add_argument("--lr", type=float)
    p.add_argument("--out", help="output directory (default 'run')")
    if with_weights:
        p.add_argument("--weights", required=True, help="weights file from a train run")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deepseries",
        description="time-series deep learning: registry, training presets, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="catalogue the registered architectures")
    d = sub.add_parser("describe", help="print one architecture descriptor")
    d.add_argument("model")
    d.add_argument("--hyper", help="overrides, e.g. units=32")
    t = sub.add_parser("train", help="run a task preset end to end")
    _add_run_flags(t, with_weights=False)
    e = sub.add_parser("eval", help="recompute the test metric from saved weights")
    _add_run_flags(e, with_weights=True)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = _parser().parse_args(argv)
    handler = {"list": cmd_list, "describe": cmd_describe,
               "train": cmd_train, "eval": cmd_eval}[args.command]
    try:
        return handler(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingDivergedError as exc:
        print(f"error: training diverged at epoch {exc.epoch}", file=sys.stderr)
        return EXIT_DIVERGED
    except _WeightsProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_WEIGHTS
    except FormatError as exc:
        # weights-file problems are tagged above; remaining format errors are data
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ShapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
