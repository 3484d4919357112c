"""Command-line front end: registry inspection, task presets, evaluation.

Commands
--------
* ``list``                         catalogue of registered architectures
* ``describe <model>``             one descriptor as ``key: value`` lines
* ``train --task T --model M ...`` preset pipeline, writes run artifacts
* ``eval --task T --model M --weights F ...``  test metric from saved weights

A run's configuration is resolved once, in layers: the task preset, the CSV
preset when the data comes from a CSV file, the ``--config`` file, then the
flags.  Each key must be one the task reads, and each value must be of the
kind of its preset value, whose type it then takes.

Exit codes: 0 ok, 2 usage (a bad flag, config key or value), 3 training
diverged, 4 data problem, 5 weights file problem.  Every train run writes
``weights.dsw``, ``history.txt``, ``metrics.txt``, and ``manifest.txt`` into
the output directory; the manifest echoes the resolved configuration and
library versions so a run can be reproduced exactly.
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

# The keys each task reads, with their preset values ("" is a string not given).
_SHARED = {"model": "", "csv": "", "seed": 0, "out": "run", "batch_size": 256,
           "epochs": 150, "delta": 0.0, "lr": 1e-3}
_TASK_PRESETS = {
    "forecast": {**_SHARED, "synth": "sine", "column": "", "window": 100,
                 "horizon": 10, "smooth_window": 0, "smooth_iters": 5,
                 "loss": "mse", "patience": 2},
    "classify": {**_SHARED, "synth": "segments", "window": 128,
                 "loss": "cross_entropy", "patience": 3},
    "anomaly": {**_SHARED, "synth": "traffic", "window": 48, "steps": 4,
                "loss": "mse", "patience": 3},
}
# Laid over the task preset when the data source is a CSV file.
_CSV_PRESETS = {
    "forecast": {"window": 1000, "horizon": 50, "smooth_window": 50},
    "classify": {"window": 1000},
    "anomaly": {},
}
# Options of each synthetic family with their defaults.  Every family also
# takes ``seed`` (default: the run seed); one without a ``length`` default
# makes series as long as the run window.
_SYNTH_OPTIONS = {
    "sine": {"period": 40.0, "noise": 0.0, "length": 2000, "offset": 2.0},
    "segments": {"classes": 5, "count": 60, "noise": 0.05},
    "traffic": {"features": 3, "length": 2000, "rate": 0.02},
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
    """Flat ``key = value`` lines; ``#`` comments and blank lines ignored.

    Values are parsed like ``--hyper`` values, except that the ``hyper``
    value, itself a ``key=value`` list, stays text.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: not UTF-8 text ({exc.reason})") from None
    out = {}
    for lineno, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected key = value")
        key, val = line.split("=", 1)
        key = key.strip().replace("-", "_")
        out[key] = val if key == "hyper" else _parse_value(val)
    return out


def _typed(what: str, key: str, default, val):
    """``val`` in the type of ``default``; it must be of the same kind (ints pass as floats)."""
    if not zoo._same_kind(default, val):
        raise ParameterError(f"{what} {key!r} takes a value like {default!r}, got {val!r}")
    try:
        return type(default)(val)
    except OverflowError:  # an integer too large for a float
        raise ParameterError(f"{what} {key!r} is out of range, got {val}") from None


def _resolve(args) -> dict:
    """The run configuration of ``train``/``eval`` as one dict, typed like the task preset.

    Task preset < CSV preset < config file < flags, except that ``hyper``
    overrides from the flag merge into those from the config file.
    """
    preset = _TASK_PRESETS[args.task]
    file_cfg = _read_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "task", "config", "weights")}
    given, hyper = {}, {}
    for layer in (file_cfg, flags):
        hyper.update(_parse_kv_list(layer.pop("hyper", "")))
        for key, val in layer.items():
            if key not in preset:
                raise ParameterError(f"{key!r} is not a {args.task} setting; "
                                     f"allowed: {sorted([*preset, 'hyper'])}")
            given[key] = _typed("setting", key, preset[key], val)
    if given.get("csv") and "synth" in given:
        raise ParameterError("give either --csv or --synth, not both")
    cfg = {**preset, **(_CSV_PRESETS[args.task] if given.get("csv") else {}), **given,
           "task": args.task, "hyper": hyper}
    if not cfg["model"]:
        raise ParameterError("--model is required")
    if cfg["seed"] < 0:
        raise ParameterError(f"seed must be >= 0, got {cfg['seed']}")
    return cfg


def _synth_options(cfg: dict) -> dict:
    """The ``--synth`` spec's options over its family defaults, typed like them."""
    family = _TASK_PRESETS[cfg["task"]]["synth"]
    name, _, rest = cfg["synth"].partition(":")
    if name.strip() != family:
        raise ParameterError(
            f"{cfg['task']} preset expects synth {family!r}, got {name.strip()!r}")
    defaults = {"length": cfg["window"], **_SYNTH_OPTIONS[family], "seed": cfg["seed"]}
    given = _parse_kv_list(rest)
    unknown = sorted(set(given) - set(defaults))
    if unknown:
        raise ParameterError(f"unknown {family} options {unknown}")
    opts = {}
    for key, default in defaults.items():
        opts[key] = val = _typed("synth option", key, default, given.get(key, default))
        if isinstance(default, int) and val < 0:  # counts, lengths and seeds
            raise ParameterError(f"synth option {key!r} must be >= 0, got {val}")
    return opts


# -- dataset assembly per task ---------------------------------------------------


def _forecast_sets(cfg: dict):
    if cfg["csv"]:
        columns = [cfg["column"]] if cfg["column"] else None
        series = data.load_csv(cfg["csv"], columns=columns)
    else:
        opts = _synth_options(cfg)
        period = opts.pop("period")
        if not period > 0.0:
            raise ParameterError(f"sine period must be > 0, got {period}")
        series = data.sine_mix(freqs=[1.0 / period], **opts)
    if cfg["smooth_window"] > 1:
        series = data.smooth(series, cfg["smooth_window"], cfg["smooth_iters"])
    window, horizon = cfg["window"], cfg["horizon"]
    parts = data.chrono_split(series, (0.7, 0.2, 0.1))
    sets = tuple(data.windowize(p, window, horizon) for p in parts)
    features = series.shape[1]
    top = zoo.make_top("forecast", horizon=horizon, features=features)
    return sets, (window, features), top, {"features": features}


def _classify_sets(cfg: dict):
    if cfg["csv"]:
        raw = data.load_csv(cfg["csv"])
        arr = np.asarray(raw.array)
        if arr.shape[1] < 2:
            raise DataError("classify CSV needs feature columns plus a final label column")
        feats, labels = arr[:, :-1], arr[:, -1]
        if not ((labels >= 0) & (labels == np.floor(labels))).all():
            raise DataError("class labels must be non-negative integers")
        labels = labels.astype(int)
        classes = int(labels.max()) + 1
        if classes < 2:
            raise DataError("classify needs at least two classes")
        segs = np.stack([
            np.asarray(data.pad_or_truncate(row[:, None], cfg["window"]).array)
            for row in feats
        ])
        onehot = np.zeros((labels.size, classes))
        onehot[np.arange(labels.size), labels] = 1.0
        ds = data.SeriesDataset(segs, onehot)
    else:
        opts = _synth_options(cfg)
        classes = opts["classes"]
        ds = data.labeled_segments(**opts)
    normalized = np.stack([
        np.asarray(data.zscore(seg).array) for seg in np.asarray(ds.inputs.array)
    ])
    ds = data.SeriesDataset(normalized, ds.targets, ds.note)
    sets = data.split_pairs(ds, (0.7, 0.2, 0.1), seed=cfg["seed"])
    shape = tuple(np.asarray(ds.inputs.array).shape[1:])
    top = zoo.make_top("classify", classes=classes)
    return sets, shape, top, {"classes": classes, "window": shape[0]}


def _anomaly_sets(cfg: dict):
    if cfg["csv"]:
        raw = np.asarray(data.load_csv(cfg["csv"]).array)
        if raw.shape[1] < 2:
            raise DataError("anomaly CSV needs feature columns plus a final 0/1 label column")
        series, labels = raw[:, :-1], raw[:, -1]
    else:
        series, labels = data.traffic_with_anomalies(**_synth_options(cfg))
        series = np.asarray(series.array)
        labels = np.asarray(labels.array)
    window, steps = cfg["window"], cfg["steps"]
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
    extra = {"features": features, "scored_windows": int(ds.n),
             "anomalous_windows": int(anom.sum())}
    return (train_set, val_set, (ds, anom)), (window, features), top, extra


# -- artifacts --------------------------------------------------------------------


def _write_lines(path: str, lines):
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def _manifest_lines(cfg: dict, extra: dict) -> list[str]:
    c = {**cfg, **extra}
    hyper = c.pop("hyper")
    lines = [f"{k} = {c[k]}" for k in sorted(c) if c[k] != ""]
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


def _prepare(cfg: dict):
    if cfg["task"] == "forecast":
        (tr, va, te), shape, top, extra = _forecast_sets(cfg)
        test = (te, None)
    elif cfg["task"] == "classify":
        (tr, va, te), shape, top, extra = _classify_sets(cfg)
        test = (te, None)
    else:
        (tr, va, test), shape, top, extra = _anomaly_sets(cfg)
    model = zoo.build_model(cfg["model"], shape, top=top,
                            seed=cfg["seed"], **cfg["hyper"])
    return tr, va, test, model, extra


def _test_metrics(cfg: dict, model, test) -> list[tuple[str, float]]:
    if cfg["task"] == "anomaly":
        te, te_anom = test
        k = int(te_anom.sum())
        if k == 0 or k == te.n:
            raise MetricUndefinedError(
                "test part has a single class; cannot score anomalies")
        scores, labels, score = data.anomaly_harness(model, te, te_anom, top_k=k)
        return [("auc", score), ("top_k", float(k))]
    te, _ = test
    pred = train.predict(model, te.inputs, batch_size=cfg["batch_size"])
    metric = "mae" if cfg["task"] == "forecast" else "accuracy"
    return [(metric, train.evaluate(metric, pred, te.targets))]


def cmd_train(args) -> int:
    cfg = _resolve(args)
    tr, va, test, model, extra = _prepare(cfg)
    history = train.fit(model, tr, va, train.TrainConfig(
        loss=cfg["loss"], batch_size=cfg["batch_size"], max_epochs=cfg["epochs"],
        patience=cfg["patience"], min_delta=cfg["delta"], lr=cfg["lr"], seed=cfg["seed"]))
    out = cfg["out"]
    os.makedirs(out, exist_ok=True)
    model.save_weights(os.path.join(out, "weights.dsw"))
    metrics = _test_metrics(cfg, model, test)
    metrics.append(("val_loss", history.epochs[history.best_epoch]["val_loss"]))
    _write_lines(os.path.join(out, "history.txt"), history.lines())
    _write_lines(os.path.join(out, "metrics.txt"), _metric_lines(metrics))
    _write_lines(os.path.join(out, "manifest.txt"), _manifest_lines(cfg, extra))
    for line in _metric_lines(metrics):
        print(line)
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    tr, va, test, model, extra = _prepare(cfg)
    try:
        model.load_weights(args.weights)
    except (FormatError, OSError) as exc:
        raise _WeightsProblem(str(exc)) from None
    metrics = _test_metrics(cfg, model, test)
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
    p.add_argument("--column", help="CSV column to forecast (header name)")
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
