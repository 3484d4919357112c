"""Command-line front end: registry inspection, task presets, evaluation.

Commands
--------
* ``list``                         catalogue of registered architectures
* ``describe <model>``             one descriptor as ``key: value`` lines
* ``train --task T --model M ...`` preset pipeline, writes run artifacts
* ``eval --task T --model M --weights F ...``  test metric from saved weights,
  also written to ``metrics.txt`` in ``out`` when ``out`` is given

A run's configuration is resolved once, in layers: the task preset, the CSV
preset when the data comes from a CSV file, the ``--config`` file, then the
flags.  Each key must be one the task reads.  Every value, from a flag, a
config line, ``--hyper`` or ``--synth``, is text read by the type of its
default, so a word setting (``out``, ``csv``, ``column``, ``model``) takes its
text as given; ``zoo.checked_overrides`` then checks it against the default.

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
    DataError,
    FormatError,
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

_USAGE_ERRORS = (RegistryError, ParameterError, ShapeError)
# A weights file's FormatError or OSError is raised as _WeightsProblem (exit 5).
_DATA_ERRORS = (DataError, FormatError, OSError)

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


def _read_text(default, text: str):
    """``text`` read as ``default``'s type (a list as ``+``-joined elements); else the text."""
    s = text.strip()
    if isinstance(default, list):
        parts = s.split("+")
        if not all(p.strip() for p in parts):
            raise ParameterError(f"empty list element in {s!r}")
        return [_read_text(default[0], p) for p in parts]
    if isinstance(default, bool):
        return {"true": True, "false": False}.get(s.lower(), s)
    if isinstance(default, (int, float)):
        try:
            return type(default)(s)
        except ValueError:
            return s
    return s


def _read_texts(texts: dict, defaults: dict) -> dict:
    """Each text read like its key's default (as text without one)."""
    return {key: _read_text(defaults.get(key, ""), text) for key, text in texts.items()}


def _parse_kv_list(text: str, defaults: dict) -> dict:
    """``a=1,b=2.5,c=x`` into a dict, each value read like its default (text without one)."""
    out = {}
    for part in text.split(","):
        if not part.strip():
            continue
        if "=" not in part:
            raise ParameterError(f"expected key=value, got {part!r}")
        key, val = (t.strip() for t in part.split("=", 1))
        out[key] = val
    return _read_texts(out, defaults)


def _read_config_file(path: str) -> dict:
    """Flat ``key = value`` lines as text; ``#`` comments and blank lines ignored."""
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
        out[key.strip().replace("-", "_")] = val
    return out


def _resolve(args) -> dict:
    """The run configuration of ``train``/``eval`` as one dict, typed like the task preset.

    Task preset < CSV preset < config file < flags.  Each layer is checked
    on its own, so a bad config line fails even where a flag overrides it.
    ``hyper`` stays the ``key=value`` text of the config file joined with
    that of the flag, so the flag's overrides win; ``_prepare`` reads it
    against the model.  ``eval`` has no default ``out``: it writes
    ``metrics.txt`` only where ``out`` is given.
    """
    preset = {**_TASK_PRESETS[args.task], "hyper": ""}
    if args.command == "eval":
        preset["out"] = ""
    file_cfg = _read_config_file(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items()
             if v is not None and k not in ("command", "task", "config", "weights")}
    layers = [zoo.checked_overrides(args.task, "setting", preset, _read_texts(layer, preset))
              for layer in (file_cfg, flags)]
    given = {**layers[0], **layers[1]}
    if given.get("csv") and "synth" in given:
        raise ParameterError("give either --csv or --synth, not both")
    cfg = {**preset, **(_CSV_PRESETS[args.task] if given.get("csv") else {}), **given,
           "task": args.task, "hyper": ",".join(layer.get("hyper", "") for layer in layers)}
    if not cfg["model"]:
        raise ParameterError("--model is required")
    if given.get("out") == "":
        raise ParameterError("out must name a directory, got ''")
    return cfg


def _synth_options(cfg: dict) -> dict:
    """The ``--synth`` spec's options over its family defaults, typed like them."""
    family = _TASK_PRESETS[cfg["task"]]["synth"]
    name, _, rest = cfg["synth"].partition(":")
    if name.strip() != family:
        raise ParameterError(
            f"{cfg['task']} preset expects synth {family!r}, got {name.strip()!r}")
    defaults = {"length": cfg["window"], **_SYNTH_OPTIONS[family], "seed": cfg["seed"]}
    return {**defaults, **zoo.checked_overrides(family, "option", defaults,
                                                _parse_kv_list(rest, defaults))}


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
        arr = data.load_csv(cfg["csv"]).array
        if arr.shape[1] < 2:
            raise DataError("classify CSV needs feature columns plus a final label column")
        feats, labels = arr[:, :-1], arr[:, -1]
        if not ((labels >= 0) & (labels == np.floor(labels))).all():
            raise DataError("class labels must be non-negative integers")
        labels = labels.astype(int)
        classes = int(labels.max()) + 1
        if classes < 2:
            raise DataError("classify needs at least two classes")
        segs = np.stack([data.pad_or_truncate(r[:, None], cfg["window"]).array for r in feats])
        onehot = np.zeros((labels.size, classes))
        onehot[np.arange(labels.size), labels] = 1.0
        ds = data.SeriesDataset(segs, onehot)
    else:
        opts = _synth_options(cfg)
        classes = opts["classes"]
        ds = data.labeled_segments(**opts)
    normalized = np.stack([data.zscore(seg).array for seg in ds.inputs.array])
    ds = data.SeriesDataset(normalized, ds.targets)
    sets = data.split_pairs(ds, (0.7, 0.2, 0.1), seed=cfg["seed"])
    shape = ds.inputs.shape[1:]
    top = zoo.make_top("classify", classes=classes)
    return sets, shape, top, {"classes": classes, "window": shape[0]}


def _anomaly_sets(cfg: dict):
    if cfg["csv"]:
        raw = data.load_csv(cfg["csv"]).array
        if raw.shape[1] < 2:
            raise DataError("anomaly CSV needs feature columns plus a final 0/1 label column")
        series, labels = raw[:, :-1], raw[:, -1]
    else:
        series, labels = data.traffic_with_anomalies(**_synth_options(cfg))
        series, labels = series.array, labels.array
    window, steps = cfg["window"], cfg["steps"]
    ds, anom, clean = data.anomaly_windows(series, labels, window, steps, stride=steps)
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
    hyper = _parse_kv_list(args.hyper, zoo.get_descriptor(args.model).default_hyper)
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


_TASK_SETS = {"forecast": _forecast_sets, "classify": _classify_sets, "anomaly": _anomaly_sets}


def _prepare(cfg: dict):
    """Data parts, model and manifest extras; ``hyper`` is read against the model."""
    hyper = _parse_kv_list(cfg["hyper"], zoo.get_descriptor(cfg["model"]).default_hyper)
    (tr, va, test), shape, top, extra = _TASK_SETS[cfg["task"]](cfg)
    model = zoo.build_model(cfg["model"], shape, top=top, seed=cfg["seed"], **hyper)
    return tr, va, test, model, {**extra, "hyper": hyper}


def _test_metrics(cfg: dict, model, test) -> list[tuple[str, float]]:
    if cfg["task"] == "anomaly":
        te, te_anom = test
        k = int(te_anom.sum())
        if k == 0 or k == te.n:
            raise DataError("test part has a single class; cannot score anomalies")
        scores, labels, score = data.anomaly_harness(model, te, te_anom, top_k=k)
        return [("auc", score), ("top_k", float(k))]
    pred = train.predict(model, test.inputs, batch_size=cfg["batch_size"])
    if cfg["task"] == "forecast":
        return [("mae", train.mean_absolute_error(pred, test.targets))]
    return [("accuracy", train.accuracy(pred, test.targets))]


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
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        _write_lines(os.path.join(cfg["out"], "metrics.txt"), _metric_lines(metrics))
    return EXIT_OK


class _WeightsProblem(Exception):
    """Weights-file failure, distinguished from CSV format errors (exit 5)."""


# -- argument parsing --------------------------------------------------------------


# Help for the settings whose flag name does not say enough.
_FLAG_HELP = {
    "model": "registry architecture name",
    "csv": "CSV input path (give this or --synth)",
    "synth": "synthetic spec, e.g. sine:length=2000,noise=0.1",
    "column": "CSV column to forecast (header name)",
    "out": "output directory (train: default 'run'; eval: none, so nothing is written)",
}


def _add_run_flags(p: argparse.ArgumentParser, with_weights: bool):
    """``--task``, one flag per preset setting but ``loss`` (config file only),
    ``--config`` and ``--hyper``, and ``--weights`` for ``eval``."""
    p.add_argument("--task", required=True, choices=tuple(_TASK_PRESETS))
    for key in dict.fromkeys(k for preset in _TASK_PRESETS.values() for k in preset):
        if key != "loss":
            p.add_argument("--" + key.replace("_", "-"), help=_FLAG_HELP.get(key))
    p.add_argument("--config", help="flat key = value config file; flags override")
    p.add_argument("--hyper", help="architecture overrides, e.g. units=32,kernel=5")
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
    d.add_argument("--hyper", default="", help="overrides, e.g. units=32")
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
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
