"""End-to-end command-line behaviour: commands, presets, artifacts, exit codes."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from deepseries import cli, train, zoo
from deepseries.cli import main
from deepseries.errors import (
    ContractError,
    DataError,
    DegenerateBatchError,
    DegenerateSegmentError,
    MetricUndefinedError,
    ParameterError,
)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------ list / describe


def test_list_prints_every_architecture(capsys):
    code, out, _ = run_cli(["list"], capsys)
    assert code == 0
    lines = [l for l in out.splitlines() if l.strip()]
    assert len(lines) == 22
    names = {l.split(":", 1)[0] for l in lines}
    assert names == set(zoo.names())


def test_describe_reports_families_and_hyper(capsys):
    code, out, _ = run_cli(["describe", "GaoJunli"], capsys)
    assert code == 0
    assert "name: GaoJunli" in out
    assert "lstm: 1" in out
    assert "conv1d: 0" in out
    assert "has_lstm: true" in out
    assert "has_cnn: false" in out
    assert "hyper.units: 64" in out
    assert "param_count:" in out


def test_describe_accepts_hyper_overrides(capsys):
    code, out, _ = run_cli(["describe", "GaoJunli", "--hyper", "units=8"], capsys)
    assert code == 0
    assert "output_shape: (8,)" in out


def test_describe_prints_the_hyper_it_built_with(capsys):
    code, out, _ = run_cli(["describe", "ExampleModel", "--hyper", "units=8"], capsys)
    assert code == 0
    assert "hyper.units: 8" in out.splitlines()
    assert "hyper.kernel: 3" in out.splitlines()  # defaults fill the rest


def test_describe_rejects_mistyped_hyper(capsys):
    code, _, err = run_cli(["describe", "ExampleModel", "--hyper", "filters=abc"], capsys)
    assert code == 2
    assert err.startswith("error: ExampleModel hyperparameter 'filters'")
    assert "Traceback" not in err


def test_describe_takes_a_one_value_list(capsys):
    # a scalar for a list hyperparameter is its one-value list
    code, out, _ = run_cli(["describe", "FuJiangmeng", "--hyper", "filters=32"], capsys)
    assert code == 0
    assert "hyper.filters: [32]" in out.splitlines()


def test_describe_reads_a_bool_hyper(capsys):
    code, out, _ = run_cli(["describe", "YaoQihang", "--hyper", "attention=true"], capsys)
    assert code == 0
    assert {"hyper.attention: True", "attention: 1"} <= set(out.splitlines())


def test_describe_rejects_a_hyper_without_a_value(capsys):
    code, _, err = run_cli(["describe", "ExampleModel", "--hyper", "units"], capsys)
    assert code == 2
    assert err == "error: expected key=value, got 'units'\n"


@pytest.mark.parametrize("text", ["32+", "+", "1++2"])
def test_describe_rejects_empty_list_elements(capsys, text):
    code, _, err = run_cli(["describe", "FuJiangmeng", "--hyper", f"filters={text}"], capsys)
    assert code == 2
    assert err == f"error: empty list element in {text!r}\n"


@pytest.mark.parametrize("name,filters", [("YaoQihang", "16+16"),
                                          ("YildirimOzal", "16+32+64")])
def test_describe_rejects_filters_of_the_wrong_length(capsys, name, filters):
    code, _, err = run_cli(["describe", name, "--hyper", f"filters={filters}"], capsys)
    assert code == 2
    assert err.startswith("error: filters must list ")
    assert "Traceback" not in err


@pytest.mark.parametrize("name,hyper", [
    ("CaiWenjuan", "blocks=-1"),
    ("CaiWenjuan", "block_depth=-1"),
    ("YaoQihang", "block_convs=-1+2+3+3+3"),
    ("LihOhShu", "first_kernel=0"),  # a kernel is at least 1 wide
])
def test_describe_rejects_negative_counts_and_zero_kernels(capsys, name, hyper):
    code, _, err = run_cli(["describe", name, "--hyper", hyper], capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_describe_names_a_join_left_with_one_input(capsys):
    code, out, err = run_cli(["describe", "CaiWenjuan", "--hyper", "entry_kernels=3"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: node 'entry_cat': concat takes two or more inputs, got 1\n"


def test_describe_unknown_model_is_usage_error(capsys):
    code, _, err = run_cli(["describe", "NoSuchNet"], capsys)
    assert code == 2
    assert "unknown architecture" in err


# ------------------------------------------------------------------- training


FAST_FORECAST = [
    "train", "--task", "forecast", "--model", "ExampleModel",
    "--synth", "sine:length=600", "--window", "40", "--horizon", "5",
    "--epochs", "2", "--batch-size", "64",
]


def test_train_forecast_writes_artifacts(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, _ = run_cli(FAST_FORECAST + ["--out", str(out_dir)], capsys)
    assert code == 0
    for name in ("weights.dsw", "history.txt", "metrics.txt", "manifest.txt"):
        assert (out_dir / name).exists(), name
    assert "metric mae value" in out
    assert f"artifacts written to {out_dir}" in out

    history = (out_dir / "history.txt").read_text().splitlines()
    assert history[0].startswith("epoch 0 train_loss ")
    assert "val_loss" in history[0]

    metrics = (out_dir / "metrics.txt").read_text()
    assert metrics.startswith("metric mae value ")
    assert "metric val_loss value" in metrics

    manifest = (out_dir / "manifest.txt").read_text()
    assert "model = ExampleModel" in manifest
    assert "window = 40" in manifest
    assert "horizon = 5" in manifest
    assert "task = forecast" in manifest
    assert "numpy =" in manifest and "python =" in manifest


def test_train_is_deterministic_per_seed(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a", "b", "c"))
    run_cli(FAST_FORECAST + ["--out", str(a), "--seed", "1"], capsys)
    run_cli(FAST_FORECAST + ["--out", str(b), "--seed", "1"], capsys)
    run_cli(FAST_FORECAST + ["--out", str(c), "--seed", "2"], capsys)
    assert (a / "metrics.txt").read_bytes() == (b / "metrics.txt").read_bytes()
    assert (a / "history.txt").read_bytes() == (b / "history.txt").read_bytes()
    assert (a / "weights.dsw").read_bytes() == (b / "weights.dsw").read_bytes()
    assert (a / "metrics.txt").read_bytes() != (c / "metrics.txt").read_bytes()


def test_train_classify_synth(tmp_path, capsys):
    out_dir = tmp_path / "clf"
    code, out, _ = run_cli(
        ["train", "--task", "classify", "--model", "ExampleModel",
         "--synth", "segments:classes=3,count=10,length=64",
         "--epochs", "2", "--batch-size", "32", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "metric accuracy value" in out
    assert "classes = 3" in (out_dir / "manifest.txt").read_text()


def test_train_anomaly_synth(tmp_path, capsys):
    out_dir = tmp_path / "anom"
    code, out, _ = run_cli(
        ["train", "--task", "anomaly", "--model", "ExampleModel",
         "--synth", "traffic:length=800,features=2",
         "--epochs", "1", "--batch-size", "64", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "metric auc value" in out
    assert "metric top_k value" in out
    manifest = (out_dir / "manifest.txt").read_text()
    assert "steps = 4" in manifest
    assert "scored_windows =" in manifest


def test_train_forecast_from_csv(tmp_path, capsys):
    rows = ["step,value"]
    rows += [f"{i},{np.sin(i / 7.0) + 2.0:.6f}" for i in range(500)]
    csv_path = tmp_path / "series.csv"
    csv_path.write_text("\n".join(rows) + "\n")
    out_dir = tmp_path / "csvrun"
    code, out, _ = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(csv_path), "--column", "value",
         "--window", "30", "--horizon", "5", "--smooth-window", "3",
         "--epochs", "1", "--batch-size", "64", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "metric mae value" in out
    assert "smooth_window = 3" in (out_dir / "manifest.txt").read_text()


def test_train_classify_from_csv(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lines = [",".join(f"f{j}" for j in range(8)) + ",label"]
    for i in range(12):
        vals = rng.normal(size=8) + (1.5 if i % 2 else 0.0)
        lines.append(",".join(f"{v:.4f}" for v in vals) + f",{i % 2}")
    csv_path = tmp_path / "segments.csv"
    csv_path.write_text("\n".join(lines) + "\n")
    out_dir = tmp_path / "csvclf"
    code, out, _ = run_cli(
        ["train", "--task", "classify", "--model", "ExampleModel",
         "--csv", str(csv_path), "--window", "16",
         "--epochs", "1", "--batch-size", "8", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    assert "metric accuracy value" in out
    assert "classes = 2" in (out_dir / "manifest.txt").read_text()


def _classify_csv(path, labels):
    rng = np.random.default_rng(0)
    lines = [",".join(f"f{j}" for j in range(8)) + ",label"]
    for label in labels:
        lines.append(",".join(f"{v:.4f}" for v in rng.normal(size=8)) + f",{label}")
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("bad", ["2.5", "-0.5", "-1"])
def test_classify_labels_that_are_not_class_indices_exit_4(tmp_path, capsys, bad):
    # 2.5 used to train as class 2, and -0.5 passed a check made after the int cast
    labels = [i % 2 for i in range(11)] + [bad]
    csv_path = _classify_csv(tmp_path / "segments.csv", labels)
    code, _, err = run_cli(
        ["train", "--task", "classify", "--model", "ExampleModel",
         "--csv", str(csv_path), "--window", "16", "--epochs", "1",
         "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4
    assert "class labels must be non-negative integers" in err
    assert not (tmp_path / "x").exists()


def test_classify_csv_targets_are_one_hot_rows(tmp_path):
    labels = [0, 2, 1, 2, 0, 1, 2, 1, 0, 2, 1, 0, 2]
    path = _classify_csv(tmp_path / "segments.csv", [f"{v}.0" for v in labels])
    sets, _, _, extra = cli._classify_sets({"csv": str(path), "window": 16, "seed": 4})
    assert extra["classes"] == 3
    got = np.concatenate([np.asarray(s.targets.array) for s in sets])
    assert got.shape == (13, 3)
    assert set(np.unique(got)) == {0.0, 1.0} and (got.sum(axis=1) == 1.0).all()
    np.testing.assert_array_equal(got.sum(axis=0), np.bincount(labels))


def test_config_file_under_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# forecast settings\n"
        "window = 30\n"
        "horizon = 9\n"
        "epochs = 1\n"
        "batch-size = 64\n"
        "hyper = units=10\n"
    )
    out_dir = tmp_path / "cfgrun"
    code, _, _ = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "sine:length=600", "--config", str(cfg),
         "--horizon", "6", "--out", str(out_dir)],
        capsys,
    )
    assert code == 0
    manifest = (out_dir / "manifest.txt").read_text()
    assert "window = 30" in manifest       # from the config file
    assert "horizon = 6" in manifest       # flag beats config
    assert "hyper.units = 10" in manifest  # hyper override applied


def test_config_file_hyper_takes_lists(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("hyper = filters=8+8,units=10\n")
    out_dir = tmp_path / "cfgrun"
    code, _, _ = run_cli(FAST_FORECAST + ["--config", str(cfg), "--out", str(out_dir)],
                         capsys)
    assert code == 0
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert "hyper.filters = [8, 8]" in manifest
    assert "hyper.units = 10" in manifest


def test_csv_preset_sits_between_task_preset_and_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("window = 30\ndelta = 0\n")
    args = cli._parser().parse_args(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", "series.csv", "--config", str(cfg), "--lr", "1"])
    c = cli._resolve(args)
    assert (c["window"], c["horizon"], c["smooth_window"]) == (30, 50, 50)
    assert c["smooth_iters"] == 5  # from the task preset
    assert type(c["delta"]) is float and type(c["lr"]) is float  # typed like the preset
    args = cli._parser().parse_args(
        ["train", "--task", "forecast", "--model", "ExampleModel", "--synth", "sine"])
    c = cli._resolve(args)
    assert (c["window"], c["horizon"], c["smooth_window"]) == (100, 10, 0)


def test_default_out_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(FAST_FORECAST, capsys)
    assert code == 0
    assert (tmp_path / "run" / "weights.dsw").exists()


# ----------------------------------------------------------------- evaluation


def test_eval_reproduces_training_metric(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(FAST_FORECAST + ["--out", str(out_dir)], capsys)
    trained = (out_dir / "metrics.txt").read_text().splitlines()[0]
    # same data flags, eval instead of train
    code, out, _ = run_cli(
        ["eval", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "sine:length=600", "--window", "40", "--horizon", "5",
         "--weights", str(out_dir / "weights.dsw")],
        capsys,
    )
    assert code == 0
    assert out.splitlines()[0] == trained


def test_eval_writes_metrics_where_out_is_given(tmp_path, capsys, monkeypatch):
    # a config-file out was ignored: eval exited 0 and made no directory
    monkeypatch.chdir(tmp_path)
    run_cli(FAST_FORECAST + ["--out", "trained"], capsys)
    metric = (tmp_path / "trained" / "metrics.txt").read_text().splitlines()[:1]
    base = ["eval", "--task", "forecast", "--model", "ExampleModel",
            "--synth", "sine:length=600", "--window", "40", "--horizon", "5",
            "--weights", "trained/weights.dsw"]
    (tmp_path / "e.cfg").write_text("out = from_config\n")
    assert run_cli(base, capsys)[0] == 0
    assert [p.name for p in tmp_path.iterdir() if p.is_dir()] == ["trained"]
    assert run_cli(base + ["--config", "e.cfg"], capsys)[0] == 0
    assert (tmp_path / "from_config" / "metrics.txt").read_text().splitlines() == metric
    assert run_cli(base + ["--out", "from_flag"], capsys)[0] == 0
    assert (tmp_path / "from_flag" / "metrics.txt").read_text().splitlines() == metric


def test_eval_rejects_mismatched_model(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(FAST_FORECAST + ["--out", str(out_dir)], capsys)
    code, _, err = run_cli(
        ["eval", "--task", "forecast", "--model", "GaoJunli",
         "--synth", "sine:length=600", "--window", "40", "--horizon", "5",
         "--weights", str(out_dir / "weights.dsw")],
        capsys,
    )
    assert code == 5
    assert "error:" in err


def test_eval_rejects_corrupt_and_missing_weights(tmp_path, capsys):
    out_dir = tmp_path / "run"
    run_cli(FAST_FORECAST + ["--out", str(out_dir)], capsys)
    weights = out_dir / "weights.dsw"
    blob = bytearray(weights.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    weights.write_bytes(bytes(blob))
    base = ["eval", "--task", "forecast", "--model", "ExampleModel",
            "--synth", "sine:length=600", "--window", "40", "--horizon", "5"]
    code, _, err = run_cli(base + ["--weights", str(weights)], capsys)
    assert code == 5
    assert "checksum" in err
    code, _, err = run_cli(base + ["--weights", str(tmp_path / "nope.dsw")], capsys)
    assert code == 5


def test_eval_rejects_non_finite_weights(tmp_path, capsys):
    # one NaN in the LSTM once loaded, and eval printed "metric mae value nan"
    # and exited 0
    from deepseries.container import read_records, write_records
    from deepseries.graph import WEIGHTS_MAGIC

    out_dir = tmp_path / "run"
    run_cli(FAST_FORECAST + ["--out", str(out_dir)], capsys)
    weights = str(out_dir / "weights.dsw")
    state = {k: v.copy() for k, v in read_records(WEIGHTS_MAGIC, weights).items()}
    state["lstm/wh"][0, 0] = np.nan
    write_records(WEIGHTS_MAGIC, state, weights)
    code, out, err = run_cli(
        ["eval", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "sine:length=600", "--window", "40", "--horizon", "5",
         "--weights", weights],
        capsys,
    )
    assert code == 5
    assert out == ""
    assert "'lstm/wh' holds a non-finite value" in err


# ----------------------------------------------------------------- exit codes


def test_usage_errors_exit_2(tmp_path, capsys):
    assert run_cli(["train", "--task", "forecast", "--synth", "sine",
                    "--out", str(tmp_path / "x")], capsys)[0] == 2  # no model
    assert run_cli(["train", "--task", "forecast", "--model", "NoSuchNet",
                    "--synth", "sine", "--out", str(tmp_path / "x")],
                   capsys)[0] == 2
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "sine", "--csv", "also.csv", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 2 and "either --csv or --synth" in err
    assert run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "sine", "--hyper", "banana=1", "--out", str(tmp_path / "x")],
        capsys,
    )[0] == 2
    assert run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "segments", "--out", str(tmp_path / "x")],
        capsys,
    )[0] == 2  # wrong synth family for the task
    assert run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--synth", "sine:volume=11", "--out", str(tmp_path / "x")],
        capsys,
    )[0] == 2  # unknown synth option


@pytest.mark.parametrize("task,spec", [
    ("forecast", "sine:length=abc"),
    ("forecast", "sine:length=1+2"),
    ("forecast", "sine:length=2.5"),
    ("forecast", "sine:period=0"),
    ("forecast", "sine:noise=0.1,seed=-1"),
    ("anomaly", "traffic:rate=abc"),
    ("classify", "segments:count=abc"),
    ("classify", "segments:noise=-1"),
    ("forecast", "sine:noise=-1"),
    ("forecast", "sine:length=300,noise=inf"),
    ("forecast", "sine:length=300,offset=nan"),
    ("classify", "segments:noise=inf,count=10"),
])
def test_bad_synth_options_exit_2(tmp_path, capsys, task, spec):
    code, _, err = run_cli(
        ["train", "--task", task, "--model", "ExampleModel", "--synth", spec,
         "--epochs", "1", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


FAST_SINE = ["--synth", "sine:length=300", "--window", "20", "--horizon", "2",
             "--epochs", "1"]
CSV_20 = ["--csv", "CSV", "--window", "20", "--horizon", "2", "--epochs", "1"]


@pytest.mark.parametrize("task,flags,config", [
    ("forecast", FAST_SINE, "window = abc"),
    ("forecast", FAST_SINE, "delta = x"),
    ("forecast", CSV_20 + ["--seed", "-1"], None),
    ("forecast", FAST_SINE, "out ="),  # empty: it used to fail after training
    ("forecast", FAST_SINE, "windw = 30"),  # a typo
    ("forecast", FAST_SINE, "task = classify"),  # the task is the --task flag
    ("classify", ["--synth", "segments:classes=2,count=4,length=16", "--epochs", "1",
                  "--column", "value"], None),
    ("forecast", FAST_SINE + ["--steps", "3"], None),
    ("forecast", CSV_20, "synth = sine"),
    ("forecast", FAST_SINE, "window = \udcff"),  # not UTF-8
    ("forecast", FAST_SINE + ["--delta", "nan"], None),
    ("forecast", FAST_SINE + ["--delta", "inf"], None),
    ("forecast", FAST_SINE + ["--lr", "nan"], None),
    ("forecast", FAST_SINE + ["--lr", "inf"], None),
    ("forecast", FAST_SINE + ["--smooth-window", "-3", "--smooth-iters", "-2"], None),
    ("forecast", FAST_SINE + ["--out", ""], None),
])
def test_bad_settings_exit_2(tmp_path, capsys, monkeypatch, task, flags, config):
    monkeypatch.chdir(tmp_path)
    csv_path = tmp_path / "s.csv"
    csv_path.write_text("value\n" + "".join(f"{np.sin(i / 7.0):.6f}\n" for i in range(300)))
    argv = ["train", "--task", task, "--model", "ExampleModel"]
    argv += [str(csv_path) if f == "CSV" else f for f in flags]
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(
            config.encode("utf-8", "surrogateescape") + b"\n")
        argv += ["--config", str(tmp_path / "run.cfg")]
    code, _, err = run_cli(argv, capsys)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


TRAIN = ["train", "--task", "forecast", "--model", "ExampleModel"]


@pytest.mark.parametrize("argv,config,owner,kind,key,defaults", [
    (TRAIN + FAST_SINE, "windw = 30",
     "forecast", "setting", "windw", {**cli._TASK_PRESETS["forecast"], "hyper": ""}),
    (TRAIN + FAST_SINE + ["--steps", "3"], None,
     "forecast", "setting", "steps", {**cli._TASK_PRESETS["forecast"], "hyper": ""}),
    (TRAIN + ["--synth", "sine:bogus=1", "--window", "20"], None,
     "sine", "option", "bogus", {"seed": 0, "length": 0, **cli._SYNTH_OPTIONS["sine"]}),
    (["describe", "ExampleModel", "--hyper", "banana=1"], None,
     "ExampleModel", "hyperparameter", "banana", zoo.get_descriptor("ExampleModel").default_hyper),
    (None, None,
     "ExampleModel", "hyperparameter", "banana", zoo.get_descriptor("ExampleModel").default_hyper),
], ids=["config_line", "flag", "synth", "describe_hyper", "library_hyper"])
def test_an_unknown_key_fails_alike_on_every_path(tmp_path, capsys, monkeypatch, argv, config,
                                                  owner, kind, key, defaults):
    # one check names the owner and the kind and lists the allowed keys
    message = f"{owner} has no {kind} {key!r}; allowed: {sorted(defaults)}"
    if argv is None:
        with pytest.raises(ParameterError) as exc:
            zoo.build_model("ExampleModel", (64, 1), **{key: 1})
        assert str(exc.value) == message
        return
    monkeypatch.chdir(tmp_path)
    if config is not None:
        (tmp_path / "run.cfg").write_text(config + "\n")
        argv = argv + ["--config", "run.cfg"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "run").exists()


def test_word_settings_take_their_text_in_a_config_file(tmp_path, capsys):
    # a word that holds a "+" or reads as a number used to exit 2 from a config line
    csv_path = tmp_path / "s.csv"
    csv_path.write_text("step,2023\n" + "".join(f"{i},{np.sin(i / 7.0):.6f}\n"
                                                for i in range(300)))
    out_dir = tmp_path / "a+b"
    (tmp_path / "run.cfg").write_text(f"out = {out_dir}\ncolumn = 2023\n")
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel", "--csv", str(csv_path),
         "--window", "20", "--horizon", "2", "--epochs", "1",
         "--config", str(tmp_path / "run.cfg")], capsys)
    assert code == 0, err
    manifest = (out_dir / "manifest.txt").read_text().splitlines()
    assert f"out = {out_dir}" in manifest
    assert "column = 2023" in manifest and "features = 1" in manifest


def _run_flag_dests(command):
    argv = [command, "--task", "forecast"] + (["--weights", "w"] if command == "eval" else [])
    return set(vars(cli._parser().parse_args(argv))) - {"command"}


@pytest.mark.parametrize("command", ["train", "eval"])
def test_every_run_flag_names_a_preset_key(command):
    # the presets alone carry the setting types, so no flag may go without
    # one, and every setting but loss (config file only) is a flag
    keys = {k for p in cli._TASK_PRESETS.values() for k in p} - {"loss"}
    own = {"task", "config", "hyper"} | ({"weights"} if command == "eval" else set())
    assert _run_flag_dests(command) == keys | own


def _resolve_or_error(argv):
    try:
        return cli._resolve(cli._parser().parse_args(argv))
    except ParameterError:
        return ParameterError


@pytest.mark.parametrize("key", sorted(_run_flag_dests("train")
                                       - {"task", "config", "hyper"}))
def test_a_flag_and_a_config_line_read_alike(tmp_path, key):
    cfg = tmp_path / "run.cfg"
    for task, preset in cli._TASK_PRESETS.items():
        if key not in preset:
            continue
        base = ["train", "--task", task] + ([] if key == "model" else
                                            ["--model", "ExampleModel"])
        for text in ["3", "runs/a+b", "abc", "-1", "2.5", "true", ""]:
            cfg.write_text(f"{key} = {text}\n")
            from_flag = _resolve_or_error(base + [f"--{key.replace('_', '-')}={text}"])
            from_file = _resolve_or_error(base + ["--config", str(cfg)])
            assert from_flag == from_file, (task, key, text)


_SETTING_KEYS = sorted({k for p in cli._TASK_PRESETS.values() for k in p}
                       | {"hyper", "task", "metric", "csv_window"})
_VALUES = st.one_of(
    st.text(max_size=12), st.integers().map(str), st.floats().map(str),
    st.sampled_from(["abc", "-1", "1+2", "8+8", "true", "nan", "-inf", "9" * 400,
                     "units=8", "filters=8+8,units=10", "sine:noise=-1"]),
)
_TASKS = st.sampled_from(sorted(cli._TASK_PRESETS))


def _key_values(keys):
    return st.lists(st.tuples(st.one_of(st.sampled_from(keys), st.text(max_size=6)),
                              _VALUES), max_size=5)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(task=_TASKS, text=st.one_of(
    st.text(max_size=80),
    _key_values(_SETTING_KEYS).map(lambda kvs: "\n".join(f"{k} = {v}" for k, v in kvs)),
))
@example(task="forecast", text="lr = " + "9" * 400)  # too large for a float
def test_any_config_text_resolves_or_raises_parameter_error(tmp_path, task, text):
    path = tmp_path / "run.cfg"
    path.write_text(text, encoding="utf-8")
    args = cli._parser().parse_args(
        ["train", "--task", task, "--model", "ExampleModel", "--config", str(path)])
    try:
        cfg = cli._resolve(args)
    except ParameterError:
        return
    assert set(cfg) == set(cli._TASK_PRESETS[task]) | {"task", "hyper"}
    for key, preset in cli._TASK_PRESETS[task].items():
        assert type(cfg[key]) is type(preset)


_SYNTH_KEYS = sorted({k for o in cli._SYNTH_OPTIONS.values() for k in o} | {"seed"})


@settings(max_examples=150, deadline=None)
@given(task=_TASKS, spec=st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(sorted(cli._SYNTH_OPTIONS)) | st.text(max_size=6),
              _key_values(_SYNTH_KEYS)).map(
        lambda t: t[0] + ":" + ",".join(f"{k}={v}" for k, v in t[1])),
))
@example(task="anomaly", spec="traffic:rate=" + "9" * 400)
def test_any_synth_spec_resolves_or_raises_parameter_error(task, spec):
    args = cli._parser().parse_args(
        ["train", "--task", task, "--model", "ExampleModel", f"--synth={spec}"])
    try:
        opts = cli._synth_options(cli._resolve(args))
    except ParameterError:
        return
    assert "seed" in opts and "length" in opts


# A short run per task, on a series of at most 400 steps (classify's
# segments are one window long), and CSV files by the word that names them.
_SHORT_RUN = {"forecast": ["--synth=sine:length=400", "--window=20", "--horizon=2"],
              "classify": ["--synth=segments"], "anomaly": ["--synth=traffic:length=400"]}
_CSV_FILES = {
    "sine.csv": "value\n" + "".join(f"{np.sin(i / 7.0):.6f}\n" for i in range(400)),
    "nan.csv": "value\n" + "1.0\n" * 200 + "nan\n" + "1.0\n" * 199,
    "header.csv": "value\n",
    "latin.csv": b"value\n1\n\xff\n2\n",
}
_RUN_KEYS = sorted({k for p in cli._TASK_PRESETS.values() for k in p} - {"loss"})
# Small ints cap every count and size, so no run can allocate much; the
# specs each hold at most 400 steps.
_HOSTILE = st.one_of(st.integers(-2, 3).map(str), st.sampled_from([
    "0", "-1", "nan", "inf", "-inf", "1e-3", "0.5", "abc", "", "true", "ExampleModel",
    "sine:length=400,noise=nan", "sine:length=400,offset=1e308", "segments:count=1",
    "traffic:length=400,rate=inf", *_CSV_FILES, "missing.csv",
]))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(task=_TASKS, flags=st.lists(st.tuples(st.sampled_from(_RUN_KEYS), _HOSTILE),
                                   max_size=4))
@example(task="forecast", flags=[("lr", "nan")])
@example(task="forecast", flags=[("lr", "inf")])
@example(task="forecast", flags=[("delta", "nan")])
@example(task="forecast", flags=[("synth", "sine:length=400,noise=inf")])
@example(task="anomaly", flags=[("synth", "traffic:length=400,rate=nan")])
@example(task="forecast", flags=[("epochs", "0")])
@example(task="forecast", flags=[("window", "0")])
@example(task="anomaly", flags=[("steps", "0")])
@example(task="classify", flags=[("batch_size", "0")])
@example(task="forecast", flags=[("horizon", "100000")])
@example(task="forecast", flags=[("seed", "-1")])
@example(task="forecast", flags=[("synth", "sine:length=400,offset=1e308")])
@example(task="forecast", flags=[("csv", "nan.csv")])
@example(task="forecast", flags=[("csv", "header.csv")])
@example(task="forecast", flags=[("csv", "latin.csv")])
@example(task="classify", flags=[("synth", "segments:count=1")])
def test_hostile_train_argv_exits_with_a_code_and_one_error_line(
        tmp_path, capsys, monkeypatch, task, flags):
    monkeypatch.chdir(tmp_path)
    for name, text in _CSV_FILES.items():
        (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["train", "--task", task, "--model", "ExampleModel", "--epochs=1"]
    argv += [a for a in _SHORT_RUN[task] if "csv" not in dict(flags) or "synth" not in a]
    argv += [f"--{key.replace('_', '-')}={value}" for key, value in flags]
    code, _, err = run_cli(argv, capsys)
    assert code in (0, 2, 3, 4), (code, err)
    assert "Traceback" not in err
    if code:
        assert [line.startswith("error:") for line in err.splitlines()] == [True], err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_divergence_exits_3(tmp_path, capsys):
    code, _, err = run_cli(
        FAST_FORECAST + ["--lr", "1e200", "--out", str(tmp_path / "x")], capsys
    )
    assert code == 3
    assert "diverged at epoch" in err


def test_overflowing_loss_exits_3_with_only_the_error_line(tmp_path, capsys):
    # values near 1e200 overflow the squared error: the run must say it
    # diverged, and say nothing else on stderr
    path = tmp_path / "huge.csv"
    values = np.sin(np.arange(400) / 7) * 1e200
    path.write_text("v\n" + "".join(f"{float(x)!r}\n" for x in values))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            ["train", "--task", "forecast", "--model", "ExampleModel", "--csv", str(path),
             "--window", "20", "--horizon", "2", "--epochs", "1",
             "--out", str(tmp_path / "x")], capsys)
    assert code == 3
    assert err == "error: training diverged at epoch 0\n"
    assert [str(w.message) for w in caught] == []


def test_a_series_that_overflows_smoothing_exits_4_with_only_the_error_line(tmp_path, capsys):
    # values near 1e307 overflow the forecast preset's smoothing sum, which
    # used to train on NaN windows until the loss was NaN (exit 3)
    path = tmp_path / "huger.csv"
    values = np.sin(np.arange(400) / 7) * 1e307
    path.write_text("v\n" + "".join(f"{float(x)!r}\n" for x in values))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            ["train", "--task", "forecast", "--model", "ExampleModel", "--csv", str(path),
             "--window", "20", "--horizon", "2", "--epochs", "1",
             "--out", str(tmp_path / "x")], capsys)
    assert code == 4
    assert err == ("error: smoothing column 0 gave a non-finite value; the series must "
                   "be finite and small enough for its running sum\n")
    assert [str(w.message) for w in caught] == []


def test_data_problems_exit_4(tmp_path, capsys):
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n1,oops\n")
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(bad), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4 and "not a number" in err

    short = tmp_path / "short.csv"
    short.write_text("value\n" + "\n".join("1.0" for _ in range(30)) + "\n")
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(short), "--window", "100", "--horizon", "10",
         "--smooth-window", "0", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4  # far too short to window


@pytest.mark.parametrize("task, header, rows, source, message", [
    ("classify", "label", ["0", "1"] * 6, "csv",
     "classify CSV needs feature columns plus a final label column"),
    ("classify", "f0,f1,label", [f"{i},{-i},0" for i in range(12)], "csv",
     "classify needs at least two classes"),
    ("anomaly", "load", [f"{np.sin(i / 7):.4f}" for i in range(400)], "csv",
     "anomaly CSV needs feature columns plus a final 0/1 label column"),
    ("anomaly", None, None, "traffic:length=100",
     "not enough clean windows to train on"),
], ids=["classify_one_column", "classify_one_class", "anomaly_one_column",
        "anomaly_few_clean_windows"])
def test_unusable_task_data_exits_4(tmp_path, capsys, task, header, rows, source, message):
    if source == "csv":
        path = tmp_path / "data.csv"
        path.write_text("\n".join([header, *rows]) + "\n")
        data_flags = ["--csv", str(path), "--window", "16"]
    else:
        data_flags = ["--synth", source]
    code, _, err = run_cli(["train", "--task", task, "--model", "ExampleModel", *data_flags,
                            "--epochs", "1", "--out", str(tmp_path / "x")], capsys)
    assert code == 4
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x").exists()


def _constant_segment(tmp_path, monkeypatch):
    # a segment of one value has no spread to z-score by
    path = tmp_path / "segments.csv"
    rows = [",".join(f"{(i * 7 + j) % 5}" for j in range(12)) + f",{i % 2}" for i in range(11)]
    path.write_text("\n".join([",".join(f"f{j}" for j in range(12)) + ",label", *rows,
                               "3," * 12 + "0"]) + "\n")
    return ["--task", "classify", "--model", "ExampleModel", "--csv", str(path),
            "--window", "12"]


def _batch_of_one(tmp_path, monkeypatch):
    return ["--task", "forecast", "--model", "WeiXiaoyan", "--synth", "sine:length=1200",
            "--window", "100", "--horizon", "2", "--batch-size", "1"]


def _rows_that_are_not_probabilities(tmp_path, monkeypatch):
    # no CLI input reaches it (the classify head ends in a softmax), so the
    # training loss is made to meet one
    loss_and_grad = train.loss_and_grad
    monkeypatch.setattr(train, "loss_and_grad", lambda kind, p, t: loss_and_grad(
        "cross_entropy", [[0.5, 0.4]], [[1.0, 0.0]]))
    return FAST_FORECAST[1:]


def _empty_test_part(tmp_path, monkeypatch):
    # no CLI input reaches it (every split part holds a window), so the
    # metric is made to meet an empty batch
    mae = train.mean_absolute_error
    monkeypatch.setattr(train, "mean_absolute_error", lambda p, t: mae(p[:0], t.array[:0]))
    return FAST_FORECAST[1:]


@pytest.mark.parametrize("error, setup, message", [
    (DegenerateSegmentError, _constant_segment, "column 0 is constant; zscore undefined"),
    (DegenerateBatchError, _batch_of_one,
     "batchnorm needs batch >= 2 in training mode, got 1"),
    (ContractError, _rows_that_are_not_probabilities,
     "cross_entropy needs probability rows; worst row sum 0.90000000"),
    (MetricUndefinedError, _empty_test_part, "mean absolute error of an empty batch ((0, 5, 1))"),
], ids=["degenerate_segment", "degenerate_batch", "contract", "metric_undefined"])
def test_each_narrower_data_error_exits_4(tmp_path, capsys, monkeypatch, error, setup, message):
    assert issubclass(error, DataError)  # and so a ValueError
    argv = setup(tmp_path, monkeypatch)
    code, _, err = run_cli(["train", *argv, "--epochs", "1", "--out", str(tmp_path / "x")],
                           capsys)
    assert code == 4
    assert err == f"error: {message}\n"


def test_non_finite_csv_cell_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("a\n" + "\n".join("1.0" for _ in range(300)) + "\ninf\n")
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(bad), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4
    assert "error: line 302: 'inf' is not a finite number" in err


def test_csv_rows_narrower_than_the_header_exit_4(tmp_path, capsys):
    bad = tmp_path / "narrow.csv"
    bad.write_text("a,b\n" + "\n".join("1.0" for _ in range(300)) + "\n")
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(bad), "--column", "b", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4
    assert "error: header has 2 fields but line 2 has 1" in err
    assert "Traceback" not in err


def test_csv_that_is_not_utf8_exits_4(tmp_path, capsys):
    bad = tmp_path / "latin.csv"
    bad.write_bytes(b"value\n1\n\xff\n2\n")
    code, _, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(bad), "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4
    assert err.startswith("error: ") and "latin.csv is not UTF-8 text" in err
    assert "Traceback" not in err


def test_csv_with_a_byte_order_mark_trains(tmp_path, capsys):
    path = tmp_path / "exported.csv"
    rows = ["value"] + [f"{np.sin(i / 7.0):.6f}" for i in range(500)]
    path.write_bytes(b"\xef\xbb\xbf" + "\n".join(rows).encode() + b"\n")
    code, out, err = run_cli(
        ["train", "--task", "forecast", "--model", "ExampleModel",
         "--csv", str(path), "--column", "value", "--window", "30",
         "--horizon", "5", "--epochs", "1", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 0, err
    assert "metric mae value" in out


def test_anomaly_with_no_anomalies_exits_4(tmp_path, capsys):
    rng = np.random.default_rng(0)
    lines = ["load,label"] + [f"{v:.4f},0" for v in rng.normal(1.0, 0.1, 400)]
    path = tmp_path / "clean.csv"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["train", "--task", "anomaly", "--model", "ExampleModel",
         "--csv", str(path), "--epochs", "1", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4
    assert "single class" in err


@pytest.mark.parametrize("bad", ["0.3", "2", "7"])
def test_anomaly_labels_other_than_0_and_1_exit_4(tmp_path, capsys, bad):
    # such labels used to be read as anomalies, and the run exited 0
    rng = np.random.default_rng(0)
    lines = ["load,label"] + [f"{v:.4f},{bad if i % 50 == 7 else 0}"
                              for i, v in enumerate(rng.normal(1.0, 0.1, 400))]
    path = tmp_path / "labels.csv"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run_cli(
        ["train", "--task", "anomaly", "--model", "ExampleModel",
         "--csv", str(path), "--epochs", "1", "--out", str(tmp_path / "x")],
        capsys,
    )
    assert code == 4
    assert "anomaly labels must be 0 or 1" in err


def test_console_entrypoint_runs():
    # The child finds the same package this suite imported, installed or not.
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "deepseries.cli", "list"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "ExampleModel" in proc.stdout
