"""The benchmark workloads, driven through deepseries' public API.

Every workload is one closed-loop client in one process: it sends the next
call only after the previous one returned.  The workload seed only shapes the
generated data (noise, segment draws, anomaly positions); model and shuffle
seeds are fixed, so a seed names one input set and every run on it does the
same arithmetic.

A workload is a set of tasks (training, batch-1 serving, bulk scoring, CLI
training), each made of units.  After the first set-up, the plan interleaves units,
always giving the next one to the task furthest below its share of the time
used, so each metric samples the whole run rather than one stretch of it.
Every task runs at least its minimum number of units; in a timed run
the tasks keep going until ``--seconds`` have passed.  A fixed plan (the
traced mode) runs only the minimums, so two commits do the same work.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import traceback
from time import perf_counter

import numpy as np

from deepseries import cli, data, train, zoo

from stats import median, percentile, tail_percentile

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("train_samples_per_s", "1/s", "higher"),
    ("predict_b1_ms_p90", "ms", "lower"),
    ("score_windows_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

SETUP_REPS = 10
MIN_REQUESTS = 1000  # enough batch-1 samples for a p99 with ten beyond it
MIN_PASSES = 3  # bulk passes and CLI calls: enough for a median
B1_TOLERANCE = 1e-9


class Plan:
    """When to stop: ``seconds`` after ``begin``, or, when None, at the minimums."""

    def __init__(self, seconds=None):
        self.seconds = seconds
        self.start = None

    def begin(self):
        self.start = perf_counter()

    def run(self, *tasks):
        """Interleave units of ``tasks`` by their time shares until done."""
        while True:
            short = [t for t in tasks if t.count < t.minimum]
            over = self.seconds is None or perf_counter() - self.start >= self.seconds
            if over and not short:
                return
            pool = short if over else tasks
            min(pool, key=lambda t: t.spent / t.share).unit()


class Run:
    """Operation accounting, correctness gates and reported numbers of one run."""

    def __init__(self, plan: Plan, tracer=None):
        self.plan = plan
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.metrics: dict[str, float] = {}
        self.gates: list[tuple[str, bool, str]] = []
        self.report: list[tuple[str, float, str]] = []

    def gate(self, name: str, ok, detail: str = "") -> bool:
        self.gates.append((name, bool(ok), detail))
        return bool(ok)

    def check(self, name: str, fn):
        """A gate computed by ``fn() -> (ok, detail)``; raising fails it."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a check must report, not end the run
            traceback.print_exc(file=sys.stderr)
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        return self.gate(name, ok, detail)

    def note(self, name: str, value, unit: str):
        self.report.append((name, value, unit))

    def attempt(self, fn, ops: int = 1, ok=None):
        """Run one timed operation worth ``ops`` accounting units.

        Returns ``(result, seconds)``, or ``(None, None)`` when the call raised
        or ``ok(result)`` is false; both count the units as failed.
        """
        self.attempted += ops
        if self.tracer is not None:
            self.tracer.op += 1
        start = perf_counter()
        try:
            out = fn()
        except Exception:  # the benchmark counts the failure and goes on
            traceback.print_exc(file=sys.stderr)
            self.failed += ops
            return None, None
        seconds = perf_counter() - start
        if ok is not None and not ok(out):
            self.failed += ops
            return None, None
        return out, seconds


def _finite(a) -> bool:
    return bool(np.isfinite(np.asarray(a)).all())


def _history_finite(hist) -> bool:
    return all(math.isfinite(e["train_loss"]) and math.isfinite(e["val_loss"])
               for e in hist.epochs)


def _arr(x) -> np.ndarray:
    return np.asarray(getattr(x, "array", x))


def _expected(model, xs):
    return train.predict(model, xs, batch_size=256)


# -- tasks --------------------------------------------------------------------------


class Task:
    """A stream of units with a share of the run's time and a minimum count."""

    def __init__(self, run: Run, share: float, minimum: int):
        self.run = run
        self.share = share
        self.minimum = minimum
        self.count = 0
        self.spent = 0.0

    def unit(self):
        start = perf_counter()
        self.step()
        self.spent += perf_counter() - start
        self.count += 1

    def step(self):
        raise NotImplementedError


class Setup(Task):
    """Set-up: data generation and model build (plus the weights load in
    ``anomaly_serve``).  It is repeated at a small share of the run, so
    setup_s samples the whole run like the other metrics; ``result`` holds the
    first unit's output, which the workload uses."""

    def __init__(self, run, fn):
        super().__init__(run, share=0.02, minimum=SETUP_REPS)
        self.fn = fn
        self.result = None
        self.times = []

    def step(self):
        if self.run.tracer is not None:
            self.run.tracer.op += 1
        start = perf_counter()
        out = self.fn()
        self.times.append(perf_counter() - start)
        if self.result is None:
            self.result = out

    def finish(self):
        self.run.metrics["setup_s"] = median(self.times)


class Fit(Task):
    """Training.  Each unit fits a freshly built model, so every unit repeats
    the same arithmetic.  The training rate is the rows trained over all
    fits divided by their summed ``fit`` wall time, validation included."""

    def __init__(self, run, build, fit, rows, ops, share, minimum):
        super().__init__(run, share, minimum)
        self.build = build  # () -> model
        self.fit = fit  # model -> History
        self.rows = rows
        self.ops = ops
        self.model = None  # the last trained model
        self.samples = 0  # training rows times epochs, over successful fits
        self.seconds = 0.0
        self.losses = []  # best val_loss per fit; None where the fit failed

    def step(self):
        model = self.build()
        hist, dt = self.run.attempt(lambda: self.fit(model), ops=self.ops,
                                    ok=_history_finite)
        if hist is None:
            self.losses.append(None)
            return
        self.samples += self.rows * len(hist.epochs)
        self.seconds += dt
        self.losses.append(hist.epochs[hist.best_epoch]["val_loss"])
        self.model = model

    def finish(self):
        run = self.run
        run.metrics["train_samples_per_s"] = (self.samples / self.seconds
                                              if self.seconds else None)
        run.note("fits", len(self.losses), "count")
        if self.losses and self.losses[0] is not None:
            run.note("val_loss", self.losses[0], "loss")
        run.gate("fit_rerun_identical",
                 self.losses and all(v is not None and v == self.losses[0]
                                     for v in self.losses),
                 f"{len(self.losses)} fits, best val_loss compared exactly")


class Serve(Task):
    """Batch-1 requests cycling over ``(x_row, expected)`` pairs for one model.
    A failed request enters the latency sample as infinite, so it misses
    every percentile above it."""

    def __init__(self, run, model, requests, share):
        super().__init__(run, share, MIN_REQUESTS)
        self.model = model
        self.requests = requests
        self.latency_ms = []
        self.worst = 0.0

    def step(self):
        x, want = self.requests[self.count % len(self.requests)]
        out, dt = self.run.attempt(lambda: train.predict(self.model, x, batch_size=1),
                                   ok=_finite)
        if out is None:
            self.latency_ms.append(math.inf)
            return
        self.latency_ms.append(dt * 1e3)
        self.worst = max(self.worst, float(np.abs(out[0] - want).max()))

    def finish(self):
        run = self.run
        run.metrics["predict_b1_ms_p90"] = percentile(self.latency_ms, 90)
        run.note("predict_b1_ms_p50", median(self.latency_ms), "ms")
        pct, tail = tail_percentile(self.latency_ms)
        run.note(f"predict_b1_ms_p{pct}", tail, "ms")
        run.note("predict_b1_requests", len(self.latency_ms), "count")
        run.gate("batch1_matches_batch256", self.worst <= B1_TOLERANCE,
                 f"max |batch-1 - batch-256| = {self.worst:.3g} <= {B1_TOLERANCE:g}")


class Bulk(Task):
    """Bulk scoring at batch 256.  A unit is one ``(fn, rows)`` call, and a
    pass makes every call once; each pass must reproduce the first bit for
    bit, compared through ``key``.  Calls are short, so the rate samples
    the whole run rather than a few stretches of it."""

    def __init__(self, run, calls, share, key=_arr):
        super().__init__(run, share, MIN_PASSES * len(calls))
        self.calls = calls
        self.key = key
        self.first = None  # the first pass's results (None where a call failed)
        self.seconds = []  # per successful call
        self.rows = []
        self.passes = 0
        self.same = True
        self._outs = []

    def step(self):
        fn, rows = self.calls[len(self._outs)]
        out, dt = self.run.attempt(fn, ok=lambda o: _finite(self.key(o)))
        self._outs.append(out)
        if out is not None:
            self.seconds.append(dt)
            self.rows.append(rows)
        if len(self._outs) == len(self.calls):
            self.passes += 1
            if self.first is None:
                self.first = self._outs
            else:
                self.same &= all(
                    a is not None and b is not None
                    and np.array_equal(self.key(a), self.key(b))
                    for a, b in zip(self.first, self._outs))
            self._outs = []

    def finish(self):
        rates = [r / dt for r, dt in zip(self.rows, self.seconds)]
        # The rate three calls in four reach.  Call times on a shared host
        # fall in a fast and a slow state; the median flips between them with
        # the share of the run spent in each, and p10 rests on few samples.
        self.run.metrics["score_windows_per_s"] = percentile(rates, 25)
        self.run.note("score_windows_per_s_median", median(rates), "1/s")
        self.run.note("bulk_calls", len(rates), "count")
        self.run.gate("bulk_rerun_identical",
                      self.same and self.first is not None
                      and all(o is not None for o in self.first),
                      f"{self.passes} passes of {len(self.calls)} call(s)")


class CliTrain(Task):
    """In-process ``deepseries train`` calls; their artifacts must match byte for byte."""

    def __init__(self, run, argv, out_dir, share):
        super().__init__(run, share, MIN_PASSES)
        self.argv = argv
        self.out_dir = out_dir
        self.times = []
        self.artifacts = None
        self.identical = True

    def _call(self):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(self.argv)

    def step(self):
        rc, dt = self.run.attempt(self._call, ok=lambda rc: rc == 0)
        if rc is None:
            return
        self.times.append(dt)
        got = {}
        for name in ("weights.dsw", "history.txt", "metrics.txt"):
            with open(os.path.join(self.out_dir, name), "rb") as fh:
                got[name] = fh.read()
        self.identical &= self.artifacts is None or got == self.artifacts
        self.artifacts = self.artifacts or got

    def finish(self):
        self.run.gate("cli_artifacts_identical", self.artifacts is not None and self.identical,
                      f"{len(self.times)} CLI train calls, byte-compared")


def _serve(run, model, xs, share):
    """Batch-1 requests over the rows of ``xs``, each checked against the
    batch-256 prediction of the same row."""
    pred = _expected(model, xs)
    run.gate("predictions_finite", _finite(pred))
    return Serve(run, model, [(xs[j:j + 1], pred[j]) for j in range(len(xs))], share), pred


def _bulk_predict(run, model, rows, share):
    """Batch-256 ``predict`` calls over the full 256-row chunks of ``rows``."""
    chunks = [rows[i:i + 256] for i in range(0, len(rows) - 255, 256)]
    return Bulk(run, [(lambda c=c: train.predict(model, c, batch_size=256), len(c))
                      for c in chunks], share)


def _finish(*tasks):
    for t in tasks:
        t.finish()


# -- workloads ----------------------------------------------------------------------


def forecast_fit(seed: int, run: Run, workdir: str):
    """Criterion-5 sine forecast: fit ExampleModel, then serve and score it."""
    top = zoo.make_top("forecast", horizon=10, features=1)
    cfg = train.TrainConfig(loss="mse", batch_size=64, max_epochs=3, patience=3,
                            lr=1e-2, seed=0)

    def build():
        return zoo.build_model("ExampleModel", (100, 1), top=top, seed=2)

    def setup():
        series = data.sine_mix([1 / 40], noise=0.02, length=3500, seed=seed, offset=2.0)
        parts = data.chrono_split(series, (0.7, 0.2, 0.1))
        tr, va, te = (data.windowize(p, 100, 10) for p in parts)
        return series, tr, va, te, build()

    prep = Setup(run, setup)
    prep.unit()
    series, tr, va, te, _ = prep.result
    run.plan.begin()
    fit = Fit(run, build, lambda m: train.fit(m, tr, va, cfg), rows=tr.n,
              ops=cfg.max_epochs, share=0.6, minimum=3)
    fit.unit()
    model = fit.model
    xs, targets = _arr(te.inputs), _arr(te.targets)
    everything = np.concatenate([_arr(tr.inputs), _arr(va.inputs), xs])
    serve, pred = _serve(run, model, xs, share=0.2)
    bulk = _bulk_predict(run, model, everything, share=0.2)
    mae = train.mean_absolute_error(pred, targets)
    baseline = train.mean_absolute_error(np.full_like(targets, _arr(series).mean()), targets)
    run.note("test_mae", mae, "abs")
    run.gate("test_mae_below_mean_baseline", mae < baseline,
             f"test_mae {mae:.4f} < constant-mean baseline {baseline:.4f}")
    run.plan.run(prep, fit, serve, bulk)
    _finish(prep, fit, serve, bulk)


def classify_fit(seed: int, run: Run, workdir: str):
    """ZhangJin (conv/pool/ST attention -> BiGRU) on five-class segments."""
    classes = 5
    top = zoo.make_top("classify", classes=classes)
    cfg = train.TrainConfig(loss="cross_entropy", batch_size=32, max_epochs=8,
                            patience=8, lr=1e-2, seed=0)

    def build():
        return zoo.build_model("ZhangJin", (128, 1), top=top, seed=0)

    def setup():
        ds = data.labeled_segments(classes, 128, 60, seed=seed)
        xs = np.stack([_arr(data.zscore(s)) for s in _arr(ds.inputs)])
        full = data.SeriesDataset(xs, ds.targets)
        tr, va, te = data.split_pairs(full, (0.7, 0.2, 0.1), seed=seed)
        return full, tr, va, te, build()

    prep = Setup(run, setup)
    prep.unit()
    full, tr, va, te, _ = prep.result
    run.plan.begin()
    fit = Fit(run, build, lambda m: train.fit(m, tr, va, cfg), rows=tr.n,
              ops=cfg.max_epochs, share=0.6, minimum=3)
    fit.unit()
    model = fit.model
    xs = _arr(te.inputs)
    serve, pred = _serve(run, model, xs, share=0.15)
    bulk = _bulk_predict(run, model, _arr(full.inputs), share=0.25)
    acc = train.accuracy(pred, _arr(te.targets))
    run.note("test_accuracy", acc, "ratio")
    run.gate("test_accuracy_above_chance", acc > 1 / classes,
             f"test_accuracy {acc:.3f} > chance {1 / classes:.3f}")
    run.plan.run(prep, fit, serve, bulk)
    _finish(prep, fit, serve, bulk)


ANOMALY = {"window": 48, "steps": 4, "features": 3, "length": 2000, "rate": 0.02}


def _anomaly_data(seed: int):
    """The stream, its windows, and the clean train/validation windows the
    CLI's anomaly preset trains on (leading 70% / next 20% of the stream)."""
    a = ANOMALY
    series, labels = data.traffic_with_anomalies(a["features"], a["length"], a["rate"],
                                                 seed=seed)
    ds, anom, clean = data.anomaly_windows(series, labels, a["window"], a["steps"],
                                           stride=a["steps"])
    anom, clean = np.asarray(anom).astype(bool), np.asarray(clean).astype(bool)
    n = a["length"]
    starts = np.arange(ds.n) * a["steps"]
    ends = starts + a["window"] + a["steps"]
    in_train = ends <= int(n * 0.7)
    in_val = (starts >= int(n * 0.7)) & (ends <= int(n * 0.7) + int(n * 0.2))
    tr = ds.take(np.flatnonzero(in_train & clean))
    va = ds.take(np.flatnonzero(in_val & clean))
    return ds, anom, tr, va


def anomaly_serve(seed: int, run: Run, workdir: str):
    """Train a detector through the CLI, load its weights, serve and score."""
    a = ANOMALY
    cfg = train.TrainConfig(loss="mse", batch_size=64, max_epochs=6, patience=6,
                            lr=1e-3, seed=0)
    out_dir = os.path.join(workdir, "cli")
    argv = ["train", "--task", "anomaly", "--model", "ExampleModel",
            "--synth", f"traffic:features={a['features']},length={a['length']},"
                       f"rate={a['rate']},seed={seed}",
            "--seed", str(cfg.seed), "--window", str(a["window"]),
            "--steps", str(a["steps"]), "--epochs", str(cfg.max_epochs),
            "--patience", str(cfg.patience), "--batch-size", str(cfg.batch_size),
            "--lr", str(cfg.lr), "--out", out_dir]
    top = zoo.make_top("anomaly", steps=a["steps"], features=a["features"])
    weights = os.path.join(out_dir, "weights.dsw")

    def build():
        return zoo.build_model("ExampleModel", (a["window"], a["features"]), top=top,
                               seed=cfg.seed)

    def setup():
        ds, anom, tr, va = _anomaly_data(seed)
        model = build()
        model.load_weights(weights)
        return ds, anom, tr, va, model

    run.plan.begin()
    cli_task = CliTrain(run, argv, out_dir, share=0.05)
    cli_task.unit()
    if cli_task.artifacts is None:
        cli_task.finish()
        return
    prep = Setup(run, setup)
    prep.unit()
    ds, anom, tr, va, served = prep.result
    xs = _arr(ds.inputs)
    k = int(anom.sum())

    def library_matches():
        ref = build()
        train.fit(ref, tr, va, cfg)
        buf = io.BytesIO()
        ref.save_weights(buf)
        same_bytes = buf.getvalue() == cli_task.artifacts["weights.dsw"]
        same_pred = np.array_equal(_expected(ref, xs), _expected(served, xs))
        return same_bytes and same_pred, (
            f"library fit writes the CLI's weights.dsw: {same_bytes}; "
            f"loaded model reproduces the trained model's predictions: {same_pred}")

    run.check("loaded_model_reproduces_trained", library_matches)

    # The training rate comes from library fits with the CLI's settings on a
    # fixed slice of the stream: the clean-window counts the CLI trains on
    # vary with the seed (59 to 181 windows), and so would a rate over them.
    fixed_tr, fixed_va = ds.take(np.arange(128)), ds.take(np.arange(128, 160))
    fit = Fit(run, build, lambda m: train.fit(m, fixed_tr, fixed_va, cfg), rows=fixed_tr.n,
              ops=cfg.max_epochs, share=0.2, minimum=3)
    serve, _ = _serve(run, served, xs, share=0.4)
    harness = Bulk(run, [(lambda: data.anomaly_harness(served, ds, anom.astype(int), top_k=k),
                          ds.n)], share=0.3, key=lambda out: _arr(out[0]))
    run.plan.run(prep, cli_task, fit, serve, harness)
    _finish(prep, cli_task, fit, serve, harness)
    run.note("cli_train_s", median(cli_task.times), "s")
    (result,) = harness.first
    if result is None:
        return
    _, labels, auc = result
    positives = int(_arr(labels).sum())
    cli_metrics = dict(line.split()[1:4:2] for line in
                       cli_task.artifacts["metrics.txt"].decode().splitlines())
    run.note("auc", auc, "ratio")
    run.gate("auc_at_least_0.9", auc >= 0.9, f"auc {auc:.4f} over {ds.n} windows")
    run.gate("harness_labels_k", positives == k, f"{positives} labelled, K = {k}")
    run.gate("auc_matches_cli", f"{auc:.10g}" == cli_metrics.get("auc"),
             f"{auc:.10g} vs metrics.txt {cli_metrics.get('auc')}")


WORKLOADS = {
    "forecast_fit": forecast_fit,
    "classify_fit": classify_fit,
    "anomaly_serve": anomaly_serve,
}
