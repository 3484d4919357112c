"""Losses, Adam, early stopping, the fit loop, and metrics against oracles."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from deepseries.data import SeriesDataset
from deepseries.errors import (
    ContractError,
    DataError,
    MetricUndefinedError,
    ParameterError,
    ShapeError,
    StateError,
    TrainingDivergedError,
)
from deepseries.graph import GraphBuilder
from deepseries.layers import Dense, Reshape
from deepseries.layers.base import activation_pair
from deepseries.train import (
    Adam,
    EarlyStopping,
    History,
    TrainConfig,
    accuracy,
    auc,
    fit,
    loss_and_grad,
    mean_absolute_error,
    predict,
    two_phase_autoencoder_fit,
)
from conftest import single_node_model

# ---------------------------------------------------------------------- losses


def test_mse_hand_values():
    loss, grad = loss_and_grad("mse", [1.0, 2.0, 3.0], [0.0, 2.0, 5.0])
    assert loss == pytest.approx(5.0 / 3.0, abs=1e-15)
    np.testing.assert_allclose(grad, np.array([2.0, 0.0, -4.0]) / 3.0, atol=1e-15)


def test_mae_hand_values():
    loss, grad = loss_and_grad("mae", [1.0, 2.0, 3.0], [0.0, 2.0, 5.0])
    assert loss == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(grad, np.array([1.0, 0.0, -1.0]) / 3.0, atol=1e-15)


def test_cross_entropy_hand_values():
    p = [[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]
    t = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]
    loss, grad = loss_and_grad("cross_entropy", p, t)
    want = -(math.log(0.7) + math.log(0.8)) / 2.0
    assert loss == pytest.approx(want, abs=1e-12)
    assert grad[0][0] == pytest.approx(-1.0 / 0.7 / 2.0, abs=1e-12)
    assert grad[0][1] == 0.0


def test_cross_entropy_gradient_through_a_saturated_softmax():
    # Logits [gap, 0] with target class 1: the exact logit gradient is p - t,
    # +-1 here.  Adding 1e-12 to p gave +-0.086 at a gap of 30.
    forward, backward = activation_pair("softmax")
    t = np.array([[0.0, 1.0]])
    for gap in (30.0, 700.0, 800.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning fails the test
            p = forward(np.array([[gap, 0.0]]))
            loss, grad = loss_and_grad("cross_entropy", p, t)
            logit_grad = backward(grad, p)
        assert np.isfinite(loss) and np.isfinite(logit_grad).all()
        if gap <= 700.0:  # past ~708 p underflows and the gradient is only finite
            assert loss == pytest.approx(gap)
            np.testing.assert_array_equal(logit_grad, p - t)


def test_cross_entropy_rejects_non_probability_rows():
    with pytest.raises(ContractError, match="worst row sum"):
        loss_and_grad("cross_entropy", [[0.5, 0.4]], [[1.0, 0.0]])
    with pytest.raises(ShapeError, match=r"\[batch, classes\]"):
        loss_and_grad("cross_entropy", [0.5, 0.5], [1.0, 0.0])


def test_loss_shape_mismatch_and_unknown_kind():
    with pytest.raises(ShapeError, match="differ"):
        loss_and_grad("mse", [1.0, 2.0], [1.0])
    with pytest.raises(ParameterError, match="unknown loss"):
        loss_and_grad("huber", [1.0], [1.0])


@pytest.mark.parametrize("kind", ["mse", "mae", "cross_entropy"])
def test_loss_rejects_an_empty_batch(kind):
    # mse used to divide by zero and mae to return a NaN loss
    with pytest.raises(DataError, match="empty batch"):
        loss_and_grad(kind, np.zeros((0, 3)), np.zeros((0, 3)))


@pytest.mark.parametrize("kind", ["mse", "cross_entropy"])
def test_loss_gradient_matches_finite_differences(kind):
    rng = np.random.default_rng(0)
    if kind == "mse":
        p = rng.normal(size=(4, 3))
        t = rng.normal(size=(4, 3))
    else:
        raw = rng.uniform(0.1, 1.0, size=(4, 3))
        p = raw / raw.sum(axis=1, keepdims=True)
        t = np.eye(3)[rng.integers(0, 3, size=4)]
    _, grad = loss_and_grad(kind, p, t)
    h = 1e-7
    for idx in [(0, 0), (1, 2), (3, 1)]:
        pp, pm = p.copy(), p.copy()
        pp[idx] += h
        pm[idx] -= h
        if kind == "cross_entropy":
            # keep the row-sum contract satisfied under the probe
            num = (
                -(t * np.log(pp + 1e-12)).sum(axis=1).mean()
                + (t * np.log(pm + 1e-12)).sum(axis=1).mean()
            ) / (2 * h)
        else:
            num = (((pp - t) ** 2).mean() - ((pm - t) ** 2).mean()) / (2 * h)
        assert grad[idx] == pytest.approx(num, rel=1e-5)


# ----------------------------------------------------------------------- Adam


def adam_reference(theta, grads, lr, b1, b2, eps):
    """Textbook recurrence on plain floats."""
    m = [0.0] * len(theta)
    v = [0.0] * len(theta)
    out = list(theta)
    for t, g in enumerate(grads, start=1):
        for i in range(len(out)):
            m[i] = b1 * m[i] + (1 - b1) * g[i]
            v[i] = b2 * v[i] + (1 - b2) * g[i] * g[i]
            mhat = m[i] / (1 - b1**t)
            vhat = v[i] / (1 - b2**t)
            out[i] -= lr * mhat / (math.sqrt(vhat) + eps)
    return out


def test_adam_matches_reference_recurrence():
    theta0 = [1.0, -2.0, 0.5]
    g1 = [0.5, -1.0, 2.0]
    g2 = [0.25, 2.0, -0.5]
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    params = {"w": np.array(theta0)}
    opt = Adam(params, lr=lr, beta1=b1, beta2=b2, epsilon=eps)
    opt.step({"w": np.array(g1)})
    opt.step({"w": np.array(g2)})
    want = adam_reference(theta0, [g1, g2], lr, b1, b2, eps)
    np.testing.assert_allclose(params["w"], want, rtol=0, atol=1e-12)


def test_adam_first_step_is_signed_learning_rate():
    params = {"w": np.zeros(3)}
    opt = Adam(params, lr=0.01)
    opt.step({"w": np.array([3.0, -0.004, 700.0])})
    np.testing.assert_allclose(params["w"], [-0.01, 0.01, -0.01], rtol=1e-5)


def test_adam_frozen_parameters_do_not_move():
    params = {"a": np.ones(2), "b": np.ones(2)}
    opt = Adam(params, lr=0.5, frozen=("a",))
    assert "a" not in opt.m
    opt.step({"b": np.array([1.0, 1.0])})
    np.testing.assert_array_equal(params["a"], np.ones(2))
    assert not np.array_equal(params["b"], np.ones(2))


def test_adam_rejects_unknown_frozen_names():
    # an unknown name used to freeze nothing, so a misspelt one went unnoticed
    params = {"conv1/w": np.ones(2), "conv1/b": np.ones(2)}
    with pytest.raises(ParameterError, match=r"\['conv1/W', 'nope'\] are not parameters"):
        Adam(params, frozen=["conv1/W", "nope", "conv1/b"])


def test_adam_parameter_validation():
    with pytest.raises(ParameterError):
        Adam({"w": np.zeros(1)}, lr=0.0)
    with pytest.raises(ParameterError):
        Adam({"w": np.zeros(1)}, beta1=1.0)
    with pytest.raises(ParameterError):
        Adam({"w": np.zeros(1)}, beta2=-0.1)


@pytest.mark.parametrize("lr", [math.nan, math.inf])
def test_adam_rejects_a_non_finite_lr(lr):
    with pytest.raises(ParameterError, match="lr must be finite"):
        Adam({"w": np.zeros(1)}, lr=lr)


# ------------------------------------------------------------- early stopping


def run_trace(stopper, values):
    for i, v in enumerate(values):
        if stopper.update(v):
            return i
    return None


def test_early_stopping_patience_two():
    s = EarlyStopping(patience=2)
    assert run_trace(s, [5.0, 4.0, 4.0, 4.0]) == 3
    assert s.best_epoch == 1 and s.best == 4.0


def test_early_stopping_patience_three():
    s = EarlyStopping(patience=3)
    assert run_trace(s, [3.0, 2.9, 2.9, 2.9, 2.9]) == 4
    assert s.best_epoch == 1


def test_early_stopping_keeps_going_on_improvement():
    s = EarlyStopping(patience=2)
    assert run_trace(s, [5.0, 4.5, 4.6, 4.0, 3.5, 3.0]) is None
    assert s.best_epoch == 5


def test_early_stopping_min_delta_requires_strict_margin():
    s = EarlyStopping(patience=1, min_delta=0.5)
    assert run_trace(s, [10.0, 9.6]) == 1  # improved, but not by > 0.5
    assert s.best_epoch == 0 and s.best == 10.0


def test_early_stopping_first_epoch_always_improves():
    s = EarlyStopping(patience=0)
    assert s.update(123.0) is False
    assert s.best_epoch == 0
    assert s.update(122.9) is False  # still improving
    assert s.update(200.0) is True  # patience 0: first stall stops


def test_early_stopping_validation():
    with pytest.raises(ParameterError):
        EarlyStopping(patience=-1)
    with pytest.raises(ParameterError):
        EarlyStopping(patience=2, min_delta=-0.1)


@pytest.mark.parametrize("delta", [math.nan, math.inf])
def test_early_stopping_rejects_a_non_finite_min_delta(delta):
    with pytest.raises(ParameterError, match="min_delta must be finite"):
        EarlyStopping(patience=2, min_delta=delta)


# -------------------------------------------------------------------- fit loop


def linear_problem(n=64, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=(n, 3))
    w = np.array([[2.0], [-1.0], [0.5]])
    ys = xs @ w + noise * rng.normal(size=(n, 1))
    return xs, ys


def dense_model(seed=0):
    b = GraphBuilder()
    x = b.input("x", (3,))
    b.add("head", Dense(1), x)
    return b.build(seed=seed)


def make_sets(n=64, seed=0, noise=0.0):
    xs, ys = linear_problem(n, seed, noise)
    cut = int(0.8 * n)
    return (
        SeriesDataset(xs[:cut], ys[:cut]),
        SeriesDataset(xs[cut:], ys[cut:]),
    )


def test_fit_learns_linear_map():
    train_set, val_set = make_sets()
    m = dense_model()
    cfg = TrainConfig(loss="mse", batch_size=16, max_epochs=200, patience=20,
                      lr=0.05, seed=0)
    hist = fit(m, train_set, val_set, cfg)
    assert hist.epochs[-1]["val_loss"] < 1e-3
    assert hist.epochs[0]["val_loss"] > hist.epochs[-1]["val_loss"]


def test_fit_restores_best_epoch_state():
    train_set, val_set = make_sets(noise=0.3)
    m = dense_model()
    cfg = TrainConfig(loss="mse", batch_size=8, max_epochs=40, patience=5,
                      lr=0.05, seed=1)
    hist = fit(m, train_set, val_set, cfg)
    vals = [e["val_loss"] for e in hist.epochs]
    assert hist.best_epoch == int(np.argmin(vals))
    # the restored parameters reproduce the best epoch's val loss exactly
    pred = predict(m, np.asarray(val_set.inputs.array), cfg.batch_size)
    now = loss_and_grad("mse", pred, np.asarray(val_set.targets.array))[0]
    assert now == vals[hist.best_epoch]


def test_fit_is_deterministic_for_a_seed():
    train_set, val_set = make_sets()
    cfg = TrainConfig(loss="mse", batch_size=16, max_epochs=5, patience=5,
                      lr=0.05, seed=3)
    h1 = fit(dense_model(seed=2), train_set, val_set, cfg)
    h2 = fit(dense_model(seed=2), train_set, val_set, cfg)
    assert h1.lines() == h2.lines()


def test_fit_respects_frozen_names():
    train_set, val_set = make_sets()
    m = dense_model()
    w_before = m.parameters()["head/w"].copy()
    b_before = m.parameters()["head/b"].copy()
    cfg = TrainConfig(loss="mse", batch_size=16, max_epochs=3, patience=5,
                      lr=0.05)
    fit(m, train_set, val_set, cfg, frozen=("head/w",))
    np.testing.assert_array_equal(m.parameters()["head/w"], w_before)
    assert not np.array_equal(m.parameters()["head/b"], b_before)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_fit_divergence_raises_with_epoch():
    train_set, val_set = make_sets()
    m = dense_model()
    cfg = TrainConfig(loss="mse", batch_size=64, max_epochs=10, patience=5,
                      lr=1e200)
    with pytest.raises(TrainingDivergedError) as err:
        fit(m, train_set, val_set, cfg)
    assert err.value.epoch in (0, 1)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_a_diverged_fit_leaves_nothing_pending_and_the_model_fits_again():
    from deepseries.zoo import build_model, make_top

    m = build_model("ExampleModel", (100, 1), top=make_top("forecast", horizon=10, features=1))
    xs = np.random.default_rng(0).normal(size=(24, 100, 1))
    cfg = TrainConfig(batch_size=8, max_epochs=1, patience=1)
    huge = SeriesDataset(xs, np.full((24, 10, 1), 1e300))
    with pytest.raises(TrainingDivergedError):
        fit(m, huge, huge, cfg)
    with pytest.raises(StateError):
        m.backward(np.ones((8, 10, 1)))
    assert m._workspace == {}
    tame = SeriesDataset(xs, np.zeros((24, 10, 1)))
    assert len(fit(m, tame, tame, cfg).epochs) == 1
    assert m._workspace == {}


def test_fit_validation():
    train_set, val_set = make_sets()
    with pytest.raises(ParameterError):
        fit(dense_model(), train_set, val_set, TrainConfig(batch_size=0))
    with pytest.raises(ParameterError):
        fit(dense_model(), train_set, val_set, TrainConfig(max_epochs=0))


@pytest.mark.parametrize("empty", ["train", "val"])
def test_fit_rejects_an_empty_set_before_the_first_epoch(empty):
    train_set, val_set = make_sets()
    blank = SeriesDataset(np.zeros((0, 3)), np.zeros((0, 1)))
    m = dense_model()
    before = {k: v.copy() for k, v in m.parameters().items()}
    with pytest.raises(DataError):
        fit(m, blank if empty == "train" else train_set,
            blank if empty == "val" else val_set, TrainConfig(max_epochs=2))
    for name, arr in m.parameters().items():
        np.testing.assert_array_equal(arr, before[name])


def test_history_lines_format():
    h = History(epochs=[{"epoch": 0, "train_loss": 0.5, "val_loss": 1.0 / 3.0}])
    assert h.lines() == ["epoch 0 train_loss 0.5 val_loss 0.3333333333"]


def test_predict_matches_batched_forward():
    m = dense_model()
    xs = np.random.default_rng(0).normal(size=(10, 3))
    whole = np.asarray(m.forward(xs).array)
    np.testing.assert_array_equal(predict(m, xs, batch_size=3), whole)


@pytest.mark.parametrize("batch_size", [1, 7])
@pytest.mark.parametrize("model", ["dense", "reshape"])
def test_predict_output_never_shares_the_callers_input(model, batch_size):
    # predict batches by slices, so each batch is a view of the input, and a
    # reshape-only model's output is a view of that batch
    m = dense_model() if model == "dense" else single_node_model(Reshape((3, 1)), (3,))
    xs = np.random.default_rng(0).normal(size=(5, 3))
    out = predict(m, xs, batch_size=batch_size)
    assert not np.shares_memory(out, xs)
    np.testing.assert_allclose(out, np.asarray(m.forward(xs).array), rtol=1e-12)


def test_predict_on_zero_rows_returns_an_empty_output():
    out = predict(dense_model(), np.zeros((0, 3)))
    assert out.shape == (0, 1)
    with pytest.raises(ShapeError):
        predict(dense_model(), np.zeros((0, 7)))


@pytest.mark.parametrize("batch_size", [0, -1])
def test_predict_rejects_batch_size_below_one(batch_size):
    with pytest.raises(ParameterError, match="batch_size"):
        predict(dense_model(), np.zeros((3, 3)), batch_size=batch_size)


def test_batch_256_predict_transient_memory():
    # A forward frees each value after its last reader, Conv1D and Dense
    # add the bias and activate in their own product, and Conv1D fills its
    # window matrix in row blocks.  Holding every node's output to the end,
    # with three arrays per layer, peaked at 14.3 MiB; a whole-batch window
    # matrix at 9.0 MiB.
    from deepseries.zoo import build_model, make_top

    model = build_model("ExampleModel", (100, 1),
                        top=make_top("forecast", horizon=10, features=1))
    xs = np.random.default_rng(0).normal(size=(256, 100, 1))
    predict(model, xs, batch_size=256)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        predict(model, xs, batch_size=256)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 6 * 2**20, f"transient peak {peak / 2**20:.1f} MiB"


def test_two_phase_autoencoder_fit_moves_then_freezes_encoder():
    from deepseries.zoo import build_autoencoder_pair, make_top

    pair = build_autoencoder_pair((32, 1), top=make_top("classify", classes=2))
    init = {k: pair.classifier.parameters()[k].copy() for k in pair.encoder_params}

    rng = np.random.default_rng(0)
    xs = rng.normal(size=(24, 32, 1))
    labels = np.eye(2)[rng.integers(0, 2, size=24)]
    train_set = SeriesDataset(xs[:16], labels[:16])
    val_set = SeriesDataset(xs[16:], labels[16:])
    cfg = TrainConfig(loss="cross_entropy", batch_size=8, max_epochs=2,
                      patience=5, lr=1e-3)

    clf, hist = two_phase_autoencoder_fit(pair, train_set, val_set, cfg)
    assert clf is pair.classifier
    assert set(hist) == {"phase1", "phase2"}
    assert len(hist["phase1"].epochs) >= 1 and len(hist["phase2"].epochs) >= 1
    # phase 1 moved the shared encoder away from its initial values
    assert any(
        not np.array_equal(init[k], pair.classifier.parameters()[k])
        for k in pair.encoder_params
    )
    # the two graphs still share the very same arrays
    for k in pair.encoder_params:
        assert pair.autoencoder.parameters()[k] is pair.classifier.parameters()[k]


# -------------------------------------------------------------------- metrics


def test_accuracy_oracle():
    scores = [[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]]
    onehot = [[1, 0], [0, 1], [0, 1], [1, 0]]
    assert accuracy(scores, onehot) == 0.5
    assert accuracy(scores, [0, 1, 1, 0]) == 0.5
    assert accuracy(scores, [0, 1, 0, 1]) == 1.0


def test_accuracy_shape_checks():
    with pytest.raises(ShapeError):
        accuracy([0.9, 0.1], [1])
    with pytest.raises(ShapeError, match="counts differ"):
        accuracy([[0.9, 0.1]], [0, 1])


def test_mean_absolute_error_oracle():
    assert mean_absolute_error([[1.0, 2.0]], [[2.0, 0.0]]) == 1.5
    with pytest.raises(ShapeError):
        mean_absolute_error([1.0], [1.0, 2.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("metric", ["accuracy", "mae"])
def test_metrics_reject_an_empty_batch(metric):
    # both used to return NaN with "Mean of empty slice"
    fn = accuracy if metric == "accuracy" else mean_absolute_error
    with pytest.raises(MetricUndefinedError, match="empty batch"):
        fn(np.zeros((0, 3)), np.zeros((0, 3)))


def brute_force_auc(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            total += 1.0 if p > n else (0.5 if p == n else 0.0)
    return total / (len(pos) * len(neg))


def test_auc_hand_cases():
    assert auc([0.9, 0.8, 0.1], [1, 0, 0]) == 1.0
    assert auc([0.1, 0.8, 0.9], [1, 0, 0]) == 0.0
    assert auc([0.5, 0.5], [1, 0]) == 0.5


@pytest.mark.parametrize("seed", range(5))
def test_auc_matches_pairwise_count(seed):
    rng = np.random.default_rng(seed)
    # quantized scores force plenty of ties
    scores = np.round(rng.uniform(0, 1, size=60), 1)
    labels = rng.integers(0, 2, size=60)
    if labels.min() == labels.max():
        labels[0] = 1 - labels[0]
    assert auc(scores, labels) == pytest.approx(
        brute_force_auc(list(scores), list(labels)), abs=1e-12
    )


def test_auc_needs_both_classes():
    with pytest.raises(MetricUndefinedError):
        auc([0.1, 0.2], [1, 1])
    with pytest.raises(ShapeError):
        auc([0.1], [1, 0])


@pytest.mark.parametrize("labels", [[0, 1, 2, 1], [0, 0.5, 1, 1], [0, -1, 1, 1],
                                    [0, np.nan, 1, 1]])
def test_auc_rejects_labels_other_than_0_and_1(labels):
    # [0, 1, 2, 1] used to give 1.5; [0, 0.5, 1, 1] read as [0, 0, 1, 1]
    with pytest.raises(MetricUndefinedError, match="labels of 0 and 1"):
        auc([0.1, 0.2, 0.3, 0.4], labels)


def test_auc_accepts_boolean_labels():
    assert auc([0.9, 0.8, 0.1], [True, False, False]) == 1.0


def test_auc_rejects_non_finite_scores():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(MetricUndefinedError, match="finite scores"):
            auc([0.1, bad, 0.3], [1, 0, 1])
