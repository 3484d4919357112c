"""Losses, the Adam optimizer, the fit loop, and evaluation metrics."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable

import numpy as np

from .errors import (
    ContractError,
    DataError,
    MetricUndefinedError,
    ParameterError,
    ShapeError,
    TrainingDivergedError,
)
from .graph import Model
from .tensor import as_array

# -- losses -------------------------------------------------------------------


def loss_and_grad(kind: str, prediction, target) -> tuple[float, np.ndarray]:
    """Return (scalar loss, gradient w.r.t. the prediction).

    ``mse`` and ``mae`` average over every element; ``cross_entropy``
    averages the per-row negative log likelihood and expects prediction rows
    that already sum to one (softmax outputs).  An empty batch has no mean
    and raises ``DataError``.
    """
    p = as_array(prediction)
    t = as_array(target)
    if p.shape != t.shape:
        raise ShapeError(f"prediction {p.shape} and target {t.shape} differ")
    if p.size == 0:
        raise DataError(f"{kind} loss of an empty batch (prediction {p.shape})")
    if kind in ("mse", "mae"):
        with np.errstate(over="ignore"):  # an infinite loss is fit's divergence signal
            d = p - t
            if kind == "mse":
                return float((d * d).mean()), (2.0 / d.size) * d
            return float(np.abs(d).mean()), np.sign(d) / d.size
    if kind == "cross_entropy":
        if p.ndim != 2:
            raise ShapeError(f"cross_entropy expects [batch, classes], got {p.shape}")
        sums = p.sum(axis=1)
        if np.abs(sums - 1.0).max() > 1e-6:
            raise ContractError(
                "cross_entropy needs probability rows; worst row sum "
                f"{sums[np.abs(sums - 1.0).argmax()]:.8f}"
            )
        # Flooring at the smallest normal float keeps the log and the
        # divisor finite without moving any probability that is not zero.
        q = np.maximum(p, np.finfo(float).tiny)
        loss = float(-(t * np.log(q)).sum(axis=1).mean())
        return loss, -(t / q) / p.shape[0]
    raise ParameterError(f"unknown loss {kind!r}")


# -- optimizer ------------------------------------------------------------------


class Adam:
    """Adam with bias correction; updates parameter arrays in place.

    m <- b1 m + (1-b1) g        v <- b2 v + (1-b2) g^2
    theta <- theta - lr * (m / (1-b1^t)) / (sqrt(v / (1-b2^t)) + eps)
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float = 1e-3,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8,
                 frozen: Iterable[str] = ()):
        if not 0.0 < lr < np.inf:
            raise ParameterError(f"lr must be finite and > 0, got {lr}")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ParameterError("betas must lie in [0, 1)")
        self.params = params
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.epsilon = float(epsilon)
        self.frozen = set(frozen)
        unknown = sorted(self.frozen - set(params))
        if unknown:
            raise ParameterError(f"frozen names {unknown} are not parameters")
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items() if k not in self.frozen}
        self.v = {k: np.zeros_like(v) for k, v in params.items() if k not in self.frozen}

    def step(self, grads: dict[str, np.ndarray]):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for name, m in self.m.items():
            g = grads[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            self.params[name] -= self.lr * (m / c1) / (np.sqrt(v / c2) + self.epsilon)


# -- early stopping ---------------------------------------------------------------


class EarlyStopping:
    """Stop after `patience` consecutive epochs without improvement.

    An epoch improves when its monitored value is strictly below
    ``best - min_delta``.  Epoch indices are 0-based.
    """

    def __init__(self, patience: int, min_delta: float = 0.0):
        if patience < 0:
            raise ParameterError("patience must be >= 0")
        if not 0.0 <= min_delta < np.inf:
            raise ParameterError(f"min_delta must be finite and >= 0, got {min_delta}")
        self.patience = int(patience)
        self.min_delta = float(min_delta)
        self.best = np.inf
        self.best_epoch = -1
        self.strikes = 0
        self.epoch = -1

    def update(self, value: float) -> bool:
        """Record one epoch's monitored value; True means stop now."""
        self.epoch += 1
        if value < self.best - self.min_delta:
            self.best = value
            self.best_epoch = self.epoch
            self.strikes = 0
            return False
        self.strikes += 1
        return self.strikes >= self.patience


# -- fit ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    loss: str = "mse"
    batch_size: int = 32
    max_epochs: int = 10
    patience: int = 2
    min_delta: float = 0.0
    lr: float = 1e-3
    seed: int = 0


@dataclass
class History:
    """Per-epoch train/val losses and the epoch whose parameters were kept."""

    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = -1

    def lines(self) -> list[str]:
        return [
            f"epoch {e['epoch']} train_loss {e['train_loss']:.10g} "
            f"val_loss {e['val_loss']:.10g}"
            for e in self.epochs
        ]


def _model_inputs(model: Model, inputs: np.ndarray):
    """Single-input datasets feed every entry of a multi-input graph."""
    k = len(model.input_names)
    return inputs if k == 1 else [inputs] * k


def predict(model: Model, inputs, batch_size: int = 256) -> np.ndarray:
    """Evaluation-mode forward over a whole input array, batched.

    Each batch is a slice of ``inputs``, not a copy; the result is a new
    array that shares no memory with ``inputs``.  Zero rows run as one empty
    batch, which checks their per-sample shape and gives an empty
    ``[0, *output_shape]`` array.  ``batch_size`` must be >= 1.
    """
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    xs = as_array(inputs)
    outs = [
        model.forward(_model_inputs(model, xs[start : start + batch_size]), train=False).array
        for start in range(0, max(xs.shape[0], 1), batch_size)
    ]
    return np.concatenate(outs, axis=0)


def fit(model: Model, train_set, val_set, config: TrainConfig,
        frozen: Iterable[str] = ()) -> History:
    """Minibatch training with seeded shuffling and early stopping.

    Shuffles pairs each epoch (the final partial batch is kept), monitors the
    validation loss, and restores the best-epoch parameters and buffers on
    return.  A non-finite training loss raises TrainingDivergedError with the
    0-based epoch index.  An empty training or validation set raises
    DataError before the first epoch.
    """
    if config.batch_size < 1 or config.max_epochs < 1:
        raise ParameterError("batch_size and max_epochs must be >= 1")
    xs, ys = as_array(train_set.inputs), as_array(train_set.targets)
    vx, vy = as_array(val_set.inputs), as_array(val_set.targets)
    if xs.shape[0] == 0 or vx.shape[0] == 0:
        raise DataError(f"fit needs non-empty sets, got {xs.shape[0]} training "
                        f"and {vx.shape[0]} validation rows")
    rng = np.random.default_rng(config.seed)
    opt = Adam(model.parameters(), config.lr, frozen=frozen)
    stopper = EarlyStopping(config.patience, config.min_delta)
    history = History()
    n = xs.shape[0]
    for epoch in range(config.max_epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            sel = order[start : start + config.batch_size]
            pred = model.forward(_model_inputs(model, xs[sel]), train=True)
            val, grad = loss_and_grad(config.loss, pred.array, ys[sel])
            if not np.isfinite(val):
                raise TrainingDivergedError(
                    f"training loss became non-finite at epoch {epoch}", epoch
                )
            grads = model.backward(grad)
            opt.step(grads)
            total += val * len(sel)
        train_loss = total / n
        val_loss = loss_and_grad(config.loss, predict(model, vx, config.batch_size), vy)[0]
        if not np.isfinite(val_loss):
            raise TrainingDivergedError(
                f"validation loss became non-finite at epoch {epoch}", epoch
            )
        history.epochs.append(
            {"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss}
        )
        stop = stopper.update(val_loss)
        if stopper.best_epoch == epoch:  # always at epoch 0, whose loss beats inf
            best_state = {k: v.copy() for k, v in model.state().items()}
        if stop:
            break
    history.best_epoch = stopper.best_epoch
    live = model.state()
    for name, arr in best_state.items():
        live[name][...] = arr
    return history


def two_phase_autoencoder_fit(pair, train_set, val_set, config: TrainConfig):
    """Reconstruction pretraining, then classification with a frozen encoder.

    ``pair`` carries ``autoencoder``, ``classifier`` (sharing encoder layer
    instances) and ``encoder_params`` (qualified names to freeze in phase 2).
    Phase 1 runs ``config`` with an ``mse`` loss.  Returns ``(classifier,
    {"phase1": History, "phase2": History})``.
    """
    ae_train = replace(train_set, targets=train_set.inputs)
    ae_val = replace(val_set, targets=val_set.inputs)
    h1 = fit(pair.autoencoder, ae_train, ae_val, replace(config, loss="mse"))
    h2 = fit(pair.classifier, train_set, val_set, config,
             frozen=pair.encoder_params)
    return pair.classifier, {"phase1": h1, "phase2": h2}


# -- metrics -----------------------------------------------------------------------


def accuracy(predictions, targets) -> float:
    """Fraction of argmax matches; targets may be one-hot rows or class ids.

    Raises MetricUndefinedError on an empty batch.
    """
    p = as_array(predictions)
    t = as_array(targets)
    if p.ndim != 2:
        raise ShapeError(f"accuracy expects [batch, classes] scores, got {p.shape}")
    if p.size == 0:
        raise MetricUndefinedError(f"accuracy of an empty batch (scores {p.shape})")
    labels = t.argmax(axis=1) if t.ndim == 2 else t.astype(int)
    if labels.shape[0] != p.shape[0]:
        raise ShapeError("prediction and target counts differ")
    return float((p.argmax(axis=1) == labels).mean())


def mean_absolute_error(predictions, targets) -> float:
    """Mean of ``|p - t|``; raises MetricUndefinedError on an empty batch."""
    p = as_array(predictions)
    t = as_array(targets)
    if p.shape != t.shape:
        raise ShapeError(f"prediction {p.shape} and target {t.shape} differ")
    if p.size == 0:
        raise MetricUndefinedError(f"mean absolute error of an empty batch ({p.shape})")
    return float(np.abs(p - t).mean())


def auc(scores, labels) -> float:
    """Rank-based (Mann-Whitney) AUC with ties counted as half.

    Raises MetricUndefinedError unless every label is 0 or 1, both classes
    are present and every score is finite.
    """
    s = as_array(scores).ravel()
    y = as_array(labels).ravel()
    if s.shape != y.shape:
        raise ShapeError("scores and labels differ in length")
    pos = y == 1
    if not (pos | (y == 0)).all():
        raise MetricUndefinedError("AUC needs labels of 0 and 1 only")
    n_pos = int(pos.sum())
    n_neg = y.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise MetricUndefinedError("AUC needs both classes present")
    if not np.isfinite(s).all():
        raise MetricUndefinedError("AUC needs finite scores")
    order = np.argsort(s, kind="stable")
    # tied scores share the mean of the 1-based ranks they span
    _, tie, count = np.unique(s[order], return_inverse=True, return_counts=True)
    first = np.cumsum(count) - count
    ranks = np.empty(len(s))
    ranks[order] = (first + 0.5 * (count + 1))[tie]
    r_pos = ranks[pos].sum()
    return float((r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
