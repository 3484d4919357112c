"""Series preprocessing, window datasets, synthetic generators, and CSV input.

Raw series are ``[steps, columns]`` tensors.  Window datasets pair an input
block ``[window, columns]`` with the following target block ``[horizon,
columns]``.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    DataError,
    DegenerateSegmentError,
    FormatError,
    ParameterError,
    ShapeError,
)
from .graph import Model
from .tensor import Tensor, as_array
from .train import auc as _auc, predict


@dataclass
class SeriesDataset:
    """Aligned input/target tensors."""

    inputs: Tensor
    targets: Tensor

    def __post_init__(self):
        self.inputs = Tensor(as_array(self.inputs))
        self.targets = Tensor(as_array(self.targets))
        if self.inputs.shape[0] != self.targets.shape[0]:
            raise ShapeError(
                f"inputs ({self.inputs.shape[0]}) and targets "
                f"({self.targets.shape[0]}) pair counts differ"
            )

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    def take(self, index) -> "SeriesDataset":
        idx = np.asarray(index)
        return SeriesDataset(self.inputs.array[idx], self.targets.array[idx])


def _series(x) -> np.ndarray:
    a = as_array(x)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise ShapeError(f"a series must be [steps, columns], got shape {a.shape}")
    return a


# -- preprocessing -------------------------------------------------------------


def smooth(series, window: int, iterations: int = 1) -> Tensor:
    """Trailing moving average, applied ``iterations`` times.

    Each output step averages the last ``window`` values; the first steps
    average what exists so far, so the length never changes.
    """
    if window < 1 or iterations < 0:
        raise ParameterError("window must be >= 1 and iterations >= 0")
    a = _series(series)
    if a.shape[0] < 1:
        raise DataError("cannot smooth an empty series")
    counts = np.minimum(np.arange(1, a.shape[0] + 1), window)[:, None]
    for _ in range(iterations):
        cs = np.cumsum(a, axis=0)
        tail = np.zeros_like(a)
        tail[window:] = cs[:-window]
        a = (cs - tail) / counts
    return Tensor(a)


def zscore(segment) -> Tensor:
    """Normalise each column to mean 0 and sample standard deviation 1."""
    a = _series(segment)
    n = a.shape[0]
    if n < 2:
        raise DataError("zscore needs at least two steps")
    dev = a - np.add.reduce(a, axis=0) / n  # a.mean(0), a.std(0, ddof=1) bit for bit
    std = np.sqrt(np.add.reduce(dev * dev, axis=0) / (n - 1))
    if (std == 0.0).any():
        raise DegenerateSegmentError(f"column {np.argmax(std == 0.0)} is constant; zscore undefined")
    return Tensor(dev / std)


def _split_sizes(n: int, fractions: Sequence[float], what: str) -> tuple[int, int]:
    """Train and validation sizes of a three-way split of ``n`` ``what``.

    The rounding remainder goes to test; bad fractions raise
    ParameterError, a split with an empty part DataError.
    """
    # written so that a NaN fraction fails the test
    if len(fractions) != 3 or not (all(f > 0 for f in fractions)
                                   and abs(sum(fractions) - 1.0) <= 1e-9):
        raise ParameterError(f"fractions must be three positives summing to 1, got {fractions}")
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    if n_train < 1 or n_val < 1 or n - n_train - n_val < 1:
        raise DataError(f"split of {n} {what} into {tuple(fractions)} produced an empty part")
    return n_train, n_val


def chrono_split(series, fractions: Sequence[float] = (0.7, 0.2, 0.1)):
    """Contiguous train/val/test split; the rounding remainder goes to test."""
    a = _series(series)
    n_train, n_val = _split_sizes(a.shape[0], fractions, "steps")
    return (
        Tensor(a[:n_train]),
        Tensor(a[n_train : n_train + n_val]),
        Tensor(a[n_train + n_val :]),
    )


def windowize(series, window: int, horizon: int, stride: int = 1) -> SeriesDataset:
    """Slide an input window and its following target block over a series."""
    if window < 1 or horizon < 1 or stride < 1:
        raise ParameterError("window, horizon and stride must be >= 1")
    a = _series(series)
    n = a.shape[0]
    if n < window + horizon:
        raise DataError(
            f"series of {n} steps is shorter than window {window} + horizon {horizon}"
        )
    # views of C-ordered rows (ravel copies any other layout); SeriesDataset copies once
    blocks = sliding_window_view(a.ravel().reshape(a.shape), window + horizon, axis=0)
    blocks = blocks[::stride].transpose(0, 2, 1)
    return SeriesDataset(blocks[:, :window], blocks[:, window:])


def pad_or_truncate(segment, length: int) -> Tensor:
    """Keep the first ``length`` steps, zero-padding the tail when short."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    a = _series(segment)
    if a.shape[0] >= length:
        return Tensor(a[:length])
    out = np.zeros((length, a.shape[1]))
    out[: a.shape[0]] = a
    return Tensor(out)


def split_pairs(dataset: SeriesDataset, fractions=(0.7, 0.2, 0.1),
                seed: Optional[int] = None):
    """Split window/segment pairs three ways, optionally shuffling first."""
    n = dataset.n
    n_train, n_val = _split_sizes(n, fractions, "pairs")
    idx = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
    return (
        dataset.take(idx[:n_train]),
        dataset.take(idx[n_train : n_train + n_val]),
        dataset.take(idx[n_train + n_val :]),
    )


# -- anomaly scoring -----------------------------------------------------------


def anomaly_windows(series, labels, window: int, horizon: int, stride: int = 1):
    """Windowize a labelled series.

    Returns ``(dataset, target_anomalous, clean)`` where ``target_anomalous``
    flags windows whose target block touches an anomaly and ``clean`` flags
    windows free of anomalies in both blocks.  Labels must be 0 or 1
    (DataError otherwise).
    """
    a = _series(series)
    y = as_array(labels).ravel()
    if y.shape[0] != a.shape[0]:
        raise ShapeError("labels must align with the series steps")
    if not ((y == 0) | (y == 1)).all():
        raise DataError("anomaly labels must be 0 or 1")
    ds = windowize(a, window, horizon, stride)
    seen = np.concatenate(([0], np.cumsum(y == 1)))  # anomalies before each step
    s = np.arange(0, a.shape[0] - window - horizon + 1, stride)
    end = seen[s + window + horizon]
    return ds, end > seen[s + window], end == seen[s]


def anomaly_harness(model: Model, windows: SeriesDataset, true_labels, top_k: int):
    """Score windows by mean absolute forecast error and label the top K.

    Scores are descending-sorted with ties broken toward the earlier window.
    Returns ``(scores, predicted_labels, auc)``.
    """
    n = windows.n
    if not (1 <= top_k <= n):
        raise ParameterError(f"top_k must lie in [1, {n}], got {top_k}")
    y = as_array(true_labels).ravel()
    if y.shape[0] != n:
        raise ShapeError("true_labels must align with the windows")
    ts = windows.targets.array
    pred = predict(model, windows.inputs.array, batch_size=256)
    scores = np.abs(pred - ts).mean(axis=tuple(range(1, ts.ndim)))
    ranked = np.lexsort((np.arange(n), -scores))
    predicted = np.zeros(n, dtype=int)
    predicted[ranked[:top_k]] = 1
    return Tensor(scores), Tensor(predicted), _auc(scores, y)


# -- synthetic generators --------------------------------------------------------


def sine_mix(freqs: Sequence[float], noise: float, length: int, seed: int = 0,
             offset: float = 0.0) -> Tensor:
    """Sum of unit sines (``freqs`` in cycles per step) plus seeded gaussian noise."""
    if length < 1:
        raise ParameterError("length must be >= 1")
    if not freqs:
        raise ParameterError("sine_mix needs at least one frequency")
    if not np.isfinite(freqs).all():
        raise ParameterError(f"freqs must be finite, got {list(freqs)}")
    if not 0.0 <= noise < np.inf:
        raise ParameterError(f"noise must be finite and >= 0, got {noise}")
    if not np.isfinite(offset):
        raise ParameterError(f"offset must be finite, got {offset}")
    t = np.arange(length)
    x = np.full(length, float(offset))
    for f in freqs:
        x += np.sin(2.0 * np.pi * f * t)
    if noise > 0.0:
        x += np.random.default_rng(seed).normal(0.0, noise, size=length)
    return Tensor(x[:, None])


def labeled_segments(classes: int, length: int, count: int, seed: int = 0,
                     noise: float = 0.05) -> SeriesDataset:
    """``count`` segments per class; classes differ in frequency and offset.

    Targets are one-hot rows.  The pair order is a seeded shuffle so a
    downstream split sees every class.
    """
    if classes < 2 or length < 4 or count < 1:
        raise ParameterError("need classes >= 2, length >= 4, count >= 1")
    if not 0.0 <= noise < np.inf:
        raise ParameterError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    xs = np.empty((classes * count, length, 1))
    ys = np.zeros((classes * count, classes))
    for c in range(classes):
        wave = 0.25 * c + np.sin(2.0 * np.pi * (4.0 * (c + 1)) * t / length)
        block = wave[None, :] + rng.normal(0.0, noise, size=(count, length))
        xs[c * count : (c + 1) * count, :, 0] = block
        ys[c * count : (c + 1) * count, c] = 1.0
    order = rng.permutation(classes * count)
    return SeriesDataset(xs[order], ys[order])


def traffic_with_anomalies(features: int, length: int, rate: float, seed: int = 0):
    """Multivariate daily-pattern traffic with level-shift anomalies.

    Injects exactly ``floor(rate * length)`` anomalous steps at seeded
    positions.  Returns ``(series, labels)``.
    """
    if features < 1 or length < 10:
        raise ParameterError("need features >= 1 and length >= 10")
    if not (0.0 < rate < 0.5):
        raise ParameterError("rate must lie in (0, 0.5)")
    rng = np.random.default_rng(seed)
    t = np.arange(length)
    base = np.empty((length, features))
    for j in range(features):
        period = 48 + 8 * (j % 5)
        base[:, j] = (
            1.0
            + 0.5 * np.sin(2.0 * np.pi * t / period + 0.3 * j)
            + rng.normal(0.0, 0.03, size=length)
        )
    n_anom = int(rate * length)
    if n_anom < 1:
        raise ParameterError("rate too small: no anomalies for this length")
    positions = rng.choice(length, size=n_anom, replace=False)
    labels = np.zeros(length, dtype=int)
    labels[positions] = 1
    shift = 3.0 + rng.random(n_anom) * 2.0
    hit = rng.random((n_anom, features)) < 0.6
    hit[np.arange(n_anom), rng.integers(0, features, n_anom)] = True
    base[positions] += shift[:, None] * hit
    return Tensor(base), Tensor(labels.astype(float))


# -- CSV input ---------------------------------------------------------------------


def load_csv(path: Union[str, io.IOBase],
             columns: Optional[Sequence[str]] = None) -> Tensor:
    """Read numeric columns from a CSV file into a ``[steps, columns]`` tensor.

    The first non-blank row is a header; ``columns`` picks columns by header
    name (default: all, in file order).  A file path is read as UTF-8,
    dropping a leading byte-order mark.  Text that does not decode, or a
    selected cell that is not a finite number (``nan`` and ``inf``
    included), raises :class:`FormatError`; a bad cell's message names its
    file line.  Every row, the header included, must have the same number
    of fields.
    """
    fh = open(path, "r", newline="", encoding="utf-8-sig") if isinstance(path, str) else path
    reader = csv.reader(fh)
    try:
        numbered = [(reader.line_num, r) for r in reader]  # a row's last file line
    except UnicodeDecodeError:
        raise FormatError(f"{getattr(fh, 'name', 'CSV input')} is not UTF-8 text") from None
    finally:
        if fh is not path:
            fh.close()
    numbered = [(n, r) for n, r in numbered if any(cell.strip() for cell in r)]
    if not numbered:
        raise DataError("CSV has no data rows")
    header = [h.strip() for h in numbered[0][1]]
    lines = [n for n, _ in numbered[1:]]
    rows = [r for _, r in numbered[1:]]
    if not rows:
        raise DataError("CSV has a header but no data rows")
    width = len(rows[0])
    if len(header) != width:
        raise FormatError(f"header has {len(header)} fields but line {lines[0]} has {width}")
    if columns is None:
        idx = list(range(width))
    else:
        idx = []
        for c in columns:
            if c not in header:
                raise FormatError(f"column {c!r} not in header {header}")
            idx.append(header.index(c))
    data = np.empty((len(rows), len(idx)))
    for i, row in enumerate(rows):
        if len(row) != width:
            raise FormatError(f"line {lines[i]}: expected {width} fields, got {len(row)}")
        for j, c in enumerate(idx):
            try:
                data[i, j] = float(row[c])
            except ValueError:
                raise FormatError(f"line {lines[i]}: {row[c]!r} is not a number") from None
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise FormatError(f"line {lines[i]}: {rows[i][idx[j]]!r} is not a finite number")
    return Tensor(data)
