"""Preprocessing, windowing, synthetic generators, and CSV input."""

import dataclasses
import io
import re
import tracemalloc

import numpy as np
import pytest

from deepseries.data import (
    SeriesDataset,
    anomaly_harness,
    anomaly_windows,
    chrono_split,
    labeled_segments,
    load_csv,
    pad_or_truncate,
    sine_mix,
    smooth,
    split_pairs,
    traffic_with_anomalies,
    windowize,
    zscore,
)
from deepseries.errors import (
    DataError,
    DegenerateSegmentError,
    FormatError,
    MetricUndefinedError,
    ParameterError,
    ShapeError,
)
from deepseries.tensor import Tensor

# ---------------------------------------------------------------- preprocessing

# the same values in four memory layouts: time-reversed and column-slice
# series have negative and non-unit strides
_LAYOUTS = {
    "C": lambda a: a,
    "fortran": np.asfortranarray,
    "reversed": lambda a: np.ascontiguousarray(a[::-1])[::-1],
    "column_slice": lambda a: np.repeat(a, 2, axis=1)[:, 1::2],
}


def smooth_oracle(series, window, iterations):
    a = np.asarray(series, dtype=float).copy()
    if a.ndim == 1:
        a = a[:, None]
    for _ in range(iterations):
        out = np.empty_like(a)
        for i in range(a.shape[0]):
            out[i] = a[max(0, i - window + 1) : i + 1].mean(axis=0)
        a = out
    return a


def test_smooth_hand_case():
    got = np.asarray(smooth([1.0, 2.0, 3.0, 4.0], window=2).array)
    np.testing.assert_allclose(got[:, 0], [1.0, 1.5, 2.5, 3.5], atol=1e-15)
    twice = np.asarray(smooth([1.0, 2.0, 3.0, 4.0], window=2, iterations=2).array)
    np.testing.assert_allclose(twice[:, 0], [1.0, 1.25, 2.0, 3.0], atol=1e-15)


@pytest.mark.parametrize("window,iterations", [(1, 1), (3, 1), (5, 3), (4, 0)])
def test_smooth_matches_bruteforce(window, iterations):
    rng = np.random.default_rng(7)
    series = rng.normal(size=(40, 2))
    got = np.asarray(smooth(series, window, iterations).array)
    np.testing.assert_allclose(got, smooth_oracle(series, window, iterations),
                               atol=1e-12)


def test_smooth_keeps_length_and_validates():
    assert smooth(np.arange(9.0), 4).shape == (9, 1)
    with pytest.raises(ParameterError):
        smooth([1.0], 0)
    with pytest.raises(ParameterError):
        smooth([1.0], 2, iterations=-1)
    with pytest.raises(DataError):
        smooth(np.empty((0, 1)), 2)


def test_smooth_rejects_a_series_of_rank_three():
    with pytest.raises(ShapeError, match=re.escape(
            "a series must be [steps, columns], got shape (10, 2, 2)")):
        smooth(np.zeros((10, 2, 2)), 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("iterations", [1, 5])
def test_smooth_rejects_a_running_sum_that_overflows(iterations):
    finite = np.column_stack([np.ones(400), np.sin(np.arange(400) / 7) * 1e308])
    with pytest.raises(DataError, match="smoothing column 1 gave a non-finite value"):
        smooth(finite, 50, iterations)
    assert np.isfinite(smooth(finite * 1e-10, 50, iterations).array).all()


def test_zscore_uses_sample_std():
    got = np.asarray(zscore([1.0, 2.0, 3.0]).array)
    np.testing.assert_allclose(got[:, 0], [-1.0, 0.0, 1.0], atol=1e-15)
    rng = np.random.default_rng(0)
    seg = rng.normal(2.0, 5.0, size=(30, 3))
    z = np.asarray(zscore(seg).array)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0, ddof=1), 1.0, atol=1e-12)


def test_zscore_degenerate_and_short():
    seg = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
    with pytest.raises(DegenerateSegmentError, match="column 1 is constant"):
        zscore(seg)
    with pytest.raises(DataError):
        zscore([1.0])


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
def test_zscore_is_bytewise_the_textbook_formula(layout):
    rng = np.random.default_rng(3)
    for shape, scale in [((30, 3), 5.0), ((128, 2), 1e-3), ((7, 4), 1e6)]:
        a = _LAYOUTS[layout](rng.normal(2.0, scale, size=shape))
        want = (a - a.mean(0)) / a.std(0, ddof=1)
        got = zscore(a).array
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_chrono_split_contiguous_and_remainder_to_test():
    series = np.arange(10.0)
    tr, va, te = chrono_split(series)
    assert (tr.shape[0], va.shape[0], te.shape[0]) == (7, 2, 1)
    np.testing.assert_array_equal(np.asarray(tr.array)[:, 0], np.arange(7.0))
    np.testing.assert_array_equal(np.asarray(va.array)[:, 0], [7.0, 8.0])
    np.testing.assert_array_equal(np.asarray(te.array)[:, 0], [9.0])
    # 9 steps: int(9*0.7)=6, int(9*0.2)=1, leaving 2 for test
    tr, va, te = chrono_split(np.arange(9.0))
    assert (tr.shape[0], va.shape[0], te.shape[0]) == (6, 1, 2)


def _pairs(n):
    return SeriesDataset(np.zeros((n, 2, 1)), np.zeros((n, 1, 1)))


@pytest.mark.parametrize("split,make", [(chrono_split, np.arange),
                                        (split_pairs, _pairs)],
                         ids=["chrono_split", "split_pairs"])
def test_split_validation(split, make):
    for bad in [(0.5, 0.5), (0.7,), (0.8, 0.3, -0.1), (0.2, 0.2, 0.2),
                (0.7, float("nan"), 0.3)]:
        with pytest.raises(ParameterError, match="three positives summing to 1"):
            split(make(10), bad)
    with pytest.raises(DataError):
        split(make(2))
    with pytest.raises(DataError, match="empty part"):  # n=3 gives an empty val part
        split(make(3))


def test_windowize_hand_case():
    ds = windowize(np.arange(10.0), window=3, horizon=2)
    assert ds.n == 6
    xs = np.asarray(ds.inputs.array)
    ys = np.asarray(ds.targets.array)
    assert xs.shape == (6, 3, 1) and ys.shape == (6, 2, 1)
    np.testing.assert_array_equal(xs[0, :, 0], [0.0, 1.0, 2.0])
    np.testing.assert_array_equal(ys[0, :, 0], [3.0, 4.0])
    np.testing.assert_array_equal(xs[5, :, 0], [5.0, 6.0, 7.0])
    np.testing.assert_array_equal(ys[5, :, 0], [8.0, 9.0])


def test_windowize_stride_and_counts():
    assert windowize(np.arange(10.0), 3, 2, stride=2).n == 3
    assert windowize(np.arange(5.0), 3, 2).n == 1  # exactly one fits
    with pytest.raises(DataError, match="shorter than window"):
        windowize(np.arange(4.0), 3, 2)
    with pytest.raises(ParameterError):
        windowize(np.arange(10.0), 0, 1)


def windowize_reference(a, window, horizon, stride):
    """Input and target stacks built from one slice per window."""
    starts = np.arange(0, a.shape[0] - window - horizon + 1, stride)
    inputs = np.stack([a[s : s + window] for s in starts])
    targets = np.stack([a[s + window : s + window + horizon] for s in starts])
    return inputs, targets


@pytest.mark.parametrize("layout", sorted(_LAYOUTS))
@pytest.mark.parametrize("columns", [1, 3])
@pytest.mark.parametrize("stride", [1, 3, 7])
def test_windowize_matches_the_per_window_reference(stride, columns, layout):
    window, horizon = 5, 2
    rng = np.random.default_rng(stride * 10 + columns)
    for steps in (40, window + horizon):
        series = _LAYOUTS[layout](rng.normal(size=(steps, columns)))
        ds = windowize(series, window, horizon, stride)
        got = (ds.inputs.array, ds.targets.array)
        want = windowize_reference(series, window, horizon, stride)
        for g, w in zip(got, want):
            assert g.shape == w.shape and g.tobytes() == w.tobytes()
            assert not g.flags.writeable and not np.shares_memory(g, series)
        assert _span(*got) <= series.nbytes  # both view one private series copy
        series[...] = 0.0
        for g, w in zip(got, want):
            assert g.tobytes() == w.tobytes()


def _span(*arrays):
    """Bytes from the lowest to the highest address the arrays reach."""
    lows, highs = [], []
    for a in arrays:
        start = a.__array_interface__["data"][0]
        reach = [s * (n - 1) for s, n in zip(a.strides, a.shape)]
        lows.append(start + sum(r for r in reach if r < 0))
        highs.append(start + sum(r for r in reach if r > 0) + a.itemsize)
    return max(highs) - min(lows)


def test_windowize_views_a_contiguous_tensor_without_a_copy():
    for part in chrono_split(np.arange(100.0)) + (Tensor(np.arange(12.0)),):
        ds = windowize(part, 3, 2)
        for a in (ds.inputs.array, ds.targets.array):
            assert np.shares_memory(a, part.array)
    ds = windowize(Tensor(np.asfortranarray(np.ones((20, 2)))), 3, 2)
    assert _span(ds.inputs.array, ds.targets.array) <= 20 * 2 * 8


def _traced_peak(call):
    """``call()``'s result and the peak bytes it allocated, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_window_datasets_take_memory_of_the_series_not_the_windows():
    steps, window, horizon = 10_000, 200, 10
    series = np.random.default_rng(0).normal(size=(steps, 1))
    labels = np.zeros(steps)
    labels[::97] = 1.0
    for call in (lambda: windowize(series, window, horizon),
                 lambda: anomaly_windows(series, labels, window, horizon)):
        _, peak = _traced_peak(call)
        # the series is 80 kB; a copy of every window would be 16.4 MB
        assert peak < 1_000_000


def test_pad_or_truncate():
    out = np.asarray(pad_or_truncate([1.0, 2.0], 4).array)
    np.testing.assert_array_equal(out[:, 0], [1.0, 2.0, 0.0, 0.0])
    out = np.asarray(pad_or_truncate(np.arange(6.0), 4).array)
    np.testing.assert_array_equal(out[:, 0], [0.0, 1.0, 2.0, 3.0])
    assert pad_or_truncate([1.0, 2.0], 2).shape == (2, 1)
    with pytest.raises(ParameterError):
        pad_or_truncate([1.0], 0)


def test_split_pairs_counts_and_seeding():
    ds = windowize(np.arange(20.0), 3, 1)  # 17 pairs
    tr, va, te = split_pairs(ds)
    assert (tr.n, va.n, te.n) == (11, 3, 3)
    # unseeded split preserves order
    np.testing.assert_array_equal(
        np.asarray(tr.inputs.array), np.asarray(ds.inputs.array)[:11]
    )
    # seeded split shuffles reproducibly and keeps pairs aligned
    a1 = split_pairs(ds, seed=5)[0]
    a2 = split_pairs(ds, seed=5)[0]
    np.testing.assert_array_equal(np.asarray(a1.inputs.array),
                                  np.asarray(a2.inputs.array))
    # each input window still maps to its own following target
    xs = np.asarray(a1.inputs.array)
    ys = np.asarray(a1.targets.array)
    for i in range(a1.n):
        assert ys[i, 0, 0] == xs[i, -1, 0] + 1.0
    with pytest.raises(DataError):
        split_pairs(windowize(np.arange(5.0), 3, 2))


def test_series_dataset_validation():
    with pytest.raises(ShapeError, match="pair counts differ"):
        SeriesDataset(np.zeros((3, 2, 1)), np.zeros((4, 1)))
    ds = SeriesDataset(np.zeros((3, 2, 1)), np.ones((3, 1)))
    sub = ds.take([2, 0])
    assert sub.n == 2


def test_series_dataset_keeps_a_tensor_and_copies_anything_else():
    xs, ys = np.zeros((3, 2, 1)), np.ones((3, 1))
    ds = SeriesDataset(xs, ys)
    assert not np.shares_memory(ds.inputs.array, xs) and not ds.inputs.array.flags.writeable
    again = SeriesDataset(ds.inputs, ds.targets)
    assert again.inputs is ds.inputs and again.targets is ds.targets
    assert dataclasses.replace(ds, targets=ds.inputs).targets is ds.inputs


def test_take_gathers_once_into_memory_of_its_own():
    ds = windowize(np.random.default_rng(0).normal(size=(4000, 1)), 100, 10)
    idx = np.arange(0, ds.n, 2)
    sub, peak = _traced_peak(lambda: ds.take(idx))
    pairs = zip((sub.inputs.array, sub.targets.array), (ds.inputs.array, ds.targets.array))
    for got, src in pairs:
        assert got.tobytes() == src[idx].tobytes() and not got.flags.writeable
        assert not np.shares_memory(got, src)
    assert peak <= 1.1 * (sub.inputs.array.nbytes + sub.targets.array.nbytes)


# -------------------------------------------------------------- anomaly support


def test_anomaly_windows_flags():
    labels = [0, 0, 0, 1, 0, 0, 0, 0]
    ds, tgt, clean = anomaly_windows(np.arange(8.0), labels, window=3, horizon=1)
    assert ds.n == 5
    np.testing.assert_array_equal(tgt, [True, False, False, False, False])
    np.testing.assert_array_equal(clean, [False, False, False, False, True])
    with pytest.raises(ShapeError, match="align"):
        anomaly_windows(np.arange(8.0), [0, 1], 3, 1)


@pytest.mark.parametrize("bad", [0.3, 2.0, 7.0, -1.0, np.nan])
def test_anomaly_windows_rejects_labels_other_than_0_and_1(bad):
    labels = [0, 0, 0, 1, 0, bad, 0, 0]
    with pytest.raises(DataError, match="0 or 1"):
        anomaly_windows(np.arange(8.0), labels, window=3, horizon=1)


def test_anomaly_windows_accepts_boolean_labels():
    labels = np.array([0, 0, 0, 1, 0, 0, 0, 0], dtype=bool)
    _, tgt, clean = anomaly_windows(np.arange(8.0), labels, window=3, horizon=1)
    np.testing.assert_array_equal(tgt, [True, False, False, False, False])
    np.testing.assert_array_equal(clean, [False, False, False, False, True])


def anomaly_flags_reference(labels, window, horizon, stride):
    """Target-anomalous and clean flags computed one window at a time."""
    y = labels == 1
    starts = np.arange(0, y.shape[0] - window - horizon + 1, stride)
    tgt = np.array([y[s + window : s + window + horizon].any() for s in starts])
    clean = np.array([not y[s : s + window + horizon].any() for s in starts])
    return tgt, clean


# window 5 and horizon 2 over 40 steps: steps 4-7 sit on the first window's
# input/target boundaries, 20-21 on later ones for every stride
_ANOMALY_STEPS = {"none": [], "first": [0], "last": [39],
                  "boundaries": [4, 5, 6, 7, 20, 21], "all": list(range(40))}


@pytest.mark.parametrize("dtype", [bool, int, float])
@pytest.mark.parametrize("steps", sorted(_ANOMALY_STEPS))
@pytest.mark.parametrize("stride", [1, 3, 7])
def test_anomaly_windows_match_the_per_window_reference(stride, steps, dtype):
    window, horizon = 5, 2
    series = np.random.default_rng(stride).normal(size=(40, 3))
    labels = np.zeros(40, dtype=dtype)
    labels[_ANOMALY_STEPS[steps]] = 1
    ds, tgt, clean = anomaly_windows(series, labels, window, horizon, stride)
    for got, want in zip((ds.inputs.array, ds.targets.array),
                         windowize_reference(series, window, horizon, stride)):
        assert got.tobytes() == want.tobytes()
    for got, want in zip((tgt, clean), anomaly_flags_reference(labels, window, horizon, stride)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


class _ZeroModel:
    """Predicts all zeros, so the error score is the target's mean |value|."""

    input_names = ["x"]

    def __init__(self, horizon):
        self.horizon = horizon

    def forward(self, x, train=False):
        a = np.asarray(x)
        return Tensor(np.zeros((a.shape[0], self.horizon, a.shape[2])))


def test_anomaly_harness_scores_and_tiebreak():
    xs = np.zeros((4, 3, 1))
    ys = np.array([1.0, 3.0, 3.0, 0.0])[:, None, None]
    ds = SeriesDataset(xs, ys)
    labels = [0, 1, 1, 0]
    scores, predicted, roc = anomaly_harness(_ZeroModel(1), ds, labels, top_k=2)
    np.testing.assert_array_equal(np.asarray(scores.array), [1.0, 3.0, 3.0, 0.0])
    np.testing.assert_array_equal(np.asarray(predicted.array), [0, 1, 1, 0])
    assert roc == 1.0
    # tied scores: the earlier window wins the single slot
    _, predicted, _ = anomaly_harness(_ZeroModel(1), ds, labels, top_k=1)
    np.testing.assert_array_equal(np.asarray(predicted.array), [0, 1, 0, 0])


def test_anomaly_harness_validation():
    ds = SeriesDataset(np.zeros((3, 2, 1)), np.zeros((3, 1, 1)))
    with pytest.raises(ParameterError, match=r"top_k must lie in \[1, 3\]"):
        anomaly_harness(_ZeroModel(1), ds, [0, 1, 0], top_k=4)
    with pytest.raises(ShapeError):
        anomaly_harness(_ZeroModel(1), ds, [0, 1], top_k=1)
    with pytest.raises(MetricUndefinedError):
        anomaly_harness(_ZeroModel(1), ds, [0, 0, 0], top_k=1)
    with pytest.raises(MetricUndefinedError, match="labels of 0 and 1"):
        anomaly_harness(_ZeroModel(1), ds, [0, 1, 0.5], top_k=1)  # once read as 0


# ------------------------------------------------------------------- generators


def test_sine_mix_exact_formula():
    t = np.arange(50)
    want = 2.0 + np.sin(2 * np.pi * 0.05 * t) + np.sin(2 * np.pi * 0.11 * t)
    got = np.asarray(sine_mix([0.05, 0.11], noise=0.0, length=50, offset=2.0).array)
    assert got.shape == (50, 1)
    np.testing.assert_allclose(got[:, 0], want, atol=1e-12)


def test_sine_mix_noise_seeded():
    a = np.asarray(sine_mix([0.05], 0.3, 100, seed=4).array)
    b = np.asarray(sine_mix([0.05], 0.3, 100, seed=4).array)
    c = np.asarray(sine_mix([0.05], 0.3, 100, seed=5).array)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sine_mix_validation():
    with pytest.raises(ParameterError):
        sine_mix([], 0.0, 10)
    with pytest.raises(ParameterError):
        sine_mix([0.1], 0.0, 0)
    # a non-finite frequency once gave an all-NaN series
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ParameterError, match="freqs must be finite"):
            sine_mix([0.1, bad], 0.0, 5)


def test_labeled_segments_layout():
    ds = labeled_segments(classes=3, length=32, count=4, seed=0)
    xs = np.asarray(ds.inputs.array)
    ys = np.asarray(ds.targets.array)
    assert xs.shape == (12, 32, 1) and ys.shape == (12, 3)
    np.testing.assert_array_equal(ys.sum(axis=1), np.ones(12))
    np.testing.assert_array_equal(ys.sum(axis=0), np.full(3, 4.0))
    # shuffled: the first four segments are not all one class
    assert len(set(map(int, ys[:4].argmax(axis=1)))) > 1
    # deterministic for a seed
    again = labeled_segments(classes=3, length=32, count=4, seed=0)
    np.testing.assert_array_equal(xs, np.asarray(again.inputs.array))
    with pytest.raises(ParameterError):
        labeled_segments(1, 32, 4)


def test_sine_mix_rejects_negative_noise():
    with pytest.raises(ParameterError):
        sine_mix([0.1], noise=-1.0, length=10)
    with pytest.raises(ParameterError):
        sine_mix([0.1], noise=float("nan"), length=10)


def test_labeled_segments_rejects_negative_noise():
    with pytest.raises(ParameterError):
        labeled_segments(2, 32, 4, noise=-1.0)
    with pytest.raises(ParameterError):
        labeled_segments(2, 32, 4, noise=float("nan"))


@pytest.mark.parametrize("make", [
    lambda: sine_mix([0.1], noise=float("inf"), length=10),
    lambda: sine_mix([0.1], noise=0.0, length=10, offset=float("nan")),
    lambda: sine_mix([0.1], noise=0.0, length=10, offset=float("-inf")),
    lambda: labeled_segments(2, 32, 4, noise=float("inf")),
], ids=["sine_noise_inf", "sine_offset_nan", "sine_offset_inf", "segments_noise_inf"])
def test_synth_generators_reject_non_finite_options(make):
    with pytest.raises(ParameterError, match="must be finite"):
        make()


def test_labeled_segments_classes_are_separable():
    ds = labeled_segments(classes=2, length=64, count=3, seed=1, noise=0.01)
    xs = np.asarray(ds.inputs.array)
    ys = np.asarray(ds.targets.array).argmax(axis=1)
    # class 1 rides on a +0.25 offset
    means = [xs[ys == c].mean() for c in (0, 1)]
    assert means[1] - means[0] > 0.2


def test_traffic_anomaly_count_and_magnitude():
    series, labels = traffic_with_anomalies(features=3, length=500, rate=0.02,
                                            seed=0)
    a = np.asarray(series.array)
    y = np.asarray(labels.array).astype(bool)
    assert a.shape == (500, 3) and y.shape == (500,)
    assert y.sum() == 10  # exactly floor(0.02 * 500)
    # level shifts push the anomalous rows' maxima well above the clean band
    assert a[y].max(axis=1).min() > a[~y].max() + 1.0
    # reproducible per seed
    b, _ = traffic_with_anomalies(3, 500, 0.02, seed=0)
    np.testing.assert_array_equal(a, np.asarray(b.array))
    with pytest.raises(ParameterError):
        traffic_with_anomalies(0, 500, 0.02)
    with pytest.raises(ParameterError):
        traffic_with_anomalies(3, 500, 0.6)
    with pytest.raises(ParameterError, match="rate too small"):
        traffic_with_anomalies(3, 20, 0.01)


# ----------------------------------------------------------------- CSV loading


CSV_TEXT = "time,load,temp\n0,1.5,20\n1,2.5,21\n2,3.5,22\n"


def test_load_csv_all_columns():
    got = np.asarray(load_csv(io.StringIO(CSV_TEXT)).array)
    np.testing.assert_array_equal(
        got, [[0, 1.5, 20], [1, 2.5, 21], [2, 3.5, 22]]
    )


def test_load_csv_named_and_indexed_columns():
    got = np.asarray(load_csv(io.StringIO(CSV_TEXT), columns=["load"]).array)
    np.testing.assert_array_equal(got[:, 0], [1.5, 2.5, 3.5])
    got = np.asarray(load_csv(io.StringIO(CSV_TEXT), columns=["temp", "time"]).array)
    np.testing.assert_array_equal(got[0], [20.0, 0.0])
    # columns are picked by header name only; an index is not a name
    with pytest.raises(FormatError, match="column 2 not in header"):
        load_csv(io.StringIO(CSV_TEXT), columns=[2])


def test_load_csv_skips_blank_lines(tmp_path):
    p = tmp_path / "gaps.csv"
    p.write_text("a,b\n\n1,2\n\n3,4\n\n")
    got = np.asarray(load_csv(str(p)).array)
    np.testing.assert_array_equal(got, [[1, 2], [3, 4]])


def test_load_csv_error_reporting():
    with pytest.raises(FormatError, match="column 'volts' not in header"):
        load_csv(io.StringIO(CSV_TEXT), columns=["volts"])
    # bad number on the second data row = file line 3
    with pytest.raises(FormatError, match="line 3: 'oops' is not a number"):
        load_csv(io.StringIO("a,b\n1,2\n1,oops\n"))
    with pytest.raises(FormatError, match="line 3: expected 2 fields, got 3"):
        load_csv(io.StringIO("a,b\n1,2\n1,2,3\n"))
    # blank lines count: blank rows were once dropped before numbering
    with pytest.raises(FormatError, match="line 4: 'oops' is not a number"):
        load_csv(io.StringIO("a,b\n\n1,2\n1,oops\n"))
    with pytest.raises(DataError, match="no data rows"):
        load_csv(io.StringIO(""))
    with pytest.raises(DataError, match="header but no data"):
        load_csv(io.StringIO("a,b\n"))


def test_load_csv_header_and_rows_must_agree_in_width():
    # a narrower row once raised IndexError for a header-named column, and a
    # wider one loaded a column the header never named
    with pytest.raises(FormatError, match="header has 2 fields but line 2 has 1"):
        load_csv(io.StringIO("a,b\n1\n2\n"), columns=["b"])
    with pytest.raises(FormatError, match="header has 1 fields but line 2 has 2"):
        load_csv(io.StringIO("a\n1,2\n3,4\n"))
    with pytest.raises(FormatError, match="header has 2 fields but line 3 has 1"):
        load_csv(io.StringIO("a,b\n\n1\n"))


def test_load_csv_rejects_non_finite_cells():
    with pytest.raises(FormatError, match="line 3: 'nan' is not a finite number"):
        load_csv(io.StringIO("a,b\n1,2\n1,nan\n"))
    with pytest.raises(FormatError, match="line 2: '-inf' is not a finite number"):
        load_csv(io.StringIO("a,b\n-inf,2\n1,inf\n"))
    # overflows to inf when parsed
    with pytest.raises(FormatError, match="line 2: '1e400' is not a finite number"):
        load_csv(io.StringIO("a\n1e400\n"))
    # a non-finite cell in a column that is not selected is not read
    np.testing.assert_array_equal(
        load_csv(io.StringIO("a,b\n1,nan\n"), columns=["a"]).array, [[1.0]])


def test_load_csv_drops_a_byte_order_mark(tmp_path):
    p = tmp_path / "exported.csv"
    p.write_bytes(b"\xef\xbb\xbfvalue\n1\n2\n")
    np.testing.assert_array_equal(load_csv(str(p), columns=["value"]).array, [[1.0], [2.0]])


def test_load_csv_reads_files_as_utf8(tmp_path):
    good = tmp_path / "good.csv"
    good.write_bytes("größe\n1\n".encode("utf-8"))
    np.testing.assert_array_equal(load_csv(str(good), columns=["größe"]).array, [[1.0]])
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"value\n1\n\xff\n2\n")
    with pytest.raises(FormatError, match=r"bad\.csv is not UTF-8 text"):
        load_csv(str(bad))
