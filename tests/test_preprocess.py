"""Filtering, scaling and windowing against brute-force oracles."""

import numpy as np
import pytest

from fedcast.preprocess import (PreprocessConfig, PreprocessError, WindowConfig,
                                Windows, apply_scaler, build_windows,
                                fit_scaler, model_inputs, moving_average,
                                split_train_test)
from fedcast.trace import ClientTrace


def _trace(tput, rsrp=None, sinr=None):
    n = len(tput)
    rsrp = rsrp if rsrp is not None else np.linspace(-110, -80, n)
    sinr = sinr if sinr is not None else np.linspace(0, 20, n)
    i = np.arange(n)
    columns = {"timestamp": i.astype(float), "latitude": 1.0 + 0.1 * i,
               "longitude": np.full(n, 2.0), "speed": 3.0 + i % 5,
               "rsrp": np.asarray(rsrp, dtype=float),
               "sinr": np.asarray(sinr, dtype=float),
               "throughput": np.asarray(tput, dtype=float),
               "radio_type": np.full(n, "NR-SA")}
    return ClientTrace(client_id="c", dataset_tag="d", columns=columns,
                       sample_period=1.0)


# --- moving average ---------------------------------------------------------


def test_moving_average_constant_invariance():
    assert np.array_equal(moving_average([5, 5, 5, 5], 3), [5, 5, 5, 5])


def test_moving_average_forced_arithmetic():
    assert np.allclose(moving_average([1, 2, 3], 3), [1.0, 1.5, 2.0])


def test_moving_average_matches_per_index_oracle():
    rng = np.random.default_rng(0)
    series = rng.uniform(0, 100, 50)
    out = moving_average(series, 3)
    oracle = np.array([series[max(0, i - 2):i + 1].mean() for i in range(50)])
    assert np.allclose(out, oracle, atol=1e-12)


def test_moving_average_rejects_zero_window():
    with pytest.raises(PreprocessError):
        moving_average([1.0], 0)


def test_moving_average_commutes_with_scaling():
    rng = np.random.default_rng(1)
    series = rng.uniform(0, 10, 30)
    for c in (0.5, 2.0, 7.3):
        assert np.allclose(moving_average(c * series, 4),
                           c * moving_average(series, 4), atol=1e-9)


# --- scalers -----------------------------------------------------------------


def test_minmax_endpoints():
    tr = _trace([2.0, 4.0, 6.0])
    state = fit_scaler(tr, PreprocessConfig(scaler_kind="minmax"))
    scaled = apply_scaler(tr, state)
    assert np.allclose(scaled.throughput(), [0.0, 0.5, 1.0])


def test_constant_feature_passes_through():
    tr = _trace([5.0, 5.0, 5.0])
    state = fit_scaler(tr, PreprocessConfig(scaler_kind="minmax"))
    assert "throughput" in state.constant
    scaled = apply_scaler(tr, state)
    assert np.array_equal(scaled.throughput(), [5.0, 5.0, 5.0])


def test_standard_scaler_moments():
    rng = np.random.default_rng(2)
    tr = _trace(rng.uniform(3, 90, 200))
    state = fit_scaler(tr, PreprocessConfig(scaler_kind="standard"))
    scaled = apply_scaler(tr, state)
    vals = scaled.throughput()
    assert abs(vals.mean()) < 1e-9
    assert abs(vals.std() - 1.0) < 1e-9


def test_scaler_feature_mismatch_rejected():
    tr = _trace([1.0, 2.0, 3.0])
    state = fit_scaler(tr, PreprocessConfig())
    other = _trace([1.0, 2.0, 3.0])
    other.columns["cqi"] = np.ones(len(other))
    with pytest.raises(PreprocessError):
        apply_scaler(other, state)


def test_inverse_throughput_roundtrip():
    rng = np.random.default_rng(3)
    tr = _trace(rng.uniform(1, 50, 60))
    for kind in ("minmax", "standard"):
        state = fit_scaler(tr, PreprocessConfig(scaler_kind=kind))
        scaled = apply_scaler(tr, state)
        assert np.allclose(state.inverse_throughput(scaled.throughput()),
                           tr.throughput(), atol=1e-9)


# --- windows -----------------------------------------------------------------


def test_build_windows_hand_enumeration():
    tr = _trace([10.0, 11.0, 12.0, 13.0, 14.0])
    samples = build_windows(tr, WindowConfig(history=2, horizon=1))
    assert samples.anchor.tolist() == [2, 3]
    assert np.array_equal(samples.x[0, -1], [10.0, 11.0, 12.0])
    assert np.array_equal(samples.y[0], [13.0])
    assert np.array_equal(samples.x[1, -1], [11.0, 12.0, 13.0])
    assert np.array_equal(samples.y[1], [14.0])


def test_build_windows_boundary_single_sample():
    h, f = 4, 2
    tr = _trace(np.arange(h + f + 1, dtype=float))
    samples = build_windows(tr, WindowConfig(history=h, horizon=f))
    assert len(samples) == 1


def test_build_windows_counting_oracle():
    tr = _trace(np.arange(120, dtype=float))
    wc = WindowConfig(history=15, horizon=1)
    samples = build_windows(tr, wc, stride=wc.eval_stride)
    # anchors n = H .. N-1-F stepping by stride
    assert len(samples) == (120 - 1 - 1 - 15) // 1 + 1 == 104


def test_build_windows_rejects_short_trace():
    tr = _trace([1.0, 2.0, 3.0])
    with pytest.raises(PreprocessError):
        build_windows(tr, WindowConfig(history=5, horizon=2))


def test_window_cells_match_index_arithmetic():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(10, 60))
        h = int(rng.integers(1, 6))
        f = int(rng.integers(1, 4))
        stride = int(rng.integers(1, 4))
        if n < h + f + 1:
            continue
        tput = rng.uniform(0, 50, n)
        tr = _trace(tput)
        feats = np.array([tr.columns[name] for name in tr.feature_names()])
        samples = build_windows(tr, WindowConfig(history=h, horizon=f),
                                stride=stride)
        expected_anchors = list(range(h, n - f, stride))
        assert samples.anchor.tolist() == expected_anchors
        for x, y, nn in zip(samples.x, samples.y, expected_anchors):
            assert np.array_equal(x[:-1], feats[:, nn - h:nn + 1])
            assert np.array_equal(x[-1], tput[nn - h:nn + 1])
            assert np.array_equal(y, tput[nn + 1:nn + 1 + f])


def test_split_80_20():
    tr = _trace(np.arange(16, dtype=float))
    samples = build_windows(tr, WindowConfig(history=4, horizon=1))
    assert len(samples) == 11
    samples = samples[:10]
    train, test = split_train_test(samples, 0.8)
    assert len(train) == 8 and len(test) == 2


def test_split_floor_rule():
    tr = _trace(np.arange(10, dtype=float))
    samples = build_windows(tr, WindowConfig(history=3, horizon=1))[:5]
    train, test = split_train_test(samples, 0.8)
    assert len(train) == 4 and len(test) == 1


def test_split_partition_and_chronology():
    tr = _trace(np.arange(120, dtype=float))
    samples = build_windows(tr, WindowConfig(history=10, horizon=2))
    train, test = split_train_test(samples, 0.8)
    train_anchors = set(train.anchor.tolist())
    test_anchors = set(test.anchor.tolist())
    assert train_anchors.isdisjoint(test_anchors)
    assert train_anchors | test_anchors == set(samples.anchor.tolist())
    assert max(train_anchors) < min(test_anchors)


def test_split_rejects_bad_inputs():
    tr = _trace(np.arange(10, dtype=float))
    samples = build_windows(tr, WindowConfig(history=3, horizon=1))
    with pytest.raises(PreprocessError):
        split_train_test(samples, 1.5)
    with pytest.raises(PreprocessError):
        split_train_test(samples[:1], 0.8)


def test_window_array_shapes():
    tr = _trace(np.arange(30, dtype=float))
    samples = build_windows(tr, WindowConfig(history=5, horizon=2))
    assert samples.x.shape == (len(samples), 6, 6)
    assert samples.x[:, :-1].shape == (len(samples), 5, 6)
    assert samples.x[:, -1].shape == (len(samples), 6)
    assert samples.y.shape == (len(samples), 2)
    assert samples.anchor.shape == (len(samples),)


def test_model_inputs_rows_are_features_then_throughput():
    tr = _trace(np.arange(12, dtype=float) * 2.0)
    tr.columns["cqi"] = np.arange(12, dtype=float) + 0.5
    inputs = model_inputs(tr)
    names = ["latitude", "longitude", "speed", "rsrp", "sinr", "cqi",
             "throughput"]
    assert inputs.shape == (7, 12)
    for row, name in zip(inputs, names):
        assert row.tobytes() == tr.columns[name].tobytes()


def test_windows_slice_and_mask_stay_aligned():
    tr = _trace(np.arange(40, dtype=float))
    samples = build_windows(tr, WindowConfig(history=3, horizon=2))
    for part in (samples[5:9], samples[samples.anchor % 4 == 0],
                 samples[::3]):
        assert isinstance(part, Windows)
        assert len(part) == len(part.x) == len(part.y) == len(part.anchor)
        for x, y, n in zip(part.x, part.y, part.anchor):
            assert np.array_equal(x[-1], tr.throughput()[n - 3:n + 1])
            assert np.array_equal(y, tr.throughput()[n + 1:n + 3])
    assert not samples[samples.anchor < 0]
