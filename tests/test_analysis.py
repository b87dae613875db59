"""Metrics and exploratory statistics."""

import numpy as np
import pytest

from fedcast.analysis import (AnalysisError, CorrelationTable, EvalPair,
                              gaussian_kde, horizon_correlation, mse, pearson,
                              r2_score)
from fedcast.trace import ClientTrace


def _trace(tput, rsrp=None):
    n = len(tput)
    rsrp = rsrp if rsrp is not None else np.linspace(-110, -80, n)
    columns = {"timestamp": np.arange(n, dtype=float),
               "latitude": np.zeros(n), "longitude": np.zeros(n),
               "speed": np.zeros(n), "rsrp": np.asarray(rsrp, dtype=float),
               "sinr": np.zeros(n), "throughput": np.asarray(tput, dtype=float),
               "radio_type": np.full(n, "LTE")}
    return ClientTrace(client_id="c", dataset_tag="d", columns=columns)


def test_r2_perfect_predictions():
    y = np.array([1.0, 2.0, 5.0])
    assert r2_score(EvalPair(y, y.copy())) == 1.0


def test_r2_mean_predictor_is_zero():
    y = np.array([1.0, 2.0, 3.0, 10.0])
    pred = np.full(4, y.mean())
    assert abs(r2_score(EvalPair(y, pred))) < 1e-12


def test_r2_forced_arithmetic():
    assert abs(r2_score(EvalPair([1, 2, 3], [1, 2, 2])) - 0.5) < 1e-12


def test_r2_constant_truth_rejected():
    with pytest.raises(AnalysisError):
        r2_score(EvalPair([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


def test_r2_affine_invariance():
    rng = np.random.default_rng(0)
    y = rng.normal(size=50)
    yhat = y + rng.normal(scale=0.3, size=50)
    base = r2_score(EvalPair(y, yhat))
    for a, b in ((2.0, 5.0), (-3.0, 1.0), (0.1, -7.0)):
        assert abs(r2_score(EvalPair(a * y + b, a * yhat + b)) - base) < 1e-9


def test_mse_examples_and_scale_equivariance():
    assert mse(EvalPair([1.0, 2.0], [1.0, 2.0])) == 0.0
    rng = np.random.default_rng(1)
    y = rng.normal(size=30)
    yhat = rng.normal(size=30)
    base = mse(EvalPair(y, yhat))
    assert abs(mse(EvalPair(3.0 * y, 3.0 * yhat)) - 9.0 * base) < 1e-9
    oracle = sum((a - b) ** 2 for a, b in zip(y, yhat)) / 30
    assert abs(base - oracle) < 1e-12


def test_horizon_correlation_self():
    rng = np.random.default_rng(2)
    tr = _trace(rng.uniform(1, 50, 40))
    assert abs(horizon_correlation(tr, "throughput", 0) - 1.0) < 1e-12


def test_horizon_correlation_sign_flip():
    rng = np.random.default_rng(3)
    tput = rng.uniform(1, 50, 40)
    tr = _trace(tput, rsrp=-tput)
    assert abs(horizon_correlation(tr, "rsrp", 0) + 1.0) < 1e-12


def test_horizon_correlation_bounds_and_lag():
    rng = np.random.default_rng(4)
    tput = np.cumsum(rng.normal(size=200)) + 50
    tr = _trace(tput)
    for f in (1, 3, 5):
        rho = horizon_correlation(tr, "throughput", f)
        assert -1.0 <= rho <= 1.0
    # oracle: correlate shifted slices directly
    rho3 = horizon_correlation(tr, "throughput", 3)
    oracle = np.corrcoef(tput[:-3], tput[3:])[0, 1]
    assert abs(rho3 - oracle) < 1e-12


def test_horizon_correlation_errors():
    tr = _trace([1.0, 2.0, 3.0])
    with pytest.raises(AnalysisError):
        horizon_correlation(tr, "throughput", 5)
    flat = _trace([2.0] * 30)
    with pytest.raises(AnalysisError):
        horizon_correlation(flat, "throughput", 1)


def test_pearson_zero_variance():
    with pytest.raises(AnalysisError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


def test_correlation_table_rows_sorted():
    table = CorrelationTable()
    table.add("rsrp", 3, 0.4)
    table.add("rsrp", 1, 0.5)
    table.add("sinr", 1, -0.2)
    rows = list(table.rows())
    assert rows == [("rsrp", 1, 0.5), ("rsrp", 3, 0.4), ("sinr", 1, -0.2)]
    with pytest.raises(AnalysisError):
        table.add("bad", 1, 1.5)


def test_kde_single_value_peak_and_symmetry():
    grid = np.linspace(-5, 9, 1401)
    g, dens = gaussian_kde([2.0], bandwidth=1.0, grid=grid)
    assert g[np.argmax(dens)] == pytest.approx(2.0, abs=0.02)
    left = dens[np.searchsorted(grid, 1.0)]
    right = dens[np.searchsorted(grid, 3.0)]
    assert abs(left - right) < 1e-9


def test_kde_integrates_to_one():
    rng = np.random.default_rng(5)
    vals = rng.normal(size=60)
    grid = np.linspace(-12, 12, 4001)
    _, dens = gaussian_kde(vals, bandwidth=1.0, grid=grid)
    integral = np.trapezoid(dens, grid)
    assert abs(integral - 1.0) < 1e-3


def test_kde_two_point_even_function():
    a = 1.7
    grid = np.linspace(-6, 6, 1201)
    _, dens = gaussian_kde([-a, a], bandwidth=1.0, grid=grid)
    assert np.allclose(dens, dens[::-1], atol=1e-12)


def test_kde_rejects_bad_inputs():
    with pytest.raises(AnalysisError):
        gaussian_kde([])
    with pytest.raises(AnalysisError):
        gaussian_kde([1.0, np.nan])
    with pytest.raises(AnalysisError):
        gaussian_kde([1.0], bandwidth=0.0)
