"""Evaluation metrics and exploratory statistics."""

from dataclasses import dataclass

import numpy as np


class AnalysisError(ValueError):
    pass


@dataclass
class EvalPair:
    y_true: np.ndarray
    y_pred: np.ndarray

    def __post_init__(self):
        self.y_true = np.asarray(self.y_true, dtype=float).ravel()
        self.y_pred = np.asarray(self.y_pred, dtype=float).ravel()
        if self.y_true.size != self.y_pred.size:
            raise AnalysisError("length mismatch")
        if self.y_true.size < 2:
            raise AnalysisError("need at least 2 points")
        if not (np.isfinite(self.y_true).all() and np.isfinite(self.y_pred).all()):
            raise AnalysisError("non-finite values")


def constant_truth(y):
    """Whether R^2 against ground truth y is undefined: y is constant (its
    mean may still round off its value, leaving a SS_tot of rounding
    error), or its SS_tot rounds to 0."""
    y = np.asarray(y, dtype=float)
    return bool(np.ptp(y) == 0.0) or _ss_tot(y) == 0.0


def _ss_tot(y):
    return float(np.sum((y - y.mean()) ** 2))


def r2_score(pair):
    """Coefficient of determination: 1 - SS_res / SS_tot."""
    y, yhat = pair.y_true, pair.y_pred
    if constant_truth(y):
        raise AnalysisError("constant ground truth, R^2 undefined")
    ss_tot = _ss_tot(y)
    ss_res = float(np.sum((y - yhat) ** 2))
    return 1.0 - ss_res / ss_tot


def mse(pair):
    diff = pair.y_true - pair.y_pred
    return float(np.mean(diff * diff))


def pearson(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = np.sqrt(np.sum(xc * xc) * np.sum(yc * yc))
    if denom == 0.0:
        raise AnalysisError("zero variance in correlation input")
    return float(np.sum(xc * yc) / denom)


def horizon_correlation(trace, feature, horizon):
    """Pearson correlation of feature[n] against throughput[n+F]."""
    if len(trace) <= horizon + 2:
        raise AnalysisError("trace too short for this horizon")
    tput = trace.throughput()
    series = trace.columns[feature]
    if horizon == 0:
        return pearson(series, tput)
    return pearson(series[:-horizon], tput[horizon:])


class CorrelationTable:
    """feature name x horizon -> Pearson rho."""

    def __init__(self):
        self.cells = {}

    def add(self, feature, horizon, rho):
        if not -1.0 <= rho <= 1.0 + 1e-12:
            raise AnalysisError(f"rho {rho} out of range")
        self.cells[(feature, horizon)] = rho

    def rows(self):
        for (feature, horizon) in sorted(self.cells):
            yield feature, horizon, self.cells[(feature, horizon)]


def gaussian_kde(values, bandwidth=1.0, grid=None):
    """Gaussian-kernel density estimate evaluated on the grid."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise AnalysisError("no values")
    if not np.isfinite(values).all():
        raise AnalysisError("non-finite values")
    if bandwidth <= 0:
        raise AnalysisError("bandwidth must be positive")
    if grid is None:
        lo, hi = values.min(), values.max()
        span = max(hi - lo, 1e-9)
        grid = np.linspace(lo - 3 * bandwidth - 0.1 * span,
                           hi + 3 * bandwidth + 0.1 * span, 512)
    grid = np.asarray(grid, dtype=float)
    z = (grid[:, None] - values[None, :]) / bandwidth
    dens = np.exp(-0.5 * z * z).sum(axis=1)
    dens /= values.size * bandwidth * np.sqrt(2.0 * np.pi)
    return grid, dens
