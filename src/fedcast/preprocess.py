"""Noise filtering, scaling and sliding-window sample construction."""

from dataclasses import dataclass, field, replace

import numpy as np

from .trace import ClientTrace


class PreprocessError(ValueError):
    pass


@dataclass
class PreprocessConfig:
    filter_window: int = 3
    scaler_kind: str = "minmax"          # minmax | standard
    scaling_scope: str = "per_client"    # per_client | per_dataset

    def __post_init__(self):
        if self.filter_window < 1:
            raise PreprocessError("filter_window must be >= 1")
        if self.scaler_kind not in ("minmax", "standard"):
            raise PreprocessError(f"unknown scaler {self.scaler_kind!r}")
        if self.scaling_scope not in ("per_client", "per_dataset"):
            raise PreprocessError(f"unknown scope {self.scaling_scope!r}")


@dataclass
class WindowConfig:
    history: int = 15
    horizon: int = 1
    train_stride: int = 1
    eval_stride: int = 0  # 0 -> horizon

    def __post_init__(self):
        if self.history < 1 or self.horizon < 1:
            raise PreprocessError("history and horizon must be >= 1")
        if self.train_stride < 1 or self.eval_stride < 0:
            raise PreprocessError(
                "train_stride must be >= 1 and eval_stride >= 0")
        if self.eval_stride == 0:
            self.eval_stride = self.horizon


@dataclass(eq=False)
class Windows:
    """Sliding windows as aligned arrays: x[i] is the model input over
    [n-H, n] for the anchor n = anchor[i] (column j is time n-H+j), y[i]
    the throughput at n+1 .. n+F. Slicing or masking gives a Windows."""
    x: np.ndarray       # (N, |F|+1, H+1), rows as in model_inputs
    y: np.ndarray       # (N, F)
    anchor: np.ndarray  # (N,)

    def __len__(self):
        return len(self.anchor)

    def __getitem__(self, index):
        return Windows(self.x[index], self.y[index], self.anchor[index])


@dataclass
class ScalerState:
    kind: str
    params: dict = field(default_factory=dict)  # name -> (offset, scale)
    constant: set = field(default_factory=set)

    def transform(self, name, values):
        if name in self.constant:
            return np.asarray(values, dtype=float)
        if name not in self.params:
            raise PreprocessError(f"scaler was not fitted on feature {name!r}")
        off, scale = self.params[name]
        return (np.asarray(values, dtype=float) - off) / scale

    def inverse_throughput(self, values):
        if "throughput" in self.constant:
            return np.asarray(values, dtype=float)
        off, scale = self.params["throughput"]
        return np.asarray(values, dtype=float) * scale + off


def moving_average(series, window):
    """Trailing mean over the last `window` samples (shorter at the head)."""
    if window < 1:
        raise PreprocessError("window must be >= 1")
    series = np.asarray(series, dtype=float)
    if series.size == 0:
        raise PreprocessError("empty series")
    n = series.size
    c = np.cumsum(series)
    out = np.empty(n)
    head = min(window, n)
    out[:head] = c[:head] / np.arange(1, head + 1)
    if n > window:
        out[window:] = (c[window:] - c[:-window]) / window
    return out


def filter_trace(trace, cfg):
    """Moving-average filter on throughput and every continuous feature."""
    filtered = {name: moving_average(trace.columns[name], cfg.filter_window)
                for name in trace.feature_names() + ["throughput"]}
    return replace(trace, columns={**trace.columns, **filtered})


def fit_scaler(traces, cfg, fit_rows=None):
    """Fit min-max or standard scaling per feature (throughput included).

    `fit_rows` limits fitting to a trace prefix so test data never leaks
    into the scaler. Constant features are flagged and passed through.
    """
    if isinstance(traces, ClientTrace):
        traces = [traces]
    if not traces:
        raise PreprocessError("no traces to fit on")
    names = traces[0].feature_names() + ["throughput"]
    state = ScalerState(kind=cfg.scaler_kind)
    for name in names:
        vals = np.concatenate([tr.columns[name][:fit_rows] for tr in traces])
        if cfg.scaler_kind == "minmax":
            lo, hi = float(vals.min()), float(vals.max())
            if hi - lo == 0.0:
                state.constant.add(name)
            else:
                state.params[name] = (lo, hi - lo)
        else:
            mean, std = float(vals.mean()), float(vals.std())
            if std == 0.0:
                state.constant.add(name)
            else:
                state.params[name] = (mean, std)
    return state


def apply_scaler(trace, state):
    """Return a copy of the trace with every continuous feature scaled."""
    names = trace.feature_names() + ["throughput"]
    for name in names:
        if name not in state.constant and name not in state.params:
            raise PreprocessError(f"scaler missing feature {name!r}")
    scaled = {name: state.transform(name, trace.columns[name])
              for name in names}
    return replace(trace, columns={**trace.columns, **scaled})


def model_inputs(trace):
    """The (|F|+1, T) model-input matrix of a trace: one row per continuous
    feature, then the throughput row."""
    return np.array([trace.columns[name]
                     for name in trace.feature_names() + ["throughput"]])


def window_anchors(trace, wc, stride):
    """Anchors n = H, H+s, ... of the windows whose F-step target still
    fits in the trace."""
    h, f = wc.history, wc.horizon
    if len(trace) < h + f + 1:
        raise PreprocessError(f"client {trace.client_id}: trace of length "
                              f"{len(trace)} too short for H={h}, F={f}")
    return np.arange(h, len(trace) - f, stride)


def build_windows(trace, wc, stride=None):
    """Slide the (H+1)-step window over the trace's model inputs.

    Anchors run n = H, H+s, ... while the F-step target still fits.
    """
    if stride is None:
        stride = wc.train_stride
    anchors = window_anchors(trace, wc, stride)
    inputs = model_inputs(trace)
    x = inputs[:, anchors[:, None] + np.arange(-wc.history, 1)]
    y = inputs[-1, anchors[:, None] + np.arange(1, wc.horizon + 1)]
    return Windows(x.transpose(1, 0, 2).copy(), y, anchors)


def split_train_test(samples, ratio):
    """Chronological split: first floor(ratio*N) samples train, rest test."""
    if not 0.0 < ratio < 1.0:
        raise PreprocessError("ratio must be in (0, 1)")
    if len(samples) < 2:
        raise PreprocessError("need at least 2 samples to split")
    n_train = int(len(samples) * ratio)
    return samples[:n_train], samples[n_train:]
