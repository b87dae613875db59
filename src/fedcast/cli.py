"""Config-driven experiment runner: federate / analyze / stream / all.

Configs are flat INI files; every run directory gets a config echo and the
master seed so any stage can be replayed exactly. All randomness flows
from the master seed through named substreams.
"""

import argparse
import configparser
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass, fields
from itertools import combinations
from pathlib import Path
from typing import get_args, get_origin

import numpy as np

from . import analysis, fl, models, stream
from .models import _atomic_write
from .preprocess import PreprocessConfig, PreprocessError, WindowConfig, \
    apply_scaler, filter_trace, fit_scaler, model_inputs
from .trace import ClientTrace, ColumnMapping, TraceError, clean_and_resample, \
    load_trace


class ConfigError(ValueError):
    pass


@dataclass
class SyntheticSpec:
    n_clients: int = 8
    length: int = 300
    offset_min: float = 10.0
    offset_max: float = 100.0
    ar_min: float = 0.6
    ar_max: float = 0.9
    amp_frac: float = 0.25
    period_min: float = 40.0
    period_max: float = 80.0
    noise_frac: float = 0.04
    n_datasets: int = 1   # clients are grouped into this many dataset tags

    def __post_init__(self):
        if not (-1.0 < self.ar_min < 1.0 and -1.0 < self.ar_max < 1.0):
            raise ConfigError("AR coefficients must lie in (-1, 1)")
        if self.n_clients < 1 or self.length < 4:
            raise ConfigError("bad synthetic size")
        if not 1 <= self.n_datasets <= self.n_clients:
            raise ConfigError("n_datasets must be in [1, n_clients]")
        if min(self.offset_min, self.offset_max) <= 0:
            raise ConfigError("offsets must be positive (Mbps)")
        if min(self.period_min, self.period_max) <= 0:
            raise ConfigError("periods must be positive")
        if min(self.amp_frac, self.noise_frac) < 0:
            raise ConfigError("amp_frac and noise_frac must be >= 0")


def generate_synthetic(spec, seed):
    """Non-IID per-client traces: offset + sinusoid + AR(1) noise.

    rsrp and sinr are noisy monotone functions of throughput so the
    horizon correlations are non-trivial.
    """
    traces = []
    n = spec.n_clients
    for i in range(n):
        f = i / max(n - 1, 1)
        offset = spec.offset_min + f * (spec.offset_max - spec.offset_min)
        phi = spec.ar_min + f * (spec.ar_max - spec.ar_min)
        period = spec.period_min + f * (spec.period_max - spec.period_min)
        amp = spec.amp_frac * offset
        sigma = spec.noise_frac * offset
        phase = 2.0 * math.pi * i / n
        rng = np.random.default_rng((seed, 4001, i))

        t = np.arange(spec.length, dtype=float)
        ar = np.zeros(spec.length)
        innov = rng.normal(0.0, 1.0, spec.length) * sigma
        for k in range(1, spec.length):
            ar[k] = phi * ar[k - 1] + innov[k]
        tput = np.maximum(
            offset + amp * np.sin(2.0 * math.pi * t / period + phase) + ar, 0.0)

        rsrp = -120.0 + 0.35 * tput + rng.normal(0.0, 1.0, spec.length)
        sinr = 2.0 + 0.18 * tput + rng.normal(0.0, 0.8, spec.length)
        speed = np.abs(4.0 + np.cumsum(rng.normal(0.0, 0.15, spec.length)))
        lat0 = 44.9 + 0.01 * i
        lon0 = -93.2 - 0.01 * i
        lat = lat0 + np.cumsum(rng.normal(0.0, 1e-5, spec.length))
        lon = lon0 + np.cumsum(rng.normal(0.0, 1e-5, spec.length))

        columns = {"timestamp": t, "latitude": lat, "longitude": lon,
                   "speed": speed, "rsrp": rsrp, "sinr": sinr,
                   "throughput": tput,
                   "radio_type": np.full(spec.length, "NR-SA")}
        group = min(i * spec.n_datasets // n, spec.n_datasets - 1)
        traces.append(ClientTrace(client_id=f"syn{i:02d}",
                                  dataset_tag=f"synth{group}",
                                  columns=columns, sample_period=1.0))
    return traces


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


_PREDICTORS = ("model", "harmonic", "oracle", "constant")


@dataclass
class ExperimentConfig:
    """A parsed config file: the run settings that no stage dataclass holds,
    then the stage configs that `_parse_config` builds from their sections."""
    seed: int = None
    out_dir: str = "runs/out"
    source: str = "synthetic"           # synthetic | files
    files: tuple[str, ...] = ()
    mapping_path: str = ""
    dataset_tag: str = "files"
    train_ratio: float = 0.8
    predictor: str = "model"
    constant_mbps: float = 0.3
    synthetic: SyntheticSpec = None
    preprocess: PreprocessConfig = None
    window: WindowConfig = None
    model_kwargs: dict = None           # ModelSpec but its trace-derived sizes
    train: models.TrainConfig = None
    rounds: fl.RoundConfig = None
    stream_config: stream.StreamConfig = None
    qoe: stream.QoECoefficients = None
    raw_echo: str = ""

    def __post_init__(self):
        if self.source not in ("synthetic", "files"):
            raise ConfigError(
                f"must be synthetic or files, got {self.source!r}")
        if self.source == "files" and not self.files:
            raise ConfigError("source = files needs [data] files")
        for p in (*self.files, self.mapping_path):
            if p and not Path(p).exists():
                raise ConfigError(f"{p} does not exist")
        if not 0 < self.train_ratio < 1:
            raise ConfigError("train_ratio must be in (0, 1)")
        if self.predictor not in _PREDICTORS:
            raise ConfigError(f"unknown predictor {self.predictor!r}")
        if self.constant_mbps <= 0:
            raise ConfigError("constant_mbps must be positive")

    @property
    def stream_kwargs(self):
        return asdict(self.stream_config)

    @property
    def qoe_kwargs(self):
        return asdict(self.qoe)


# INI key -> dataclass field, where the two names differ
_FIELD_OF_KEY = {"scaler": "scaler_kind", "scope": "scaling_scope",
                 "participation": "participation_fraction",
                 "mapping": "mapping_path"}
_KEY_OF_FIELD = {f: k for k, f in _FIELD_OF_KEY.items()}


def _keys(cls, only=None, skip=()):
    """INI key -> (dataclass, field name, field type) for the fields of `cls`
    that a section sets: the named ones, or all but `skip`."""
    return {_KEY_OF_FIELD.get(f.name, f.name): (cls, f.name, f.type)
            for f in fields(cls)
            if (f.name in only if only else f.name not in skip)}


# INI section -> the keys it may hold. The model's sizes come from the traces
# and [window], FedProx's mu from [rounds], the seed of the rounds from
# [experiment]; the segment and chunk layout of the stream is fixed.
_SCHEMA = {
    "experiment": _keys(ExperimentConfig, ("seed", "out_dir")),
    "data": _keys(ExperimentConfig,
                  ("source", "files", "mapping_path", "dataset_tag")),
    "synthetic": _keys(SyntheticSpec),
    "preprocess": _keys(PreprocessConfig),
    "window": {**_keys(WindowConfig),
               **_keys(ExperimentConfig, ("train_ratio",))},
    "model": _keys(models.ModelSpec,
                   skip=("in_features", "history", "horizon")),
    "train": _keys(models.TrainConfig, skip=("prox_mu",)),
    "rounds": _keys(fl.RoundConfig, skip=("seed",)),
    "stream": {**_keys(stream.StreamConfig,
                       skip=("segment_len", "chunks_per_segment")),
               **_keys(ExperimentConfig, ("predictor", "constant_mbps"))},
    "qoe": _keys(stream.QoECoefficients),
}
# (dataclass, field name) -> (section, INI key), for error messages
_KEY_OF = {(cls, name): (section, key) for section, keys in _SCHEMA.items()
           for key, (cls, name, _) in keys.items()}
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _settings(section, obj):
    """The fields of `obj` that `section` sets, under their INI keys."""
    return {key: getattr(obj, name) for key, (cls, name, _) in
            _SCHEMA[section].items() if isinstance(obj, cls)}


def _cast(kind, raw):
    """The INI string `raw` as a value of the field type `kind`; ValueError
    when it is not one."""
    if get_origin(kind) is tuple:
        item = get_args(kind)[0]
        return tuple(_cast(item, part.strip()) for part in raw.split(",")
                     if part.strip())
    if kind is bool:
        if raw.lower() not in _BOOLEANS:
            raise ValueError(raw)
        return _BOOLEANS[raw.lower()]
    value = kind(raw)
    if kind is float and not math.isfinite(value):
        raise ValueError(raw)
    return value


def _build(cls, base, given, errors):
    """cls(**{**base, **given}). When that is invalid, add to `errors` one line
    per key of `given` outside the largest subset of `given` that is valid
    as a whole, with the error that key gives next to that subset, and
    return cls(**base). Keys that are only valid together, such as FedProx's
    strategy and mu, thus take no blame for a third key."""
    def error(kwargs):
        try:
            cls(**{**base, **kwargs})
        except ValueError as exc:
            return exc
        return None

    if error(given) is None:
        return cls(**{**base, **given})
    subsets = (dict(keys) for n in range(len(given) - 1, -1, -1)
               for keys in combinations(given.items(), n))
    valid = next(s for s in subsets if error(s) is None)
    for name, value in given.items():
        if name not in valid:
            section, key = _KEY_OF[cls, name]
            errors.append(f"[{section}] {key}: "
                          f"{error({**valid, name: value})}")
    return cls(**base)


def _parse_config(path, overrides):
    """Read an INI config into an ExperimentConfig, building every stage's
    config on the way. Defaults are the dataclass defaults; ConfigError lists
    every unknown section or key and every invalid value."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    errors = []
    given = {}      # dataclass -> {field name: value read from the file}
    for section in cp.sections():
        keys = _SCHEMA.get(section)
        if keys is None:
            errors.append(f"[{section}] unknown section")
            continue
        for key, raw in cp.items(section):
            if key not in keys:
                errors.append(f"[{section}] {key}: unknown key")
                continue
            cls, name, kind = keys[key]
            try:
                given.setdefault(cls, {})[name] = _cast(kind, raw)
            except ValueError:
                errors.append(f"[{section}] {key}: cannot parse {raw!r}")
    settings = given.setdefault(ExperimentConfig, {})
    settings.update({k: v for k, v in overrides.items() if v is not None})
    if settings.get("seed") is None:
        errors.append("[experiment] seed: a master seed is mandatory")

    def build(cls, **base):
        return _build(cls, base, given.get(cls, {}), errors)

    cfg = build(ExperimentConfig)
    cfg.synthetic = build(SyntheticSpec)
    cfg.preprocess = build(PreprocessConfig)
    cfg.window = build(WindowConfig)
    spec = build(models.ModelSpec, in_features=1, history=1, horizon=1)
    cfg.model_kwargs = {name: getattr(models.ModelSpec, name)
                        for _, name, _ in _SCHEMA["model"].values()}
    cfg.model_kwargs.update(given.get(models.ModelSpec, {}))
    cfg.train = build(models.TrainConfig,
                      **asdict(models.default_train_config(spec.arch)))
    cfg.rounds = build(fl.RoundConfig, seed=cfg.seed)
    cfg.stream_config = build(stream.StreamConfig)
    cfg.qoe = build(stream.QoECoefficients,
                    r_min_kbps=min(cfg.stream_config.ladder_kbps))
    if cfg.qoe.r_min_kbps > cfg.stream_config.ladder_kbps[0]:
        errors.append("[qoe] r_min_kbps: must not exceed the lowest "
                      "rate of [stream] ladder_kbps")
    if errors:
        raise ConfigError("\n".join(errors))
    with open(path) as fh:
        cfg.raw_echo = fh.read()
    return cfg


def load_mapping(path):
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    try:
        read = cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse mapping file {path}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read mapping file {path}")

    def number(section, key, raw):
        try:
            return _cast(float, raw)
        except ValueError:
            raise ConfigError(f"mapping file {path}: [{section}] {key}: "
                              f"cannot parse {raw!r}") from None

    columns = dict(cp.items("columns")) if cp.has_section("columns") else {}
    constants = {}
    if cp.has_section("constants"):
        for key, val in cp.items("constants"):
            constants[key] = val if key == "radio_type" \
                else number("constants", key, val)
    units = {}
    if cp.has_section("units"):
        units = {k: number("units", k, v) for k, v in cp.items("units")}
    sentinels = ColumnMapping.__dataclass_fields__["sentinels"].default
    if cp.has_option("sentinels", "values"):
        sentinels = tuple(s.strip() for s in cp.get("sentinels", "values").split(","))
    extras = dict(cp.items("extras")) if cp.has_section("extras") else {}
    return ColumnMapping(columns=columns, constants=constants, units=units,
                         sentinels=sentinels, extras=extras)


# ---------------------------------------------------------------------------
# artifact helpers
# ---------------------------------------------------------------------------


def _fmt(x):
    return repr(float(x))


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------


def _load_traces(cfg):
    if cfg.source == "synthetic":
        return generate_synthetic(cfg.synthetic, cfg.seed)
    mapping = load_mapping(cfg.mapping_path) if cfg.mapping_path \
        else ColumnMapping.identity()
    traces = []
    for p in cfg.files:
        raw = load_trace(p, mapping, dataset_tag=cfg.dataset_tag)
        traces.append(clean_and_resample(raw))
    return traces


def build_client_set(traces, pre_cfg, window_cfg, train_ratio):
    """ClientHandles for a cohort; per_dataset scope shares one scaler per
    dataset tag (fitted on whole traces, as the scaling is dataset-global)."""
    if pre_cfg.scaling_scope == "per_dataset":
        by_tag = {}
        for tr in traces:
            by_tag.setdefault(tr.dataset_tag, []).append(tr)
        scalers = {tag: fit_scaler([filter_trace(t, pre_cfg) for t in group],
                                   pre_cfg)
                   for tag, group in by_tag.items()}
        return [fl.build_client(tr, pre_cfg, window_cfg, train_ratio,
                                scaler=scalers[tr.dataset_tag])
                for tr in traces]
    return [fl.build_client(tr, pre_cfg, window_cfg, train_ratio)
            for tr in traces]


def _model_spec(cfg, traces):
    in_features = model_inputs(traces[0]).shape[0]
    return models.ModelSpec(in_features=in_features, history=cfg.window.history,
                            horizon=cfg.window.horizon, **cfg.model_kwargs)


def _echo_config(cfg, out):
    _atomic_write(out / "config_echo.ini",
                  cfg.raw_echo + f"\n; resolved_seed = {cfg.seed}\n")


def cmd_federate(cfg):
    out = Path(cfg.out_dir)
    traces = _load_traces(cfg)
    clients = build_client_set(traces, cfg.preprocess, cfg.window,
                               cfg.train_ratio)
    spec = _model_spec(cfg, traces)
    reports, global_params = fl.run_experiment(clients, cfg.rounds, cfg.train,
                                               spec)
    rows = ["round,client_id,r2,mse,participated"]
    for report in reports:
        for rnd, cid, r2, m, part in report.rows():
            rows.append(f"{rnd},{cid},{_fmt(r2)},{_fmt(m)},{part}")
    _echo_config(cfg, out)
    _atomic_write(out / "rounds.csv", "\n".join(rows) + "\n")

    ckpt_dir = out / "checkpoints"
    models.save_checkpoint(ckpt_dir / "global.ckpt", spec, global_params)
    for client in clients:
        models.save_checkpoint(ckpt_dir / f"client_{client.client_id}.ckpt",
                               spec, client.params)

    summary = {
        "seed": cfg.seed,
        "config": {
            "model": cfg.model_kwargs,
            "train": _settings("train", cfg.train),
            "rounds": _settings("rounds", cfg.rounds),
            "window": _settings("window", cfg.window),
            "preprocess": _settings("preprocess", cfg.preprocess),
        },
        "strategy": cfg.rounds.strategy,
        "arch": cfg.model_kwargs["arch"],
        "rounds": len(reports),
        "clients": [c.client_id for c in clients],
        "final_mean_r2": reports[-1].mean_r2 if reports else None,
        "final_var_r2": reports[-1].var_r2 if reports else None,
        "per_client_r2": {cid: reports[-1].metrics[cid][0]
                          for cid in sorted(reports[-1].metrics)} if reports else {},
    }
    _atomic_write(out / "summary.json",
                  json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return 0


def cmd_analyze(cfg):
    out = Path(cfg.out_dir)
    traces = _load_traces(cfg)
    _echo_config(cfg, out)

    # KDE of min-max normalized throughput, pooled normalization
    all_tput = np.concatenate([tr.throughput() for tr in traces])
    lo, hi = all_tput.min(), all_tput.max()
    span = max(hi - lo, 1e-12)
    grid = np.linspace(0.0, 1.0, 101)
    kde_rows = ["client_id,x,density"]
    for tr in traces:
        norm = (tr.throughput() - lo) / span
        _, dens = analysis.gaussian_kde(norm, bandwidth=1.0, grid=grid)
        for x, d in zip(grid, dens):
            kde_rows.append(f"{tr.client_id},{_fmt(x)},{_fmt(d)}")
    _atomic_write(out / "kde.csv", "\n".join(kde_rows) + "\n")

    corr_rows = ["client_id,feature,horizon,rho"]
    features = traces[0].feature_names() + ["throughput"]
    for tr in traces:
        table = analysis.CorrelationTable()
        for feature in features:
            for horizon in (1, 3, 5):
                try:
                    rho = analysis.horizon_correlation(tr, feature, horizon)
                except analysis.AnalysisError:
                    continue
                table.add(feature, horizon, rho)
        for feature, horizon, rho in table.rows():
            corr_rows.append(f"{tr.client_id},{feature},{horizon},{_fmt(rho)}")
    _atomic_write(out / "correlations.csv", "\n".join(corr_rows) + "\n")
    return 0


def _stream_predictor(cfg, kind, client_trace, session_tput, model):
    if kind == "constant":
        return stream.ConstantPredictor(cfg.constant_mbps)
    if kind == "harmonic":
        return stream.HarmonicMeanPredictor()
    if kind == "oracle":
        return stream.OraclePredictor(session_tput)
    # model predictor over the scaled model inputs of the session window
    filtered = filter_trace(client_trace, cfg.preprocess)
    scaler = fit_scaler(filtered, cfg.preprocess)
    inputs = model_inputs(apply_scaler(filtered, scaler))
    start = len(client_trace) - len(session_tput)
    spec, params = model
    return stream.ModelPredictor(spec, params, inputs[:, start:], scaler)


def cmd_stream(cfg):
    out = Path(cfg.out_dir)
    traces = _load_traces(cfg)
    _echo_config(cfg, out)
    scfg, coeffs = cfg.stream_config, cfg.qoe

    model_of = {}   # client id -> (spec, params) of its checkpoint
    if cfg.predictor == "model":
        ckpt_dir = Path(cfg.out_dir) / "checkpoints"
        if not ckpt_dir.exists():
            raise ConfigError(
                "stream with the model predictor needs checkpoints; "
                "run `federate` into the same out_dir first")
        for tr in traces:
            own = ckpt_dir / f"client_{tr.client_id}.ckpt"
            path = own if own.exists() else ckpt_dir / "global.ckpt"
            spec, params = models.load_checkpoint(path)
            # the global model stands in for a client only where it holds
            # no entry of its own that stays local and so never trained
            if path != own and fl._local_entries(cfg.rounds, params):
                raise models.CheckpointError(
                    f"client {tr.client_id}: {own} does not exist, and under "
                    f"{cfg.rounds.strategy} the global model's client-local "
                    f"entries never trained")
            rows = model_inputs(tr).shape[0]
            if spec.in_features != rows:
                raise models.CheckpointError(
                    f"{path}: the model takes {spec.in_features} input rows, "
                    f"the trace of client {tr.client_id} gives {rows}")
            for field in ("history", "horizon"):
                got, want = getattr(spec, field), getattr(cfg.window, field)
                if got != want:
                    raise models.CheckpointError(
                        f"{path}: the model's {field} is {got}, "
                        f"[window] {field} is {want}")
            model_of[tr.client_id] = spec, params

    qoe_rows = ["client_id,qoe,quality,stall,switch,latency,skip,truncated"]
    breakdowns = {}
    for tr in traces:
        tput = tr.throughput()
        if tput.size < scfg.session_len:
            raise ConfigError(
                f"client {tr.client_id}: trace shorter than session_len")
        session_tput = tput[-scfg.session_len:]
        try:
            predictor = _stream_predictor(cfg, cfg.predictor, tr,
                                          session_tput,
                                          model_of.get(tr.client_id))
            result = stream.simulate_session(session_tput, predictor, scfg,
                                             coeffs)
        except stream.StreamError as exc:
            raise stream.StreamError(f"client {tr.client_id}: {exc}") from None
        b = result.breakdown
        qoe_rows.append(
            f"{tr.client_id},{_fmt(b.qoe)},{_fmt(b.quality)},{_fmt(b.stall)},"
            f"{_fmt(b.switch)},{_fmt(b.latency)},{_fmt(b.skip)},"
            f"{1 if result.truncated else 0}")
        breakdowns[tr.client_id] = {
            "qoe": b.qoe, "quality": b.quality, "stall": b.stall,
            "switch": b.switch, "latency": b.latency, "skip": b.skip,
            "n_segments": b.n_segments, "truncated": result.truncated,
            "played_time": result.played_time,
            "stall_time": result.stall_time,
            "skip_wait_time": result.skip_wait_time}
        ev_rows = ["time,kind,chunk,rate_kbps,buffer,latency"]
        for t, kind, chunk, rate, buf, lat in result.events:
            ev_rows.append(f"{_fmt(t)},{kind},{chunk},{_fmt(rate)},"
                           f"{_fmt(buf)},{_fmt(lat)}")
        _atomic_write(out / "events" / f"{tr.client_id}.csv",
                      "\n".join(ev_rows) + "\n")
    _atomic_write(out / "qoe.csv", "\n".join(qoe_rows) + "\n")
    _atomic_write(out / "qoe.json",
                  json.dumps({"predictor": cfg.predictor,
                              "sessions": breakdowns},
                             sort_keys=True, indent=2) + "\n")
    return 0


def run(config_path, subcommand, out=None, seed=None):
    """Entry shared by the CLI and tests; returns a process exit code."""
    overrides = {"out_dir": out, "seed": seed}
    try:
        cfg = _parse_config(config_path, overrides)
    except ConfigError as exc:
        print(f"config validation failed:\n{exc}", file=sys.stderr)
        return 1
    try:
        if subcommand == "federate":
            return cmd_federate(cfg)
        if subcommand == "analyze":
            return cmd_analyze(cfg)
        if subcommand == "stream":
            return cmd_stream(cfg)
        if subcommand == "all":
            code = cmd_federate(cfg)
            if code == 0:
                code = cmd_analyze(cfg)
            if code == 0:
                code = cmd_stream(cfg)
            return code
        print(f"unknown subcommand {subcommand!r}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"config validation failed:\n{exc}", file=sys.stderr)
        return 1
    except (TraceError, PreprocessError, fl.FLError,
            models.CheckpointError, stream.StreamError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="fedcast",
        description="Federated throughput forecasting and live-streaming QoE")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in ("federate", "analyze", "stream", "all"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error; that is bad input, exit 1
        return 1 if exc.code == 2 else exc.code
    return run(args.config, args.subcommand, out=args.out, seed=args.seed)


if __name__ == "__main__":
    sys.exit(main())
