"""Config parsing, synthetic generation and the subcommand pipeline."""

import json
import math
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from fedcast import cli, fl, models, stream
from fedcast.analysis import gaussian_kde
from fedcast.preprocess import PreprocessConfig, WindowConfig, model_inputs


BASE_CONFIG = """\
[experiment]
seed = 11
out_dir = {out}

[data]
source = synthetic

[synthetic]
n_clients = 3
length = 160
offset_min = 10
offset_max = 60
period_min = 20
period_max = 40
n_datasets = 1

[preprocess]
filter_window = 3
scaler = minmax
scope = per_client

[window]
history = 5
horizon = 1

[model]
arch = LSTM
hidden = 8

[train]
learning_rate = 0.01
batch_size = 16
local_epochs = 1

[rounds]
strategy = FEDAVG
total_rounds = {rounds}
participation = 1.0

[stream]
session_len = 30
predictor = harmonic
mpc_horizon = 3
"""


def _config(tmp_path, rounds=1, extra=""):
    out = tmp_path / "run"
    cfg = tmp_path / "exp.ini"
    cfg.write_text(BASE_CONFIG.format(out=out, rounds=rounds) + extra)
    return cfg, out


# --- synthetic generator -------------------------------------------------


def test_synthetic_degenerate_constant():
    spec = cli.SyntheticSpec(n_clients=1, length=50, offset_min=20,
                             offset_max=20, amp_frac=0.0, noise_frac=0.0)
    tr = cli.generate_synthetic(spec, seed=0)[0]
    assert np.allclose(tr.throughput(), 20.0)


def test_synthetic_deterministic():
    spec = cli.SyntheticSpec(n_clients=2, length=40)
    a = cli.generate_synthetic(spec, seed=5)
    b = cli.generate_synthetic(spec, seed=5)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.throughput(), tb.throughput())
        assert np.array_equal(model_inputs(ta), model_inputs(tb))


def test_synthetic_offsets_separate_kde_modes():
    spec = cli.SyntheticSpec(n_clients=2, length=200, offset_min=10,
                             offset_max=100, noise_frac=0.02, amp_frac=0.1)
    traces = cli.generate_synthetic(spec, seed=1)
    pooled = np.concatenate([tr.throughput() for tr in traces])
    lo, hi = pooled.min(), pooled.max()
    grid = np.linspace(0, 1, 201)
    modes = []
    for tr in traces:
        norm = (tr.throughput() - lo) / (hi - lo)
        _, dens = gaussian_kde(norm, bandwidth=1.0, grid=grid)
        modes.append(grid[np.argmax(dens)])
    assert abs(modes[0] - modes[1]) > 0.3


def test_synthetic_validation():
    with pytest.raises(cli.ConfigError):
        cli.SyntheticSpec(ar_min=1.5)
    with pytest.raises(cli.ConfigError):
        cli.SyntheticSpec(n_datasets=9, n_clients=8)


def test_synthetic_dataset_grouping():
    spec = cli.SyntheticSpec(n_clients=8, length=40, n_datasets=4)
    tags = [tr.dataset_tag for tr in cli.generate_synthetic(spec, seed=0)]
    assert tags == ["synth0", "synth0", "synth1", "synth1",
                    "synth2", "synth2", "synth3", "synth3"]


# --- config validation ----------------------------------------------------


def test_bad_config_lists_every_offending_field(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("""\
[experiment]
seed = 7
[data]
source = nonsense
[model]
arch = GPT
hidden = 0
use_batchnorm = maybe
optimizer = foo
[train]
learning_rate = -1
optimizer = foo
[rounds]
strategy = FEDLOL
participation = 3.0
[stream]
mpc_horizon = 0
[qoe]
mu1 = -1
[typo]
key = 1
""")
    named = ("[data] source", "[model] arch", "[model] hidden",
             "[model] use_batchnorm", "[model] optimizer",
             "[train] learning_rate", "[train] optimizer", "[rounds] strategy",
             "[rounds] participation", "[stream] mpc_horizon", "[qoe] mu1",
             "[typo]")
    for subcommand in ("federate", "analyze", "stream", "all"):
        code = cli.run(cfg, subcommand)
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        for field in named:
            assert field in err, (subcommand, field)
    # 6 rates over 8 chunks is more rate sequences than the MPC may score
    cfg.write_text("[experiment]\nseed = 7\n[stream]\nmpc_horizon = 8\n")
    for subcommand in ("federate", "analyze", "stream", "all"):
        assert cli.run(cfg, subcommand) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "[stream] mpc_horizon" in err, subcommand


def test_keys_valid_only_together_take_no_blame_for_a_third(tmp_path,
                                                            capsys):
    # FEDPROX needs mu, and mu needs FEDPROX: neither is valid on its own
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[experiment]\nseed = 7\n[rounds]\nstrategy = FEDPROX\n"
                   "mu = 0.1\ntotal_rounds = -3\n")
    assert cli.run(cfg, "federate") == 1
    err = capsys.readouterr().err
    assert err.splitlines()[1:] == [
        "[rounds] total_rounds: total_rounds must be >= 0"], err


@pytest.mark.parametrize("extra, named", [
    ("\n[qoe]\nomega = 710\n", "[qoe] omega"),
    ("rtt_overhead = -1\n", "[stream] rtt_overhead")],
    ids=["omega", "rtt_overhead"])
def test_stream_setting_out_of_range_exits_1_naming_the_key(tmp_path, capsys,
                                                           extra, named):
    # omega 710 overflowed math.exp in the latency penalty (exit 2); a
    # negative rtt_overhead downloaded chunks in no time (exit 0)
    cfg, out = _config(tmp_path, extra=extra)
    assert cli.run(cfg, "all") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    assert named in err, err
    assert not out.exists()


def test_seed_only_config_resolves_to_dataclass_defaults(tmp_path):
    path = tmp_path / "seed_only.ini"
    path.write_text("[experiment]\nseed = 3\n")
    cfg = cli._parse_config(path, {})
    sizes = dict(in_features=6, history=15, horizon=1)
    assert cfg.synthetic == cli.SyntheticSpec()
    assert cfg.preprocess == PreprocessConfig()
    assert cfg.window == WindowConfig()
    assert models.ModelSpec(**sizes, **cfg.model_kwargs) == \
        models.ModelSpec(**sizes)
    assert cfg.train == models.default_train_config("LSTM")
    assert cfg.rounds == fl.RoundConfig(seed=3)
    assert cfg.stream_config == stream.StreamConfig()
    assert cfg.qoe == stream.QoECoefficients(
        r_min_kbps=min(stream.StreamConfig().ladder_kbps))
    defaults = cli.ExperimentConfig()
    for name in ("out_dir", "source", "files", "mapping_path",
                 "dataset_tag", "train_ratio", "predictor", "constant_mbps"):
        assert getattr(cfg, name) == getattr(defaults, name), name


def test_missing_config_file(tmp_path):
    assert cli.run(tmp_path / "nope.ini", "federate") == 1
    headerless = tmp_path / "headerless.ini"
    headerless.write_text("seed = 1\n")
    assert cli.run(headerless, "federate") == 1


def test_mapping_file_roundtrip(tmp_path):
    mpath = tmp_path / "map.ini"
    mpath.write_text("""\
[columns]
timestamp = ts
throughput = tput
rsrp = signal

[units]
throughput = 0.001

[sentinels]
values = -,NA

[extras]
cqi = cqi_col
""")
    mapping = cli.load_mapping(mpath)
    assert mapping.columns["throughput"] == "tput"
    assert mapping.units["throughput"] == 0.001
    assert mapping.sentinels == ("-", "NA")
    assert mapping.extras == {"cqi": "cqi_col"}


def test_unparsable_mapping_value_is_a_config_error(tmp_path, capsys):
    from fedcast.trace import ColumnMapping, export_trace
    tr = cli.generate_synthetic(cli.SyntheticSpec(n_clients=1, length=60),
                                seed=0)[0]
    export_trace(tr, tmp_path / "c0.csv")
    mapping = ColumnMapping.identity(
        extras={n: n for n in tr.extra_names()})
    cfg, _ = _config(tmp_path)
    text = cfg.read_text().replace(
        "source = synthetic",
        f"source = files\nfiles = {tmp_path / 'c0.csv'}\n"
        f"mapping = {tmp_path / 'map.ini'}")
    cfg.write_text(text)
    columns = "".join(f"{k} = {v}\n" for k, v in mapping.columns.items())
    for section, key in (("units", "throughput"), ("constants", "speed")):
        (tmp_path / "map.ini").write_text(
            f"[columns]\n{columns}[{section}]\n{key} = abc\n")
        assert cli.run(cfg, "analyze") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "map.ini" in err and f"[{section}] {key}" in err, err


@pytest.mark.parametrize("text", [
    "throughput = tput\n",
    "[columns]\nthroughput = tput\nthroughput = rate\n",
], ids=["no_section_header", "duplicate_key"])
def test_malformed_mapping_file_is_a_config_error(tmp_path, capsys, text):
    from fedcast.trace import export_trace
    tr = cli.generate_synthetic(cli.SyntheticSpec(n_clients=1, length=60),
                                seed=0)[0]
    export_trace(tr, tmp_path / "c0.csv")
    cfg, _ = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        "source = synthetic",
        f"source = files\nfiles = {tmp_path / 'c0.csv'}\n"
        f"mapping = {tmp_path / 'map.ini'}"))
    (tmp_path / "map.ini").write_text(text)
    assert cli.run(cfg, "analyze") == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "map.ini" in err, err


def test_mapping_value_is_taken_literally(tmp_path):
    mpath = tmp_path / "map.ini"
    mpath.write_text("[columns]\ntimestamp = ts\nthroughput = dl_%\n"
                     "rsrp = %(x)s\n")
    mapping = cli.load_mapping(mpath)
    assert mapping.columns == {"timestamp": "ts", "throughput": "dl_%",
                               "rsrp": "%(x)s"}


def _files_config(tmp_path, rows, **edits):
    """The base config reading one CSV of `rows` (canonical columns) as its
    only client, with `old=new` text edits applied."""
    from fedcast.trace import MANDATORY_FIELDS
    path = tmp_path / "cell.csv"
    path.write_text(",".join(MANDATORY_FIELDS) + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))
    cfg, out = _config(tmp_path)
    text = cfg.read_text().replace("source = synthetic",
                                   f"source = files\nfiles = {path}")
    for old, new in edits.values():
        text = text.replace(old, new)
    cfg.write_text(text)
    return cfg, out


def _assert_one_line_error(capsys, *named):
    err = capsys.readouterr().err
    assert "Traceback" not in err, err
    assert len(err.strip().splitlines()) == 1, err
    for name in named:
        assert name in err, err


def test_non_numeric_trace_value_exits_1_naming_the_file(tmp_path, capsys):
    rows = [(t, 0, 0, 0, -90, 10, "abc" if t == 2 else 20.0, "LTE")
            for t in range(40)]
    cfg, _ = _files_config(tmp_path, rows)
    assert cli.run(cfg, "analyze") == 1
    _assert_one_line_error(capsys, "cell.csv", "'abc'")


def test_trace_row_short_of_the_mapped_columns_exits_1(tmp_path, capsys):
    rows = [(t, 0, 0, 0, -90, 10, 20.0, "LTE") for t in range(40)]
    rows[5] = rows[5][:4]   # line 7 of the file, after the header
    cfg, _ = _files_config(tmp_path, rows)
    assert cli.run(cfg, "federate") == 1
    _assert_one_line_error(capsys, "cell.csv", "line 7", "has 4 fields",
                           "need 8")


def test_too_short_trace_exits_1_naming_the_client(tmp_path, capsys):
    rows = [(t, 0, 0, 0, -90, 10, 20.0 + t, "LTE") for t in range(10)]
    cfg, _ = _files_config(tmp_path, rows,
                           history=("history = 5", "history = 15"))
    assert cli.run(cfg, "federate") == 1
    _assert_one_line_error(capsys, "client cell",
                           "trace of length 10 too short for H=15, F=1")


@pytest.mark.parametrize("length", [17, 18, 20])
def test_trace_short_of_two_eval_windows_exits_1(tmp_path, capsys, length):
    # H=15, F=1: 17 rows give one window in all; 18-20 give 2-4 windows,
    # of which the test split keeps one
    cfg, _ = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace("length = 160",
                                           f"length = {length}")
                   .replace("history = 5", "history = 15"))
    assert cli.run(cfg, "federate") == 1
    _assert_one_line_error(capsys, "client syn00")


def test_non_positive_synthetic_offset_exits_1_naming_the_key(tmp_path,
                                                              capsys):
    # a trace with an offset of 0 Mbps or less would be clipped to zero,
    # so the config is refused before any trace is generated
    demo = Path(__file__).resolve().parent.parent / "configs" / "demo.ini"
    cfg = tmp_path / "demo.ini"
    for key, demo_line, bad in (("offset_min", "offset_min = 10", -5),
                                ("offset_min", "offset_min = 10", 0),
                                ("offset_max", "offset_max = 100", 0)):
        cfg.write_text(demo.read_text()
                       .replace(demo_line, f"{key} = {bad}")
                       .replace("out_dir = runs/demo",
                                f"out_dir = {tmp_path / 'run'}"))
        assert cli.run(cfg, "all") == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err, err
        assert f"[synthetic] {key}: offsets must be positive" in err, err
        assert not (tmp_path / "run").exists()


def test_flat_lined_trace_exits_1_naming_the_client(tmp_path, capsys):
    # a file whose throughput varies, then stays at 20 Mbps from t = 80 on,
    # through the test span (the last ~20% of the windows)
    rows = [(t, 0, 0, 0, -90, 10, 20.0 + (t * 7 % 13 if t < 80 else 0),
             "LTE") for t in range(160)]
    cfg, out = _files_config(tmp_path, rows)
    assert cli.run(cfg, "federate") == 1
    _assert_one_line_error(capsys, "client cell", "constant")
    assert not (out / "rounds.csv").exists()


def test_non_finite_evaluation_exits_1_naming_the_client(tmp_path, capsys):
    # one SGD step at learning rate 1e4 leaves finite weights whose
    # evaluation forecasts overflow
    cfg = tmp_path / "exp.ini"
    cfg.write_text(f"""\
[experiment]
seed = 3
out_dir = {tmp_path / "run"}
[synthetic]
n_clients = 4
length = 120
[window]
history = 8
[model]
arch = LSTM
hidden = 8
[train]
learning_rate = 1e4
optimizer = sgd
local_epochs = 1
[rounds]
strategy = FEDAVG
total_rounds = 1
""")
    # numpy's overflow warnings would print above the error line
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.run(cfg, "federate") == 1
    err = capsys.readouterr().err
    assert err.startswith("bad input: round 0: client syn00: evaluation "
                          "failed"), err
    assert len(err.splitlines()) == 1, err
    assert not (tmp_path / "run" / "rounds.csv").exists()


def test_truncated_checkpoint_exits_1_naming_the_file(tmp_path, capsys):
    cfg, out = _config(tmp_path, rounds=1)
    cfg.write_text(cfg.read_text().replace("predictor = harmonic",
                                           "predictor = model"))
    assert cli.run(cfg, "federate") == 0
    ckpt = out / "checkpoints" / "client_syn00.ckpt"
    ckpt.write_bytes(ckpt.read_bytes()[:-50])
    assert cli.run(cfg, "stream") == 1
    _assert_one_line_error(capsys, str(ckpt), "truncated")


def test_checkpoint_of_other_input_rows_exits_1_naming_both(tmp_path, capsys):
    # federate on the canonical columns, then stream with a mapping that
    # reads sinr a second time as the extra `cqi`: one more input row
    from fedcast.trace import MANDATORY_FIELDS
    rows = [(t, 0, 0, 0, -90 + t % 7, 10 + t % 5, 20.0 + 5 * math.sin(t / 4),
             "LTE") for t in range(80)]
    cfg, out = _files_config(tmp_path, rows,
                             predictor=("harmonic", "model"))
    assert cli.run(cfg, "federate") == 0
    mapping = tmp_path / "map.ini"
    mapping.write_text("[columns]\n"
                       + "".join(f"{n} = {n}\n" for n in MANDATORY_FIELDS)
                       + "[extras]\ncqi = sinr\n")
    cfg.write_text(cfg.read_text().replace(
        "source = files", f"source = files\nmapping = {mapping}"))
    assert cli.run(cfg, "stream") == 1
    _assert_one_line_error(capsys, str(out / "checkpoints" / "client_cell.ckpt"),
                           "takes 6 input rows", "gives 7")


def _federated_checkpoint(tmp_path):
    """Config and syn00's checkpoint path after one round, with the stream
    set to the model predictor."""
    cfg, out = _config(tmp_path, rounds=1)
    cfg.write_text(cfg.read_text().replace("predictor = harmonic",
                                           "predictor = model"))
    assert cli.run(cfg, "federate") == 0
    return cfg, out / "checkpoints" / "client_syn00.ckpt"


@pytest.mark.parametrize("rounds, code", [
    ("strategy = FEDBN", 1),
    ("strategy = FEDAVG\naggregate_running_stats = false", 1),
    ("strategy = FEDAVG", 0)],
    ids=["fedbn", "fedavg_local_stats", "fedavg"])
def test_client_without_checkpoint_falls_back_to_global_only_if_all_shared(
        tmp_path, capsys, rounds, code):
    # the global model stands in for a client only where it holds no
    # client-local entry, whose values would be the untrained initial ones
    cfg, out = _config(tmp_path, rounds=1)
    cfg.write_text(cfg.read_text()
                   .replace("predictor = harmonic", "predictor = model")
                   .replace("strategy = FEDAVG", rounds))
    assert cli.run(cfg, "federate") == 0
    ckpt = out / "checkpoints" / "client_syn01.ckpt"
    ckpt.unlink()
    assert cli.run(cfg, "stream") == code
    if code:
        _assert_one_line_error(capsys, "client syn01", str(ckpt))
    else:
        assert (out / "qoe.csv").exists()


def test_checkpoint_header_of_another_model_exits_1_naming_the_file(
        tmp_path, capsys):
    cfg, ckpt = _federated_checkpoint(tmp_path)
    header, blob = ckpt.read_bytes().split(b"\n", 1)
    ckpt.write_bytes(header.replace(b'"arch": "LSTM"', b'"arch": "CNN"')
                     + b"\n" + blob)
    assert cli.run(cfg, "stream") == 1
    _assert_one_line_error(capsys, str(ckpt), "CNN model")


def test_checkpoint_header_of_a_huge_model_exits_1_without_building_it(
        tmp_path, capsys):
    # the blob is checked against the header's layout, shapes only: a model
    # of hidden 10**7 would need ~3 PB
    import re
    import tracemalloc
    cfg, ckpt = _federated_checkpoint(tmp_path)
    header, blob = ckpt.read_bytes().split(b"\n", 1)
    huge = re.sub(rb'"hidden": \d+', b'"hidden": 10000000', header)
    assert huge != header
    ckpt.write_bytes(huge + b"\n" + blob)
    tracemalloc.start()
    try:
        code = cli.run(cfg, "stream")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and peak < 5e6, peak
    _assert_one_line_error(capsys, str(ckpt), "LSTM model")
    with pytest.raises(models.CheckpointError, match="LSTM model"):
        models.load_checkpoint(ckpt)


def test_non_finite_checkpoint_value_exits_1_naming_the_file(tmp_path,
                                                            capsys):
    cfg, ckpt = _federated_checkpoint(tmp_path)
    spec, params = models.load_checkpoint(ckpt)
    params.get("head.w").data[0, 0] = np.nan
    models.save_checkpoint(ckpt, spec, params)
    assert cli.run(cfg, "stream") == 1
    _assert_one_line_error(capsys, str(ckpt), "non-finite", "head.w")


@pytest.mark.parametrize("field, value, want", [("history", 10, 5),
                                                ("horizon", 3, 1)])
def test_checkpoint_of_other_window_exits_1_naming_both(tmp_path, capsys,
                                                        field, value, want):
    from dataclasses import replace
    cfg, ckpt = _federated_checkpoint(tmp_path)
    spec = replace(models.load_checkpoint(ckpt)[0], **{field: value})
    models.save_checkpoint(ckpt, spec, models.init_model(spec, 0))
    assert cli.run(cfg, "stream") == 1
    _assert_one_line_error(capsys, str(ckpt), f"{field} is {value}",
                           f"[window] {field} is {want}")


@pytest.mark.parametrize("entries", [("head.b",), ("fc.b", "head.w")])
def test_non_finite_forecast_exits_1_naming_the_client(tmp_path, capsys,
                                                       entries):
    # finite weights whose forecasts overflow: head.b alone in the inverse
    # scaling, fc.b and head.w in the model's own output
    cfg, ckpt = _federated_checkpoint(tmp_path)
    spec, params = models.load_checkpoint(ckpt)
    for entry in entries:
        params.get(entry).data[:] = 1e308
    models.save_checkpoint(ckpt, spec, params)
    assert cli.run(cfg, "stream") == 1
    _assert_one_line_error(capsys, "client syn00", "non-finite model forecast")


# --- subcommands -----------------------------------------------------------


def test_federate_writes_artifacts(tmp_path):
    cfg, out = _config(tmp_path, rounds=1)
    assert cli.run(cfg, "federate") == 0
    rounds_csv = (out / "rounds.csv").read_text().strip().splitlines()
    assert rounds_csv[0] == "round,client_id,r2,mse,participated"
    assert len(rounds_csv) == 1 + 3  # one round, three clients
    assert (out / "checkpoints" / "global.ckpt").exists()
    assert (out / "checkpoints" / "client_syn00.ckpt").exists()
    assert (out / "summary.json").exists()
    assert (out / "config_echo.ini").exists()


def test_federate_zero_rounds(tmp_path):
    cfg, out = _config(tmp_path, rounds=0)
    assert cli.run(cfg, "federate") == 0
    rounds_csv = (out / "rounds.csv").read_text().strip().splitlines()
    assert rounds_csv == ["round,client_id,r2,mse,participated"]
    import json
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rounds"] == 0
    assert (out / "checkpoints" / "global.ckpt").exists()


def test_analyze_outputs_parse(tmp_path):
    cfg, out = _config(tmp_path)
    assert cli.run(cfg, "analyze") == 0
    kde = (out / "kde.csv").read_text().strip().splitlines()
    assert kde[0] == "client_id,x,density"
    assert len(kde) > 100
    for line in kde[1:5]:
        cid, x, d = line.split(",")
        float(x), float(d)
    corr = (out / "correlations.csv").read_text().strip().splitlines()
    assert corr[0] == "client_id,feature,horizon,rho"
    rows = [l.split(",") for l in corr[1:]]
    assert all(-1.0 <= float(r[3]) <= 1.0 for r in rows)
    # throughput autocorrelation rows exist for each horizon
    assert sum(1 for r in rows if r[1] == "throughput") == 3 * 3


def test_analyze_tolerates_tiny_traces(tmp_path):
    cfg, out = _config(tmp_path)
    text = cfg.read_text().replace("length = 160", "length = 6")
    cfg.write_text(text)
    assert cli.run(cfg, "analyze") == 0
    assert (out / "kde.csv").exists()
    # horizons that do not fit are skipped, the file still parses
    corr = (out / "correlations.csv").read_text().strip().splitlines()
    assert corr[0] == "client_id,feature,horizon,rho"


def test_stream_writes_structured_breakdowns(tmp_path):
    import json
    cfg, out = _config(tmp_path)
    assert cli.run(cfg, "stream") == 0
    doc = json.loads((out / "qoe.json").read_text())
    assert doc["predictor"] == "harmonic"
    assert set(doc["sessions"]) == {"syn00", "syn01", "syn02"}
    sess = doc["sessions"]["syn00"]
    recomputed = (0.2 * sess["quality"] - 6.0 * sess["stall"]
                  - 1.0 * sess["switch"] - 0.8 * sess["latency"]
                  - 1.2 * sess["skip"])
    assert abs(recomputed - sess["qoe"]) < 1e-9


def test_stream_with_harmonic_predictor(tmp_path):
    cfg, out = _config(tmp_path)
    assert cli.run(cfg, "stream") == 0
    qoe = (out / "qoe.csv").read_text().strip().splitlines()
    assert qoe[0] == "client_id,qoe,quality,stall,switch,latency,skip,truncated"
    assert len(qoe) == 4
    events = (out / "events" / "syn00.csv").read_text().strip().splitlines()
    assert events[0] == "time,kind,chunk,rate_kbps,buffer,latency"
    kinds = {l.split(",")[1] for l in events[1:]}
    assert "rate_select" in kinds and "download_done" in kinds


def test_stream_model_predictor_requires_checkpoints(tmp_path):
    cfg, out = _config(tmp_path, extra="\n[stream_override]\n")
    text = cfg.read_text().replace("predictor = harmonic", "predictor = model")
    cfg.write_text(text)
    assert cli.run(cfg, "stream") == 1


def test_all_chains_stages(tmp_path):
    cfg, out = _config(tmp_path, rounds=1)
    assert cli.run(cfg, "all") == 0
    for name in ("rounds.csv", "kde.csv", "correlations.csv", "qoe.csv"):
        assert (out / name).exists()


def test_seed_override(tmp_path):
    cfg, out = _config(tmp_path)
    assert cli.run(cfg, "analyze", seed=99) == 0
    echo = (out / "config_echo.ini").read_text()
    assert "resolved_seed = 99" in echo


def test_main_entry_point(tmp_path):
    cfg, out = _config(tmp_path)
    assert cli.main(["analyze", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("flags,message", [
    (["--seed", "x"], "argument --seed: invalid int value: 'x'"),
    (["--workers", "2"], "unrecognized arguments: --workers 2"),
])
def test_usage_error_exits_1_with_argparse_message(tmp_path, capsys, flags,
                                                   message):
    cfg, out = _config(tmp_path)
    assert cli.main(["analyze", "--config", str(cfg), *flags]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "usage: fedcast" in err
    assert not out.exists()


def test_help_still_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "usage: fedcast" in capsys.readouterr().out


@pytest.mark.parametrize("kind", ["constant", "oracle"])
def test_stream_with_constant_and_oracle_predictors(tmp_path, kind):
    # each session's QoE is the simulator's over the trace's last
    # session_len seconds with that predictor
    cfg, out = _config(tmp_path, extra="constant_mbps = 2.5\n")
    cfg.write_text(cfg.read_text().replace("predictor = harmonic",
                                           f"predictor = {kind}"))
    assert cli.run(cfg, "stream") == 0
    doc = json.loads((out / "qoe.json").read_text())
    assert doc["predictor"] == kind
    parsed = cli._parse_config(cfg, {})
    scfg = parsed.stream_config
    for tr in cli._load_traces(parsed):
        session = tr.throughput()[-scfg.session_len:]
        predictor = stream.ConstantPredictor(2.5) if kind == "constant" \
            else stream.OraclePredictor(session)
        want = stream.simulate_session(session, predictor, scfg, parsed.qoe)
        assert doc["sessions"][tr.client_id]["qoe"] == want.breakdown.qoe


def test_round_where_every_participant_diverges_exits_1(tmp_path, capsys):
    # SGD at learning rate 1e30 overflows every client's loss in its
    # second batch
    cfg, out = _config(tmp_path)
    cfg.write_text(cfg.read_text().replace(
        "learning_rate = 0.01", "learning_rate = 1e30\noptimizer = sgd"))
    assert cli.run(cfg, "federate") == 1
    _assert_one_line_error(capsys, "round 0: every participant diverged")
    assert not (out / "rounds.csv").exists()


def test_uncaught_exception_exits_2_with_its_traceback(tmp_path, capsys,
                                                       monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("kde broke")

    monkeypatch.setattr(cli.analysis, "gaussian_kde", broken)
    cfg, _ = _config(tmp_path)
    assert cli.run(cfg, "analyze") == 2
    err = capsys.readouterr().err
    assert err.startswith("Traceback"), err
    assert err.strip().endswith("RuntimeError: kde broke"), err


@contextmanager
def _alarm(seconds):
    """Raise TimeoutError in the body after `seconds`, so that a hang fails
    the test instead of stopping the suite."""
    def fire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    old = signal.signal(signal.SIGALRM, fire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("max_latency, code", [(2.1, 1), (2.2, 0)])
def test_latency_gap_below_one_chunk_exits_1_instead_of_hanging(
        tmp_path, capsys, max_latency, code):
    # 0.5-4 Mbps traces with outages; the default playback_threshold is
    # 2.0 s and a chunk 0.2 s. At max_latency 2.1 the session retried a
    # skip that could not move the position, forever; at 2.2, a gap of
    # one chunk, it ends
    cfg = tmp_path / "outage.ini"
    cfg.write_text(f"""\
[experiment]
seed = 1
out_dir = {tmp_path / "run"}
[synthetic]
n_clients = 2
length = 60
offset_min = 0.5
offset_max = 4
amp_frac = 1.1
period_min = 6
period_max = 16
[stream]
session_len = 30
predictor = harmonic
max_latency = {max_latency}
""")
    with _alarm(60):
        assert cli.run(cfg, "stream") == code
    err = capsys.readouterr().err
    if code:
        assert "[stream] max_latency: max_latency 2.1 must exceed " \
               "playback_threshold 2.0 by at least one chunk, 0.2 s" in err, err
