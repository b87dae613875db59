"""Trace ingestion and cleaning against hand-built files and oracles."""

import numpy as np
import pytest

from fedcast.trace import (ClientTrace, ColumnMapping, TraceError,
                           clean_and_resample, export_trace, load_trace)


def _write(tmp_path, text, name="trace.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def _mini_mapping():
    return ColumnMapping(columns={"timestamp": "ts", "throughput": "tput"})


def test_load_three_rows_identity(tmp_path):
    p = _write(tmp_path, "ts,tput\n0,10.0\n1,12.5\n2,11.0\n")
    tr = load_trace(p, _mini_mapping())
    assert len(tr) == 3
    assert tr.columns["throughput"].tolist() == [10.0, 12.5, 11.0]
    assert tr.columns["timestamp"].tolist() == [0.0, 1.0, 2.0]


def test_sentinel_row_dropped(tmp_path):
    p = _write(tmp_path, "ts,tput\n0,10.0\n1,-\n2,11.0\n")
    tr = load_trace(p, _mini_mapping())
    assert len(tr) == 2
    assert tr.dropped_rows == 1


def test_synthetic_120_rows_field_by_field(tmp_path):
    rng = np.random.default_rng(0)
    tput = rng.uniform(1, 50, 120)
    rsrp = rng.uniform(-120, -70, 120)
    lines = ["ts,tput,rsrp,radio"]
    for i in range(120):
        lines.append(f"{i},{float(tput[i])!r},{float(rsrp[i])!r},LTE")
    p = _write(tmp_path, "\n".join(lines) + "\n")
    mapping = ColumnMapping(columns={"timestamp": "ts", "throughput": "tput",
                                     "rsrp": "rsrp", "radio_type": "radio"})
    tr = load_trace(p, mapping, client_id="c0", dataset_tag="synthetic")
    assert tr.sample_period == 1.0
    assert len(tr) == 120
    for i in range(120):
        assert tr.columns["timestamp"][i] == float(i)
        assert tr.columns["throughput"][i] == tput[i]
        assert tr.columns["rsrp"][i] == rsrp[i]
        assert tr.columns["radio_type"][i] == "LTE"
        assert tr.columns["latitude"][i] == 0.0  # default fill for unmapped field


def test_missing_mandatory_column(tmp_path):
    p = _write(tmp_path, "ts,x\n0,1\n")
    with pytest.raises(TraceError):
        load_trace(p, _mini_mapping())


def test_empty_file(tmp_path):
    p = _write(tmp_path, "")
    with pytest.raises(TraceError):
        load_trace(p, _mini_mapping())


def test_non_numeric_value_is_an_error(tmp_path):
    p = _write(tmp_path, "ts,tput\n0,banana\n")
    with pytest.raises(TraceError):
        load_trace(p, _mini_mapping())


def test_unit_conversion(tmp_path):
    p = _write(tmp_path, "ts,tput\n0,1000\n1,2000\n")
    mapping = ColumnMapping(columns={"timestamp": "ts", "throughput": "tput"},
                            units={"throughput": 1e-3})  # Kbps -> Mbps
    tr = load_trace(p, mapping)
    assert tr.columns["throughput"].tolist() == [1.0, 2.0]


def test_tab_delimited(tmp_path):
    p = _write(tmp_path, "ts\ttput\n0\t10\n1\t20\n")
    tr = load_trace(p, _mini_mapping())
    assert tr.columns["throughput"].tolist() == [10.0, 20.0]


def test_mapping_rejects_double_mapping():
    with pytest.raises(TraceError):
        ColumnMapping(columns={"timestamp": "ts", "throughput": "t"},
                      constants={"throughput": 1.0})


def _trace_from_arrays(ts, tput):
    n = len(ts)
    columns = {"timestamp": np.asarray(ts, dtype=float),
               "latitude": np.zeros(n), "longitude": np.zeros(n),
               "speed": np.zeros(n), "rsrp": np.full(n, -100.0),
               "sinr": np.full(n, 5.0),
               "throughput": np.asarray(tput, dtype=float),
               "radio_type": np.full(n, "LTE")}
    return ClientTrace(client_id="c", dataset_tag="d", columns=columns,
                       sample_period=1.0)


def test_duplicate_timestamps_collapse_by_mean():
    tr = _trace_from_arrays([4, 5, 5, 6], [1.0, 4.0, 6.0, 2.0])
    out = clean_and_resample(tr)
    assert out.columns["timestamp"].tolist() == [0.0, 1.0, 2.0]
    assert out.columns["throughput"][1] == 5.0


def test_gap_linear_interpolation():
    tr = _trace_from_arrays([0, 1, 2, 6, 7], [0.0, 1.0, 2.0, 6.0, 7.0])
    out = clean_and_resample(tr)
    assert out.columns["timestamp"].tolist() == [0.0, 1, 2, 3, 4, 5, 6, 7]
    assert out.columns["throughput"].tolist() == [0, 1, 2, 3, 4, 5, 6, 7]


def test_large_gap_keeps_longest_run():
    # 100 rows with a 10-sample hole; oracle: brute-force longest-run scan
    ts = list(range(0, 45)) + list(range(55, 110))
    tput = list(np.linspace(1, 9, len(ts)))
    tr = _trace_from_arrays(ts, tput)

    runs, cur = [], [ts[0]]
    for a, b in zip(ts, ts[1:]):
        if b - a - 1 > 3:
            runs.append(cur)
            cur = []
        cur.append(b)
    runs.append(cur)
    expected = max(len(r) for r in runs)
    assert expected >= 45

    out = clean_and_resample(tr)
    assert len(out) == expected
    assert out.columns["timestamp"][0] == 0.0


def test_clean_is_idempotent():
    tr = _trace_from_arrays([0, 1, 1, 2, 3, 9, 10], [1, 2, 4, 3, 5, 7, 8])
    once = clean_and_resample(tr)
    twice = clean_and_resample(once)
    assert once.columns["timestamp"].tolist() == \
        twice.columns["timestamp"].tolist()
    assert once.columns["throughput"].tolist() == \
        twice.columns["throughput"].tolist()


def test_clean_output_strictly_increasing_constant_step():
    rng = np.random.default_rng(2)
    ts = np.arange(50, dtype=float)
    tr = _trace_from_arrays(ts, rng.uniform(1, 10, 50))
    out = clean_and_resample(tr)
    diffs = np.diff(out.columns["timestamp"])
    assert (diffs > 0).all()
    assert np.allclose(diffs, out.sample_period)


def _clean_oracle(ts, tput, period):
    """Per-sample loop: slot means, lerp over gaps of <= 3 slots, first
    longest run; (timestamps, throughput) of the result."""
    slots = {}
    for t, v in zip(ts, tput):
        slots.setdefault(int(round(t / period)), []).append(v)
    keys = sorted(slots)
    runs = [[(keys[0], float(np.mean(slots[keys[0]])))]]
    for k_prev, k in zip(keys, keys[1:]):
        v = float(np.mean(slots[k]))
        missing = k - k_prev - 1
        if missing > 3:
            runs.append([(k, v)])
            continue
        prev = runs[-1][-1][1]
        for j in range(1, missing + 1):
            f = j / (missing + 1)
            runs[-1].append((k_prev + j, prev + f * (v - prev)))
        runs[-1].append((k, v))
    best = max(runs, key=len)
    return [(k - best[0][0]) * period for k, _ in best], [v for _, v in best]


def test_clean_matches_per_sample_loop():
    rng = np.random.default_rng(5)
    for _ in range(200):
        slots = np.sort(rng.choice(60, int(rng.integers(2, 40)), replace=False))
        slots = np.repeat(slots, rng.integers(1, 5, slots.size))
        ts = slots + rng.uniform(-0.3, 0.3, slots.size)
        tput = rng.uniform(0, 100, slots.size)
        order = rng.permutation(slots.size)
        tr = _trace_from_arrays(ts[order], tput[order])
        want_ts, want_tput = _clean_oracle(ts[order], tput[order], 1.0)
        if len(want_ts) < 2:
            continue
        out = clean_and_resample(tr)
        assert out.columns["timestamp"].tolist() == want_ts
        assert out.columns["throughput"].tolist() == want_tput


def test_clean_rejects_tiny_trace():
    tr = _trace_from_arrays([0], [1.0])
    with pytest.raises(TraceError):
        clean_and_resample(tr)


def test_export_load_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    # drawn in the order of the fields, one row at a time
    draws = np.array([[rng.uniform(-90, 90), rng.uniform(-180, 180),
                       rng.uniform(0, 30), rng.uniform(-120, -60),
                       rng.uniform(-5, 25), rng.uniform(0, 900),
                       rng.uniform(0, 15)] for _ in range(40)])
    names = ("latitude", "longitude", "speed", "rsrp", "sinr", "throughput",
             "cqi")
    columns = {"timestamp": np.arange(40, dtype=float),
               **dict(zip(names, draws.T)),
               "radio_type": np.full(40, "NR-SA")}
    tr = ClientTrace(client_id="c9", dataset_tag="d", columns=columns,
                     sample_period=1.0)
    path = tmp_path / "out.csv"
    export_trace(tr, path)
    mapping = ColumnMapping.identity(extras={n: n for n in tr.extra_names()})
    back = load_trace(path, mapping, client_id="c9", dataset_tag="d")
    assert back.columns.keys() == tr.columns.keys()
    for name, col in tr.columns.items():
        assert np.array_equal(back.columns[name], col), name
    for attr in ("client_id", "dataset_tag", "sample_period", "dropped_rows"):
        assert getattr(back, attr) == getattr(tr, attr), attr
