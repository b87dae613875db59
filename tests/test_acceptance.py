"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line; run with `pytest -s
tests/test_acceptance.py` to see them as they complete. Criterion 6 runs
the full synthetic federated benchmark and dominates the runtime.
"""

import filecmp
import hashlib
import math
import time

import numpy as np

from fedcast import cli, fl, models, stream
from fedcast import tensor as T
from fedcast.analysis import horizon_correlation
from fedcast.preprocess import (PreprocessConfig, WindowConfig, build_windows,
                                moving_average, split_train_test)
from fedcast.trace import ClientTrace

from oracle_ops import grad_check


def _report(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _toy_spec(arch="LSTM", **kw):
    base = dict(arch=arch, in_features=4, history=5, horizon=1, hidden=8,
                num_heads=2, conv_channels=(3, 3), ff_dim=8)
    base.update(kw)
    return models.ModelSpec(**base)


def _random_paramset(spec, seed):
    params = models.init_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 5000)
    for _, t, _ in params.entries:
        t.data[...] = rng.normal(size=t.data.shape)
    return params


BENCH_SYNTHETIC = dict(n_clients=8, length=300, offset_min=10.0,
                       offset_max=100.0, ar_min=0.3, ar_max=0.9,
                       amp_frac=0.3, period_min=25.0, period_max=90.0,
                       noise_frac=0.04, n_datasets=4)


def test_criterion_01_aggregation_exactness():
    spec = _toy_spec()
    rng = np.random.default_rng(0)
    updates = [(_random_paramset(spec, s), int(rng.integers(1, 100)))
               for s in range(50)]
    t0 = time.monotonic()
    out = fl.aggregate_fedavg(updates)
    elapsed = time.monotonic() - t0
    total = sum(n for _, n in updates)
    weights = np.array([n for _, n in updates], dtype=float) / total
    worst = 0.0
    for i, (_, t, _) in enumerate(out.entries):
        stack = np.stack([ps.entries[i][1].data for ps, _ in updates])
        oracle = np.tensordot(weights, stack, axes=1)
        rel = np.abs(t.data - oracle) / np.maximum(np.abs(oracle), 1e-300)
        worst = max(worst, float(rel.max()))
    _report(1, worst < 1e-12 and elapsed < 1.0,
            f"50-client FedAvg vs weighted-mean oracle: max rel err "
            f"{worst:.2e}, runtime {elapsed:.3f}s")


def test_criterion_02_fedbn_decoupling():
    traces = cli.generate_synthetic(
        cli.SyntheticSpec(n_clients=4, length=160, offset_min=10,
                          offset_max=70, period_min=20, period_max=60),
        seed=31)
    pre = PreprocessConfig(filter_window=3)
    wc = WindowConfig(history=5, horizon=1)
    clients = cli.build_client_set(traces, pre, wc, 0.8)
    spec = _toy_spec(in_features=6)
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    shared = models.init_model(spec, seed=1)
    for c in clients:
        c.params = shared.copy()

    ok = True
    detail = ""
    for rnd in range(5):
        updates = []
        for k, client in enumerate(clients):
            broadcast = client.params.copy()
            (trained,), _ = models.local_train(
                spec, [broadcast], [client.train], tc,
                rng=[np.random.default_rng((31, rnd, k))])
            updates.append((trained, client.n_samples))
        per_client = fl.aggregate_fedbn(
            updates, [i for i, (_, _, is_bn) in enumerate(shared.entries)
                      if is_bn])
        # independent oracle for the shared block
        total = sum(n for _, n in updates)
        for i, (name, t, is_bn) in enumerate(per_client[0].entries):
            stacks = np.stack([ps.entries[i][1].data for ps, _ in updates])
            for k, (trained, _) in enumerate(updates):
                got = per_client[k].entries[i][1].data
                if is_bn:
                    if not np.array_equal(got, trained.entries[i][1].data):
                        ok, detail = False, f"BN {name} not bitwise-preserved"
                else:
                    weights = np.array([n for _, n in updates], float) / total
                    oracle = np.tensordot(weights, stacks, axes=1)
                    rel = np.abs(got - oracle) / np.maximum(np.abs(oracle), 1e-300)
                    if rel.max() >= 1e-12:
                        ok, detail = False, f"shared {name} off by {rel.max():.2e}"
        for client, merged in zip(clients, per_client):
            client.params = merged
    _report(2, ok, detail or "5 rounds x 4 clients: BN bitwise-local, "
            "shared block matches FedAvg oracle to 1e-12")


def test_criterion_03_fedprox_contract():
    spec = _toy_spec(in_features=6)
    traces = cli.generate_synthetic(
        cli.SyntheticSpec(n_clients=1, length=140), seed=7)
    pre = PreprocessConfig(filter_window=3)
    wc = WindowConfig(history=5, horizon=1)
    client = cli.build_client_set(traces, pre, wc, 0.8)[0]

    # exactness at the anchor: penalty gradient contributes nothing
    params = models.init_model(spec, seed=3)
    anchor = params.copy()
    first = client.train[:8]
    x, y = first.x, first.y

    def grads(mu):
        work = params.copy()
        pred = models.forward_graph(spec, work, x, training=True)
        loss = T.mse(pred, y)
        if mu > 0:
            pen = models._prox_penalty(work, anchor, include_bn=False)
            loss = T.add(loss, T.mul(T.Tensor(mu / 2.0), pen))
        loss.backward()
        return [t.grad.copy() for t in work.trainable()]

    exact_zero = all(np.array_equal(a, b)
                     for a, b in zip(grads(0.0), grads(5.0)))

    # paired same-seed runs: drift is monotone non-increasing in mu
    mus = (0.01, 0.1, 1.0)
    drifts = {mu: [] for mu in mus}
    for seed in range(5):
        for mu in mus:
            work = models.init_model(spec, seed=40 + seed)
            anchor_s = work.copy()
            cfg = models.TrainConfig(learning_rate=0.01, batch_size=16,
                                     local_epochs=2, prox_mu=mu)
            (trained,), _ = models.local_train(
                spec, [work], [client.train], cfg, global_anchor=[anchor_s],
                rng=[np.random.default_rng(seed)])
            d = 0.0
            for name, t, is_bn in trained.entries:
                if t.requires_grad and not is_bn:
                    d += float(np.sum((t.data - anchor_s.get(name).data) ** 2))
            drifts[mu].append(math.sqrt(d))
    med = [float(np.median(drifts[mu])) for mu in mus]
    monotone = med[0] >= med[1] >= med[2]
    _report(3, exact_zero and monotone,
            f"prox grad exactly 0 at anchor: {exact_zero}; median drift "
            f"mu=0.01/0.1/1 = {med[0]:.4f}/{med[1]:.4f}/{med[2]:.4f}")


def test_criterion_04_gradient_checks():
    rng = np.random.default_rng(1)
    t0 = time.monotonic()
    worst = {}
    for arch in models.ARCHS:
        spec = _toy_spec(arch)
        params = models.init_model(spec, seed=11)
        x = rng.normal(size=(2, spec.in_features, spec.steps))
        y = rng.normal(size=(2, spec.horizon))

        def f():
            return T.mse(models.forward_graph(spec, params, x, training=True), y)

        worst[arch] = grad_check(f, params.trainable(), eps=1e-5)
    elapsed = time.monotonic() - t0
    ok = max(worst.values()) < 1e-4 and elapsed < 30.0
    detail = ", ".join(f"{a} {e:.2e}" for a, e in worst.items())
    _report(4, ok, f"max rel err vs central differences: {detail}; "
            f"runtime {elapsed:.1f}s")


def test_criterion_05_window_pipeline_oracles():
    rng = np.random.default_rng(2)
    checked = 0
    ok = True
    while checked < 100:
        n = int(rng.integers(8, 80))
        h = int(rng.integers(1, 8))
        f = int(rng.integers(1, 5))
        stride = int(rng.integers(1, 5))
        if n < h + f + 1:
            continue
        tput = rng.uniform(0, 60, n)
        i = np.arange(n)
        columns = {"timestamp": i.astype(float), "latitude": np.zeros(n),
                   "longitude": np.zeros(n), "speed": (i % 7).astype(float),
                   "rsrp": -100 + tput * 0.1, "sinr": np.full(n, 5.0),
                   "throughput": tput, "radio_type": np.full(n, "NR")}
        tr = ClientTrace(client_id="c", dataset_tag="d", columns=columns)
        feats = np.array([tr.columns[name] for name in tr.feature_names()])
        samples = build_windows(tr, WindowConfig(history=h, horizon=f),
                                stride=stride)
        expected_anchors = list(range(h, n - f, stride))
        if samples.anchor.tolist() != expected_anchors:
            ok = False
            break
        for x, y, a in zip(samples.x, samples.y, expected_anchors):
            if not (np.array_equal(x[:-1], feats[:, a - h:a + 1])
                    and np.array_equal(x[-1], tput[a - h:a + 1])
                    and np.array_equal(y, tput[a + 1:a + 1 + f])):
                ok = False
        checked += 1

    for _ in range(20):
        series = rng.uniform(0, 10, int(rng.integers(5, 60)))
        w = int(rng.integers(1, 6))
        got = moving_average(series, w)
        oracle = np.array([series[max(0, i - w + 1):i + 1].mean()
                           for i in range(len(series))])
        if not np.allclose(got, oracle, atol=1e-12):
            ok = False

    class _S:
        def __init__(self, anchor):
            self.anchor = anchor

    samples = [_S(i) for i in range(10)]
    train, test = split_train_test(samples, 0.8)
    split_ok = (len(train) == 8 and len(test) == 2
                and max(s.anchor for s in train) < min(s.anchor for s in test))
    _report(5, ok and split_ok,
            "100 window instances + moving-average oracle + 80:20 "
            "chronological split")


def test_criterion_06_synthetic_federated_benchmark():
    t0 = time.monotonic()

    def run(strategy, seed):
        traces = cli.generate_synthetic(cli.SyntheticSpec(**BENCH_SYNTHETIC),
                                        seed=seed)
        pre = PreprocessConfig(filter_window=3, scaling_scope="per_dataset")
        wc = WindowConfig(history=15, horizon=1)
        clients = cli.build_client_set(traces, pre, wc, 0.8)
        spec = models.ModelSpec(arch="LSTM", in_features=6, history=15,
                                horizon=1, hidden=24)
        tc = models.TrainConfig(learning_rate=3e-3, batch_size=32,
                                local_epochs=3)
        rc = fl.RoundConfig(strategy=strategy, total_rounds=40,
                            participation_fraction=0.85, seed=seed)
        reports, _ = fl.run_experiment(clients, rc, tc, spec)
        return (max(r.mean_r2 for r in reports), reports[-1].var_r2)

    best_bn, var_bn, var_avg = [], [], []
    for seed in range(1, 6):
        b, v = run("FEDBN", seed)
        best_bn.append(b)
        var_bn.append(v)
        _, v2 = run("FEDAVG", seed)
        var_avg.append(v2)
    elapsed = time.monotonic() - t0
    med_best = float(np.median(best_bn))
    med_var_bn = float(np.median(var_bn))
    med_var_avg = float(np.median(var_avg))
    ok = med_best >= 0.8 and med_var_bn <= med_var_avg and elapsed < 900
    _report(6, ok,
            f"LSTM+FedBN median best mean R2 {med_best:.3f} (>= 0.8); "
            f"median across-client var FedBN {med_var_bn:.4f} <= FedAvg "
            f"{med_var_avg:.4f}; runtime {elapsed:.0f}s (< 900s)")


def test_criterion_07_correlation_decay():
    meds = {f: [] for f in (1, 3, 5)}
    for seed in range(20):
        traces = cli.generate_synthetic(
            cli.SyntheticSpec(n_clients=4, length=300), seed=seed)
        per_seed = {f: [] for f in (1, 3, 5)}
        for tr in traces:
            for f in (1, 3, 5):
                per_seed[f].append(horizon_correlation(tr, "throughput", f))
        for f in (1, 3, 5):
            meds[f].append(float(np.mean(per_seed[f])))
    m1, m3, m5 = (float(np.median(meds[f])) for f in (1, 3, 5))
    ok = m1 >= m3 >= m5
    _report(7, ok, f"median rho over 20 seeds: F=1 {m1:.3f} >= F=3 {m3:.3f} "
            f">= F=5 {m5:.3f}")


def test_criterion_08_streaming_identities():
    co = stream.QoECoefficients()
    ok = True
    details = []

    # decomposition identity and time conservation across stressed sessions
    cfg = stream.StreamConfig(session_len=40)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        base = np.clip(6 + 5 * np.sin(np.arange(55) / 4 + seed), 0.3, None)
        base[20:24] = 0.05
        trace = np.clip(base + rng.normal(0, 1, 55), 0.01, None)
        res = stream.simulate_session(trace, stream.HarmonicMeanPredictor(),
                                      cfg, co)
        b = res.breakdown
        recomputed = (co.mu1 * b.quality - co.mu2 * b.stall
                      - co.mu3 * b.switch - co.mu4 * b.latency
                      - co.mu5 * b.skip)
        if abs(recomputed - b.qoe) >= 1e-9:
            ok = False
            details.append("decomposition identity violated")
        drift = abs((res.end_wall - res.startup_wall)
                    - (res.played_time + res.stall_time + res.skip_wait_time))
        if drift >= cfg.chunk_dur:
            ok = False
            details.append(f"time conservation off by {drift:.3f}s")

    # infinite capacity: zero stall, settles at the top rung
    cfg_inf = stream.StreamConfig(session_len=30, rtt_overhead=0.0)
    trace = np.full(40, 1e6)
    res = stream.simulate_session(trace, stream.OraclePredictor(trace),
                                  cfg_inf, co)
    if res.stall_time != 0.0 or not all(
            r == len(cfg_inf.ladder_kbps) - 1 for r in res.chunk_rates.values()):
        ok = False
        details.append("infinite-capacity session misbehaved")

    # zero-capacity tail: stall matches the hand-computed 2.96 s
    cfg_toy = stream.StreamConfig(ladder_kbps=(1000.0,), session_len=20,
                                  rtt_overhead=0.0)
    co_toy = stream.QoECoefficients(r_min_kbps=1000.0)
    toy = np.array([50.0] * 10 + [0.0] * 10)
    res = stream.simulate_session(toy, stream.OraclePredictor(toy), cfg_toy,
                                  co_toy)
    if abs(res.stall_time - 2.96) >= 1e-6:
        ok = False
        details.append(f"zero-tail stall {res.stall_time:.4f} != 2.96")
    _report(8, ok, "; ".join(details) or
            "decomposition to 1e-9, conservation to one chunk, "
            "capacity limits behave, zero-tail stall = 2.96s")


def test_criterion_09_predictor_ordering():
    def step_trace(seed, length=75):
        rng = np.random.default_rng((seed, 900))
        levels = np.array([0.4, 0.7, 1.3, 2.6, 4.5, 7.5])
        trace = np.empty(length)
        t = 0
        while t < length:
            lvl = levels[rng.integers(0, len(levels))]
            dur = int(rng.integers(6, 16))
            trace[t:t + dur] = lvl * rng.uniform(0.95, 1.05)
            t += dur
        return np.clip(trace[:length], 0.05, None)

    cfg = stream.StreamConfig(session_len=60)
    co = stream.QoECoefficients()
    qoe = {"oracle": [], "harmonic": [], "constmin": []}
    for seed in range(10):
        tr = step_trace(seed)
        for name, pred in (("oracle", stream.OraclePredictor(tr)),
                           ("harmonic", stream.HarmonicMeanPredictor()),
                           ("constmin", stream.ConstantPredictor(0.3))):
            res = stream.simulate_session(tr, pred, cfg, co)
            qoe[name].append(res.breakdown.qoe)
    mo = float(np.mean(qoe["oracle"]))
    mh = float(np.mean(qoe["harmonic"]))
    mc = float(np.mean(qoe["constmin"]))
    ok = mo >= mc and mo >= mh - 0.01
    _report(9, ok, f"mean QoE oracle {mo:.3f} >= constant-min {mc:.3f} and "
            f">= harmonic {mh:.3f} - 0.01")


_REPLAY_CONFIG = """\
[experiment]
seed = 77
out_dir = unused

[data]
source = synthetic

[synthetic]
n_clients = 3
length = 160
offset_min = 10
offset_max = 60
period_min = 20
period_max = 40

[preprocess]
filter_window = 3

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
strategy = FEDBN
total_rounds = 2
participation = 1.0

[stream]
session_len = 30
predictor = model
mpc_horizon = 5
"""


def test_criterion_10_pipeline_determinism(tmp_path):
    cfg_path = tmp_path / "replay.ini"
    cfg_path.write_text(_REPLAY_CONFIG)
    out_a = tmp_path / "run_a"
    out_b = tmp_path / "run_b"
    assert cli.run(cfg_path, "all", out=str(out_a)) == 0
    assert cli.run(cfg_path, "all", out=str(out_b)) == 0

    files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
    ok = files_a == files_b and len(files_a) > 0
    mismatched = []
    if ok:
        for rel in files_a:
            if not filecmp.cmp(out_a / rel, out_b / rel, shallow=False):
                mismatched.append(str(rel))
        ok = not mismatched
    _report(10, ok, f"{len(files_a)} artifacts byte-identical across two "
            f"`all` runs" + (f"; mismatches: {mismatched}" if mismatched else ""))


# SHA-256 of every artifact that `all` writes for _REPLAY_CONFIG. A change
# that alters any output must update this table and say why.
_REPLAY_HASHES = {
    "checkpoints/client_syn00.ckpt": "6f26292cd34135dc758cb629c17f3db6319101f2d274a91e6f74786f035323c3",
    "checkpoints/client_syn01.ckpt": "9f3cf57608264161a8539b2762f16261884f1e93a82509e3c26802164863c8dc",
    "checkpoints/client_syn02.ckpt": "489185689e491bf354278034cf37d8e0f4165ccaf3f91b2c9b9730dc5605cb29",
    "checkpoints/global.ckpt": "b5f5feacf3e4685b7488f60dc157089ec0eec94e086bef0227ddd85fac841112",
    "config_echo.ini": "d6a0026d2ca66c59e1366e77c28e274ab927256d3657d934ae28051c7e637982",
    "correlations.csv": "1874cc4840bb28241799bc11668437cd708864d2ae1420efe38fb6c6907b46d8",
    "events/syn00.csv": "9d4c621f407affc26c9f014192d01919fcce5a11cdd79da87c48d5368209c60d",
    "events/syn01.csv": "76b4790482ecc32e0a29599a237cabe96cc38f13ab5c48403f5c763f7ed15411",
    "events/syn02.csv": "1a97bd2d549bc98a2f554c903d880e8a259524a44aef2cd74bfa811bba57ab6e",
    "kde.csv": "41a5e2c1f75658b993f9c5bac327207bb4c37307b565c5edf4a213392899a50a",
    "qoe.csv": "6785a5c9a538134186d55a8b5c991a852852baee9683c03a86cf9eb896f143ec",
    "qoe.json": "9743d52725f1dcb222ae4e4d35f2f47da3e352f173c4adb5022485115a07f578",
    "rounds.csv": "98539978c78ff879153c71577c7d306bfd4106e90e3f296573d5a8e071502d20",
    "summary.json": "a5974c16a395f39518346c5e7ac7e6838ea0afeea409cb87bb69c0260588966b",
}


def test_replay_artifacts_match_golden_hashes(tmp_path):
    cfg_path = tmp_path / "replay.ini"
    cfg_path.write_text(_REPLAY_CONFIG)
    out = tmp_path / "run"
    assert cli.run(cfg_path, "all", out=str(out)) == 0
    got = {p.relative_to(out).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*") if p.is_file()}
    changed = sorted(k for k in got.keys() | _REPLAY_HASHES.keys()
                     if got.get(k) != _REPLAY_HASHES.get(k))
    assert not changed, f"artifacts differ from the golden hashes: {changed}"


_FILES_CONFIG = """\
[experiment]
seed = 5
out_dir = unused

[data]
source = files
files = {files}
mapping = {mapping}
dataset_tag = field

[preprocess]
filter_window = 3
scaler = standard
scope = per_dataset

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
strategy = FEDBN
total_rounds = 1
participation = 1.0
"""

_FILES_MAPPING = """\
[columns]
timestamp = time_s
latitude = lat
longitude = lon
speed = speed_kmh
rsrp = rsrp_dbm
sinr = sinr_db
throughput = dl_kbps
radio_type = tech

[units]
throughput = 0.001
speed = 0.2777777777777778

[extras]
cqi = cqi
"""


def _write_field_traces(tmp_path):
    """Three CSV logs, written row by row, with the faults the cleaner
    handles: jittered and duplicate timestamps, 1-3 slot gaps, one gap of
    more than 3 slots, sentinel and non-finite rows, negative throughput,
    an extra column, throughput in kbps and speed in km/h."""
    import csv
    header = ["time_s", "lat", "lon", "speed_kmh", "rsrp_dbm", "sinr_db",
              "dl_kbps", "tech", "cqi"]
    paths = []
    for c in range(3):
        rng = np.random.default_rng((31, c))
        n = 150 + 20 * c
        slots = [k for k in range(n) if k not in (20, 41, 42, 60, 61, 62)]
        if c == 1:
            slots = [k for k in slots if not 100 <= k < 110]
        rows = []
        for k in slots:
            copies = 2 if k % 17 == 3 else 1
            for _ in range(copies):
                t = 1700000000.0 + 0.5 * k + rng.uniform(-0.05, 0.05)
                tput = 20000.0 + 8000.0 * c + rng.normal(0.0, 3000.0)
                rows.append([repr(t), repr(45.0 + 1e-4 * k),
                             repr(-93.0 - 1e-4 * k),
                             repr(float(rng.uniform(0, 60))),
                             repr(-110.0 + 1e-3 * tput + rng.normal()),
                             repr(3.0 + 5e-4 * tput + rng.normal()),
                             repr(tput), "NR-NSA" if k % 2 else "LTE",
                             repr(float(rng.integers(0, 16)))])
        rows[30][6] = "NA"
        rows[45][4] = "-"
        rows[70][5] = "inf"
        rows[90][6] = "-5.0"
        if c == 2:
            rows.reverse()      # the loader sorts by timestamp
        path = tmp_path / f"cell{c}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        paths.append(path)
    return paths


# SHA-256 of the artifacts that `federate` then `analyze` write for
# _FILES_CONFIG over the logs of _write_field_traces.
_FILES_HASHES = {
    "checkpoints/client_cell0.ckpt": "6eb47befac13ca92828ee15ce819779e38291d63211c4102cbd570a07d4fa8fa",
    "checkpoints/client_cell1.ckpt": "2736ec3c1e92c2c90a18682b0fad53ef3265550a27c173d4ec993d8fe15e7fc3",
    "checkpoints/client_cell2.ckpt": "f4c8aae325c0678e18867118ac86ab66586176319ae484527e22160f5dc2b3df",
    "checkpoints/global.ckpt": "1a111de8887409d01770711ae7dd222d8de23a3eebe5db27d6551d3321b44c44",
    "correlations.csv": "e263ed39fff7ddd4b3fc2b74d3d8dff969a1fd611eb6b692a2387b23367ef926",
    "kde.csv": "a42a3dfb8791f881622f9fa45e33987968ce385cd7a4a2a58044afeec9daafe9",
    "rounds.csv": "d44893200759a325991d20e27f85fb25f87da415436f92d48bf91ee924858ffd",
    "summary.json": "ac27daa28499a73e59908636bf9dbd2fd75ed71fb02546a1622b3803bdd419a0",
}


def test_files_path_artifacts_match_golden_hashes(tmp_path):
    paths = _write_field_traces(tmp_path)
    mapping = tmp_path / "mapping.ini"
    mapping.write_text(_FILES_MAPPING)
    cfg_path = tmp_path / "files.ini"
    cfg_path.write_text(_FILES_CONFIG.format(
        files=", ".join(str(p) for p in paths), mapping=mapping))
    out = tmp_path / "run"
    for stage in ("federate", "analyze"):
        assert cli.run(cfg_path, stage, out=str(out)) == 0
    got = {p.relative_to(out).as_posix():
           hashlib.sha256(p.read_bytes()).hexdigest()
           for p in out.rglob("*")
           if p.is_file() and p.name != "config_echo.ini"}
    changed = sorted(k for k in got.keys() | _FILES_HASHES.keys()
                     if got.get(k) != _FILES_HASHES.get(k))
    assert not changed, f"artifacts differ from the golden hashes: {changed}"
