"""Aggregation strategies and federated round orchestration."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from fedcast import cli, fl, models
from fedcast.cli import SyntheticSpec, generate_synthetic
from fedcast.preprocess import PreprocessConfig, WindowConfig, \
    apply_scaler, build_windows, filter_trace, split_train_test


def _toy_spec(**kw):
    base = dict(arch="LSTM", in_features=6, history=5, horizon=1, hidden=8)
    base.update(kw)
    return models.ModelSpec(**base)


def _random_paramset(spec, seed):
    params = models.init_model(spec, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    for _, t, _ in params.entries:
        t.data[...] = rng.normal(size=t.data.shape)
    return params


def _clients(n=4, seed=11, length=140, h=5):
    traces = generate_synthetic(
        SyntheticSpec(n_clients=n, length=length, offset_min=10, offset_max=60,
                      period_min=20, period_max=50), seed=seed)
    pre = PreprocessConfig(filter_window=3)
    wc = WindowConfig(history=h, horizon=1)
    return [fl.build_client(tr, pre, wc, 0.8) for tr in traces]


@pytest.mark.parametrize("train_stride, eval_stride, horizon",
                         [(1, 1, 1), (2, 2, 3), (1, 3, 3), (2, 1, 1)])
def test_eval_windows_are_the_eval_stride_windows_of_the_test_span(
        train_stride, eval_stride, horizon):
    tr = generate_synthetic(SyntheticSpec(n_clients=1, length=120),
                            seed=5)[0]
    pre = PreprocessConfig(filter_window=3)
    wc = WindowConfig(history=5, horizon=horizon, train_stride=train_stride,
                      eval_stride=eval_stride)
    client = fl.build_client(tr, pre, wc, 0.8)
    scaled = apply_scaler(filter_trace(tr, pre), client.scaler)
    _, test = split_train_test(build_windows(scaled, wc, train_stride), 0.8)
    evals = build_windows(scaled, wc, eval_stride)
    want = evals[evals.anchor >= test.anchor[0]]
    assert client.test.anchor.tolist() == want.anchor.tolist()
    assert client.test.x.tobytes() == want.x.tobytes()
    assert client.test.y.tobytes() == want.y.tobytes()


# --- strategy / config invariants -------------------------------------------


def test_fedprox_requires_positive_mu():
    with pytest.raises(fl.FLError):
        fl.RoundConfig("FEDPROX", mu=0.0)
    with pytest.raises(fl.FLError):
        fl.RoundConfig("FEDAVG", mu=0.5)
    assert fl.RoundConfig("FEDPROX", mu=0.1).mu == 0.1


def test_round_config_validation():
    with pytest.raises(fl.FLError):
        fl.RoundConfig(strategy="FEDAVG", participation_fraction=0.0)
    with pytest.raises(fl.FLError):
        fl.RoundConfig(strategy="FEDAVG", total_rounds=-1)


# --- client sampling ---------------------------------------------------------


def test_sample_clients_85_percent_of_20():
    clients = list(range(20))
    rng = np.random.default_rng(0)
    assert len(fl.sample_clients(clients, 0.85, rng)) == 17


def test_sample_clients_full_participation():
    clients = list(range(7))
    rng = np.random.default_rng(0)
    assert sorted(fl.sample_clients(clients, 1.0, rng)) == clients


def test_sample_clients_deterministic():
    clients = list(range(30))
    a = fl.sample_clients(clients, 0.5, np.random.default_rng(42))
    b = fl.sample_clients(clients, 0.5, np.random.default_rng(42))
    assert a == b
    assert len(set(a)) == len(a) == 15


def test_sample_clients_empty():
    with pytest.raises(fl.FLError):
        fl.sample_clients([], 0.5, np.random.default_rng(0))


# --- FedAvg ------------------------------------------------------------------


def test_fedavg_symmetry_cancels():
    spec = _toy_spec()
    a = _random_paramset(spec, 1)
    b = a.copy()
    for _, t, _ in b.entries:
        t.data[...] = -t.data
    out = fl.aggregate_fedavg([(a, 5), (b, 5)])
    for _, t, _ in out.entries:
        assert np.allclose(t.data, 0.0, atol=1e-15)


def test_fedavg_weighted_mean_simple():
    spec = _toy_spec()
    zeros = models.init_model(spec, seed=0)
    ones = models.init_model(spec, seed=0)
    for _, t, _ in zeros.entries:
        t.data[...] = np.zeros_like(t.data)
    for _, t, _ in ones.entries:
        t.data[...] = np.ones_like(t.data)
    out = fl.aggregate_fedavg([(zeros, 10), (ones, 30)])
    for _, t, _ in out.entries:
        assert np.allclose(t.data, 0.75, atol=1e-15)


def test_fedavg_matches_per_coordinate_oracle():
    spec = _toy_spec()
    rng = np.random.default_rng(9)
    updates = [(_random_paramset(spec, s), int(rng.integers(1, 50)))
               for s in range(5)]
    out = fl.aggregate_fedavg(updates)
    total = sum(n for _, n in updates)
    for i, (name, t, _) in enumerate(out.entries):
        stack = np.stack([ps.entries[i][1].data for ps, _ in updates])
        weights = np.array([n for _, n in updates], dtype=float) / total
        oracle = np.tensordot(weights, stack, axes=1)
        denom = np.maximum(np.abs(oracle), 1e-30)
        assert np.max(np.abs(t.data - oracle) / denom) < 1e-12


def test_fedavg_identity_on_identical_updates():
    spec = _toy_spec()
    ps = _random_paramset(spec, 3)
    out = fl.aggregate_fedavg([(ps.copy(), 4), (ps.copy(), 9), (ps.copy(), 1)])
    for i, (_, t, _) in enumerate(out.entries):
        assert np.allclose(t.data, ps.entries[i][1].data, atol=1e-14)


def test_fedavg_convex_hull():
    spec = _toy_spec()
    updates = [(_random_paramset(spec, s), s + 1) for s in range(4)]
    out = fl.aggregate_fedavg(updates)
    for i, (_, t, _) in enumerate(out.entries):
        stack = np.stack([ps.entries[i][1].data for ps, _ in updates])
        assert (t.data >= stack.min(axis=0) - 1e-12).all()
        assert (t.data <= stack.max(axis=0) + 1e-12).all()


def test_fedavg_weight_zero_neutrality():
    spec = _toy_spec()
    updates = [(_random_paramset(spec, s), 3 + s) for s in range(3)]
    ghost = (_random_paramset(spec, 99), 0)
    base = fl.aggregate_fedavg(updates)
    with_ghost = fl.aggregate_fedavg(updates + [ghost])
    for (_, a, _), (_, b, _) in zip(base.entries, with_ghost.entries):
        assert np.array_equal(a.data, b.data)


def test_fedavg_zero_weight_update_takes_no_part():
    spec = _toy_spec()
    updates = [(_random_paramset(spec, s), 3 + s) for s in range(3)]
    ghost = _random_paramset(spec, 99)
    for _, t, _ in ghost.entries:
        t.data[...] = np.full_like(t.data, np.inf)
    ghost.entries[0][1].data[...] = np.nan
    base = fl.aggregate_fedavg(updates)
    with_ghost = fl.aggregate_fedavg([updates[0], (ghost, 0)] + updates[1:])
    assert with_ghost.to_bytes() == base.to_bytes()


def test_fedavg_structural_mismatch():
    a = _random_paramset(_toy_spec(), 0)
    b = _random_paramset(_toy_spec(hidden=4), 0)
    with pytest.raises(fl.FLError):
        fl.aggregate_fedavg([(a, 1), (b, 1)])


def test_fedavg_requires_positive_total():
    a = _random_paramset(_toy_spec(), 0)
    with pytest.raises(fl.FLError):
        fl.aggregate_fedavg([(a, 0)])


# --- FedBN -------------------------------------------------------------------


def _bn_entries(params):
    return [i for i, (_, _, is_bn) in enumerate(params.entries) if is_bn]


def test_fedbn_degenerates_to_fedavg_without_bn():
    spec = _toy_spec(use_batchnorm=False)
    updates = [(_random_paramset(spec, s), s + 2) for s in range(3)]
    avg = fl.aggregate_fedavg(updates)
    idle = (_random_paramset(spec, 9), 0)
    merged = fl.aggregate_fedbn(updates + [idle],
                                _bn_entries(updates[0][0]))
    assert len(merged) == 4
    for client_ps in merged:
        for (_, a, _), (_, b, _) in zip(client_ps.entries, avg.entries):
            assert np.array_equal(a.data, b.data)


def test_fedbn_keeps_bn_blocks_bitwise():
    # the idle model weighs 0: it takes no part in the average but gets
    # its own batch-norm entries back, as the global model does in a round
    spec = _toy_spec()
    updates = [(_random_paramset(spec, s), 2 * s + 1) for s in range(4)]
    idle = _random_paramset(spec, 9)
    merged = fl.aggregate_fedbn(updates + [(idle, 0)], _bn_entries(idle))
    avg = fl.aggregate_fedavg(updates)
    owners = [ps for ps, _ in updates] + [idle]
    assert len(merged) == len(owners)
    for orig, merged_ps in zip(owners, merged):
        for i, (name, t, is_bn) in enumerate(merged_ps.entries):
            expected = orig if is_bn else avg
            assert np.array_equal(t.data, expected.entries[i][1].data), name


# --- rounds ------------------------------------------------------------------


def test_single_client_round_equals_local_training():
    clients = _clients(n=1)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=1,
                        participation_fraction=1.0, seed=3)
    global_params = models.init_model(spec, seed=(rc.seed, 7700))
    clients[0].params = global_params.copy()

    (expected,), _ = models.local_train(
        spec, [global_params.copy()], [clients[0].train], tc,
        rng=[np.random.default_rng((rc.seed, 7702, 0, 0))])

    new_global, report = fl.run_round(clients, global_params, rc, tc, spec,
                                      round_index=0)
    assert new_global.to_bytes() == expected.to_bytes()
    assert report.participants == [clients[0].client_id]


def test_round_replay_determinism():
    def run_once():
        clients = _clients(n=4)
        spec = _toy_spec()
        tc = models.TrainConfig(learning_rate=0.01, batch_size=16,
                                local_epochs=1)
        rc = fl.RoundConfig(strategy="FEDBN", total_rounds=3,
                            participation_fraction=0.85, seed=21)
        reports, global_params = fl.run_experiment(clients, rc, tc, spec)
        return reports, global_params

    r1, g1 = run_once()
    r2, g2 = run_once()
    assert g1.to_bytes() == g2.to_bytes()
    for a, b in zip(r1, r2):
        assert a.participants == b.participants
        assert a.metrics == b.metrics
        assert a.mean_r2 == b.mean_r2


def test_fedbn_round_preserves_client_bn_state():
    clients = _clients(n=3)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    rc = fl.RoundConfig(strategy="FEDBN", total_rounds=2,
                        participation_fraction=1.0, seed=5)
    fl.run_experiment(clients, rc, tc, spec)
    # after the run, clients' non-BN blocks are identical, BN blocks are not
    base = clients[0].params
    for other in clients[1:]:
        for (n1, t1, b1), (n2, t2, b2) in zip(base.entries, other.params.entries):
            if not b1:
                assert np.array_equal(t1.data, t2.data)
    gammas = [c.params.get("bn.gamma").data for c in clients]
    assert not all(np.array_equal(gammas[0], g) for g in gammas[1:])


def test_zero_rounds_returns_initial_params():
    clients = _clients(n=2)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01)
    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=0,
                        seed=1)
    reports, global_params = fl.run_experiment(clients, rc, tc, spec)
    assert reports == []
    assert global_params.to_bytes() == \
        models.init_model(spec, seed=(1, 7700)).to_bytes()


def test_constant_test_span_raises_before_the_first_round(monkeypatch):
    # the third client's throughput is flat over its test span; the
    # experiment names it before any client trains
    clients = _clients(n=3)
    flat = clients[2].test
    flat.y[:] = flat.y[0]

    def no_training(*args, **kwargs):
        raise AssertionError("trained before the check")

    monkeypatch.setattr(fl, "local_train", no_training)
    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=1)
    with pytest.raises(fl.FLError, match=f"client {clients[2].client_id}"):
        fl.run_experiment(clients, rc,
                          models.TrainConfig(learning_rate=0.01), _toy_spec())


def test_all_clients_evaluated_under_partial_participation():
    clients = _clients(n=4)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=1,
                        participation_fraction=0.5, seed=9)
    reports, _ = fl.run_experiment(clients, rc, tc, spec)
    report = reports[0]
    assert len(report.participants) == 2
    assert set(report.metrics) == {c.client_id for c in clients}


def test_diverged_client_is_excluded(monkeypatch):
    clients = _clients(n=3)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    bad = clients[1]
    real_local_train = fl.local_train

    updates = []
    cohorts = []

    def flaky(spec_, params_, windows, cfg, global_anchor=None, rng=None):
        # the three clients train as one cohort; the bad client's copy
        # forecasts 1e300, so its loss is not finite at the first step and
        # it is dropped from the cohort while the others train on
        cohorts.append(len(windows))
        for params, w in zip(params_, windows):
            if w is bad.train:
                params.get("head.b").data[:] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            trained, loss = real_local_train(
                spec_, params_, windows, cfg, global_anchor=global_anchor,
                rng=rng)
        updates.extend((params.copy(), len(w))
                       for params, w in zip(trained, windows)
                       if params is not None)
        return trained, loss

    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=1,
                        participation_fraction=1.0, seed=4)
    global_params = models.init_model(spec, seed=(rc.seed, 7700))
    for c in clients:
        c.params = global_params.copy()
    monkeypatch.setattr(fl, "local_train", flaky)
    _, report = fl.run_round(clients, global_params, rc, tc, spec)
    assert report.diverged == [bad.client_id] and cohorts == [3]
    assert set(report.metrics) == {c.client_id for c in clients}

    # under FedBN the diverged client keeps its own pre-round batch-norm
    # entries and takes the average of the others everywhere else
    rc = replace(rc, strategy="FEDBN")
    for c in clients:
        c.params = global_params.copy()
    monkeypatch.setattr(fl, "local_train", real_local_train)
    global_params, _ = fl.run_round(clients, global_params, rc, tc, spec)
    before = bad.params.copy()
    updates.clear()
    monkeypatch.setattr(fl, "local_train", flaky)
    new_global, report = fl.run_round(clients, global_params, rc, tc, spec,
                                      round_index=1)
    assert report.diverged == [bad.client_id] and len(updates) == 2
    average = fl.aggregate_fedavg(updates)
    for i, (name, t, is_bn) in enumerate(bad.params.entries):
        want = before if is_bn else average
        assert t.data.tobytes() == want.entries[i][1].data.tobytes(), name
    gamma = bad.params.get("bn.gamma").data
    assert not np.array_equal(gamma, clients[0].params.get("bn.gamma").data)


def test_report_rows_format():
    clients = _clients(n=2)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=1,
                        participation_fraction=1.0, seed=2)
    reports, _ = fl.run_experiment(clients, rc, tc, spec)
    rows = list(reports[0].rows())
    assert len(rows) == 2
    for rnd, cid, r2, m, part in rows:
        assert rnd == 0 and part in (0, 1)
        assert isinstance(r2, float) and isinstance(m, float)


def test_running_stats_stay_local_when_not_aggregated(monkeypatch):
    clients = _clients(n=3)
    spec = _toy_spec()
    tc = models.TrainConfig(learning_rate=0.01, batch_size=16, local_epochs=1)
    rc = fl.RoundConfig(strategy="FEDAVG", total_rounds=1,
                        participation_fraction=0.5, seed=6,
                        aggregate_running_stats=False)
    global_params = models.init_model(spec, seed=(rc.seed, 7700))
    for c in clients:
        c.params = global_params.copy()
    new_global, report = fl.run_round(clients, global_params, rc, tc, spec)
    assert len(report.participants) == 2

    stats = [i for i, (_, t, is_bn) in enumerate(global_params.entries)
             if is_bn and not t.requires_grad]
    assert stats
    for i, (name, t, _) in enumerate(new_global.entries):
        if i in stats:  # the global keeps the previous global's statistics
            assert np.array_equal(t.data, global_params.entries[i][1].data)
        for c in clients:  # the rest, BN scale and shift included, agree
            if i not in stats:
                assert np.array_equal(c.params.entries[i][1].data,
                                      t.data), name
    running_means = {c.client_id: c.params.get("bn.running_mean").data
                     for c in clients}
    idle = [cid for cid in running_means if cid not in report.participants]
    assert np.array_equal(running_means[idle[0]],
                          global_params.get("bn.running_mean").data)
    a, b = (running_means[cid] for cid in report.participants)
    assert not np.array_equal(a, b)

    # the next round trains each participant from its own statistics
    broadcasts = {}
    real_train = fl.local_train

    def recording(spec, params, train, *args, **kwargs):
        # one call per cohort: a list of params and one of train sets
        for member, windows in zip(params, train):
            broadcasts[id(windows)] = member.copy()
        return real_train(spec, params, train, *args, **kwargs)

    monkeypatch.setattr(fl, "local_train", recording)
    own = {id(c.train): c.params.copy() for c in clients}
    second_global, report = fl.run_round(clients, new_global, rc, tc, spec,
                                         round_index=1)
    assert len(broadcasts) == 2
    carried_own = False
    for key, sent in broadcasts.items():
        for i, (name, t, _) in enumerate(sent.entries):
            want = own[key] if i in stats else new_global
            assert np.array_equal(t.data, want.entries[i][1].data), name
            if i in stats:
                carried_own |= not np.array_equal(
                    t.data, new_global.entries[i][1].data)
    assert carried_own


_COHORT_CONFIG = """\
[experiment]
seed = 8
out_dir = unused

[data]
source = files
files = {files}

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
local_epochs = 2

[rounds]
{rounds}
total_rounds = 3
participation = 0.8
"""


@pytest.mark.parametrize("strategy", ["FEDAVG", "FEDBN", "FEDPROX"])
def test_cohort_rounds_write_the_bytes_of_per_client_rounds(
        tmp_path, monkeypatch, strategy):
    """Trace files of three lengths: LSTM participants train in cohorts of
    one train length, in several calls per round, and every artifact is
    byte-equal to that of rounds that train one client per call."""
    from fedcast.trace import ClientTrace, export_trace
    traces = generate_synthetic(
        SyntheticSpec(n_clients=5, length=130, offset_min=10, offset_max=60,
                      period_min=20, period_max=50), seed=12)
    paths = []
    for tr, length in zip(traces, (90, 110, 90, 130, 110)):
        path = tmp_path / f"{tr.client_id}.csv"
        export_trace(ClientTrace(tr.client_id, tr.dataset_tag,
                                 {k: v[:length] for k, v in tr.columns.items()}),
                     path)
        paths.append(str(path))
    cfg = tmp_path / "cohorts.ini"
    cfg.write_text(_COHORT_CONFIG.format(files=", ".join(paths),
                                         rounds=_MATRIX_ROUNDS[strategy]))
    real_local_train = fl.local_train
    sizes = []

    def recording(spec, params, *args, **kwargs):
        sizes.append(len(params))
        return real_local_train(spec, params, *args, **kwargs)

    def artifacts(out):
        assert cli.run(cfg, "federate", out=str(out)) == 0
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in out.rglob("*") if p.is_file()}

    monkeypatch.setattr(fl, "local_train", recording)
    cohorts = artifacts(tmp_path / "cohorts")
    assert max(sizes) >= 2 and len(sizes) > 3   # several calls of 3 rounds
    monkeypatch.setattr(fl, "_cohorts", lambda spec, clients, participants:
                        [[k] for k in participants])
    sizes.clear()
    each = artifacts(tmp_path / "each")
    assert sizes == [1] * 12    # 4 of 5 clients in each of 3 rounds
    assert len(cohorts) == 9 and cohorts == each   # 6 checkpoints, 3 files


# --- artifacts of every strategy path ----------------------------------------

_MATRIX_CONFIG = """\
[experiment]
seed = 17
out_dir = unused

[data]
source = synthetic

[synthetic]
n_clients = 5
length = 90
offset_min = 10
offset_max = 60
period_min = 20
period_max = 50

[preprocess]
filter_window = 3

[window]
history = 5
horizon = 1

[model]
arch = {arch}
hidden = 8
conv_channels = 4,4

[train]
learning_rate = 0.01
batch_size = 16
local_epochs = 1

[rounds]
{rounds}
total_rounds = 3
participation = 0.5
"""

_MATRIX_ROUNDS = {
    "FEDAVG": "strategy = FEDAVG",
    "FEDAVG_LOCAL_STATS": "strategy = FEDAVG\naggregate_running_stats = false",
    "FEDPROX": "strategy = FEDPROX\nmu = 0.05",
    "FEDBN": "strategy = FEDBN",
}

# SHA-256 over every artifact `federate` writes for _MATRIX_CONFIG (path,
# NUL, bytes, in path order). Three of five clients train in each round, so
# the idle clients, the FedProx anchor and the client-local running
# statistics all reach the checkpoints. A change that alters any output
# must update this table and say why.
_MATRIX_HASHES = {
    ("LSTM", "FEDAVG"): "e45906b603458ea5982e2de72d56a5b0993684943de141cb09cfc8696d73760d",
    ("LSTM", "FEDAVG_LOCAL_STATS"): "f0d66848aabfddd78b5d62ade7c8f89f817d3d0fe8d4a30954ce1283cf4dc548",
    ("LSTM", "FEDPROX"): "5f2753d8e685ff47fcbcf7865db7addf2a0d34a145a08febfd3e19b4606b6562",
    ("LSTM", "FEDBN"): "ae0be39ccaedff39bf94907fbad274fba66ecc61b84ff10d18ee81de97fa1a80",
    ("CNN", "FEDAVG"): "84382a7546193a7d3754228c97a384a2a6402f3bd75b7f2066a27c73897c9d99",
    ("CNN", "FEDAVG_LOCAL_STATS"): "37650a3f113efe861b0cad01ac15852b0103a675997d4f74d61f399c40132af8",
    ("CNN", "FEDPROX"): "a05b5c7c82d7af63b9364f7afad6e55dada9a5543aa21f1caa65c879c75f61b5",
    ("CNN", "FEDBN"): "eef6898e51b3266583a03c9ddec836014f393bd4d0fe5473a7cf16c0cf6ae213",
    ("LSTM_CNN", "FEDAVG"): "4795f8551265e1dbfe125afc84ed11d023a446a0839bc611aeedcc774ed83331",
    ("LSTM_CNN", "FEDAVG_LOCAL_STATS"): "08336c61dac5fdd48d522ddf9881d2399588e3a5fbd57497cf74675268557520",
    ("LSTM_CNN", "FEDPROX"): "4bfceec0d5c8a05ba318c050fbe2538f9d408404c1728a2cdead376ee69a9480",
    ("LSTM_CNN", "FEDBN"): "1f6dd3882407a0fb23d5f4b98a0907c8f3105f04d766ef9b7aba000a354ea2cf",
    ("TRANSFORMER", "FEDAVG"): "a7057b4be0917d9a7efa21c041d2b799dfb49eb0369987b7991231e4ff423858",
    ("TRANSFORMER", "FEDAVG_LOCAL_STATS"): "4a3b796eb8b881eb01717fad609baea9969e5e56529bb39e97f9a7dae9587873",
    ("TRANSFORMER", "FEDPROX"): "5066b8d37b41dbadf9323e07787efff56fe91c40f940da46a08a32f1f8212ed8",
    ("TRANSFORMER", "FEDBN"): "ff87ad6ca7d0bc186692947dae71d74db68f9eaaf0f41fdf95abda4d321d2160",
}


@pytest.mark.parametrize("arch, strategy", sorted(_MATRIX_HASHES))
def test_strategy_artifacts_match_golden_hashes(tmp_path, arch, strategy):
    cfg_path = tmp_path / "matrix.ini"
    cfg_path.write_text(_MATRIX_CONFIG.format(
        arch=arch, rounds=_MATRIX_ROUNDS[strategy]))
    out = tmp_path / "run"
    assert cli.run(cfg_path, "federate", out=str(out)) == 0
    digest = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file())
    for p in files:
        digest.update(p.relative_to(out).as_posix().encode() + b"\0"
                      + p.read_bytes())
    assert len(files) == 9      # 5 client + 1 global checkpoint, 3 files
    assert digest.hexdigest() == _MATRIX_HASHES[arch, strategy]
