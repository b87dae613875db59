"""Streaming simulator: QoE arithmetic, MPC selection, session dynamics."""

import math
import sys

import numpy as np
import pytest

from fedcast import models, stream
from fedcast.cli import SyntheticSpec, generate_synthetic
from fedcast.preprocess import (PreprocessConfig, ScalerState, WindowConfig,
                                apply_scaler, build_windows, filter_trace,
                                fit_scaler, model_inputs)
from fedcast.stream import (ConstantPredictor, HarmonicMeanPredictor,
                            ModelPredictor, OraclePredictor, QoECoefficients, SegmentRecord,
                            StreamConfig, StreamError,
                            compute_qoe, latency_penalty, mpc_select_bitrate,
                            quality_table, simulate_session)


# --- Q and psi ---------------------------------------------------------------


def _quality(ladder_kbps):
    """Q of each rate of the ladder, at R_min = 300 kbps."""
    return quality_table(StreamConfig(ladder_kbps=ladder_kbps),
                         QoECoefficients(r_min_kbps=300.0))


def test_quality_at_rmin_is_zero():
    assert _quality((300.0, 600.0))[0] == 0.0


def test_quality_doubling():
    assert abs(_quality((300.0, 600.0))[1] - math.log(2)) < 1e-12


def test_quality_ladder_top():
    assert abs(_quality((300.0, 6000.0))[-1] - math.log(20)) < 1e-12


def test_quality_below_rmin_rejected():
    with pytest.raises(StreamError):
        _quality((200.0, 600.0))


def test_latency_penalty_zero_at_zero():
    for omega in (1.0, 4.0, 10.0):
        assert latency_penalty(0.0, omega) == 0.0


def test_largest_finite_omega_is_the_bound():
    # psi takes exp(omega - l), l >= 0: the largest omega whose exp is
    # finite is accepted, the next float is refused
    omega = math.log(sys.float_info.max)
    assert QoECoefficients(omega=omega).omega == omega
    for lat in (0.0, 1.0, 1e6):
        assert math.isfinite(latency_penalty(lat, omega))
    with pytest.raises(StreamError, match="omega"):
        QoECoefficients(omega=math.nextafter(omega, math.inf))


def test_latency_penalty_limit():
    omega = 4.0
    asymptote = 1.0 - 1.0 / (1.0 + math.exp(omega))
    assert abs(latency_penalty(1e6, omega) - asymptote) < 1e-12


def test_latency_penalty_midpoint():
    omega = 4.0
    assert abs(latency_penalty(omega, omega)
               - (0.5 - 1.0 / (1.0 + math.exp(omega)))) < 1e-12


def test_latency_penalty_monotone():
    grid = np.linspace(0.0, 12.0, 200)
    vals = [latency_penalty(l, 4.0) for l in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_latency_penalty_rejects_negative():
    with pytest.raises(StreamError):
        latency_penalty(-0.1, 4.0)


# --- compute_qoe -------------------------------------------------------------


def _seg(i, quality=0.0, played=5, stall=0.0, latency=0.0, skipped=0.0):
    return SegmentRecord(index=i, quality=quality, played_chunks=played,
                         stall=stall, latency=latency, skipped=skipped)


def test_qoe_single_segment_at_rmin():
    b = compute_qoe([_seg(0, quality=0.0)], QoECoefficients())
    assert b.qoe == 0.0


def test_qoe_single_segment_quality_only():
    rate = 2000.0
    q = math.log(rate / 300.0)
    b = compute_qoe([_seg(0, quality=q)], QoECoefficients())
    assert abs(b.qoe - 0.2 * q) < 1e-12


def test_qoe_three_segment_hand_sum():
    co = QoECoefficients()
    q1, q2 = math.log(1000 / 300), math.log(2000 / 300)
    records = [_seg(0, quality=q1, latency=2.0),
               _seg(1, quality=q1, stall=0.5, latency=2.5),
               _seg(2, quality=q2, latency=3.0)]
    b = compute_qoe(records, co)
    quality = (q1 + q1 + q2) / 3
    stall = 0.5 / 3
    switch = abs(q2 - q1) / 3
    lat = sum(latency_penalty(l, co.omega) for l in (2.0, 2.5, 3.0)) / 3
    expected = co.mu1 * quality - co.mu2 * stall - co.mu3 * switch - co.mu4 * lat
    assert abs(b.qoe - expected) < 1e-12
    assert b.n_segments == 3


def test_qoe_empty_session_rejected():
    with pytest.raises(StreamError):
        compute_qoe([], QoECoefficients())


def test_qoe_switch_bridges_unplayed_segments():
    co = QoECoefficients(mu1=0, mu2=0, mu4=0, mu5=0)
    records = [_seg(0, quality=1.0), _seg(1, quality=0.0, played=0),
               _seg(2, quality=3.0)]
    b = compute_qoe(records, co)
    assert abs(b.switch - 2.0 / 3) < 1e-12
    assert abs(b.qoe + co.mu3 * 2.0 / 3) < 1e-12


# --- MPC selection -----------------------------------------------------------


def _state(buffer=2.0, latency=2.0):
    """The (buffer, latency) a decision is taken from."""
    return buffer, latency


def test_mpc_plentiful_capacity_picks_top():
    cfg = StreamConfig()
    co = QoECoefficients()
    pred = np.full(5, 2 * 6000.0)  # Kbps, twice the top rung
    idx = mpc_select_bitrate(*_state(), pred, cfg, co, prev_rate_idx=5)
    assert idx == len(cfg.ladder_kbps) - 1


def test_mpc_starved_capacity_picks_bottom():
    cfg = StreamConfig()
    co = QoECoefficients()
    pred = np.full(5, 100.0)  # below the lowest rung
    idx = mpc_select_bitrate(*_state(buffer=0.5), pred, cfg, co)
    assert idx == 0


def test_mpc_horizon_one_two_rung_hand_oracle():
    cfg = StreamConfig(ladder_kbps=(300.0, 1200.0), mpc_horizon=1,
                       rtt_overhead=0.05)
    co = QoECoefficients()
    pred = np.array([800.0])
    buf0, lat0 = 0.3, 2.5
    psi0 = 1.0 / (1.0 + math.exp(co.omega))

    def score(rate):
        q = math.log(rate / 300.0)
        d = 0.05 + rate * 0.2 / 800.0
        stall = max(0.0, d - buf0)
        buf = max(0.0, buf0 - d) + 0.2
        lat = lat0 + stall
        psi = 1.0 / (1.0 + math.exp(co.omega - lat)) - psi0
        s = (co.mu1 * q - co.mu4 * psi) / 5 - co.mu2 * stall
        return s - co.mu2 * max(0.0, buf0 - buf)

    want = 0 if score(300.0) >= score(1200.0) else 1
    got = mpc_select_bitrate(*_state(buffer=buf0, latency=lat0), pred, cfg, co)
    assert got == want
    # the hand scores genuinely order the two rungs
    assert abs(score(300.0) - score(1200.0)) > 1e-9


def test_mpc_rejects_short_prediction():
    cfg = StreamConfig()
    with pytest.raises(StreamError):
        mpc_select_bitrate(*_state(), np.ones(3), cfg, QoECoefficients())


def test_mpc_exhaustive_enumeration_oracle():
    # tie the implementation to an independent itertools enumeration
    import itertools
    cfg = StreamConfig(ladder_kbps=(300.0, 800.0, 2500.0), mpc_horizon=3,
                       rtt_overhead=0.02)
    co = QoECoefficients()
    rng = np.random.default_rng(0)
    for _ in range(20):
        pred = rng.uniform(200, 4000, 3)
        buf0 = float(rng.uniform(0, 3))
        lat0 = float(rng.uniform(1, 4))
        prev = int(rng.integers(-1, 3))
        psi0 = 1.0 / (1.0 + math.exp(co.omega))
        best_score, best_first = -1e18, None
        for seq in itertools.product(range(3), repeat=3):
            buf, lat, qp, s = buf0, lat0, prev, 0.0
            for j, r in enumerate(seq):
                rate = cfg.ladder_kbps[r]
                q = math.log(rate / co.r_min_kbps)
                d = 0.02 + rate * 0.2 / pred[j]
                stall = max(0.0, d - buf)
                buf = max(0.0, buf - d) + 0.2
                lat += stall
                sw = abs(q - math.log(cfg.ladder_kbps[qp] / co.r_min_kbps)) \
                    if qp >= 0 else 0.0
                psi = 1.0 / (1.0 + math.exp(co.omega - lat)) - psi0
                s += (co.mu1 * q - co.mu3 * sw - co.mu4 * psi) / 5 \
                    - co.mu2 * stall
                qp = r
            s -= co.mu2 * max(0.0, buf0 - buf)
            if s > best_score + 1e-12:
                best_score, best_first = s, seq[0]
        got = mpc_select_bitrate(*_state(buffer=buf0, latency=lat0), pred, cfg,
                                 co, prev_rate_idx=prev)
        assert got == best_first


# --- sessions ----------------------------------------------------------------


def test_infinite_capacity_session():
    cfg = StreamConfig(session_len=30, rtt_overhead=0.0)
    co = QoECoefficients()
    trace = np.full(40, 1e6)
    res = simulate_session(trace, OraclePredictor(trace), cfg, co)
    assert res.stall_time == 0.0
    assert not res.truncated
    # controller settles at the top rung
    rates = list(res.chunk_rates.values())
    assert all(r == len(cfg.ladder_kbps) - 1 for r in rates)
    # latency stays at the playback threshold after startup
    lat_events = [e[5] for e in res.events if e[1] == "download_done"]
    assert max(lat_events) <= cfg.playback_threshold + 0.01
    assert res.breakdown.stall == 0.0 and res.breakdown.skip == 0.0


def test_zero_capacity_tail_hand_computed():
    # 20 s toy trace: 50 Mbps for 10 s, then zero; one-rung ladder so the
    # whole timeline is hand-computable.
    cfg = StreamConfig(ladder_kbps=(1000.0,), session_len=20, rtt_overhead=0.0)
    co = QoECoefficients(r_min_kbps=1000.0)
    trace = np.array([50.0] * 10 + [0.0] * 10)
    res = simulate_session(trace, OraclePredictor(trace), cfg, co)

    # hand timeline: 10 startup chunks of 0.004 s -> playback starts at 0.04
    # with position 1.0; downloads then track the encoder (dl time 0.004 s)
    # until throughput dies at t=10 with the download frontier at 12.8 s of
    # media and position 10.96; the buffer (1.84 s) drains dry at 11.84;
    # stall until latency hits 5.0 at wall 14.8 (2.96 s of stall); the skip
    # restores latency to ~2 and skip-recovery waits until the trace ends.
    assert res.truncated
    assert abs(res.startup_wall - 0.04) < 1e-9
    assert abs(res.stall_time - 2.96) < 1e-6
    assert abs(res.played_time - 11.8) < 1e-6
    assert abs(res.skip_wait_time - 5.2) < 1e-6
    assert abs(res.end_wall - 20.0) < 1e-9
    eta = sum(r.skipped for r in res.records)
    assert abs(eta - 7.2) < 1e-6


def test_session_determinism_bitwise():
    rng = np.random.default_rng(7)
    trace = np.clip(8 + 4 * np.sin(np.arange(60) / 6) +
                    rng.normal(0, 2, 60), 0.2, None)
    cfg = StreamConfig(session_len=50)
    co = QoECoefficients()

    def run():
        return simulate_session(trace, HarmonicMeanPredictor(), cfg, co)

    a, b = run(), run()
    assert a.breakdown == b.breakdown
    assert a.events == b.events
    assert a.chunk_rates == b.chunk_rates


def test_decomposition_identity_and_time_conservation():
    rng = np.random.default_rng(3)
    cfg = StreamConfig(session_len=40)
    co = QoECoefficients()
    for seed in range(4):
        rng = np.random.default_rng(seed)
        # bursty trace with hard dips to exercise stalls and skips
        base = np.clip(6 + 5 * np.sin(np.arange(55) / 4 + seed), 0.3, None)
        base[20:24] = 0.05
        trace = np.clip(base + rng.normal(0, 1, 55), 0.01, None)
        res = simulate_session(trace, HarmonicMeanPredictor(), cfg, co)
        b = res.breakdown
        recomputed = (co.mu1 * b.quality - co.mu2 * b.stall - co.mu3 * b.switch
                      - co.mu4 * b.latency - co.mu5 * b.skip)
        assert abs(recomputed - b.qoe) < 1e-9
        # played + stall + skip-recovery partition the post-startup wall clock
        elapsed = res.end_wall - res.startup_wall
        total = res.played_time + res.stall_time + res.skip_wait_time
        assert abs(elapsed - total) < cfg.chunk_dur


def test_selected_rates_are_ladder_members():
    rng = np.random.default_rng(11)
    trace = np.clip(rng.normal(4, 3, 45), 0.05, None)
    cfg = StreamConfig(session_len=35)
    res = simulate_session(trace, HarmonicMeanPredictor(), cfg,
                           QoECoefficients())
    for idx in res.chunk_rates.values():
        assert 0 <= idx < len(cfg.ladder_kbps)


def test_oracle_on_matching_rung_never_selects_above():
    cfg = StreamConfig(session_len=30, rtt_overhead=0.0)
    co = QoECoefficients()
    trace = np.full(40, 2.0)  # exactly the 2000 Kbps rung
    res = simulate_session(trace, OraclePredictor(trace), cfg, co)
    matching = cfg.ladder_kbps.index(2000.0)
    # chunks past the join backlog are decided after playback started
    after_startup = [idx for ci, idx in res.chunk_rates.items()
                     if ci * cfg.chunk_dur >= 3.0]
    assert after_startup
    assert all(idx <= matching for idx in after_startup)


def test_trace_shorter_than_session_rejected():
    with pytest.raises(StreamError):
        simulate_session(np.ones(20), ConstantPredictor(1.0),
                         StreamConfig(session_len=30), QoECoefficients())


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_session_rejects_a_non_finite_or_negative_prediction(bad):
    with pytest.raises(StreamError, match="predicted throughput"):
        simulate_session(np.full(40, 2.0), ConstantPredictor(bad),
                         StreamConfig(session_len=30), QoECoefficients())


class _CountingPredictor:
    """The harmonic predictor, recording each call's `now` in `log` and
    forecasting `bad` at second `bad_at`."""

    def __init__(self, log, bad_at=None, bad=-1.0):
        self.log, self.bad_at, self.bad = log, bad_at, bad

    def __call__(self, observed, horizon):
        now = len(observed) - 1
        self.log.append(("predict", now))
        if now == self.bad_at:
            return np.full(horizon, self.bad)
        return HarmonicMeanPredictor()(observed, horizon)


def _outage_session(predictor, monkeypatch, log):
    """A 0.8-8 Mbps session with outages at MPC horizon 6, each decision
    logged as ("decide", pred_chunk_kbps)."""
    select = stream.mpc_select_bitrate

    def spy(buffer, latency, pred_chunk_kbps, *args):
        log.append(("decide", pred_chunk_kbps))
        return select(buffer, latency, pred_chunk_kbps, *args)
    monkeypatch.setattr(stream, "mpc_select_bitrate", spy)
    rng = np.random.default_rng(4)
    trace = rng.uniform(0.8, 8.0, 40)
    trace[[6, 7, 15, 16, 17, 28]] = 0.0
    return simulate_session(trace, predictor, StreamConfig(
        session_len=30, mpc_horizon=6), QoECoefficients())


def test_session_asks_the_predictor_once_per_second(monkeypatch):
    log = []
    res = _outage_session(_CountingPredictor(log), monkeypatch, log)
    nows = [now for kind, now in log if kind == "predict"]
    decisions = [ev[0] for ev in res.events if ev[1] == "rate_select"]
    # once per distinct `now`, in order, and every second with a decision
    assert nows == sorted(set(nows))
    assert set(nows) == {min(int(t), 39) for t in decisions}
    assert len(decisions) > 3 * len(nows)
    assert res.stall_time > 0.0


def test_session_hands_the_mpc_a_read_only_forecast(monkeypatch):
    log = []
    _outage_session(_CountingPredictor(log), monkeypatch, log)
    forecasts = [pred for kind, pred in log if kind == "decide"]
    assert len(forecasts) > 100
    for pred in forecasts:
        assert not pred.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pred[0] = 0.0
    # the decisions of one second share its forecast
    assert len({id(pred) for pred in forecasts}) < len(forecasts) / 3


@pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
def test_bad_forecast_at_a_later_second_raises_at_its_first_decision(
        monkeypatch, bad):
    log = []
    with pytest.raises(StreamError, match="negative or non-finite predicted"):
        _outage_session(_CountingPredictor(log, bad_at=12, bad=bad),
                        monkeypatch, log)
    # the bad second's first call raised before its decision; every
    # earlier second was decided
    assert log[-1] == ("predict", 12)
    assert ("predict", 12) not in log[:-1]
    assert log[-2][0] == "decide"
    assert sum(kind == "decide" for kind, _ in log) > 20


def test_config_validation():
    with pytest.raises(StreamError):
        StreamConfig(ladder_kbps=())
    with pytest.raises(StreamError):
        StreamConfig(ladder_kbps=(500.0, 300.0))
    with pytest.raises(StreamError):
        StreamConfig(start_after=4, join_prefetch_max=3)
    with pytest.raises(StreamError):
        QoECoefficients(mu2=-1.0)


def test_harmonic_mean_predictor():
    pred = HarmonicMeanPredictor(window=3)
    out = pred(np.array([0.0, 2.0, 4.0, 4.0]), 2)
    hm = 3 / (1 / 2 + 1 / 4 + 1 / 4)
    assert np.allclose(out, hm)
    assert np.array_equal(pred(np.zeros(5), 3), np.zeros(3))


def test_oracle_predictor_reads_future():
    trace = np.arange(10.0)
    pred = OraclePredictor(trace)
    out = pred(trace[:4], 3)  # now = index 3
    assert np.array_equal(out, [4.0, 5.0, 6.0])
    tail = pred(trace[:9], 3)
    assert np.array_equal(tail, [9.0, 9.0, 9.0])


def test_model_predictor_forecasts_once_per_now(monkeypatch):
    spec = models.ModelSpec(arch="LSTM", in_features=3, history=4, horizon=2,
                            hidden=4)
    params = models.init_model(spec, seed=0)
    rng = np.random.default_rng(0)
    scaler = ScalerState(kind="minmax", params={"throughput": (1.0, 20.0)})
    calls = []
    real_forward = models.forward

    def counting(*args, **kwargs):
        calls.append(args[2].shape)
        return real_forward(*args, **kwargs)

    monkeypatch.setattr(models, "forward", counting)
    pred = ModelPredictor(spec, params,
                          np.vstack([rng.uniform(size=(2, 30)),
                                     rng.uniform(size=30)]), scaler)
    trace = rng.uniform(1.0, 20.0, size=30)
    nows = (4, 9, 29)
    for now in nows:
        first = pred(trace[:now + 1], 3)
        first_copy = first.copy()
        first[:] = -1.0  # the caller owns what it gets
        second = pred(trace[:now + 1], 3)
        assert first_copy.shape == (3,)
        assert np.array_equal(second, first_copy)
        assert first_copy[2] == first_copy[1]  # padded past the model horizon
    # one stacked call for every `now` in [H, T), made by the constructor
    assert calls == [(30 - 4, 1, 3, 5)]


@pytest.mark.parametrize("start", [0, 40])
def test_model_predictor_input_is_the_training_window(monkeypatch, start):
    pre = PreprocessConfig(filter_window=3)
    filtered = filter_trace(generate_synthetic(
        SyntheticSpec(n_clients=1, length=90), seed=4)[0], pre)
    scaler = fit_scaler(filtered, pre)
    scaled = apply_scaler(filtered, scaler)
    windows = build_windows(scaled, WindowConfig(history=6, horizon=1), 1)
    spec = models.ModelSpec(arch="LSTM", in_features=6, history=6, horizon=1,
                            hidden=4)
    seen = []
    real_forward = models.forward

    def capture(spec_, params, x, training=False):
        seen.append(x.copy())
        return real_forward(spec_, params, x, training=training)

    monkeypatch.setattr(models, "forward", capture)
    ModelPredictor(spec, models.init_model(spec, seed=0),
                   model_inputs(scaled)[:, start:], scaler)
    session = scaled.throughput()[start:]
    (x,) = seen
    assert x.shape == (session.size - 6, 1, 6, 7)
    nows = range(6, session.size - 1)   # the last `now` has no target
    for now in nows:
        want = windows.x[windows.anchor == start + now]
        assert x[now - 6].tobytes() == want.tobytes(), now


class _PerNowPredictor:
    """The model predictor as one batch-of-one forward per `now`, made when
    the session asks for it: the oracle of the stacked forecast table."""

    def __init__(self, spec, params, inputs_scaled, scaler):
        self.spec, self.params, self.scaler = spec, params, scaler
        self.inputs = inputs_scaled

    def __call__(self, observed, horizon):
        now = len(observed) - 1
        h = self.spec.history
        if now < h or now >= self.inputs.shape[1]:
            return HarmonicMeanPredictor()(observed, horizon)
        x = self.inputs[None, :, now - h:now + 1]
        pred = np.maximum(self.scaler.inverse_throughput(
            models.forward(self.spec, self.params, x)[0]), 0.0)
        if pred.size < horizon:
            pred = np.concatenate([pred, np.full(horizon - pred.size, pred[-1])])
        return pred[:horizon]


@pytest.mark.parametrize("arch", models.ARCHS)
def test_session_with_stacked_forecasts_equals_per_now_forecasts(arch):
    # 1-8 Mbps, within the ladder, so the forecasts steer the rates
    pre = PreprocessConfig(filter_window=3)
    filtered = filter_trace(generate_synthetic(
        SyntheticSpec(n_clients=1, length=80, offset_min=1.0, offset_max=8.0),
        seed=5)[0], pre)
    scaler = fit_scaler(filtered, pre)
    inputs = model_inputs(apply_scaler(filtered, scaler))[:, -60:]
    spec = models.ModelSpec(arch=arch, in_features=inputs.shape[0],
                            history=15, horizon=3, hidden=8)
    params = models.init_model(spec, seed=1)
    # running statistics other than the initial (0, 1)
    rng = np.random.default_rng(2)
    for name, t, _ in params:
        if name.endswith("running_mean"):
            t.data[:] = rng.normal(0.0, 0.5, t.data.shape)
        elif name.endswith("running_var"):
            t.data[:] = rng.uniform(0.5, 2.0, t.data.shape)
    cfg = StreamConfig(session_len=60)
    co = QoECoefficients()
    session = filtered.throughput()[-60:]

    def logged(predictor):
        log = []

        def call(observed, horizon):
            out = predictor(observed, horizon)
            log.append(out.tobytes())
            return out
        return call, log

    got_pred, got_log = logged(ModelPredictor(spec, params, inputs, scaler))
    want_pred, want_log = logged(_PerNowPredictor(spec, params, inputs,
                                                  scaler))
    got = simulate_session(session, got_pred, cfg, co)
    want = simulate_session(session, want_pred, cfg, co)
    assert got_log == want_log
    assert repr(got.events) == repr(want.events)
    assert got == want
    assert len({ev[3] for ev in got.events if ev[1] == "rate_select"}) > 1
