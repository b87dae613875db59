"""Kernels against their oracles: the flat rollout, the einsum convolution,
straight-line loops and finite differences."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedcast import accel, models, stream
from fedcast import tensor as T


def _random_case(rng, horizon=4, n_rates=5):
    ladder = np.sort(rng.uniform(200, 8000, n_rates))
    return dict(
        pred_kbps=rng.uniform(100, 9000, horizon),
        ladder_kbps=ladder,
        q_table=np.log(ladder / ladder[0]),
        buffer0=float(rng.uniform(0, 4)),
        latency0=float(rng.uniform(0.5, 5)),
        prev_idx=int(rng.integers(-1, n_rates)),
        rtt=float(rng.uniform(0, 0.2)),
        chunk_dur=0.2,
        chunks_per_seg=5,
        mu1=0.2, mu2=6.0, mu3=1.0, mu4=0.8,
        omega=4.0)


def _plan(case, two_level=None):
    """The session constants of a case, as the rollout takes them; with
    `two_level` True or False, the search's first level, at depth h-3, is
    on wherever the session allows it, or off, whatever the ladder's
    size."""
    plan = accel.MpcPlan(
        case["ladder_kbps"], case["q_table"], len(case["pred_kbps"]),
        case["rtt"], case["chunk_dur"], case["chunks_per_seg"], case["mu1"],
        case["mu2"], case["mu3"], case["mu4"], case["omega"])
    if two_level is not None:
        plan.two_level = bool(two_level and plan.prunable
                              and plan.horizon >= 3)
    return plan


def _rollout_pair(case, plan=None):
    """The planned rollout of a case, (seq, score): the sequences it scored
    and their scores; its plan is built when None."""
    seq, score = accel.mpc_rollout_scores(
        case["pred_kbps"], case["buffer0"], case["latency0"], case["prev_idx"],
        _plan(case) if plan is None else plan)
    n_seq = len(case["ladder_kbps"]) ** len(case["pred_kbps"])
    assert seq.ndim == score.ndim == 1 and len(seq) == len(score)
    assert seq.dtype.kind == "i" and score.dtype == np.float64
    assert np.unique(seq).size == seq.size
    assert 0 <= seq.min() and seq.max() < n_seq
    return seq, score


def _rollout(case, plan=None):
    """The planned rollout's scores of a case as one row over every
    sequence, first chunk most significant, -inf where it scored none; its
    plan is built when None."""
    seq, score = _rollout_pair(case, plan)
    row = np.full(len(case["ladder_kbps"]) ** len(case["pred_kbps"]), -np.inf)
    row[seq] = score
    return row


def _naive_scores(pred_kbps, ladder_kbps, q_table, buffer0, latency0, prev_idx,
                  rtt, chunk_dur, chunks_per_seg, mu1, mu2, mu3, mu4, omega):
    """Straight-line reimplementation used as the oracle."""
    horizon = len(pred_kbps)
    n = len(ladder_kbps)
    psi0 = 1.0 / (1.0 + math.exp(omega))
    out = []
    for seq in itertools.product(range(n), repeat=horizon):
        buf, lat, qp, score = buffer0, latency0, prev_idx, 0.0
        for j, r in enumerate(seq):
            bits = ladder_kbps[r] * chunk_dur
            d = rtt + bits / pred_kbps[j] if pred_kbps[j] > 0 else 1e9
            stall = max(0.0, d - buf)
            buf = max(0.0, buf - d) + chunk_dur
            lat += stall
            sw = abs(q_table[r] - q_table[qp]) if qp >= 0 else 0.0
            psi = 1.0 / (1.0 + math.exp(omega - lat)) - psi0
            score += (mu1 * q_table[r] - mu3 * sw - mu4 * psi) / chunks_per_seg \
                - mu2 * stall
            qp = r
        score -= mu2 * max(0.0, buffer0 - buf)
        out.append(score)
    return np.array(out)


def test_numpy_path_matches_naive_oracle():
    # the scored sequences are close to the straight-line scores (libm's
    # exp differs from numpy's in the last bit); the exact oracle below
    # holds the rest
    rng = np.random.default_rng(0)
    for _ in range(10):
        case = _random_case(rng)
        got = _rollout(case)
        want = _naive_scores(**case)
        scored = np.isfinite(got)
        assert scored.any() and np.isneginf(got[~scored]).all()
        assert np.allclose(got[scored], want[scored], rtol=1e-12, atol=1e-12)


def _flat_scores(pred_kbps, ladder_kbps, q_table, buffer0, latency0,
                 prev_idx, rtt, chunk_dur, chunks_per_seg, mu1, mu2, mu3, mu4,
                 omega):
    """Flat vectorised rollout over all L**h sequences at every step, each
    step's rate decoded from the sequence number; the exact oracle."""
    horizon = len(pred_kbps)
    n_rates = len(ladder_kbps)
    n_seq = n_rates ** horizon
    seq = np.arange(n_seq)
    psi_base = 1.0 / (1.0 + np.exp(omega))

    buf = np.full(n_seq, buffer0)
    lat = np.full(n_seq, latency0)
    if prev_idx >= 0:
        q_prev = np.full(n_seq, q_table[prev_idx])
        have_prev = True
    else:
        q_prev = np.zeros(n_seq)
        have_prev = False
    score = np.zeros(n_seq)

    for j in range(horizon):
        r = (seq // (n_rates ** (horizon - 1 - j))) % n_rates
        bits = ladder_kbps[r] * chunk_dur
        tp = pred_kbps[j]
        if tp > 0.0:
            d = rtt + bits / tp
        else:
            d = np.full(n_seq, 1e9)
        stall = np.maximum(d - buf, 0.0)
        buf = np.maximum(buf - d, 0.0) + chunk_dur
        lat = lat + stall
        q = q_table[r]
        if j == 0 and not have_prev:
            sw = np.zeros(n_seq)
        else:
            sw = np.abs(q - q_prev)
        psi = 1.0 / (1.0 + np.exp(omega - lat)) - psi_base
        score += (mu1 * q - mu3 * sw - mu4 * psi) / chunks_per_seg - mu2 * stall
        q_prev = q
    score -= mu2 * np.maximum(buffer0 - buf, 0.0)
    return score


def _assert_matches_flat(got, case):
    """`got` holds the flat rollout's scores, byte for byte, except at
    sequences left at -inf, whose flat scores are strictly below the flat
    maximum; so it has the flat rollout's argmax and first rate."""
    want = _flat_scores(**case)
    n_rates = len(case["ladder_kbps"])
    assert got.shape == want.shape == (n_rates ** len(case["pred_kbps"]),)
    # bytes, so that a flipped sign of zero fails too
    same = got.view(np.int64) == want.view(np.int64)
    pruned = ~same
    assert np.isneginf(got[pruned]).all(), case
    # a nan anywhere makes every comparison false: nothing may be pruned
    assert (want[pruned] < want.max()).all(), case
    assert np.argmax(got) == np.argmax(want), case
    n_rest = got.size // n_rates
    assert np.argmax(got) // n_rest == np.argmax(want) // n_rest
    return pruned


def test_prefix_tree_scores_equal_flat_rollout():
    rng = np.random.default_rng(1)
    # up to the session bound of 6 rates over 7 chunks; one plan per shape,
    # reused for decisions from different states, as a session does
    shapes = [(h, n) for h in range(1, 7) for n in range(2, 7)] + [(7, 6)]
    for horizon, n_rates in shapes:
        plan = _plan(_random_case(rng, horizon, n_rates))
        earlier = None
        for prev_idx in (-1, int(rng.integers(0, n_rates))):
            case = _random_case(rng, horizon, n_rates)
            case.update(ladder_kbps=plan.ladder_kbps, q_table=plan.q_table,
                        rtt=plan.rtt, prev_idx=prev_idx)
            # an outage on some steps: every download takes "forever"
            case["pred_kbps"][rng.random(horizon) < 0.3] = 0.0
            _assert_matches_flat(_rollout(case, plan), case)
            # the result is no view of the workspace: a later call leaves
            # it as it was
            got = _rollout_pair(case, plan)
            if earlier is not None:
                assert [a.tobytes() for a in earlier[0]] == earlier[1]
            earlier = (got, [a.tobytes() for a in got])


def _poisoned_run(case):
    """Score `case` in a NaN-filled workspace and hold it to the flat
    rollout. Returns whether the stall rows and the term rows, of the tree
    and of the last depth, were left unwritten: only a depth that can stall
    and the terminal drain write the stall rows, and only a depth that can
    stall writes the term rows."""
    plan = _plan(case)
    plan.work[:] = np.nan
    _assert_matches_flat(_rollout(case, plan), case)
    tree = [plan.mid]  # the full rows of depth h-2
    stall = [plan.kids.stall] + [depth.stall for depth in tree]
    term = [plan.kids.term] + [depth.term for depth in tree]
    return (all(np.isnan(row).all() for row in stall),
            all(np.isnan(row).all() for row in term))


def _stall_free_case(rng, horizon, n_rates=6):
    """Every download fits in every buffer: each takes under 0.23 s (a round
    trip of up to 0.2 s), and the buffer starts at 1 s or more and loses
    under 0.03 s per chunk."""
    case = _random_case(rng, horizon, n_rates)
    case["pred_kbps"] = rng.uniform(60000, 100000, horizon)
    case["buffer0"] = float(rng.uniform(1.0, 4.0))
    case["prev_idx"] = int(rng.integers(-1, n_rates))
    return case


def test_stall_free_rollout_equals_flat_at_many_latencies():
    # one latency charge per decision, on a 1-element array: libm's exp
    # (math.exp) differs from numpy's array kernel in the last bit on ~5% of
    # arguments, so a few hundred latencies catch a scalar charge
    rng = np.random.default_rng(3)
    for i in range(240):
        case = _stall_free_case(rng, horizon=1 + i % 6)
        case["latency0"] = float(rng.uniform(0.0, 10.0))
        _, term_unwritten = _poisoned_run(case)
        assert term_unwritten


def test_stall_free_depths_then_stalling_ones():
    rng = np.random.default_rng(4)
    for horizon in range(2, 7):
        for n_free in range(1, horizon):
            case = _stall_free_case(rng, horizon)
            # ~300 kbps from then on: the top rate outlasts the buffer
            case["pred_kbps"][n_free:] = rng.uniform(250, 350,
                                                     horizon - n_free)
            _, term_unwritten = _poisoned_run(case)
            assert not term_unwritten


def test_outage_first_then_plenty():
    # the first chunk stalls (for "ever"), and every later download fits:
    # the later depths still need each prefix's own latency
    rng = np.random.default_rng(5)
    for horizon in range(2, 7):
        case = _stall_free_case(rng, horizon)
        case["pred_kbps"][0] = 0.0
        _poisoned_run(case)
        case["buffer0"] = 0.0
        _poisoned_run(case)


def test_different_throughput_every_depth():
    rng = np.random.default_rng(6)
    for horizon in range(2, 7):
        for _ in range(4):
            case = _stall_free_case(rng, horizon)
            case["pred_kbps"] = rng.uniform(2000, 100000, horizon)
            case["buffer0"] = float(rng.uniform(0.0, 2.0))
            _poisoned_run(case)
            # a repeated throughput after a different one
            case["pred_kbps"][-1] = case["pred_kbps"][0]
            _poisoned_run(case)


def test_zero_latency():
    rng = np.random.default_rng(7)
    for horizon in range(1, 7):
        case = _stall_free_case(rng, horizon)
        case["latency0"] = 0.0
        _poisoned_run(case)
        case["pred_kbps"][-1] = 300.0
        case["buffer0"] = 0.5
        _poisoned_run(case)


def test_infinite_stall_cost():
    # inf * 0.0 is nan, so a zero stall is not free: the flat rollout's
    # scores are nan, and no depth may be skipped
    rng = np.random.default_rng(9)
    for horizon in range(1, 5):
        case = _stall_free_case(rng, horizon)
        case["mu2"] = np.inf
        with np.errstate(invalid="ignore"):
            _poisoned_run(case)


def _drain_boundary_case(horizon, prev_idx):
    """With no round trip the top rate downloads in exactly one chunk
    duration, which is exactly the buffer: every depth is on the edge of a
    stall and the last buffer on the edge of a drain."""
    ladder = np.array([250.0, 500.0, 1000.0])
    return dict(
        pred_kbps=np.full(horizon, 1000.0), ladder_kbps=ladder,
        q_table=np.log(ladder / ladder[0]), buffer0=0.25, latency0=2.5,
        prev_idx=prev_idx, rtt=0.0, chunk_dur=0.25, chunks_per_seg=4,
        mu1=0.2, mu2=6.0, mu3=1.0, mu4=0.8, omega=4.0)


def test_download_equal_to_chunk_at_the_drain_boundary():
    # neither stalls or drains, so the stall and term rows stay unwritten
    for horizon in range(1, 7):
        for prev_idx in (-1, 2):
            case = _drain_boundary_case(horizon, prev_idx)
            assert _poisoned_run(case) == (True, True)
            # a hair less buffer: the top rate stalls at the first chunk
            case["buffer0"] = np.nextafter(0.25, 0.0)
            assert _poisoned_run(case) == (False, False)


def test_sessions_equal_with_flat_rollout(monkeypatch):
    # a 10-100 Mbps trace (no stalls) and a 0.8-8 Mbps one with outages
    rng = np.random.default_rng(8)
    plenty = rng.uniform(10.0, 100.0, 40)
    outage = rng.uniform(0.8, 8.0, 40)
    outage[[9, 10, 11, 22, 23, 30]] = 0.0
    co = stream.QoECoefficients()

    def session(trace, horizon):
        cfg = stream.StreamConfig(session_len=30, mpc_horizon=horizon)
        return stream.simulate_session(trace, stream.HarmonicMeanPredictor(),
                                       cfg, co)

    def flat(pred_kbps, buffer0, latency0, prev_idx, plan):
        return _flat_scores(pred_kbps, plan.ladder_kbps, plan.q_table,
                            buffer0, latency0, prev_idx, plan.rtt,
                            plan.chunk_dur, plan.chunks_per_seg, plan.mu1,
                            plan.mu2, plan.mu3, plan.mu4, plan.omega)

    def first_rate(pred_kbps, buffer0, latency0, prev_idx, plan):
        scores = flat(pred_kbps, buffer0, latency0, prev_idx, plan)
        return int(np.argmax(scores)) // plan.n_rest

    for trace, horizon in ((plenty, 5), (outage, 6)):
        got = session(trace, horizon)
        # every decision scored afresh, with no memo
        with monkeypatch.context() as m:
            m.setattr(accel, "mpc_first_rate", first_rate)
            want = session(trace, horizon)
        assert repr(got.events) == repr(want.events)
        assert got == want
        assert sum(ev[1] == "rate_select" for ev in got.events) > 20
        assert (got.stall_time > 0.0) == (trace is outage)


def test_rollout_allocates_no_row_of_every_sequence():
    # numpy reports its data buffers to tracemalloc; with a warm workspace a
    # horizon-6 call allocates less than half of one float64 row of its
    # 6**6 sequences, with the first level on (an outage from the third
    # chunk on) or off (a stall from the fifth)
    rng = np.random.default_rng(2)
    case = _random_case(rng, horizon=6, n_rates=6)
    outage = dict(case, pred_kbps=np.r_[case["pred_kbps"][:2], np.zeros(4)])
    late = _stall_free_case(rng, horizon=6)
    late["pred_kbps"][4:] = 300.0
    for decision in (case, outage, late):
        plan = _plan(decision)
        args = (decision["pred_kbps"], decision["buffer0"],
                decision["latency0"], decision["prev_idx"], plan)
        accel.mpc_rollout_scores(*args)
        tracemalloc.start()
        try:
            accel.mpc_rollout_scores(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 ** 6 * 8 // 2, peak


def _fresh_first_rate(case):
    """The first rate of the argmax over a fresh plan's scores."""
    plan = _plan(case)
    return int(np.argmax(_rollout(case, plan))) // plan.n_rest


def _first_rate(case, plan):
    return accel.mpc_first_rate(case["pred_kbps"], case["buffer0"],
                                case["latency0"], case["prev_idx"], plan)


class _RolloutSpy:
    """Counts the rollouts that `accel.mpc_first_rate` runs, and the
    buffer walks of the decision and its rollouts."""

    def __init__(self, monkeypatch):
        self.calls = self.walks = 0
        self._rollout = accel.mpc_rollout_scores
        self._walk = accel._buffer_walk
        monkeypatch.setattr(accel, "mpc_rollout_scores", self)
        monkeypatch.setattr(accel, "_buffer_walk", self.walk)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self._rollout(*args, **kwargs)

    def walk(self, *args):
        self.walks += 1
        return self._walk(*args)


def _memo_key(case, plan):
    """The memo key of a decision that cannot stall or drain, else None."""
    n_free, drain = accel._buffer_walk(
        accel._prediction(case["pred_kbps"], plan), case["buffer0"], plan)
    if n_free == plan.horizon and not drain:
        return case["prev_idx"], case["latency0"]
    return None


def _session_decisions(rng, horizon, n_rates, n_decisions, **coeffs):
    """One session's shape and a stream of decisions for it: stall-free and
    stalling ones, outages, and latencies and previous rates drawn from
    small sets, so that keys repeat."""
    base = _random_case(rng, horizon, n_rates)
    # round trips short enough for the fastest downloads to fill the buffer
    base.update(coeffs, rtt=float(rng.uniform(0.0, 0.15)))
    latencies = [float(x) for x in rng.uniform(0.0, 6.0, 3)]
    for _ in range(n_decisions):
        case = dict(base)
        kind = rng.integers(4)
        if kind < 2:
            case["pred_kbps"] = rng.uniform(60000, 100000, horizon)
        else:
            case["pred_kbps"] = rng.uniform(200, 9000, horizon)
        if kind == 3:
            case["pred_kbps"][rng.random(horizon) < 0.4] = 0.0
        case["buffer0"] = float(rng.uniform(0.0, 4.0))
        case["latency0"] = latencies[rng.integers(len(latencies))]
        case["prev_idx"] = int(rng.integers(-1, n_rates))
        yield case


def test_first_rate_equals_fresh_argmax_with_one_plan_per_session():
    rng = np.random.default_rng(11)
    hits = eligible = 0
    for horizon in range(1, 7):
        n_rates = 6 if horizon < 6 else 4
        ladder_q = np.repeat(np.arange(n_rates // 2, dtype=float), 2)
        sessions = [{}, {"mu3": 0.0}, {"mu3": 0.0, "q_table": ladder_q}]
        if horizon < 5:
            sessions.append({"mu2": np.inf})
        for coeffs in sessions:
            plan = None
            for case in _session_decisions(rng, horizon, n_rates, 40,
                                           **coeffs):
                plan = plan or _plan(case)
                key = _memo_key(case, plan)
                eligible += key is not None
                hits += key in plan.first_rates
                with np.errstate(invalid="ignore"):
                    got = _first_rate(case, plan)
                    want = _fresh_first_rate(case)
                assert got == want, (horizon, coeffs, case)
            if not plan.zero_cost:
                assert plan.first_rates == {}
    assert hits > 100 and eligible > hits


def test_first_rate_at_the_drain_boundary():
    for horizon in range(1, 7):
        for prev_idx in (-1, 2):
            case = _drain_boundary_case(horizon, prev_idx)
            plan = _plan(case)
            assert _memo_key(case, plan) is not None
            assert _first_rate(case, plan) == _fresh_first_rate(case)
            assert _first_rate(case, plan) == _fresh_first_rate(case)
            # a hair less buffer stalls at the first chunk
            case["buffer0"] = np.nextafter(0.25, 0.0)
            assert _memo_key(case, plan) is None
            assert _first_rate(case, plan) == _fresh_first_rate(case)


def _memo_case(rng, horizon):
    """A stall-free case whose buffer does not drain: every download takes
    under 0.18 s of a 0.2 s chunk."""
    return dict(_stall_free_case(rng, horizon),
                rtt=float(rng.uniform(0.0, 0.15)))


def test_decisions_with_one_memo_key_have_equal_scores():
    rng = np.random.default_rng(12)
    for horizon in range(1, 7):
        first = _memo_case(rng, horizon)
        second = _memo_case(rng, horizon)
        second.update(prev_idx=first["prev_idx"], latency0=first["latency0"])
        plan = _plan(first)
        assert _memo_key(first, plan) == _memo_key(second, plan) is not None
        assert (first["pred_kbps"] != second["pred_kbps"]).all()
        assert first["buffer0"] != second["buffer0"]
        assert _rollout(first, plan).tobytes() == \
            _rollout(second, plan).tobytes()


def test_memo_hit_runs_no_rollout_and_a_stall_or_drain_always_does(
        monkeypatch):
    rng = np.random.default_rng(13)
    spy = _RolloutSpy(monkeypatch)
    case = _memo_case(rng, 5)
    plan = _plan(case)
    want = _first_rate(case, plan)
    assert spy.calls == 1
    case.update(pred_kbps=rng.uniform(60000, 100000, 5),
                buffer0=case["buffer0"] + 0.5)
    assert _first_rate(case, plan) == want
    assert spy.calls == 1
    # the top rate outlasts a 0.1 s buffer at 300 kbps: a stall
    stalling = dict(case, pred_kbps=np.full(5, 300.0), buffer0=0.1)
    # no stall, but the top rate downloads in 1/0.9 of a chunk, so its
    # buffer ends lower than it began: a drain
    draining = dict(case, rtt=0.0, buffer0=3.0,
                    pred_kbps=np.full(5, 0.9 * case["ladder_kbps"][-1]))
    draining_plan = _plan(draining)
    for decision, on in ((stalling, plan), (draining, draining_plan)):
        assert _memo_key(decision, on) is None
        for _ in range(2):
            calls, walks = spy.calls, spy.walks
            _first_rate(decision, on)
            assert spy.calls == calls + 1
            # the rollout takes the decision's walk instead of its own
            assert spy.walks == walks + 1
    assert draining_plan.first_rates == {}


def test_first_rate_checks_the_prediction_before_the_memo(monkeypatch):
    rng = np.random.default_rng(14)
    case = _memo_case(rng, 3)
    plan = _plan(case)
    want = _first_rate(case, plan)
    assert plan.first_rates == {(case["prev_idx"], case["latency0"]): want}
    for size in (2, 4):
        short = dict(case, pred_kbps=np.full(size, 80000.0))
        with pytest.raises(ValueError, match="predicted chunks"):
            _first_rate(short, plan)
    # a nan latency is scored every time and takes no memo entry, even when
    # the same nan object comes again
    nan_case = dict(case, latency0=float("nan"))
    with np.errstate(invalid="ignore"):
        want = _fresh_first_rate(nan_case)
        spy = _RolloutSpy(monkeypatch)
        for _ in range(2):
            assert _first_rate(nan_case, plan) == want
    assert spy.calls == 2
    assert len(plan.first_rates) == 1


def test_sequence_digit_order_breaks_ties_low():
    # constant scores force a full tie; lexicographic argmax -> sequence 0
    ladder = np.array([300.0, 600.0])
    case = dict(pred_kbps=np.zeros(3), ladder_kbps=ladder,
                q_table=np.zeros(2), buffer0=0.0, latency0=0.0, prev_idx=-1,
                rtt=0.0, chunk_dur=0.2, chunks_per_seg=5,
                mu1=0.0, mu2=0.0, mu3=0.0, mu4=0.0, omega=4.0)
    scores = _rollout(case)
    assert np.allclose(scores, scores[0])
    assert int(np.argmax(scores)) == 0


def _oracle_case(rng, horizon, n_rates, outage=False, ties=False,
                 no_prev=False, zero_latency=False, nan_latency=False,
                 inf_stall=False, plenty=False, free_latency=False):
    """A random decision with the given twists: downloads that take
    "forever" on some chunks, quantised qualities without a switching
    charge (many equal scores), no previous rate, a zero or NaN latency,
    an infinite stall cost, a channel faster than the ladder, or a
    latency that costs nothing (mu4 = 0: a bound can equal a score)."""
    case = _random_case(rng, horizon, n_rates)
    if plenty:
        case["pred_kbps"] = rng.uniform(20000, 100000, horizon)
        case["buffer0"] = float(rng.uniform(0.3, 4.0))
    if outage:
        case["pred_kbps"][rng.random(horizon) < 0.4] = 0.0
    if ties:
        case.update(q_table=np.floor(case["q_table"]), mu3=0.0)
    if no_prev:
        case["prev_idx"] = -1
    if zero_latency:
        case["latency0"] = 0.0
    if nan_latency:
        case["latency0"] = float("nan")
    if inf_stall:
        case["mu2"] = np.inf
    if free_latency:
        case["mu4"] = 0.0
    return case


_TWISTS = ("outage", "ties", "no_prev", "zero_latency", "nan_latency",
           "inf_stall", "plenty", "free_latency")


def _check_oracle_case(case, two_level=None):
    """The rollout of `case` against the flat rollout, with the search's
    first level as `_plan` sets it; returns the number of sequences left
    unscored."""
    with np.errstate(invalid="ignore"):
        pruned = _assert_matches_flat(_rollout(case, _plan(case, two_level)),
                                      case)
    # a nan latency or an infinite stall cost scores every sequence
    if math.isnan(case["latency0"]) or math.isinf(case["mu2"]):
        assert not pruned.any()
    return int(pruned.sum())


def test_pruned_rollout_matches_flat_over_horizons_and_ladders():
    rng = np.random.default_rng(21)
    pruned = 0
    for horizon in range(1, 7):
        for n_rates in range(1, 7):
            for twist in (None,) + _TWISTS:
                for _ in range(2):
                    case = _oracle_case(rng, horizon, n_rates,
                                        **({twist: True} if twist else {}))
                    pruned += _check_oracle_case(case, two_level=False)
                    if horizon >= 3:
                        # the same decision, bounded at depth h-3 first
                        pruned += _check_oracle_case(case, two_level=True)
    # most of the work is in pruned sequences
    assert pruned > 10 ** 5


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(horizon=st.integers(1, 6), n_rates=st.integers(1, 6),
       seed=st.integers(0, 2 ** 32 - 1),
       twists=st.sets(st.sampled_from(_TWISTS)), two_level=st.booleans())
def test_pruned_rollout_matches_flat_property(horizon, n_rates, seed,
                                              twists, two_level):
    rng = np.random.default_rng(seed)
    _check_oracle_case(_oracle_case(rng, horizon, n_rates,
                                    **{t: True for t in twists}), two_level)


@pytest.mark.parametrize("twist", ["nan_latency", "inf_stall", "ties"])
def test_first_rate_is_the_flat_argmax(twist):
    # the first rate reduced from the scored leaves alone is the flat
    # argmax's: a nan wins first, as argmax stops at the first nan, and
    # ties go to the lowest sequence
    rng = np.random.default_rng(27)
    special = 0
    for horizon, n_rates in itertools.product(range(1, 7), range(1, 7)):
        for two_level in (False, True):
            case = _oracle_case(rng, horizon, n_rates, **{twist: True})
            with np.errstate(invalid="ignore"):
                flat = _flat_scores(**case)
                got = _first_rate(case, _plan(case, two_level))
            n_rest = n_rates ** (horizon - 1)
            assert got == np.argmax(flat) // n_rest, case
            # the cases where the rule matters: the first nan, or the best
            # score, is reached below more than one first rate
            top = flat.max()
            best = (flat == top) if top == top else np.isnan(flat)
            special += np.unique(best.nonzero()[0] // n_rest).size > 1
    assert special >= 5, special


def test_first_level_at_the_drain_boundary():
    # every download is on the edge of a stall and the last buffer on the
    # edge of a drain; a hair less buffer stalls at the first chunk, where
    # the first level bounds depth h-3
    for horizon in range(3, 7):
        for prev_idx in (-1, 2):
            case = _drain_boundary_case(horizon, prev_idx)
            for buffer0 in (0.25, np.nextafter(0.25, 0.0)):
                case["buffer0"] = buffer0
                _check_oracle_case(case, two_level=True)


def test_last_depth_scores_few_parents():
    # a stalling and draining horizon-6 decision scores the children of a
    # few of its 7,776 last-depth parents and no others, with or without
    # the first level
    rng = np.random.default_rng(22)
    for _ in range(5):
        case = _random_case(rng, horizon=6, n_rates=6)
        case["pred_kbps"][:] = rng.uniform(800, 3000)
        for two_level in (False, True):
            got = _rollout(case, _plan(case, two_level))
            _assert_matches_flat(got, case)
            assert np.isfinite(got).sum() <= 6 * 100


@pytest.mark.parametrize("two_level", [False, True])
def test_all_outage_decision_scores_few_parents(two_level):
    # every download takes "forever", so every leaf stalls ~1e9 s a chunk:
    # the bound's stall at the shortest download tells the parents apart
    rng = np.random.default_rng(26)
    for _ in range(4):
        case = _random_case(rng, horizon=6, n_rates=6)
        case["pred_kbps"][:] = 0.0
        got = _rollout(case, _plan(case, two_level))
        _assert_matches_flat(got, case)
        parents = np.isfinite(got).reshape(6 ** 5, 6).any(axis=1)
        assert parents.sum() < 6 ** 5 // 10, parents.sum()


def test_first_level_leaves_whole_subtrees_unscored():
    # an outage from the third chunk on: the first level builds depth h-2
    # for a few of the 1,296 prefixes of depth h-3 only, and the 36 leaves
    # below each of the others stay -inf
    rng = np.random.default_rng(25)
    for _ in range(4):
        case = _random_case(rng, horizon=6, n_rates=6)
        case["pred_kbps"][2:] = 0.0
        plan = _plan(case)
        assert plan.two_level
        plan.work[:] = np.nan
        got = _rollout(case, plan)
        _assert_matches_flat(got, case)
        # first chunk first, a prefix of depth h-3 owns 36 leaves in a row
        scored = np.isfinite(got).reshape(6 ** 4, 6 ** 2).any(axis=1)
        assert 1 <= scored.sum() <= 20, scored.sum()
        # depth h-2 holds 6 children of each prefix it was built for
        built = ~np.isnan(plan.mid.score)
        assert built.sum() % 6 == 0
        assert scored.sum() <= built.sum() // 6 <= 60, built.sum()


def test_download_overflowing_at_the_last_depth_scores_everything():
    # at a tiny throughput the downloads of a depth overflow to inf, all of
    # them or only the larger chunks', and a free stall (mu2 = 0) costs
    # 0 * inf = nan, which no bound can price: at either of the last two
    # depths, nothing may be pruned; an empty buffer stalls at the first
    # chunk, where the first level bounds depth h-3
    rng = np.random.default_rng(24)
    for horizon, buffer0 in itertools.product(range(2, 5), (4.0, 0.0)):
        for depth in {horizon - 2, horizon - 1}:
            case = _random_case(rng, horizon, 4)
            ladder = np.array([300.0, 1000.0, 3000.0, 6000.0])
            case.update(mu2=0.0, buffer0=buffer0, ladder_kbps=ladder,
                        q_table=np.log(ladder / ladder[0]))
            # the top chunk over tp is twice the largest double, and the
            # bottom one a tenth of it
            big = np.finfo(float).max
            for tp in (1e-310, ladder[-1] * case["chunk_dur"] / big / 2):
                case["pred_kbps"][depth] = tp
                with np.errstate(over="ignore", invalid="ignore"):
                    assert not _check_oracle_case(case, two_level=False)
                    assert not _check_oracle_case(case, two_level=True)


@pytest.mark.parametrize("name", ["mu1", "mu2", "mu3", "mu4"])
def test_plan_rejects_a_negative_coefficient(name):
    case = _random_case(np.random.default_rng(23))
    case[name] = -0.5
    with pytest.raises(ValueError, match=name):
        _plan(case)
    case[name] = 0.0
    _plan(case)


def _naive_conv(x, w):
    b_n, c_n, h_n, w_n = x.shape
    f_n = w.shape[0]
    out = np.zeros((b_n, f_n, h_n, w_n))
    xp = np.zeros((b_n, c_n, h_n + 2, w_n + 2))
    xp[:, :, 1:-1, 1:-1] = x
    for b in range(b_n):
        for f in range(f_n):
            for y in range(h_n):
                for xx in range(w_n):
                    out[b, f, y, xx] = np.sum(
                        xp[b, :, y:y + 3, xx:xx + 3] * w[f])
    return out


def test_conv2d_forward_matches_naive():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 3, 5, 7))
    w = rng.normal(size=(4, 3, 3, 3))
    assert np.allclose(accel.conv2d_forward(x, w), _naive_conv(x, w),
                       atol=1e-12)


def test_conv2d_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 2, 3, 4))
    w = rng.normal(size=(2, 2, 3, 3))
    dout = rng.normal(size=(1, 2, 3, 4))

    def loss(xv, wv):
        return float(np.sum(accel.conv2d_forward(xv, wv) * dout))

    eps = 1e-6
    dx = accel.conv2d_grad_input(dout, w)
    dw = accel.conv2d_grad_weight(x, dout)
    for arr, grad in ((x, dx), (w, dw)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(0, flat.size, 3):
            orig = flat[i]
            flat[i] = orig + eps
            up = loss(x, w)
            flat[i] = orig - eps
            dn = loss(x, w)
            flat[i] = orig
            assert abs((up - dn) / (2 * eps) - gflat[i]) < 1e-5


# The einsum convolution that the GEMM kernels replaced, kept as their
# oracle. The GEMMs sum in BLAS order, so agreement is to a tolerance.


def _einsum_im2col(x):
    b_n, c_n, h_n, w_n = x.shape
    xp = np.zeros((b_n, c_n, h_n + 2, w_n + 2), dtype=x.dtype)
    xp[:, :, 1:-1, 1:-1] = x
    cols = np.empty((b_n, c_n, 3, 3, h_n, w_n), dtype=x.dtype)
    for ky in range(3):
        for kx in range(3):
            cols[:, :, ky, kx] = xp[:, :, ky:ky + h_n, kx:kx + w_n]
    return cols.reshape(b_n, c_n * 9, h_n * w_n)


def _einsum_forward(x, w, keep_cols=False):
    x = np.ascontiguousarray(x, dtype=np.float64)
    w = np.ascontiguousarray(w, dtype=np.float64)
    b_n, c_n, h_n, w_n = x.shape
    cols = _einsum_im2col(x)
    w_mat = w.reshape(w.shape[0], -1)
    out = np.einsum("fk,bkp->bfp", w_mat, cols)
    out = out.reshape(b_n, w.shape[0], h_n, w_n)
    return (out, cols) if keep_cols else out


def _einsum_grad_input(dout, w):
    w_rot = np.ascontiguousarray(w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    return _einsum_forward(dout, w_rot)


def _einsum_grad_weight(x, dout, cols=None):
    x = np.ascontiguousarray(x, dtype=np.float64)
    dout = np.ascontiguousarray(dout, dtype=np.float64)
    if cols is None:
        cols = _einsum_im2col(x)
    d_mat = dout.reshape(dout.shape[0], dout.shape[1], -1)
    dw = np.einsum("bfp,bkp->fk", d_mat, cols)
    return dw.reshape(dout.shape[1], x.shape[1], 3, 3)


# (B, C, F, H, W): the CNN's two convolutions and the LSTM_CNN's one at
# their benchmark shapes, then the edge cases
_CONV_SHAPES = [(32, 1, 8, 7, 16), (32, 8, 8, 7, 16), (32, 1, 8, 16, 24),
                (1, 2, 3, 4, 5), (3, 2, 4, 1, 6), (3, 2, 4, 5, 1),
                (2, 1, 1, 1, 1), (4, 5, 2, 3, 3), (2, 3, 7, 4, 4)]


@pytest.mark.parametrize("shape", _CONV_SHAPES,
                         ids=lambda s: "B{}-C{}-F{}-{}x{}".format(*s))
@pytest.mark.parametrize("zeros", [False, True])
def test_conv2d_gemm_kernels_match_einsum_oracle(shape, zeros):
    b_n, c_n, f_n, h_n, w_n = shape
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=(b_n, c_n, h_n, w_n))
    w = rng.normal(size=(f_n, c_n, 3, 3))
    dout = rng.normal(size=(b_n, f_n, h_n, w_n))
    if zeros:
        x, dout = np.zeros_like(x), np.zeros_like(dout)
    for got, want in ((accel.conv2d_forward(x, w), _einsum_forward(x, w)),
                      (accel.conv2d_grad_input(dout, w),
                       _einsum_grad_input(dout, w)),
                      (accel.conv2d_grad_weight(x, dout),
                       _einsum_grad_weight(x, dout))):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.flags.c_contiguous
        assert np.allclose(got, want, rtol=1e-10, atol=1e-12)
        if zeros:
            assert not got.any()


@pytest.mark.parametrize("arch", ["CNN", "LSTM_CNN"])
@pytest.mark.parametrize("use_batchnorm", [True, False])
def test_conv_models_match_einsum_oracle(monkeypatch, arch, use_batchnorm):
    """One training step of each conv model: the prediction, every
    parameter gradient and the running statistics, with the GEMM kernels
    and with the einsum oracle in their place."""
    spec = models.ModelSpec(arch=arch, in_features=7, history=15, horizon=1,
                            hidden=24, conv_channels=(8, 8),
                            use_batchnorm=use_batchnorm)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(9, 7, spec.steps))
    y = rng.normal(size=(9, 1))

    def run():
        params = models.init_model(spec, seed=4)
        pred = models.forward_graph(spec, params, x, training=True)
        T.mse(pred, y).backward()
        return [pred.data] + [t.grad for t in params.trainable()] \
            + [t.data for _, t, _ in params]

    gemm = run()
    monkeypatch.setattr(accel, "conv2d_forward", _einsum_forward)
    monkeypatch.setattr(accel, "conv2d_grad_input", _einsum_grad_input)
    monkeypatch.setattr(accel, "conv2d_grad_weight", _einsum_grad_weight)
    oracle = run()
    assert len(gemm) == len(oracle)
    for a, b in zip(gemm, oracle):
        assert np.allclose(a, b, rtol=1e-9)


def _rebuilding_conv2d(x, w):
    """The convolution op as it was before the forward handed its columns
    to the weight gradient: the backward rebuilds them."""
    x, w = T.as_tensor(x), T.as_tensor(w)

    def back(g):
        if x.requires_grad:
            x._accum(accel.conv2d_grad_input(g, w.data))
        if w.requires_grad:
            w._accum(accel.conv2d_grad_weight(x.data, g))

    return T._make(accel.conv2d_forward(x.data, w.data), (x, w), back)


@pytest.mark.parametrize("arch", ["CNN", "LSTM_CNN"])
@pytest.mark.parametrize("use_batchnorm", [True, False])
def test_conv_columns_from_the_forward_give_the_rebuilt_gradients(
        monkeypatch, arch, use_batchnorm):
    """A training step builds each convolution's input columns once, and
    its prediction, gradients and running statistics are byte-equal to
    the path that rebuilds them in the backward."""
    spec = models.ModelSpec(arch=arch, in_features=7, history=15, horizon=1,
                            hidden=24, conv_channels=(8, 8),
                            use_batchnorm=use_batchnorm)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(32, 7, spec.steps))
    y = rng.normal(size=(32, 1))
    im2col = accel._im2col
    built = []

    def counting_im2col(a):
        built.append(a.shape)
        return im2col(a)

    monkeypatch.setattr(accel, "_im2col", counting_im2col)

    def run():
        built.clear()
        params = models.init_model(spec, seed=4)
        pred = models.forward_graph(spec, params, x, training=True)
        T.mse(pred, y).backward()
        return [pred.data] + [t.grad for t in params.trainable()] \
            + [t.data for _, t, _ in params]

    kept = run()
    n_kept = len(built)
    monkeypatch.setattr(T, "conv2d", _rebuilding_conv2d)
    rebuilt = run()
    n_convs = 2 if arch == "CNN" else 1
    # one build per forward, one per input gradient (the first convolution
    # of the CNN takes none), and none for a weight gradient
    assert n_kept == 2 * n_convs - (arch == "CNN")
    assert len(built) == n_kept + n_convs
    assert len(kept) == len(rebuilt)
    for a, b in zip(kept, rebuilt):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("training", [False, True])
def test_eval_forward_keeps_no_conv_columns(training):
    """`models.forward` on a CNN batch leaves nothing allocated beyond its
    output once it returns: no column matrix outlives the forward."""
    spec = models.ModelSpec(arch="CNN", in_features=7, history=15, horizon=1,
                            conv_channels=(8, 8))
    params = models.init_model(spec, seed=2)
    x = np.random.default_rng(1).normal(size=(32, 7, spec.steps))
    models.forward(spec, params, x, training=training)  # warm-up
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = models.forward(spec, params, x, training=training)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # a column matrix of the second convolution is 72 x 3584 doubles, 2 MB
    assert retained <= out.nbytes + 16384
