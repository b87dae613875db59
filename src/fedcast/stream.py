"""Discrete-event live-streaming simulator with MPC-chunk bitrate control.

Timeline model: the client joins a broadcast that already has
`join_prefetch_max` segments of encoded backlog; it fetches the newest
`start_after` of them and starts playing at their beginning, so steady
latency sits near the playback threshold. Chunks become downloadable only
once encoded (the encoder is real-time), downloads are sequential, and the
download rate at wall time t is the trace throughput at floor(t).

time accounting after playback start: every wall second is exactly one of
played / stalled / skip-recovery. A skip fires when latency exceeds
max_latency; playback jumps forward to restore latency = playback
threshold and the jumped media seconds accrue to the skip penalty eta.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import accel
from . import models


class StreamError(ValueError):
    pass


# A decision scores up to L**h rate sequences; this bound is 6 rates over 7
# chunks, 279,936 sequences. At the bound (2 cores, Python 3.11, numpy 2.4)
# a session's MPC workspace is 4.7 MB and each decision returns 2.2 MB of
# scores. A NaN-latency decision, which scores every sequence, takes
# ~6.7 ms; stalling and all-outage decisions, which the branch-and-bound
# prunes, take 0.5-0.8 ms.
_MAX_MPC_SEQUENCES = 6 ** 7


@dataclass
class StreamConfig:
    ladder_kbps: tuple[float, ...] = (300.0, 500.0, 1000.0, 2000.0, 3000.0,
                                      6000.0)
    segment_len: float = 1.0
    chunks_per_segment: int = 5
    playback_threshold: float = 2.0
    max_latency: float = 5.0
    join_prefetch_max: int = 3
    start_after: int = 2
    rtt_overhead: float = 0.08
    mpc_horizon: int = 5
    session_len: int = 110

    def __post_init__(self):
        self.ladder_kbps = tuple(float(r) for r in self.ladder_kbps)
        if not self.ladder_kbps:
            raise StreamError("empty bitrate ladder")
        if self.ladder_kbps[0] <= 0:
            raise StreamError("ladder rates must be positive")
        if any(b <= a for a, b in zip(self.ladder_kbps, self.ladder_kbps[1:])):
            raise StreamError("ladder must be strictly increasing")
        if self.chunks_per_segment < 1 or self.segment_len <= 0:
            raise StreamError("bad segment/chunk configuration")
        if self.start_after > self.join_prefetch_max:
            raise StreamError("start_after cannot exceed join_prefetch_max")
        if self.start_after < 1 or self.session_len < 1:
            raise StreamError("start_after and session_len must be >= 1")
        # a skip restores the latency to playback_threshold, moving the
        # position to a chunk boundary: from max_latency, a smaller drop
        # may not reach the next boundary, and the session would retry the
        # same skip forever
        if self.max_latency - self.playback_threshold < self.chunk_dur:
            raise StreamError(
                f"max_latency {self.max_latency} must exceed "
                f"playback_threshold {self.playback_threshold} by at least "
                f"one chunk, {self.chunk_dur} s")
        if self.mpc_horizon < 1:
            raise StreamError("mpc_horizon must be >= 1")
        if self.rtt_overhead < 0:
            raise StreamError("rtt_overhead must be >= 0")
        if len(self.ladder_kbps) ** self.mpc_horizon > _MAX_MPC_SEQUENCES:
            raise StreamError(
                f"{len(self.ladder_kbps)} rates over mpc_horizon "
                f"{self.mpc_horizon} give more than {_MAX_MPC_SEQUENCES} "
                f"rate sequences to score per decision")

    @property
    def chunk_dur(self):
        return self.segment_len / self.chunks_per_segment


# psi(l) takes exp(omega - l) for l >= 0: above this omega it overflows
_MAX_OMEGA = math.log(sys.float_info.max)


@dataclass
class QoECoefficients:
    mu1: float = 0.2    # perceptible quality
    mu2: float = 6.0    # stall seconds
    mu3: float = 1.0    # quality switches
    mu4: float = 0.8    # latency penalty psi(l)
    mu5: float = 1.2    # skipped media seconds
    omega: float = 4.0  # latency sensitivity midpoint
    r_min_kbps: float = 300.0

    def __post_init__(self):
        if min(self.mu1, self.mu2, self.mu3, self.mu4, self.mu5) < 0:
            raise StreamError("QoE coefficients must be non-negative")
        if self.r_min_kbps <= 0:
            raise StreamError("R_min must be positive")
        if self.omega > _MAX_OMEGA:
            raise StreamError(f"omega must be <= {_MAX_OMEGA!r}, the largest "
                              f"exponent whose exp is finite")


def latency_penalty(latency_s, omega):
    """Logistic growth, zeroed at l=0: 1/(1+e^(w-l)) - 1/(1+e^w)."""
    if latency_s < 0:
        raise StreamError("latency must be non-negative")
    return 1.0 / (1.0 + math.exp(omega - latency_s)) - 1.0 / (1.0 + math.exp(omega))


@dataclass
class SegmentRecord:
    index: int
    quality: float      # mean Q over fully played chunks (0 if none played)
    played_chunks: int
    stall: float        # rebuffer seconds charged to this segment
    latency: float      # latency when the segment began playing / was skipped
    skipped: float      # eta_i: media seconds never played


@dataclass
class QoEBreakdown:
    """Per-segment means of the five components and the scalar score."""
    quality: float
    stall: float
    switch: float
    latency: float
    skip: float
    qoe: float
    n_segments: int


def compute_qoe(records, coeffs):
    """Aggregate per-segment records into the five components + scalar."""
    if not records:
        raise StreamError("empty session")
    n = len(records)
    quality = sum(r.quality for r in records) / n
    stall = sum(r.stall for r in records) / n
    skip = sum(r.skipped for r in records) / n
    latency = sum(latency_penalty(r.latency, coeffs.omega) for r in records) / n
    switch = 0.0
    prev_q = None
    for r in records:
        if r.played_chunks == 0:
            continue
        if prev_q is not None:
            switch += abs(r.quality - prev_q)
        prev_q = r.quality
    switch /= n
    qoe = (coeffs.mu1 * quality - coeffs.mu2 * stall - coeffs.mu3 * switch
           - coeffs.mu4 * latency - coeffs.mu5 * skip)
    return QoEBreakdown(quality=quality, stall=stall, switch=switch,
                        latency=latency, skip=skip, qoe=qoe, n_segments=n)


def quality_table(cfg, coeffs):
    """Q(r) = ln(r / R_min) of every ladder rate, as an array."""
    ladder = np.asarray(cfg.ladder_kbps)
    if ladder[0] < coeffs.r_min_kbps:
        raise StreamError("ladder bottom below R_min")
    return np.log(ladder / coeffs.r_min_kbps)


def mpc_plan(cfg, coeffs):
    """The `accel.MpcPlan` of a session: its per-decision constants."""
    return accel.MpcPlan(
        cfg.ladder_kbps, quality_table(cfg, coeffs), cfg.mpc_horizon,
        cfg.rtt_overhead, cfg.chunk_dur, cfg.chunks_per_segment,
        coeffs.mu1, coeffs.mu2, coeffs.mu3, coeffs.mu4, coeffs.omega)


def mpc_select_bitrate(buffer, latency, pred_chunk_kbps, cfg, coeffs,
                       prev_rate_idx=-1, plan=None):
    """The first rate of the best-scoring rate sequence over the horizon.

    `plan` is `mpc_plan(cfg, coeffs)`, built here when None; a session
    builds it once and reuses it, workspace, memo and download times
    included, for every decision. A decision that can stall or drain rolls the rate sequences
    out, scoring at the last chunk only the children of prefixes that can
    still hold the best sequence. One that cannot has scores that depend
    only on the previous rate and the latency, so the session scores each
    such pair once and looks it up after that (`accel.mpc_first_rate`).
    Returns the ladder index of the first rate of the argmax sequence; ties
    break toward the lower rate.
    """
    pred = np.asarray(pred_chunk_kbps, dtype=float)
    if pred.size < cfg.mpc_horizon:
        raise StreamError("predictor output shorter than the MPC horizon")
    if plan is None:
        plan = mpc_plan(cfg, coeffs)
    return accel.mpc_first_rate(pred[:cfg.mpc_horizon], buffer, latency,
                                prev_rate_idx, plan)


# ---------------------------------------------------------------------------
# predictors
#
# A predictor is called as predictor(observed, horizon), where `observed` is
# the session's trace up to and including the current second, trace[:now+1],
# in Mbps. It returns at least `horizon` per-second forecasts in Mbps, and
# they must be a function of `observed` and `horizon` alone: a session asks
# once per second and every decision of that second reuses the forecast.
# ---------------------------------------------------------------------------


class ConstantPredictor:
    """The same throughput every second, whatever was observed."""

    def __init__(self, mbps):
        self.mbps = float(mbps)

    def __call__(self, observed, horizon):
        return np.full(horizon, self.mbps)


class HarmonicMeanPredictor:
    """Harmonic mean of the most recent positive observations: a function
    of the last `window` seconds of `observed`."""

    def __init__(self, window=5):
        self.window = window

    def __call__(self, observed, horizon):
        recent = np.asarray(observed, dtype=float)[-self.window:]
        recent = recent[recent > 0]
        if recent.size == 0:
            return np.zeros(horizon)
        hm = recent.size / np.sum(1.0 / recent)
        return np.full(horizon, hm)


class OraclePredictor:
    """Reads the future of the trace it will be evaluated on: the seconds
    after `now = len(observed) - 1`, a function of that length alone."""

    def __init__(self, trace_mbps):
        self.trace = np.asarray(trace_mbps, dtype=float)

    def __call__(self, observed, horizon):
        now = len(observed) - 1
        future = self.trace[now + 1:now + 1 + horizon]
        if future.size < horizon:
            pad = self.trace[-1] if self.trace.size else 0.0
            future = np.concatenate([future, np.full(horizon - future.size, pad)])
        return np.maximum(future, 0.0)


class ModelPredictor:
    """Federated forecaster over the client's scaled model inputs, the
    (|F|+1, T) matrix of `preprocess.model_inputs`.

    The history is known in full up front, so the forecast depends on
    `now = len(observed) - 1` alone. The forecasts of every `now` in [H, T)
    are made here, in one `models.forward` call over the stack of their
    (1, |F|+1, H+1) windows, each slice with the bits of its own
    batch-of-one call; a call is then a row lookup. StreamError when any of
    them is not finite, whether or not the session reaches its `now`.
    """

    def __init__(self, spec, params, inputs_scaled, scaler):
        inputs = np.asarray(inputs_scaled, dtype=float)
        self.history = h = spec.history
        self.fallback = HarmonicMeanPredictor()
        # row now - H: the unpadded forecast in Mbps
        self._forecasts = np.empty((0, spec.horizon))
        if inputs.shape[1] <= h:
            return
        # (T - H, 1, |F|+1, H+1): the window ending at each `now`
        x = np.lib.stride_tricks.sliding_window_view(inputs, h + 1, axis=1)
        x = x.transpose(1, 0, 2)[:, None]
        # an overflow is reported below, as a bad forecast, not as a warning
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                pred = models.forward(spec, params, x, training=False)[:, 0]
                pred = scaler.inverse_throughput(pred)
            finite = np.isfinite(pred).all()
        except models.TrainingDiverged:
            finite = False
        if not finite:
            raise StreamError(f"non-finite model forecast for a second in "
                              f"[{h}, {inputs.shape[1]}) of the session")
        self._forecasts = np.maximum(pred, 0.0)

    def __call__(self, observed, horizon):
        row = len(observed) - 1 - self.history
        if not 0 <= row < len(self._forecasts):
            return self.fallback(observed, horizon)
        pred = self._forecasts[row].copy()
        if pred.size < horizon:
            pred = np.concatenate([pred, np.full(horizon - pred.size, pred[-1])])
        return pred[:horizon]


# ---------------------------------------------------------------------------
# the session loop
# ---------------------------------------------------------------------------

_EPS = 1e-9


@dataclass
class SessionResult:
    breakdown: QoEBreakdown
    records: list
    events: list                # (time, kind, chunk, rate_kbps, buffer, latency)
    played_time: float
    stall_time: float
    skip_wait_time: float
    startup_wall: float
    end_wall: float
    chunk_rates: dict           # chunk index -> ladder index
    truncated: bool


class _Session:
    def __init__(self, trace_mbps, predictor, cfg, coeffs):
        self.trace = np.asarray(trace_mbps, dtype=float)
        if self.trace.size < cfg.session_len:
            raise StreamError(
                f"trace of {self.trace.size}s shorter than session "
                f"{cfg.session_len}s")
        # the trace's seconds as Python floats, for the per-download reads
        self.tput = self.trace.tolist()
        self.predictor = predictor
        self.cfg = cfg
        self.coeffs = coeffs
        self.cd = cfg.chunk_dur
        self.cps = cfg.chunks_per_segment
        self.n_seg = cfg.session_len
        self.media_end = self.n_seg * cfg.segment_len
        self.n_chunks = self.n_seg * self.cps
        self.frontier0 = cfg.join_prefetch_max * cfg.segment_len
        self.position = self.frontier0 - cfg.start_after * cfg.segment_len
        self.next_ci = int(round(self.position / self.cd))
        self.wall = 0.0
        self.free_at = 0.0
        self.started = False
        self.startup_wall = 0.0
        self.in_skip_recovery = False
        self.stalling = False
        self.done = False
        self.truncated = False
        self.prev_rate = -1
        self.played_t = 0.0
        self.stall_t = 0.0
        self.skip_wait_t = 0.0
        self.events = []
        self.chunk_rates = {}
        # per-segment accumulators, Python scalars
        self.seg_q_sum = [0.0] * self.n_seg
        self.seg_q_n = [0] * self.n_seg
        self.seg_stall = [0.0] * self.n_seg
        self.seg_eta = [0.0] * self.n_seg
        self.seg_latency = [math.nan] * self.n_seg
        # per-decision constants: the MPC's plan and scratch (freed with the
        # session) and which predicted second each lookahead chunk falls in
        self.mpc_plan = mpc_plan(cfg, coeffs)
        self.q_table = self.mpc_plan.q_table.tolist()
        self.horizon_sec = max(1, int(math.ceil(cfg.mpc_horizon * self.cd)))
        self.pred_idx = np.minimum(
            (np.arange(cfg.mpc_horizon) * self.cd).astype(int),
            self.horizon_sec - 1)
        # the `now` of the last forecast and its kbps per chunk
        self.pred_now = -1
        self.pred_kbps = None

    # --- geometry helpers ---------------------------------------------

    def frontier(self, t=None):
        t = self.wall if t is None else t
        return min(self.frontier0 + t, self.media_end)

    @property
    def buffer(self):
        return max(0.0, self.next_ci * self.cd - self.position)

    @property
    def latency(self):
        return self.frontier() - self.position

    def chunk_avail(self, ci):
        return max(0.0, (ci + 1) * self.cd - self.frontier0)

    def _log(self, kind, chunk=-1, rate=0.0):
        self.events.append((self.wall, kind, chunk, rate, self.buffer,
                            self.latency))

    # --- per-segment bookkeeping ----------------------------------------

    def _seg_of(self, media_pos):
        return min(int(media_pos / self.cfg.segment_len + _EPS), self.n_seg - 1)

    def _sample_latency_here(self):
        seg = self._seg_of(self.position)
        if math.isnan(self.seg_latency[seg]):
            self.seg_latency[seg] = self.latency

    def _mark_played(self, p1, p2):
        # chunks whose media end falls in (p1, p2]
        k1 = int(math.floor(p1 / self.cd + _EPS))
        k2 = int(math.floor(p2 / self.cd + _EPS))
        for k in range(k1 + 1, k2 + 1):
            ci = k - 1
            if ci in self.chunk_rates:
                seg = min(ci // self.cps, self.n_seg - 1)
                self.seg_q_sum[seg] += self.q_table[self.chunk_rates[ci]]
                self.seg_q_n[seg] += 1
        # segments beginning inside (p1, p2] get their latency sample
        s1 = int(math.floor(p1 / self.cfg.segment_len + _EPS))
        s2 = int(math.floor(p2 / self.cfg.segment_len + _EPS))
        for s in range(s1 + 1, s2 + 1):
            if s < self.n_seg and math.isnan(self.seg_latency[s]):
                t_cross = self.wall - (p2 - s * self.cfg.segment_len)
                self.seg_latency[s] = self.frontier(t_cross) - s * self.cfg.segment_len

    # --- state machine ----------------------------------------------------

    def advance_to(self, target):
        """Advance the player clock; returns True if a skip fired."""
        while self.wall < target - _EPS and not self.done:
            if not self.started:
                self.wall = target
                return False
            if self.buffer > _EPS:
                if self.stalling:
                    self.stalling = False
                    self.in_skip_recovery = False
                    self._log("stall_end")
                    self._sample_latency_here()
                t_next = min(target,
                             self.wall + self.buffer,
                             self.wall + (self.media_end - self.position))
                dt = t_next - self.wall
                p1 = self.position
                self.wall = t_next
                self.position += dt
                self.played_t += dt
                self._mark_played(p1, self.position)
                if self.position >= self.media_end - _EPS:
                    self.position = self.media_end
                    self.done = True
                    return False
            else:
                if not self.stalling:
                    self.stalling = True
                    self._log("stall_begin")
                frontier_moving = self.frontier0 + self.wall < self.media_end - _EPS
                if frontier_moving and self.latency >= self.cfg.max_latency - _EPS:
                    self._fire_skip()
                    return True
                if frontier_moving:
                    t_next = min(target, self.wall +
                                 (self.cfg.max_latency - self.latency))
                else:
                    t_next = target
                dt = t_next - self.wall
                if self.in_skip_recovery:
                    self.skip_wait_t += dt
                else:
                    self.stall_t += dt
                    self.seg_stall[self._seg_of(self.position)] += dt
                self.wall = t_next
        return False

    def _skip_media(self, end, latency):
        """Charge the media from the position to `end` as skipped, per
        overlapped segment, and give each of those segments without a
        latency sample `latency`."""
        s = self._seg_of(self.position)
        while s * self.cfg.segment_len < end - _EPS and s < self.n_seg:
            lo = max(self.position, s * self.cfg.segment_len)
            hi = min(end, (s + 1) * self.cfg.segment_len)
            if hi > lo:
                self.seg_eta[s] += hi - lo
                if math.isnan(self.seg_latency[s]):
                    self.seg_latency[s] = latency
            s += 1

    def _fire_skip(self):
        raw = self.frontier() - self.cfg.playback_threshold
        new_pos = math.floor(raw / self.cd + _EPS) * self.cd
        if new_pos <= self.position + _EPS:
            return
        self._skip_media(new_pos, self.latency)
        self.position = new_pos
        if self.next_ci * self.cd < new_pos + _EPS:
            self.next_ci = int(round(new_pos / self.cd))
            self.in_skip_recovery = True
        self._log("skip")
        if self.buffer > _EPS:
            self.in_skip_recovery = False
            self._sample_latency_here()

    # --- downloads ---------------------------------------------------------

    def _throughput_at(self, t):
        return self.tput[min(int(t), len(self.tput) - 1)]

    def _download_finish(self, t_start, mbits):
        t = t_start + self.cfg.rtt_overhead
        remaining = mbits
        while remaining > 1e-12:
            sec = int(t)
            tp = self._throughput_at(t)
            if tp <= 0.0:
                if sec >= len(self.tput) - 1:
                    return None  # zero throughput through the end of the trace
                t = float(sec + 1)
                continue
            boundary = float(sec + 1)
            span = boundary - t
            need = remaining / tp
            if need <= span + 1e-12:
                return t + need
            remaining -= tp * span
            t = boundary
        return t

    def _predict_chunks(self, t):
        """The predicted kbps of each lookahead chunk, read-only. A
        predictor is a function of the seconds observed, so it is asked once
        per second `now`, and every decision of that second reuses its
        checked forecast; `t` never decreases, so one slot holds it."""
        now = min(int(t), len(self.tput) - 1)
        if now == self.pred_now:
            return self.pred_kbps
        observed = self.trace[:now + 1]
        pred_sec = np.asarray(self.predictor(observed, self.horizon_sec),
                              dtype=float)
        if pred_sec.size < self.horizon_sec:
            raise StreamError("predictor returned too few values")
        # a nan fails both comparisons; the MPC would read it as an outage
        if not all(0.0 <= x < math.inf for x in pred_sec.ravel().tolist()):
            raise StreamError("negative or non-finite predicted throughput")
        self.pred_kbps = pred_sec[self.pred_idx] * 1000.0  # Mbps -> Kbps
        self.pred_kbps.flags.writeable = False
        self.pred_now = now
        return self.pred_kbps

    def _maybe_start(self):
        if self.started or self.done:
            return
        need = self.cfg.start_after * self.cfg.segment_len
        if self.buffer >= need - _EPS or self.next_ci >= self.n_chunks:
            self.started = True
            self.startup_wall = self.wall
            self._sample_latency_here()
            frontier_moving = self.frontier0 + self.wall < self.media_end - _EPS
            if frontier_moving and self.latency >= self.cfg.max_latency - _EPS:
                self._fire_skip()

    def _terminate(self):
        """Trace exhausted with zero capacity: cut the session here."""
        while self.advance_to(float(len(self.tput))):
            pass
        self.done = True
        self.truncated = True
        self._skip_media(self.media_end, self.latency)

    def run(self):
        while not self.done:
            if self.next_ci >= self.n_chunks:
                self._maybe_start()
                if self.advance_to(self.wall + (self.media_end - self.position)):
                    continue
                if not self.done and self.position >= self.media_end - _EPS:
                    self.done = True
                continue
            t_req = max(self.free_at, self.chunk_avail(self.next_ci), self.wall)
            ci = self.next_ci
            if self.advance_to(t_req):
                continue
            if self.done:
                break
            pred = self._predict_chunks(t_req)
            rate = mpc_select_bitrate(self.buffer, self.latency, pred,
                                      self.cfg, self.coeffs, self.prev_rate,
                                      self.mpc_plan)
            rate_kbps = self.cfg.ladder_kbps[rate]
            self._log("rate_select", chunk=ci, rate=rate_kbps)
            self._log("download_start", chunk=ci, rate=rate_kbps)
            finish = self._download_finish(t_req, rate_kbps * self.cd / 1000.0)
            if finish is None:
                self._terminate()
                break
            interrupted = self.advance_to(finish)
            while interrupted and self.next_ci == ci:
                interrupted = self.advance_to(finish)
            if self.next_ci != ci:
                self.free_at = self.wall  # in-flight chunk abandoned by a skip
                continue
            if self.done:
                break
            self.chunk_rates[ci] = rate
            self.next_ci = ci + 1
            self.free_at = finish
            self.prev_rate = rate
            self._log("download_done", chunk=ci, rate=rate_kbps)
            if self.stalling and self.buffer > _EPS:
                self.stalling = False
                self.in_skip_recovery = False
                self._log("stall_end")
                self._sample_latency_here()
            self._maybe_start()
        return self._result()

    def _result(self):
        # media before the playback start position belongs to the pre-join
        # backlog and is not part of the scored session
        start_seg = int(round((self.frontier0 - self.cfg.start_after
                               * self.cfg.segment_len) / self.cfg.segment_len))
        records = []
        for i in range(start_seg, self.n_seg):
            n = self.seg_q_n[i]
            q = self.seg_q_sum[i] / n if n else 0.0
            lat = self.seg_latency[i]
            records.append(SegmentRecord(
                index=i, quality=q, played_chunks=n, stall=self.seg_stall[i],
                latency=0.0 if math.isnan(lat) else lat,
                skipped=self.seg_eta[i]))
        breakdown = compute_qoe(records, self.coeffs)
        return SessionResult(
            breakdown=breakdown, records=records, events=self.events,
            played_time=self.played_t, stall_time=self.stall_t,
            skip_wait_time=self.skip_wait_t,
            startup_wall=self.startup_wall if self.started else self.wall,
            end_wall=self.wall, chunk_rates=self.chunk_rates,
            truncated=self.truncated)


def simulate_session(trace_mbps, predictor, cfg, coeffs):
    """Stream one session over the trace; returns the scored SessionResult."""
    return _Session(trace_mbps, predictor, cfg, coeffs).run()
