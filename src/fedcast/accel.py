"""Hot numeric kernels, one numpy implementation each: the MPC rollout and
the 3x3 convolution with its two gradients."""

import math
import mmap
from collections import namedtuple

import numpy as np

NUMBA_ENABLED = False  # no compiled kernels; read by the benchmark's report

_BIG_DOWNLOAD_TIME = 1e9  # seconds; stands in for "throughput is zero"


# ---------------------------------------------------------------------------
# MPC rollout scoring
#
# Scores every rate sequence of length `horizon` over the bitrate ladder.
# Sequence s encodes rate indices base-L with the FIRST chunk as the most
# significant digit, so np.argmax(scores) breaks ties toward the lowest
# first rate (lexicographically smallest maximal sequence).
#
# Besides the per-chunk quality/stall/switch/latency terms, a terminal
# buffer-sustainability charge prices any net buffer drain over the horizon
# as future stall seconds; without it a short horizon starting from a full
# buffer cannot see that a rate above the channel capacity is unsustainable.
#
# The sequences are expanded as a prefix tree: depth j holds the L**(j+1)
# prefixes of length j+1, and a prefix's state is computed once for all the
# sequences that share it, with the same per-element expressions, in the
# same order, as a flat rollout over all sequences, so the scores are
# bit-identical to it. Inside the tree the NEWEST rate is the most
# significant digit (child r*P + p of parent p), so every broadcast is a
# per-rate column against a long contiguous row of parents; the scores are
# put back in first-chunk-first order once, at the end.
#
# Every depth computes in place, with out=, into a workspace: at horizon 6 a
# per-depth temporary is 373 KB, above glibc's mmap threshold, so fresh
# temporaries would be mapped, page-faulted and unmapped on every decision.
#
# What does not change between a session's decisions is an `MpcPlan`, built
# once per session: the ladder's Kbit per chunk, the (L, L) gain table and
# each first chunk's gain row, psi's base, the workspace and every depth's
# views of it. A decision brings only its predicted throughputs, buffer,
# latency and previous rate.
#
# Work that provably adds +0.0 is skipped; every skip rests on rounding
# being monotone, so the smallest buffer of any prefix is the scalar
# recurrence of the expressions at the smallest parent buffer and the
# longest download, and no reduction over the prefixes is needed:
# - A depth is stall-free when fl(d_max - buf_min) <= 0: then every
#   fl(d - buf) <= 0, every stall is +0.0, `lat + 0.0` gives the same exp
#   argument as `lat`, `term - mu2 * 0.0` adds the same to a score as
#   `term` (for a finite mu2) and max(buf - d, 0) is buf - d. Until the
#   first depth that can stall, every prefix's latency is latency0, so the
#   latency charge is one value per decision and the whole term is an
#   (L, L) table by (last rate, rate): a stall-free depth is a buffer
#   subtract, a buffer add and one broadcast score add. The first depth
#   that can stall and every depth after it run the general expressions.
# - That one latency charge goes through the same array expressions, on a
#   1-element array: libm's exp (math.exp) differs from numpy's SIMD
#   kernel in the last bit on ~5% of arguments, while the array kernel
#   gives the same bits at every length and stride.
# - The terminal drain is skipped when fl(buffer0 - buf_min) <= 0. When it
#   is skipped and every depth is stall-free, the buffers reach no score
#   and no depth writes them.
# - The download times are computed once per distinct predicted
#   throughput; at horizon <= 5 every chunk reads the same predicted
#   second. The longest is rtt + bits_max / tp, which rounds to the
#   largest of rtt + bits / tp, so `_buffer_walk` runs the smallest-buffer
#   recurrence on scalars, before any array is touched.
#
# A decision that cannot stall at any depth and skips the drain therefore
# has scores that depend on nothing but the plan, the previous rate and
# latency0: the first depth adds (gain_first[prev] - cost(latency0)) /
# chunks_per_seg to +0.0, and every later depth adds the (L, L) table
# term_next[rate, last rate], built from the same cost. Its argmax is then
# the same for every such decision with that previous rate and latency0,
# whatever its buffer and predicted throughputs. `mpc_first_rate` keeps
# the first rate of each in the plan's `first_rates` dict, one per
# session: a repeat is a dict lookup, and a first sight, a decision that
# can stall or drain, a nan latency0 (never equal to itself) or an
# infinite or nan mu2 (a zero stall is not free) runs the full rollout.
# On perfbench's demo_all (seed 7), 1,013 of 1,240 decisions per pass are
# lookups, 90 are first sights and 137 can stall or drain.
# ---------------------------------------------------------------------------


def mpc_workspace(n_rates, horizon):
    """Scratch for `mpc_rollout_scores` over L**h = n_rates**horizon
    sequences: five rows of L**h and three of L**(h-1)."""
    n = 5 * n_rates ** horizon + 3 * n_rates ** (horizon - 1)
    # an anonymous mapping of its own, unmapped when the array is freed:
    # malloc would serve 2 MB (horizon 6) by mmap too, but freeing it would
    # raise glibc's dynamic mmap threshold to 2 MB for the rest of the
    # process and change how every later large array is allocated
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


# One depth's views of the workspace: buffer, latency and score of its
# prefixes by (rate, parent), the same rows flat, its stall and term rows,
# and by (rate, parent's rate, rest of the parent) its scores, its terms and
# its parents' scores
_Depth = namedtuple("_Depth", "buf lat score buf_flat lat_flat score_flat "
                              "stall term score_by_prev term_by_prev "
                              "parent_score")


class MpcPlan:
    """What `mpc_rollout_scores` needs besides a decision's own state,
    built once per session: the ladder's Kbit per chunk, the (L, L) gain
    table and the first chunk's gain row after each previous rate, psi's
    base, a workspace and, for every depth, its views of the workspace."""

    def __init__(self, ladder_kbps, q_table, horizon, rtt, chunk_dur,
                 chunks_per_seg, mu1, mu2, mu3, mu4, omega):
        ladder = np.asarray(ladder_kbps, dtype=np.float64)
        q = np.asarray(q_table, dtype=np.float64)
        n_rates = ladder.size
        self.ladder_kbps, self.q_table, self.horizon = ladder, q, horizon
        self.rtt, self.chunk_dur, self.chunks_per_seg = (rtt, chunk_dur,
                                                         chunks_per_seg)
        self.mu1, self.mu2, self.mu3, self.mu4 = mu1, mu2, mu3, mu4
        self.omega = omega
        self.psi_base = 1.0 / (1.0 + np.exp(omega))
        self.bits = ladder * chunk_dur  # Kbit per chunk
        self.bits_max = float(self.bits.max())
        # quality minus switching penalty of each rate after each previous
        # rate (gain[prev, rate]); the first chunk's row is gain[prev_idx],
        # or the last row, read as row -1, with no switch when there is none
        gain = mu1 * q - mu3 * np.abs(q[None, :] - q[:, None])
        self.gain_t = gain.T
        self.gain_first = np.vstack([gain, mu1 * q - mu3 * np.zeros(n_rates)])
        # a zero stall or drain costs mu2 * 0.0, a zero unless mu2 is inf or
        # nan; its sign is kept by no score, as every score starts from +0.0
        self.zero_cost = math.isfinite(mu2)

        # buffer, latency and score of every prefix ping-pong between two
        # row sets by depth parity, so that the last depth lands in the L**h
        # set; each depth j holds L**(j+1) prefixes, by (rate, parent)
        n_seq = n_rates ** horizon
        n_half = n_rates ** (horizon - 1)
        self.work = work = mpc_workspace(n_rates, horizon)
        rows = work[:3 * n_seq].reshape(3, n_seq)
        half = work[3 * n_seq:3 * n_seq + 3 * n_half].reshape(3, n_half)
        stall_row = work[3 * n_seq + 3 * n_half:4 * n_seq + 3 * n_half]
        term_row = work[4 * n_seq + 3 * n_half:]
        self.depths = []
        for j in range(horizon):
            shape = (n_rates, n_rates ** j)
            n_ch = n_rates ** (j + 1)
            state = rows if (horizon - 1 - j) % 2 == 0 else half
            flat = [r[:n_ch] for r in (*state, stall_row, term_row)]
            buf, lat, score, stall, term = (r.reshape(shape) for r in flat)
            by_prev = (None, None, None)
            if j:
                # the parent's own last rate is its most significant digit
                by_prev = (score.reshape(n_rates, n_rates, -1),
                           term.reshape(n_rates, n_rates, -1),
                           self.depths[-1].score_flat.reshape(1, n_rates, -1))
            self.depths.append(_Depth(buf, lat, score, *flat[:3], stall,
                                      term, *by_prev))
        self.drain = stall_row[:n_seq]
        # the last depth's scores, rate-major (last chunk most significant),
        # read first chunk most significant
        self.digits = (n_rates,) * horizon
        self.scores_by_first = self.depths[-1].score_flat.reshape(
            self.digits).T
        self.n_rest = n_half  # sequences per first rate
        # the first rate of every stall- and drain-free decision scored so
        # far, by (previous rate, latency): all its scores depend on these
        self.first_rates = {}


def _latency_cost(lat, omega, psi_base, mu4, out):
    """mu4 * psi(lat) into `out`: the rollout's one latency expression."""
    np.subtract(omega, lat, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    np.subtract(out, psi_base, out=out)
    np.multiply(mu4, out, out=out)
    return out


def _prediction(pred_kbps, plan):
    """The predicted kbps of a decision as float64, one per depth."""
    pred_kbps = np.asarray(pred_kbps, dtype=np.float64)
    if pred_kbps.size != plan.horizon:
        raise ValueError(f"{pred_kbps.size} predicted chunks for an MPC plan "
                         f"over {plan.horizon}")
    return pred_kbps


def _buffer_walk(pred_kbps, buffer0, plan):
    """The smallest buffer of any prefix, depth by depth: the scalar
    recurrence at the longest download. Returns how many leading depths
    are stall-free and whether the terminal drain applies."""
    rtt, bits_max, chunk_dur = plan.rtt, plan.bits_max, plan.chunk_dur
    n_free = 0
    stall_free = plan.zero_cost
    buf_min = buffer0
    tp_prev = None
    for tp in pred_kbps.tolist():
        if tp != tp_prev:
            # the largest of rtt + bits / tp, by monotone rounding
            d_max = rtt + bits_max / tp if tp > 0.0 else _BIG_DOWNLOAD_TIME
            tp_prev = tp
        stall_free = stall_free and d_max - buf_min <= 0.0
        n_free += stall_free
        buf_min = max(buf_min - d_max, 0.0) + chunk_dur
    return n_free, not plan.zero_cost or buffer0 - buf_min > 0.0


def mpc_rollout_scores(pred_kbps, buffer0, latency0, prev_idx, plan):
    """Score every rate sequence over the horizon; returns scores (L**h,),
    a new array. `plan` is the session's `MpcPlan`, whose workspace the
    call reuses. See module stream."""
    pred_kbps = _prediction(pred_kbps, plan)
    buffer0 = float(buffer0)
    horizon = plan.horizon
    n_rates = plan.ladder_kbps.size
    rtt, bits, chunk_dur = plan.rtt, plan.bits, plan.chunk_dur
    chunks_per_seg, mu2, mu4 = plan.chunks_per_seg, plan.mu2, plan.mu4
    omega, psi_base = plan.omega, plan.psi_base
    gain_first = plan.gain_first[prev_idx]
    n_free, drain = _buffer_walk(pred_kbps, buffer0, plan)
    # a stall-free depth's buffers reach no score unless a later depth can
    # stall or the drain applies
    keep_buf = n_free < horizon or drain

    buf = np.array([buffer0])
    lat = np.array([float(latency0)])
    score = np.zeros(1)
    tp_prev = None
    for j, tp in enumerate(pred_kbps):
        if tp != tp_prev:
            if tp > 0.0:
                d = rtt + bits / tp
            else:
                d = np.full(n_rates, _BIG_DOWNLOAD_TIME)
            d = d[:, None]
            tp_prev = tp
        (buf_c, lat_c, score_c, buf_flat, lat_flat, score_flat, stall, term,
         score_by_prev, term_by_prev, parent_score) = plan.depths[j]

        if j < n_free:
            if keep_buf:
                np.subtract(buf, d, out=buf_c)
                np.add(buf_c, chunk_dur, out=buf_c)
            if j == 0:
                # stall-free depths are a leading run, so every prefix they
                # hold has latency0
                cost = _latency_cost(lat, omega, psi_base, mu4, np.empty(1))
                term = (gain_first - cost) / chunks_per_seg
                np.add(score, term[:, None], out=score_c)
                term_next = (plan.gain_t - cost) / chunks_per_seg
            else:
                np.add(parent_score, term_next[:, :, None], out=score_by_prev)
            buf, score = buf_flat, score_flat
            continue

        np.subtract(d, buf, out=stall)
        np.maximum(stall, 0.0, out=stall)
        np.subtract(buf, d, out=buf_c)
        np.maximum(buf_c, 0.0, out=buf_c)
        np.add(buf_c, chunk_dur, out=buf_c)
        np.add(lat, stall, out=lat_c)
        # term = (gain - mu4 * psi(lat)) / chunks_per_seg - mu2 * stall
        _latency_cost(lat_c, omega, psi_base, mu4, out=term)
        if j == 0:
            np.subtract(gain_first[:, None], term, out=term)
        else:
            np.subtract(plan.gain_t[:, :, None], term_by_prev,
                        out=term_by_prev)
        np.divide(term, chunks_per_seg, out=term)
        np.multiply(mu2, stall, out=stall)
        np.subtract(term, stall, out=term)
        np.add(score, term, out=score_c)
        buf, lat, score = buf_flat, lat_flat, score_flat

    if drain:
        charge = plan.drain
        np.subtract(buffer0, buf, out=charge)
        np.maximum(charge, 0.0, out=charge)
        np.multiply(mu2, charge, out=charge)
        np.subtract(score, charge, out=score)
    # rate-major (last chunk most significant) -> first chunk most significant
    scores = np.empty(score.size)
    np.copyto(scores.reshape(plan.digits), plan.scores_by_first)
    return scores


def mpc_first_rate(pred_kbps, buffer0, latency0, prev_idx, plan):
    """The ladder index of the first rate of the best sequence, the argmax
    of `mpc_rollout_scores` (ties break toward the lower rate). A decision
    that cannot stall or drain is answered from `plan.first_rates` when a
    decision of the session with its previous rate and latency was scored
    before."""
    pred_kbps = _prediction(pred_kbps, plan)
    buffer0, latency0 = float(buffer0), float(latency0)
    n_free, drain = _buffer_walk(pred_kbps, buffer0, plan)
    key = None
    # a nan latency is never equal to itself, so it takes no memo entry
    if n_free == plan.horizon and not drain and latency0 == latency0:
        key = (prev_idx, latency0)
        rate = plan.first_rates.get(key)
        if rate is not None:
            return rate
    scores = mpc_rollout_scores(pred_kbps, buffer0, latency0, prev_idx, plan)
    # sequences are encoded most-significant-digit-first, so the integer
    # division recovers the first chunk's rate; ties already broke low
    rate = int(np.argmax(scores)) // plan.n_rest
    if key is not None:
        plan.first_rates[key] = rate
    return rate


# ---------------------------------------------------------------------------
# 3x3 same-padding convolution (stride 1), forward and both gradients.
# Shapes: x (B, C, H, W), w (F, C, 3, 3), out (B, F, H, W). The forward also
# takes a stack of inputs, x (T, B, C, H, W): it runs one GEMM per slice, each
# with the operands of that slice's own call.
#
# Each direction is one GEMM over an im2col matrix laid out (C*9, B*H*W):
# row c*9 + ky*3 + kx holds channel c shifted by (ky - 1, kx - 1), with zero
# padding, for every output pixel of every sample. BLAS sums in its own order,
# so results differ from a sequential sum in the last bits. The forward hands
# its columns out on request (keep_cols) and the weight gradient takes them
# (cols), so a training step builds each layer's input columns once; the
# columns are rebuilt only when none are passed.
# ---------------------------------------------------------------------------


def _im2col(x):
    *lead, b_n, c_n, h_n, w_n = x.shape
    xp = np.zeros((*lead, c_n, b_n, h_n + 2, w_n + 2))
    xp[..., 1:-1, 1:-1] = np.swapaxes(x, -4, -3)
    cols = np.empty((*lead, c_n, 3, 3, b_n, h_n, w_n))
    for ky in range(3):
        for kx in range(3):
            cols[..., ky, kx, :, :, :] = xp[..., ky:ky + h_n, kx:kx + w_n]
    return cols.reshape(*lead, c_n * 9, b_n * h_n * w_n)


def conv2d_forward(x, w, keep_cols=False):
    """The convolution of x with w; with keep_cols, (out, cols): the im2col
    matrix of x as well, for `conv2d_grad_weight`."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    *lead, b_n, _, h_n, w_n = x.shape
    cols = _im2col(x)
    out = w.reshape(w.shape[0], -1) @ cols
    if not keep_cols:
        cols = None  # freed before the copy below, as it is not returned
    out = np.ascontiguousarray(np.swapaxes(
        out.reshape(*lead, w.shape[0], b_n, h_n, w_n), -4, -3))
    return out if cols is None else (out, cols)


def conv2d_grad_input(dout, w):
    dout = np.asarray(dout, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    # full correlation with the 180-degree-rotated, channel-swapped kernel
    return conv2d_forward(dout, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def conv2d_grad_weight(x, dout, cols=None):
    """The weight gradient; `cols` is x's im2col matrix from the forward,
    built here when None."""
    x = np.asarray(x, dtype=np.float64)
    dout = np.asarray(dout, dtype=np.float64)
    if cols is None:
        cols = _im2col(x)
    f_n = dout.shape[1]
    dout_mat = dout.transpose(1, 0, 2, 3).reshape(f_n, -1)  # (F, B*H*W)
    return (dout_mat @ cols.T).reshape(f_n, x.shape[1], 3, 3)
