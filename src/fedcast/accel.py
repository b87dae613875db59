"""Hot numeric kernels, one numpy implementation each: the MPC rollout and
the 3x3 convolution with its two gradients."""

import math
import mmap

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
# Every depth computes in place, with out=, into a caller-owned workspace:
# at horizon 6 a per-depth temporary is 373 KB, above glibc's mmap
# threshold, so fresh temporaries would be mapped, page-faulted and
# unmapped on every decision.
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
# - The terminal drain is skipped when fl(buffer0 - buf_min) <= 0, and a
#   stall-free last depth then writes no buffers at all.
# - The download times are computed once per distinct predicted
#   throughput; at horizon <= 5 every chunk reads the same predicted
#   second.
# ---------------------------------------------------------------------------


def mpc_workspace(n_rates, horizon):
    """Scratch for `mpc_rollout_scores` over up to L**h = n_rates**horizon
    sequences: five rows of L**h and three of L**(h-1)."""
    n = 5 * n_rates ** horizon + 3 * n_rates ** (horizon - 1)
    # an anonymous mapping of its own, unmapped when the array is freed:
    # malloc would serve 2 MB (horizon 6) by mmap too, but freeing it would
    # raise glibc's dynamic mmap threshold to 2 MB for the rest of the
    # process and change how every later large array is allocated
    return np.frombuffer(mmap.mmap(-1, 8 * n), dtype=np.float64)


def _latency_cost(lat, omega, psi_base, mu4, out):
    """mu4 * psi(lat) into `out`: the rollout's one latency expression."""
    np.subtract(omega, lat, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    np.divide(1.0, out, out=out)
    np.subtract(out, psi_base, out=out)
    np.multiply(mu4, out, out=out)
    return out


def mpc_rollout_scores(pred_kbps, ladder_kbps, q_table, buffer0, latency0,
                       prev_idx, rtt, chunk_dur, chunks_per_seg,
                       mu1, mu2, mu3, mu4, omega, work=None):
    """Score every rate sequence over the horizon; returns scores (L**h,),
    a new array. `work` is an `mpc_workspace` at least this large, reused
    across calls; one is allocated for the call when it is None.
    See module stream."""
    pred_kbps = np.asarray(pred_kbps, dtype=np.float64)
    ladder_kbps = np.asarray(ladder_kbps, dtype=np.float64)
    q_table = np.asarray(q_table, dtype=np.float64)
    buffer0 = float(buffer0)
    n_rates = ladder_kbps.size
    horizon = pred_kbps.size
    n_seq = n_rates ** horizon
    n_half = n_rates ** (horizon - 1)
    if work is None:
        work = mpc_workspace(n_rates, horizon)
    if work.size < 5 * n_seq + 3 * n_half:
        raise ValueError(f"MPC workspace of {work.size} values is too small "
                         f"for {n_rates} rates over {horizon} chunks")
    psi_base = 1.0 / (1.0 + np.exp(omega))
    bits = ladder_kbps * chunk_dur  # Kbit per chunk

    # quality minus switching penalty of each rate after each previous rate
    # (gain[prev, rate]); the first chunk follows prev_idx, if any
    if prev_idx >= 0:
        sw = np.abs(q_table - q_table[prev_idx])
    else:
        sw = np.zeros(n_rates)
    gain_first = mu1 * q_table - mu3 * sw
    gain = mu1 * q_table - mu3 * np.abs(q_table[None, :] - q_table[:, None])

    # buffer, latency and score of every prefix ping-pong between two row
    # sets by depth parity, so that the last depth lands in the L**h set
    rows = work[:3 * n_seq].reshape(3, n_seq)
    half = work[3 * n_seq:3 * n_seq + 3 * n_half].reshape(3, n_half)
    stall_row = work[3 * n_seq + 3 * n_half:4 * n_seq + 3 * n_half]
    term_row = work[4 * n_seq + 3 * n_half:5 * n_seq + 3 * n_half]
    buf = np.array([buffer0])
    lat = np.array([float(latency0)])
    score = np.zeros(1)
    buf_min = buffer0  # the smallest buffer of any prefix, exactly
    # a zero stall or drain costs mu2 * 0.0, a zero unless mu2 is inf or nan;
    # its sign is kept by no score, as every score starts from +0.0
    zero_cost = math.isfinite(mu2)
    stall_free = zero_cost
    tp_prev = None
    for j, tp in enumerate(pred_kbps):
        if tp != tp_prev:
            if tp > 0.0:
                d = rtt + bits / tp
            else:
                d = np.full(n_rates, _BIG_DOWNLOAD_TIME)
            d = d[:, None]
            d_max = d.max()
            tp_prev = tp
        shape = (n_rates, buf.size)
        n_ch = n_rates * buf.size
        state = rows if (horizon - 1 - j) % 2 == 0 else half
        buf_c, lat_c, score_c = (r[:n_ch].reshape(shape) for r in state)
        stall_free = stall_free and d_max - buf_min <= 0.0

        if stall_free:
            buf_min = (buf_min - d_max) + chunk_dur
            if j < horizon - 1 or buffer0 - buf_min > 0.0:
                np.subtract(buf, d, out=buf_c)
                np.add(buf_c, chunk_dur, out=buf_c)
            if j == 0:
                # stall-free depths are a leading run, so every prefix they
                # hold has latency0
                cost = _latency_cost(lat, omega, psi_base, mu4, np.empty(1))
                term = (gain_first - cost) / chunks_per_seg
                np.add(score, term[:, None], out=score_c)
                term_next = (gain.T - cost) / chunks_per_seg
            else:
                # the parent's own last rate is its most significant digit
                np.add(score.reshape(1, n_rates, -1), term_next[:, :, None],
                       out=score_c.reshape(n_rates, n_rates, -1))
            buf, score = buf_c.ravel(), score_c.ravel()
            continue

        buf_min = max(buf_min - d_max, 0.0) + chunk_dur
        stall = stall_row[:n_ch].reshape(shape)
        term = term_row[:n_ch].reshape(shape)
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
            # the parent's own last rate is its most significant digit
            by_prev = term.reshape(n_rates, n_rates, -1)
            np.subtract(gain.T[:, :, None], by_prev, out=by_prev)
        np.divide(term, chunks_per_seg, out=term)
        np.multiply(mu2, stall, out=stall)
        np.subtract(term, stall, out=term)
        np.add(score, term, out=score_c)
        buf, lat, score = buf_c.ravel(), lat_c.ravel(), score_c.ravel()

    if not zero_cost or buffer0 - buf_min > 0.0:
        drain = stall_row[:n_seq]
        np.subtract(buffer0, buf, out=drain)
        np.maximum(drain, 0.0, out=drain)
        np.multiply(mu2, drain, out=drain)
        np.subtract(score, drain, out=score)
    # rate-major (last chunk most significant) -> first chunk most significant
    scores = np.empty(n_seq)
    digits = (n_rates,) * horizon
    np.copyto(scores.reshape(digits), score.reshape(digits).T)
    return scores


# ---------------------------------------------------------------------------
# 3x3 same-padding convolution (stride 1), forward and both gradients.
# Shapes: x (B, C, H, W), w (F, C, 3, 3), out (B, F, H, W).
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
    b_n, c_n, h_n, w_n = x.shape
    xp = np.zeros((c_n, b_n, h_n + 2, w_n + 2))
    xp[:, :, 1:-1, 1:-1] = x.transpose(1, 0, 2, 3)
    cols = np.empty((c_n, 3, 3, b_n, h_n, w_n))
    for ky in range(3):
        for kx in range(3):
            cols[:, ky, kx] = xp[:, :, ky:ky + h_n, kx:kx + w_n]
    return cols.reshape(c_n * 9, b_n * h_n * w_n)


def conv2d_forward(x, w, keep_cols=False):
    """The convolution of x with w; with keep_cols, (out, cols): the im2col
    matrix of x as well, for `conv2d_grad_weight`."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b_n, _, h_n, w_n = x.shape
    cols = _im2col(x)
    out = w.reshape(w.shape[0], -1) @ cols
    if not keep_cols:
        cols = None  # freed before the copy below, as it is not returned
    out = np.ascontiguousarray(
        out.reshape(w.shape[0], b_n, h_n, w_n).transpose(1, 0, 2, 3))
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
