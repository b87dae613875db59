"""Hot numeric kernels, one numpy implementation each: the MPC rollout and
the 3x3 convolution with its two gradients."""

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
# prefixes of length j+1, each parent (row) followed by every rate (column)
# and raveled, which keeps the most-significant-first order. A prefix's
# state is computed once for all the sequences that share it, with the same
# per-element expressions, in the same order, as a flat rollout over all
# sequences, so the scores are bit-identical to it.
# ---------------------------------------------------------------------------


def mpc_rollout_scores(pred_kbps, ladder_kbps, q_table, buffer0, latency0,
                       prev_idx, rtt, chunk_dur, chunks_per_seg,
                       mu1, mu2, mu3, mu4, omega):
    """Score every rate sequence over the horizon; returns scores (L**h,).
    See module stream."""
    pred_kbps = np.asarray(pred_kbps, dtype=np.float64)
    ladder_kbps = np.asarray(ladder_kbps, dtype=np.float64)
    q_table = np.asarray(q_table, dtype=np.float64)
    buffer0 = float(buffer0)
    n_rates = ladder_kbps.size
    psi_base = 1.0 / (1.0 + np.exp(omega))
    bits = ladder_kbps * chunk_dur  # Kbit per chunk

    # quality minus switching penalty of each rate (column) after each
    # previous rate (row); the first chunk follows prev_idx, if any
    if prev_idx >= 0:
        sw = np.abs(q_table - q_table[prev_idx])
    else:
        sw = np.zeros(n_rates)
    gain_first = mu1 * q_table - mu3 * sw
    gain = mu1 * q_table - mu3 * np.abs(q_table[None, :] - q_table[:, None])

    buf = np.array([buffer0])
    lat = np.array([float(latency0)])
    score = np.zeros(1)
    for j, tp in enumerate(pred_kbps):
        if tp > 0.0:
            d = rtt + bits / tp
        else:
            d = np.full(n_rates, _BIG_DOWNLOAD_TIME)
        stall = np.maximum(d - buf[:, None], 0.0)
        buf = (np.maximum(buf[:, None] - d, 0.0) + chunk_dur).ravel()
        lat = (lat[:, None] + stall).ravel()
        psi = 1.0 / (1.0 + np.exp(omega - lat)) - psi_base
        # a parent's last rate cycles fastest, so its rows repeat `gain`
        g = gain_first if j == 0 else gain
        term = (g - mu4 * psi.reshape(-1, *g.shape)) / chunks_per_seg
        term = term.reshape(stall.shape) - mu2 * stall
        score = (score[:, None] + term).ravel()
    score -= mu2 * np.maximum(buffer0 - buf, 0.0)
    return score


# ---------------------------------------------------------------------------
# 3x3 same-padding convolution (stride 1), forward and both gradients.
# Shapes: x (B, C, H, W), w (F, C, 3, 3), out (B, F, H, W).
#
# Each direction is one GEMM over an im2col matrix laid out (C*9, B*H*W):
# row c*9 + ky*3 + kx holds channel c shifted by (ky - 1, kx - 1), with zero
# padding, for every output pixel of every sample. BLAS sums in its own order,
# so results differ from a sequential sum in the last bits. The gradients
# rebuild the columns instead of keeping the forward's, so no column matrix
# outlives its call: rebuilding is cheap, and kept columns add to peak memory.
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


def conv2d_forward(x, w):
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    b_n, _, h_n, w_n = x.shape
    out = w.reshape(w.shape[0], -1) @ _im2col(x)
    return np.ascontiguousarray(
        out.reshape(w.shape[0], b_n, h_n, w_n).transpose(1, 0, 2, 3))


def conv2d_grad_input(dout, w):
    dout = np.asarray(dout, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    # full correlation with the 180-degree-rotated, channel-swapped kernel
    return conv2d_forward(dout, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def conv2d_grad_weight(x, dout):
    x = np.asarray(x, dtype=np.float64)
    dout = np.asarray(dout, dtype=np.float64)
    f_n = dout.shape[1]
    dout_mat = dout.transpose(1, 0, 2, 3).reshape(f_n, -1)  # (F, B*H*W)
    return (dout_mat @ _im2col(x).T).reshape(f_n, x.shape[1], 3, 3)
