"""Hot numeric kernels, one numpy implementation each: the MPC rollout and
the 3x3 convolution with its two gradients."""

import math
import mmap
from collections import namedtuple

import numpy as np

NUMBA_ENABLED = False  # no compiled kernels; read by the benchmark's report

_BIG_DOWNLOAD_TIME = 1e9  # seconds; stands in for "throughput is zero"
# the fewest last-depth parents, L**(h-1), at which bounding depth h-3
# first pays: below it, its fixed cost is more than a dense depth h-2
_TWO_LEVEL_MIN_PARENTS = 5000


# ---------------------------------------------------------------------------
# MPC rollout scoring
#
# Scores the rate sequences of length `horizon` over the bitrate ladder and
# returns those it scored, (seq, score). Sequence s encodes rate indices
# base-L with the FIRST chunk as the most significant digit. A sequence
# whose score is proven strictly below the best one is not scored (see the
# branch-and-bound below), so every score returned, and the lowest s of
# the best, are those of scoring every sequence.
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
# per-rate column against a long contiguous row of parents. Depths 0..h-3
# are dense; depth h-2 is dense or built below some prefixes only, and the
# last depth scores the children of some parents only. One routine,
# `expand`, builds every depth: a dense depth is `expand` over every
# parent, the others over a gathered row of parents.
#
# Every depth computes in place, with out=, into a workspace of rows of
# L**(h-1) values and fewer (62 KB at horizon 6); no row of all L**h
# sequences is made, and a call allocates little but the leaves it returns.
#
# What does not change between a session's decisions is an `MpcPlan`, built
# once per session (see its docstring); a decision brings only its
# predicted throughputs, buffer, latency and previous rate.
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
#   subtract, a buffer add, a gather of the table by each parent's last
#   rate and one score add. The first depth that can stall and every depth
#   after it run the general expressions.
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
# The last two depths are a branch-and-bound. A prefix p with n = 1 or 2
# chunks to come gets a bound U(p) on every leaf below it, from quantities
# the tree holds: per chunk to come, the best gain less a latency charge
# and less mu2 times a stall, added to p's score in the rollout's order,
# then less the drain. Rounding is monotone, fl(x) <= fl(y) when x <= y:
# fl(a + b), fl(a / k) and fl(m * a) do not fall as a grows, and fl(a - b)
# does not rise as b grows. With every coefficient m >= 0, which `MpcPlan`
# checks, and k = chunks_per_seg > 0, every leaf's score is <= U(p):
# - A chunk's term is fl(fl(fl(g - c) / k) - fl(mu2 * stall)). Its gain g
#   is at most G, the exact largest gain after p's last rate (`gain_max`)
#   for the first chunk to come, and after any rate (`gain_top`) for a
#   second.
# - Its latency charge c is at least c_lb, p's own charge less a margin. A
#   latency only grows, fl(lat + stall) >= lat, so a leaf's charge is no
#   smaller than p's as long as exp is monotone, which numpy's SIMD kernel
#   does not promise. With an exp within 2^-32 relative of the true one
#   (numpy's are within a few ULP), the four roundings after it put the
#   leaf's charge less than mu4 * (2^-31 + 2^-49) below p's; the margin,
#   mu4 * 2^-30 + 2^-1000, covers that, the rounding of the subtraction
#   and any subnormal rounding.
# - Every download d is at least the shortest, d_min = rtt + bits_min / tp
#   by monotone rounding, so from a buffer b the stall is at least
#   max(fl(d_min - b), 0) and the next buffer at most
#   fl(max(fl(b - d_min), 0) + chunk_dur). The first chunk's stall is taken
#   at p's buffer, the second's at the largest buffer after the first, and
#   the drain charge at the largest end buffer, mu2 * max(buffer0 - it, 0).
#   Every buffer is chunk_dur or more, so when d_min fits in a chunk the
#   stall bound is 0 and max(., 0) keeps its argument: both are skipped.
# - When the last depth is stall-free, a child's score is p's plus
#   term_next[rate, last rate], so the bound is p's score plus the largest
#   entry of its column, exactly, minus the drain bound.
# A dense depth leaves its prefixes' latency charges in the bound row (its
# `cost` row), where their bound reads them.
#
# The first level bounds the L**(h-2) prefixes of depth h-3 (n = 2) when a
# depth up to h-3 can stall and the session has `_TWO_LEVEL_MIN_PARENTS`
# last-depth parents or more. Its fixed cost, the bound and two expansions
# of one prefix, is more than a dense depth h-2 of fewer parents saves (at
# 4 to 8 rates and horizons 4 to 7 on a 2-core x86 host it lost at 4,096
# parents and won at 7,776). The L**2 leaves below the prefix with the
# highest bound are scored exactly, and the best is the incumbent. Depth
# h-2 is then built only below the prefixes whose bound reaches it, by
# `expand` on a gathered row of them, in the rows the dense depth h-2
# takes; when that is the highest-bound prefix alone, its leaves are the
# result. The last level bounds the last depth's parents (n = 1): those
# the first level built, against its incumbent, or every parent of the
# dense depth h-2, against the best child of the parent with the highest
# bound (when the last depth is stall-free and does not drain, the highest
# bound is itself a child's score). The children of every parent whose
# bound reaches the incumbent are scored by `expand` on a gathered row of
# those parents. A skipped leaf's score is <= U(p) < incumbent <= the best
# score.
#
# Every sequence is scored, L**(h-1) // L parents per pass, when the
# horizon is 1, when a session constant is not finite (mu2, in particular),
# when a download of the last depth is infinite (a free stall, mu2 = 0,
# costs 0 * inf = nan there, which a bound at a finite shorter download
# does not see) or when any bound is nan (as a nan latency makes every
# bound): np.argmax stops at the first nan, so one test finds it. The first
# level runs under the same conditions at depth h-2 and h-3, and at a
# horizon of 3 or more; otherwise depth h-2 is dense. When anything is
# pruned, no leaf scores nan.
# On perfbench's stream_outage_h6 (seed 7), 393 rollouts per pass run the
# first level in 251, which keep 905 of their 325,296 prefixes of depth
# h-3 (155 keep only the highest-bound one, at most 51 are kept) and build
# 6,006 of their 1,951,776 prefixes of depth h-2, incumbents included. The
# last level scores the children of 6,146 of its 1,109,622 parents: 40,710
# leaves are scored, incumbents included, against 82,098 with the last
# level alone, and 36,876 are returned, of 18,335,808 sequences. demo_all
# runs at horizon 5, 1,296 parents, without the first level.
#
# A decision that cannot stall at any depth and skips the drain therefore
# has scores that depend on nothing but the plan, the previous rate and
# latency0: the first depth adds (gain_first[prev] - cost(latency0)) /
# chunks_per_seg to +0.0, and every later depth adds the (L, L) table
# term_next[rate, last rate], built from the same cost. So does its first
# rate, which `mpc_first_rate` keeps in the plan's `first_rates` dict by
# (previous rate, latency0): a repeat is a dict lookup, and a first sight,
# a decision that can stall or drain, a nan latency0 (never equal to
# itself) or an infinite or nan mu2 (a zero stall is not free) runs the
# rollout.
# On perfbench's demo_all (seed 7), 1,013 of 1,240 decisions per pass are
# lookups, 90 are first sights and 137 can stall or drain.
# ---------------------------------------------------------------------------


def _workspace(sizes):
    """Rows of the given sizes cut from one float64 buffer, an anonymous
    mapping of its own that is unmapped when the last row is freed."""
    # malloc would serve the buffer by mmap too (it is 0.78 MB at horizon
    # 6), but freeing it would raise glibc's dynamic mmap threshold to its
    # size for the rest of the process and change how every later large
    # array is allocated
    work = np.frombuffer(mmap.mmap(-1, 8 * sum(sizes)), dtype=np.float64)
    return work, np.split(work, np.cumsum(sizes)[:-1])


# Rows for the children of some prefixes, by (rate, parent): their buffer,
# latency, score, stall, term and latency charge, and the gain or term
# table gathered by each parent's last rate. The charge row is the term row
# but at a dense depth, whose charges stay in the bound row.
_Kids = namedtuple("_Kids", "buf lat score stall term cost table")


class MpcPlan:
    """What `mpc_rollout_scores` needs besides a decision's own state,
    built once per session: the ladder's Kbit per chunk, the (L, L) gain
    table and the first chunk's gain row after each previous rate, psi's
    base, the bounds' constants and whether the search's first level
    runs, a workspace and, for every depth but the last, its rows shaped
    (L, parents), its parents' last rates and its prefixes' flat rows.
    The coefficients mu1-mu4 must be non-negative, as the bounds
    assume."""

    def __init__(self, ladder_kbps, q_table, horizon, rtt, chunk_dur,
                 chunks_per_seg, mu1, mu2, mu3, mu4, omega):
        for name, mu in (("mu1", mu1), ("mu2", mu2), ("mu3", mu3),
                         ("mu4", mu4)):
            if mu < 0:
                raise ValueError(f"MPC coefficient {name} is negative: {mu}")
        if not chunks_per_seg > 0:
            raise ValueError(f"chunks_per_seg must be positive, got "
                             f"{chunks_per_seg}")
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
        # the bounds: the best gain after each last rate and after any rate,
        # the smallest chunk, the margin under a prefix's latency charge,
        # and whether the session's constants allow pruning at all
        self.gain_max = self.gain_t.max(axis=0)
        self.gain_top = self.gain_max.max()
        self.bits_min = float(self.bits.min())
        self.cost_margin = mu4 * 2.0 ** -30 + 2.0 ** -1000
        self.prunable = horizon > 1 and bool(
            np.isfinite([mu1, mu2, mu3, mu4, omega, chunk_dur]).all()
            and np.isfinite(q).all() and np.isfinite(self.bits).all())
        self.rates = np.arange(n_rates)
        n_par = n_rates ** (horizon - 1)
        self.two_level = (self.prunable and horizon >= 3
                          and n_par >= _TWO_LEVEL_MIN_PARENTS)

        # buffer, latency and score of every prefix of depths 0..h-2
        # ping-pong between two row sets by depth parity, so that depth h-2,
        # the last depth's L**(h-1) parents, lands in the larger set; each
        # depth j holds L**(j+1) prefixes, by (rate, parent)
        n_half = n_par // n_rates  # none at horizon 1
        self.block = max(n_half, 1)  # parents whose children one pass scores
        n_kid = n_rates * self.block
        self.work, rows = _workspace([n_par] * 6 + [n_half] * 3
                                     + [n_kid] * 6)
        full, (stall_row, term_row, self.bound), half = (
            rows[0:3], rows[3:6], rows[6:9])
        table = rows[14]
        self.kids = _Kids(*rows[9:14], rows[13], table)
        # depth h-2 for the prefixes of depth h-3 that the bound keeps, in
        # the rows the dense depth h-2 would take
        self.mid = _Kids(*full, stall_row, term_row, term_row, table)
        # a dense depth j: its rows, each parent's last rate (its most
        # significant digit) and its prefixes' buffer, latency and score
        self.tree = []
        for j in range(horizon - 1):
            n_ch = n_rates ** (j + 1)
            state = full if (horizon - 2 - j) % 2 == 0 else half
            flat = [r[:n_ch] for r in (*state, stall_row, term_row,
                                       self.bound, table)]
            last = np.repeat(self.rates, n_rates ** (j - 1)) if j else None
            self.tree.append((_Kids(*(r.reshape(n_rates, -1) for r in flat)),
                              last, flat[:3]))
        # each parent's index in first-chunk-first order: the reversal of
        # its digits, which is its own inverse
        self.parent_seq = np.arange(n_par).reshape(
            (n_rates,) * (horizon - 1)).T.ravel()
        self.n_rest = n_par  # sequences per first rate
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


def _shortest(tp, plan):
    """The shortest download at throughput tp, by monotone rounding."""
    return plan.rtt + plan.bits_min / tp if tp > 0.0 else _BIG_DOWNLOAD_TIME


def _finite(tp, plan):
    """Whether the longest download at throughput tp is finite."""
    return not tp > 0.0 or math.isfinite(plan.rtt + plan.bits_max / tp)


def mpc_rollout_scores(pred_kbps, buffer0, latency0, prev_idx, plan,
                       walk=None):
    """Score the rate sequences over the horizon; returns the scored ones
    as new 1-D arrays (seq, score), seq numbered first chunk most
    significant. A sequence whose score is proven below the best is not
    scored: a branch-and-bound bounds the prefixes of depth h-3, then the
    last depth's parents, and expands only those whose bound reaches a
    scored leaf (see the module comment). `plan` is the session's
    `MpcPlan`, whose workspace the call reuses. `walk` is `_buffer_walk`'s
    result for a prediction that `_prediction` already checked, when the
    caller has them. See module stream."""
    buffer0, latency0 = float(buffer0), float(latency0)
    if walk is None:
        pred_kbps = _prediction(pred_kbps, plan)
        walk = _buffer_walk(pred_kbps, buffer0, plan)
    n_free, drain = walk
    horizon = plan.horizon
    n_rates = plan.ladder_kbps.size
    rtt, bits, chunk_dur = plan.rtt, plan.bits, plan.chunk_dur
    chunks_per_seg, mu2, mu4 = plan.chunks_per_seg, plan.mu2, plan.mu4
    omega, psi_base = plan.omega, plan.psi_base
    gain_first = plan.gain_first[prev_idx]
    # a stall-free depth's buffers reach no score unless a later depth can
    # stall or the drain applies
    keep_buf = n_free < horizon or drain
    tps = pred_kbps.tolist()
    downloads = []  # each depth's download times, (L, 1)
    for j, tp in enumerate(tps):
        if j and tp == tps[j - 1]:
            downloads.append(downloads[-1])
        elif tp > 0.0:
            downloads.append((rtt + bits / tp)[:, None])
        else:
            downloads.append(np.full((n_rates, 1), _BIG_DOWNLOAD_TIME))

    buf = np.array([buffer0])
    lat = np.array([latency0])
    score = np.zeros(1)
    if n_free:
        # stall-free depths are a leading run, so every prefix they hold
        # has latency0: one latency charge, and terms by (rate, last rate)
        cost = _latency_cost(lat, omega, psi_base, mu4, np.empty(1))
        term_first = (gain_first - cost) / chunks_per_seg
        term_next = (plan.gain_t - cost) / chunks_per_seg
    n_half = plan.n_rest // n_rates  # the prefixes of depth h-3

    def scored(seq_par, leaves):
        """(seq, score) of `leaves`, by (rate, parent), below the parents
        numbered `seq_par`; copied, as the next block reuses the rows."""
        return (((seq_par * n_rates)[:, None] + plan.rates).ravel(),
                leaves.T.flatten())

    def expand(j, score, lat, buf, sel, last, rows):
        """The children at depth j of the prefixes `sel` (indices or a
        slice; None for all) of rows score, lat and buf, whose last rates
        are `last`, into `rows`: a dense depth's rows, or rows cut to
        (L, parents) here when `sel` is given. At the last depth, with the
        drain. Returns their scores."""
        if sel is not None:
            score = score[sel]
            if keep_buf:
                buf = buf[sel]
            # the parents have latency0 while every earlier depth is
            # stall-free
            if j > n_free:
                lat = lat[sel]
            n = score.size
            rows = [row[:n_rates * n].reshape(n_rates, n) for row in rows]
        k_buf, k_lat, k_score, k_stall, k_term, k_cost, k_table = rows
        d = downloads[j]
        # a leaf's buffer reaches its score through the drain alone
        need_buf = drain or (j < horizon - 1 and keep_buf)
        if j < n_free:
            if j == 0:
                table = term_first[:, None]
            else:
                table = term_next.take(last, axis=1, out=k_table, mode="clip")
            np.add(score, table, out=k_score)
            if need_buf:
                np.subtract(buf, d, out=k_buf)
                np.add(k_buf, chunk_dur, out=k_buf)
        else:
            np.subtract(d, buf, out=k_stall)
            np.maximum(k_stall, 0.0, out=k_stall)
            if need_buf:
                np.subtract(buf, d, out=k_buf)
                np.maximum(k_buf, 0.0, out=k_buf)
                np.add(k_buf, chunk_dur, out=k_buf)
            np.add(lat, k_stall, out=k_lat)
            # term = (gain - mu4 * psi(lat)) / chunks_per_seg - mu2 * stall
            _latency_cost(k_lat, omega, psi_base, mu4, out=k_cost)
            if j == 0:
                gain = gain_first[:, None]
            else:
                gain = plan.gain_t.take(last, axis=1, out=k_table,
                                        mode="clip")
            np.subtract(gain, k_cost, out=k_term)
            np.divide(k_term, chunks_per_seg, out=k_term)
            np.multiply(mu2, k_stall, out=k_stall)
            np.subtract(k_term, k_stall, out=k_term)
            np.add(score, k_term, out=k_score)
        if j == horizon - 1 and drain:
            charge = k_stall
            np.subtract(buffer0, k_buf, out=charge)
            np.maximum(charge, 0.0, out=charge)
            np.multiply(mu2, charge, out=charge)
            np.subtract(k_score, charge, out=k_score)
        return k_score

    def bounds(n_left, score, lat, buf, charged):
        """An upper bound, into plan.bound, on every leaf below each of the
        prefixes in rows score, lat and buf, which have the horizon's last
        n_left chunks to come: 1, or 2 when a depth before them can
        stall. `charged` when plan.bound holds the prefixes' latency
        charges, as a dense depth leaves them. See the module comment."""
        n = score.size
        bound = plan.bound[:n]
        by_last = bound.reshape(n_rates, -1)
        j = horizon - n_left  # the next depth
        # per chunk to come, a bound on its term, by last rate
        if j < n_free:
            # (n_left is 1) a stall-free last depth: the best term after
            # the parent's last rate, exactly
            terms = (term_next.max(axis=0)[:, None],)
        elif j <= n_free:
            # (n_left is 1) every parent has latency0, charged `cost`: the
            # best gain after its last rate less that charge less the margin
            terms = (((plan.gain_max - (cost - plan.cost_margin))
                      / chunks_per_seg)[:, None],)
        else:
            # the best gain after the prefix's last rate, and after any rate
            # for a second chunk, less its latency charge less the margin
            if not charged:
                _latency_cost(lat, omega, psi_base, mu4, out=bound)
            np.subtract(bound, plan.cost_margin, out=bound)
            terms = (by_last,)
            if n_left == 2:
                rest = plan.kids.term[:n]
                np.subtract(plan.gain_top, bound, out=rest)
                np.divide(rest, chunks_per_seg, out=rest)
                terms += (rest.reshape(by_last.shape),)
            np.subtract(plan.gain_max[:, None], by_last, out=by_last)
            np.divide(bound, chunks_per_seg, out=bound)
        hi = buf  # the largest buffer a leaf below can have so far
        carry = plan.kids.buf[:n]
        stall = plan.kids.stall[:n].reshape(by_last.shape)
        for i, term in enumerate(terms):
            d_min = _shortest(tps[j + i], plan)
            # every buffer is chunk_dur or more: one holds any download
            # that fits in a chunk, and subtracting it leaves no negative
            short = d_min <= chunk_dur
            if not short and j + i >= n_free:
                # less mu2 times the stall at the shortest download
                np.subtract(d_min, hi.reshape(by_last.shape), out=stall)
                np.maximum(stall, 0.0, out=stall)
                np.multiply(mu2, stall, out=stall)
                # a first term by last rate alone widens to every prefix
                out = by_last if i == 0 else term
                np.subtract(term, stall, out=out)
                term = out
            np.add(by_last if i else score.reshape(by_last.shape), term,
                   out=by_last)
            if drain or i + 1 < len(terms):
                np.subtract(hi, d_min, out=carry)
                if not short:
                    np.maximum(carry, 0.0, out=carry)
                np.add(carry, chunk_dur, out=carry)
                hi = carry
        if drain:
            charge = plan.kids.stall[:n]
            np.subtract(buffer0, hi, out=charge)
            np.maximum(charge, 0.0, out=charge)
            np.multiply(mu2, charge, out=charge)
            np.subtract(bound, charge, out=bound)
        return bound

    def search(score, lat, buf, keep=None, incumbent=None):
        """Score the children of the last depth's parents, rows score, lat
        and buf, whose bound reaches the incumbent, by default the best
        child of the parent with the highest bound. The parents are all of
        depth h-2, or those below the prefixes `keep` of depth h-3, by
        (rate, prefix). Returns the scores."""
        j = horizon - 1
        n = score.size
        stride = n // n_rates  # a parent's last rate is its top digit
        # each parent's index in first-chunk-first order
        seq = plan.parent_seq
        if keep is not None:
            seq = seq[(plan.rates[:, None] * n_half + keep).ravel()]
        sel = first = None
        if plan.prunable and _finite(tps[j], plan):
            bound = bounds(1, score, lat, buf, keep is None)
            # argmax stops at the first nan, so a nan bound shows here
            best = int(bound.argmax())
            top = bound[best]
            if top == top:
                if incumbent is None:
                    # without a drain, a stall-free last depth's highest
                    # bound is the score of the best parent's best child
                    if j < n_free and not drain:
                        incumbent = top
                    else:
                        r = best // stride
                        first = expand(j, score, lat, buf,
                                       slice(best, best + 1),
                                       plan.rates[r:r + 1], plan.kids)
                        incumbent = first.max()
                sel = (bound >= incumbent).nonzero()[0]
                if first is not None and sel.size == 1:
                    # only the best parent reaches the incumbent
                    return scored(seq[sel], first)
        if sel is None:
            sel = np.arange(n)
        parts = []
        for start in range(0, sel.size, plan.block):
            part = sel[start:start + plan.block]
            parts.append(scored(seq[part], expand(
                j, score, lat, buf, part, part // stride if j else None,
                plan.kids)))
        return tuple(map(np.concatenate, zip(*parts)))

    def two_level(score, lat, buf):
        """The last two depths below the prefixes of depth h-3, rows score,
        lat and buf, whose bound reaches the best leaf below the prefix
        with the highest bound. None when a bound is nan."""
        bound = bounds(2, score, lat, buf, True)
        best = int(bound.argmax())
        if bound[best] != bound[best]:
            return None
        stride = n_half // n_rates
        mid = plan.mid
        r = best // stride
        expand(horizon - 2, score, lat, buf, slice(best, best + 1),
               plan.rates[r:r + 1], mid)
        leaves = expand(horizon - 1, mid.score, mid.lat, mid.buf,
                        slice(0, n_rates), plan.rates, plan.kids)
        incumbent = leaves.max()
        keep = (bound >= incumbent).nonzero()[0]
        if keep.size == 1:
            # only the best prefix reaches the incumbent
            return scored(plan.parent_seq[plan.rates * n_half + best], leaves)
        expand(horizon - 2, score, lat, buf, keep, keep // stride, mid)
        n = n_rates * keep.size
        return search(mid.score[:n], mid.lat[:n], mid.buf[:n], keep,
                      incumbent)

    # the first level of the search, where a depth up to h-3 can stall and
    # the last two downloads are finite
    two = (plan.two_level and n_free <= horizon - 3
           and _finite(tps[-2], plan) and _finite(tps[-1], plan))
    for j, (rows, last, prefixes) in enumerate(plan.tree):
        if two and j == horizon - 2:
            result = two_level(score, lat, buf)
            if result is not None:
                return result
        expand(j, score, lat, buf, None, last, rows)
        if j < n_free:
            # a stall-free depth leaves every latency at latency0
            buf, _, score = prefixes
        else:
            buf, lat, score = prefixes

    # the last depth over every parent of depth h-2: buf, lat and score
    # hold them (the root at horizon 1; lat is latency0 alone while every
    # parent is stall-free)
    return search(score, lat, buf)


def mpc_first_rate(pred_kbps, buffer0, latency0, prev_idx, plan):
    """The ladder index of the first rate of the best sequence that
    `mpc_rollout_scores` returns: the lowest-numbered nan, else the
    lowest-numbered of the highest scores, as an argmax over every
    sequence finds (ties break toward the lower rate). A decision that
    cannot stall or drain is answered from `plan.first_rates` when a
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
    seq, score = mpc_rollout_scores(pred_kbps, buffer0, latency0, prev_idx,
                                    plan, walk=(n_free, drain))
    # an unscored sequence is below the best; the first chunk is the most
    # significant digit, so the integer division recovers its rate
    top = score.max()
    hit = score == top if top == top else score != score
    rate = int(seq[hit].min()) // plan.n_rest
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
