"""The four forecasting architectures and client-side local training.

Every model consumes a (|F|+1) x (H+1) input, one window of the
`preprocess.model_inputs` matrix (continuous feature rows, then the
throughput row), and emits an F-step throughput forecast. Training and
evaluation read the stacked windows of a `preprocess.Windows`; the stream
predictor slices the same matrix. Batch-norm parameters, including running
statistics, are tagged so the aggregation layer can treat them as
client-local state.
"""

import json
import math
import os
import tempfile
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import tensor as T

ARCHS = ("CNN", "LSTM", "LSTM_CNN", "TRANSFORMER")
# architectures whose cohorts train in lockstep on a leading client axis,
# at most LOCKSTEP_MAX members to a stack: a step's tape grows with the
# stack (five (S, K, B, H) arrays, ~0.5 MB a member at the demo's shape).
# The demo's cohort of 7, 3 epochs, in one process (median of 60 shuffled
# runs, tracemalloc peak): stacks of at most 3 take 0.198 s and 2.73 MB,
# of 4 0.172 s and 3.54 MB, one stack of 7 0.148 s and 6.01 MB. Stacks of
# 4 (a cohort of 7 trains as 3 and 4) peak at what stacks of 3 did with
# the per-step tape that kept h as well (3.55 MB).
LOCKSTEP_ARCHS = ("LSTM",)
LOCKSTEP_MAX = 4

_TABLE_LR = {"CNN": 1e-3, "LSTM": 3e-4, "LSTM_CNN": 3e-3, "TRANSFORMER": 1e-3}
_DEFAULT_EPOCHS = {"CNN": 2, "LSTM": 3, "LSTM_CNN": 2, "TRANSFORMER": 3}


class ModelError(ValueError):
    pass


class CheckpointError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    pass


@dataclass
class ModelSpec:
    in_features: int          # |F|+1 input rows (throughput history included)
    history: int              # H
    horizon: int              # F
    arch: str = "LSTM"
    hidden: int = 32          # LSTM hidden size / transformer d_model
    num_layers: int = 1       # recurrent layers
    num_heads: int = 2
    conv_channels: tuple[int, ...] = (8, 8)
    ff_dim: int = 0           # transformer feed-forward width; 0 -> 2*hidden
    use_batchnorm: bool = True
    use_positional: bool = True

    def __post_init__(self):
        if self.arch not in ARCHS:
            raise ModelError(f"unknown architecture {self.arch!r}")
        if self.in_features < 1 or self.history < 1 or self.horizon < 1:
            raise ModelError("in_features, history and horizon must be >= 1")
        if min(self.hidden, self.num_layers, self.num_heads) < 1:
            raise ModelError("hidden, num_layers and num_heads must be >= 1")
        if self.num_layers != 1 and self.arch != "LSTM":
            raise ModelError(f"num_layers only stacks the LSTM; {self.arch} "
                             f"takes 1")
        if self.ff_dim < 0:
            raise ModelError("ff_dim must be >= 0")
        self.conv_channels = tuple(self.conv_channels)
        if min(self.conv_channels, default=0) < 1:
            raise ModelError("conv_channels must be >= 1")
        if self.arch == "CNN" and len(self.conv_channels) != 2:
            raise ModelError("the CNN takes two conv_channels")
        if self.arch == "TRANSFORMER" and self.hidden % self.num_heads != 0:
            raise ModelError("hidden must be divisible by num_heads")
        if self.ff_dim == 0:
            self.ff_dim = 2 * self.hidden

    @property
    def steps(self):
        return self.history + 1


@dataclass
class TrainConfig:
    learning_rate: float
    batch_size: int = 32
    local_epochs: int = 2
    optimizer: str = "adam"
    prox_mu: float = 0.0
    include_bn_in_prox: bool = False

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if self.local_epochs < 0:
            raise ModelError("local_epochs must be >= 0")
        if self.optimizer not in ("sgd", "adam"):
            raise ModelError(f"unknown optimizer {self.optimizer!r}")
        if self.prox_mu < 0:
            raise ModelError("prox_mu must be >= 0")


def default_train_config(arch, **overrides):
    """Per-architecture learning rate and epoch defaults."""
    cfg = dict(learning_rate=_TABLE_LR[arch],
               local_epochs=_DEFAULT_EPOCHS[arch])
    cfg.update(overrides)
    return TrainConfig(**cfg)


class ParamSet:
    """Ordered named parameters; the unit of federated exchange. Their
    values are one float64 vector, `flat`, of which every entry's data is a
    view; `layout` holds each entry's (name, shape, is_bn, trainable). A
    stack of K models (`stack_params`) is a (K, P) matrix, model k in row k,
    where an entry of shape (C,) is the view (K, 1, C), so it broadcasts
    over a batch like its own (C,) does, and any other shape s is (K, *s)."""

    def __init__(self, entries):
        # (name, Tensor, is_batchnorm) entries, copied into one vector
        entries = list(entries)
        self._bind([(name, t.data.shape, is_bn, t.requires_grad)
                    for name, t, is_bn in entries],
                   np.concatenate([t.data.ravel() for _, t, _ in entries]))

    @classmethod
    def from_flat(cls, layout, flat):
        """The ParamSet of `layout` whose entries are views of `flat`."""
        out = cls.__new__(cls)
        out._bind(layout, flat)
        return out

    def _bind(self, layout, flat):
        self.layout, self.flat, self.grad = layout, flat, None
        self.entries, self._index = [], {}
        for (name, _, is_bn, trainable), view in zip(layout,
                                                     self._views(flat)):
            if name in self._index:
                raise ModelError(f"duplicate parameter {name!r}")
            t = T.Tensor(view, requires_grad=trainable)
            self._index[name] = t
            self.entries.append((name, t, is_bn))

    def _views(self, vec):
        """Each entry's view of `vec`, a vector or a stack's matrix; each
        reshape only splits a slice's last axis, so it copies nothing."""
        lead, off = vec.shape[:-1], 0
        for _, shape, _, _ in self.layout:
            size = math.prod(shape)
            view = (*lead, 1, *shape) if lead and len(shape) == 1 \
                else (*lead, *shape)
            yield vec[..., off:off + size].reshape(view)
            off += size

    def __iter__(self):
        return iter(self.entries)

    def get(self, name):
        return self._index[name]

    def trainable(self):
        return [t for _, t, _ in self.entries if t.requires_grad]

    def copy(self):
        return ParamSet.from_flat(self.layout, self.flat.copy())

    def same_structure(self, other):
        return self.layout == other.layout \
            and self.flat.shape == other.flat.shape

    def keep(self, rows):
        """A stack keeps only its models `rows`, in that order."""
        self._bind(self.layout, self.flat[rows])

    def zero_grad(self):
        """Point every entry's gradient at its view of one zeroed vector,
        `grad`; the first accumulation, 0.0 + g, has the bits of g + 0.0."""
        self.grad = np.zeros_like(self.flat)
        for (_, t, _), g in zip(self.entries, self._views(self.grad)):
            t.grad = g

    def to_bytes(self):
        return T.write_named_arrays(
            (name, t.data, is_bn, t.requires_grad)
            for name, t, is_bn in self.entries)

    @classmethod
    def from_bytes(cls, blob):
        return cls([(name, T.Tensor(arr, requires_grad=trainable), is_bn)
                    for name, arr, is_bn, trainable in T.read_named_arrays(blob)])


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def _uniform(rng, shape, fan_in):
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _layout(spec):
    """(name, shape, fan_in, is_batchnorm, trainable) of every entry of the
    spec's model, in ParamSet order; fan_in is None for batch norm. Shapes
    only: nothing is allocated."""
    out = []

    def w(name, shape, fan_in):
        out.append((name, shape, fan_in, False, True))

    def bn(name, channels):
        for field, trainable in (("gamma", True), ("beta", True),
                                 ("running_mean", False),
                                 ("running_var", False)):
            out.append((f"{name}.{field}", (channels,), None, True, trainable))

    d_in = spec.in_features
    steps = spec.steps
    if spec.arch == "CNN":
        c1, c2 = spec.conv_channels
        w("conv1.w", (c1, 1, 3, 3), 9)
        w("conv1.b", (c1,), 9)
        if spec.use_batchnorm:
            bn("bn1", c1)
        w("conv2.w", (c2, c1, 3, 3), c1 * 9)
        w("conv2.b", (c2,), c1 * 9)
        if spec.use_batchnorm:
            bn("bn2", c2)
        flat = c2 * d_in * steps
        w("head.w", (flat, spec.horizon), flat)
        w("head.b", (spec.horizon,), flat)
    elif spec.arch in ("LSTM", "LSTM_CNN"):
        size_in = d_in
        for layer in range(spec.num_layers):
            w(f"lstm{layer}.w_ih", (size_in, 4 * spec.hidden), size_in)
            w(f"lstm{layer}.w_hh", (spec.hidden, 4 * spec.hidden), spec.hidden)
            w(f"lstm{layer}.b", (4 * spec.hidden,), spec.hidden)
            size_in = spec.hidden
        if spec.arch == "LSTM":
            if spec.use_batchnorm:
                bn("bn", spec.hidden)
            w("fc.w", (spec.hidden, spec.hidden), spec.hidden)
            w("fc.b", (spec.hidden,), spec.hidden)
            w("head.w", (spec.hidden, spec.horizon), spec.hidden)
            w("head.b", (spec.horizon,), spec.hidden)
        else:
            c1 = spec.conv_channels[0]
            w("conv1.w", (c1, 1, 3, 3), 9)
            w("conv1.b", (c1,), 9)
            if spec.use_batchnorm:
                bn("bn1", c1)
            flat = c1 * steps * spec.hidden
            w("head.w", (flat, spec.horizon), flat)
            w("head.b", (spec.horizon,), flat)
    else:  # TRANSFORMER
        d = spec.hidden
        w("embed.w", (d_in, d), d_in)
        w("embed.b", (d,), d_in)
        for k in range(2):
            for proj in ("wq", "wk", "wv", "wo"):
                w(f"blk{k}.attn.{proj}", (d, d), d)
            for proj in ("bq", "bk", "bv", "bo"):
                w(f"blk{k}.attn.{proj}", (d,), d)
            w(f"blk{k}.ff.w1", (d, spec.ff_dim), d)
            w(f"blk{k}.ff.b1", (spec.ff_dim,), d)
            if spec.use_batchnorm:
                bn(f"blk{k}.ff.bn", spec.ff_dim)
            w(f"blk{k}.ff.w2", (spec.ff_dim, d), spec.ff_dim)
            w(f"blk{k}.ff.b2", (d,), spec.ff_dim)
        w("head.w", (d, spec.horizon), d)
        w("head.b", (spec.horizon,), d)
    return out


def init_model(spec, seed):
    """Fresh ParamSet for the spec; deterministic in (spec, seed). Weights
    are uniform in +-1/sqrt(fan_in), drawn in `_layout` order; batch-norm
    scales and variances start at 1, shifts and means at 0."""
    rng = np.random.default_rng(seed)
    entries = []
    for name, shape, fan_in, is_bn, trainable in _layout(spec):
        if is_bn:
            fill = 1.0 if name.endswith((".gamma", ".running_var")) else 0.0
            data = np.full(shape, fill)
        else:
            data = _uniform(rng, shape, fan_in)
        entries.append((name, T.Tensor(data, requires_grad=trainable), is_bn))
    return ParamSet(entries)


# ---------------------------------------------------------------------------
# forward graphs
# ---------------------------------------------------------------------------


def _bn(params, name, x, channel_axis, training):
    return T.batch_norm(x, params.get(f"{name}.gamma"), params.get(f"{name}.beta"),
                        params.get(f"{name}.running_mean"),
                        params.get(f"{name}.running_var"),
                        channel_axis=channel_axis, training=training)


def _lstm(params, prefix, x_seq, last=False):
    return T.lstm(x_seq, params.get(f"{prefix}.w_ih"),
                  params.get(f"{prefix}.w_hh"), params.get(f"{prefix}.b"),
                  last=last)


def _positional_encoding(steps, dim):
    pe = np.zeros((steps, dim))
    pos = np.arange(steps)[:, None]
    idx = np.arange(0, dim, 2)
    freq = np.exp(-math.log(10000.0) * idx / dim)
    pe[:, 0::2] = np.sin(pos * freq)
    pe[:, 1::2] = np.cos(pos * freq[: pe[:, 1::2].shape[1]])
    return pe


def _swap_last(t, a, b):
    """t with axes a and b (counted from the end) swapped."""
    axes = list(range(t.data.ndim))
    axes[a], axes[b] = axes[b], axes[a]
    return T.transpose(t, tuple(axes))


def _attention_block(params, prefix, x, heads):
    *lead, steps, d = x.data.shape
    dh = d // heads
    q = T.add(T.matmul(x, params.get(f"{prefix}.wq")), params.get(f"{prefix}.bq"))
    k = T.add(T.matmul(x, params.get(f"{prefix}.wk")), params.get(f"{prefix}.bk"))
    v = T.add(T.matmul(x, params.get(f"{prefix}.wv")), params.get(f"{prefix}.bv"))

    def split(t):
        return _swap_last(T.reshape(t, (*lead, steps, heads, dh)), -3, -2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = T.mul(T.matmul(qh, _swap_last(kh, -2, -1)),
                   T.Tensor(1.0 / math.sqrt(dh)))
    attn = T.softmax(scores, axis=-1)
    ctx = T.matmul(attn, vh)
    merged = T.reshape(_swap_last(ctx, -3, -2), (*lead, steps, d))
    return T.add(T.matmul(merged, params.get(f"{prefix}.wo")),
                 params.get(f"{prefix}.bo"))


def forward_graph(spec, params, x_raw, training=False):
    """Differentiable forward pass; x_raw is (B, |F|+1, H+1), or a stack of
    such batches, (K, B, |F|+1, H+1), giving (K, B, F).

    Every op counts its axes from the end, so a stack runs each op once
    over all K slices while each slice computes as its own (B, ...) call:
    matmul runs one product per slice and keeps its BLAS path, and the
    other ops are elementwise or reduce within a slice. In eval mode one
    model forecasts every slice. In training mode a stack is a cohort of
    LSTMs (`stack_params`), slice k trained by model k, and each slice's
    outputs, batch statistics and gradients are the bits of its own call;
    an unstacked model's graph takes an unstacked batch."""
    x_raw = np.asarray(x_raw, dtype=np.float64)
    if x_raw.ndim not in (3, 4) or x_raw.shape[-2] != spec.in_features \
            or x_raw.shape[-1] != spec.steps:
        raise ModelError(f"bad input shape {x_raw.shape} for {spec.arch}")
    if x_raw.ndim == 4 and training and (
            spec.arch not in LOCKSTEP_ARCHS
            or params.flat.shape[:-1] != x_raw.shape[:1]):
        raise ModelError("a stacked training input needs a stack of "
                         f"{x_raw.shape[0]} models of a lockstep "
                         f"architecture ({', '.join(LOCKSTEP_ARCHS)})")
    if 0 in x_raw.shape:
        raise ModelError("empty batch")
    lead = x_raw.shape[:-2]  # (B,) or (T, B)

    if spec.arch == "CNN":
        x = T.Tensor(x_raw[..., None, :, :])
        for i, bname in ((1, "bn1"), (2, "bn2")):
            conv_w = params.get(f"conv{i}.w")
            conv_b = params.get(f"conv{i}.b")
            x = T.conv2d(x, conv_w)
            x = T.add(x, T.reshape(conv_b, (1, conv_b.data.shape[0], 1, 1)))
            x = T.leaky_relu(x)
            if spec.use_batchnorm:
                x = _bn(params, bname, x, channel_axis=-3, training=training)
        flat = T.reshape(x, (*lead, -1))
        return T.add(T.matmul(flat, params.get("head.w")), params.get("head.b"))

    # time-major rows for the recurrent and attention models: (..., H+1, |F|+1)
    x_seq = np.ascontiguousarray(np.swapaxes(x_raw, -1, -2))
    if spec.arch == "LSTM":
        feat = T.Tensor(x_seq)
        for layer in range(spec.num_layers):
            feat = _lstm(params, f"lstm{layer}", feat,
                         last=layer == spec.num_layers - 1)
        if spec.use_batchnorm:
            feat = _bn(params, "bn", feat, channel_axis=-1, training=training)
        feat = T.relu(T.add(T.matmul(feat, params.get("fc.w")), params.get("fc.b")))
        return T.add(T.matmul(feat, params.get("head.w")), params.get("head.b"))

    if spec.arch == "LSTM_CNN":
        seq = _lstm(params, "lstm0", T.Tensor(x_seq))
        img = T.reshape(seq, (*lead, 1, spec.steps, spec.hidden))
        conv_w = params.get("conv1.w")
        conv_b = params.get("conv1.b")
        y = T.conv2d(img, conv_w)
        y = T.add(y, T.reshape(conv_b, (1, conv_b.data.shape[0], 1, 1)))
        y = T.relu(y)
        if spec.use_batchnorm:
            y = _bn(params, "bn1", y, channel_axis=-3, training=training)
        flat = T.reshape(y, (*lead, -1))
        return T.add(T.matmul(flat, params.get("head.w")), params.get("head.b"))

    # TRANSFORMER
    h = T.add(T.matmul(T.Tensor(x_seq), params.get("embed.w")),
              params.get("embed.b"))
    if spec.use_positional:
        h = T.add(h, T.Tensor(_positional_encoding(spec.steps, spec.hidden)))
    for k in range(2):
        attn = _attention_block(params, f"blk{k}.attn", h, spec.num_heads)
        h = T.add(h, attn)
        ff = T.add(T.matmul(h, params.get(f"blk{k}.ff.w1")),
                   params.get(f"blk{k}.ff.b1"))
        if spec.use_batchnorm:
            ff = _bn(params, f"blk{k}.ff.bn", ff, channel_axis=-1,
                     training=training)
        ff = T.relu(ff)
        ff = T.add(T.matmul(ff, params.get(f"blk{k}.ff.w2")),
                   params.get(f"blk{k}.ff.b2"))
        h = T.add(h, ff)
    pooled = T.reduce_mean(h, axis=-2)
    return T.add(T.matmul(pooled, params.get("head.w")), params.get("head.b"))


def forward(spec, params, x, training=False):
    """Predictions (B, F) for a (B, |F|+1, H+1) input array, or (T, B, F)
    for an eval-mode stack (T, B, |F|+1, H+1); see `forward_graph`.

    The parameters enter as constants that are views of `params.flat`, so
    no autodiff graph is built; with training=True the batch-norm running
    statistics in `params` are still updated."""
    constants = ParamSet.from_flat([(name, shape, is_bn, False)
                                    for name, shape, is_bn, _ in params.layout],
                                   params.flat)
    out = forward_graph(spec, constants, x, training=training).data
    if not np.isfinite(out).all():
        raise TrainingDiverged("non-finite predictions")
    return out


# ---------------------------------------------------------------------------
# optimizers and local training
# ---------------------------------------------------------------------------


class SGD:
    def __init__(self, params, lr):
        self.params = params
        self.lr = lr

    def step(self):
        p = self.params.flat
        p -= self.lr * self.params.grad

    def keep(self, rows):
        """A stack keeps only its models `rows`; SGD has no state."""


class Adam:
    """Steps a ParamSet's whole vector after `zero_grad` and a backward
    pass. Elementwise, so each model of a stack takes the steps of its own
    optimizer, and an entry that took no gradient keeps its bits: its
    moments stay 0, and p - 0.0 is p. A step works in place where the
    order allows, as `m = b1*m + (1-b1)*g`, `v = b2*v + ((1-b2)*g)*g` and
    `p -= (lr*mhat) / (sqrt(vhat) + eps)`: four short-lived vectors, and no
    scratch kept between steps (kept, it would add to a training step's
    peak)."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = np.zeros_like(params.flat)
        self.v = np.zeros_like(params.flat)
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        p, g, m, v = self.params.flat, self.params.grad, self.m, self.v
        m *= b1
        m += (1 - b1) * g
        v *= b2
        g2 = (1 - b2) * g
        g2 *= g
        v += g2
        update = m / c1         # mhat
        update *= lr
        den = v / c2            # vhat
        np.sqrt(den, out=den)
        den += eps
        update /= den
        p -= update

    def keep(self, rows):
        """A stack keeps only its models `rows`: so do the moments."""
        self.m = self.m[rows]
        self.v = self.v[rows]


def _optimizer(params, cfg):
    if cfg.optimizer == "adam":
        return Adam(params, cfg.learning_rate)
    return SGD(params, cfg.learning_rate)


def stack_params(paramsets):
    """K models as one ParamSet on a leading client axis, model k in row k
    of its (K, P) vector (see ParamSet)."""
    first = paramsets[0]
    if not all(first.same_structure(ps) for ps in paramsets[1:]):
        raise ModelError("structural mismatch in a cohort")
    return ParamSet.from_flat(first.layout,
                              np.stack([ps.flat for ps in paramsets]))


def _prox_penalty(params, anchor, include_bn, stacked=False):
    """sum ||w - w_anchor||^2 over the trainable entries (batch norm's only
    with include_bn); with stacked, one sum per slice, (K,). None when no
    entry is penalised.

    One tape node whose parents are the penalised entries. It has the bits
    of the graph it replaces, a sub, mul and reduce_sum per entry and a
    chain of adds: d = w - w_anchor is one subtraction of the two vectors,
    each entry sums (d*d) of its view over the same axes, and the sums
    are added in entry order. The backward gives each entry the graph's
    (p + 0.0) + p, p = g * d, one p from each factor of the square. The
    graph also added 0.0 to g on its way down; that only turns a -0.0
    into +0.0, which changes p only when p is a zero, and (p + 0.0) + p
    is +0.0 for either zero."""
    views = params._views(params.flat - anchor.flat)
    picked = [(t, d) for (_, t, is_bn), d in zip(params.entries, views)
              if t.requires_grad and (include_bn or not is_bn)]
    if not picked:
        return None
    total = None
    for _, d in picked:
        term = (d * d).sum(axis=tuple(range(int(stacked), d.ndim)))
        total = term if total is None else total + term

    def back(g):
        for t, d in picked:
            prod = np.expand_dims(g, tuple(range(g.ndim, d.ndim))) * d
            contrib = prod + 0.0
            contrib += prod
            t._accum(contrib)

    return T._make(total, [t for t, _ in picked], back)


def _objective(spec, params, x, y, cfg, anchor, stacked):
    """The training loss of one batch; with stacked, one loss per slice."""
    loss = T.mse(forward_graph(spec, params, x, training=True), y,
                 per_slice=stacked)
    if cfg.prox_mu > 0:
        penalty = _prox_penalty(params, anchor, cfg.include_bn_in_prox,
                                stacked)
        if penalty is not None:
            loss = T.add(loss, T.mul(T.Tensor(cfg.prox_mu / 2.0), penalty))
    return loss


def local_train(spec, params, windows, cfg, global_anchor=None, rng=None):
    """Run cfg.local_epochs of mini-batch training on a cohort of clients;
    returns (trained, loss).

    `params`, `windows` and, when given, `global_anchor` and `rng` are lists
    with one entry per member. The optimized objective is the MSE
    forecasting loss plus, when cfg.prox_mu > 0, the proximal term
    (mu/2) * ||w - w_anchor||^2 over the non-batch-norm trainable
    parameters. Each member's ParamSet is trained in place. `trained` lists
    them, with None for a member whose loss went non-finite, and `loss` is
    the mean of the other members' last-epoch losses; TrainingDiverged is
    raised when every member diverges.

    A cohort of more than one must be of a LOCKSTEP_ARCHS architecture,
    with train sets of one length: it trains in lockstep on a leading client
    axis (`stack_params`), in stacks of at most LOCKSTEP_MAX members, each
    member drawing its batch order from its own rng, and each member's
    parameters, running statistics and loss are the bits of its own cohort
    of one.
    """
    k = len(params)
    anchors = [None] * k if global_anchor is None else list(global_anchor)
    rngs = [None] * k if rng is None else list(rng)
    if k == 0 or not len(windows) == len(anchors) == len(rngs) == k:
        raise ModelError("a cohort takes one params, windows, anchor and "
                         "rng per member")
    if k > 1 and spec.arch not in LOCKSTEP_ARCHS:
        raise ModelError(f"a {spec.arch} cohort trains one member per call")
    for member, w, anchor in zip(params, windows, anchors):
        if cfg.prox_mu > 0 and anchor is None:
            raise ModelError("prox_mu > 0 requires a global anchor")
        if anchor is not None and not member.same_structure(anchor):
            raise ModelError("anchor structure mismatch")
        if not w:
            raise ModelError("no training windows")
    if any(len(w) != len(windows[0]) for w in windows):
        raise ModelError("a cohort's train sets differ in length")
    # stacks of near-equal sizes, none above LOCKSTEP_MAX
    n_stacks = -(-k // LOCKSTEP_MAX)
    bounds = [k * i // n_stacks for i in range(n_stacks + 1)]
    trained, losses = [], []
    for lo, hi in zip(bounds, bounds[1:]):
        t, l = _train_stack(spec, params[lo:hi], windows[lo:hi], cfg,
                            anchors[lo:hi], rngs[lo:hi])
        trained += t
        losses += l
    kept = [loss for member, loss in zip(trained, losses)
            if member is not None]
    if not kept:
        raise TrainingDiverged(f"non-finite loss ({spec.arch}) for every "
                               f"member of a cohort")
    return trained, float(np.mean(kept))


def _train_stack(spec, members, windows, cfg, anchors, rngs):
    """Train `members` as one stack; ([trained or None], [loss or None]).
    A stack of one trains its member's own parameters on its own arrays,
    with no client axis."""
    n = len(windows[0])
    rngs = [np.random.default_rng(0) if r is None else r for r in rngs]
    lone = len(members) == 1
    if lone:
        stack, anchor = members[0], anchors[0]
    else:
        stack = stack_params(members)
        anchor = stack_params(anchors) if cfg.prox_mu > 0 else None
    opt = _optimizer(stack, cfg)
    alive = list(range(len(members)))   # the member of each slice
    losses = {m: [] for m in alive}     # member -> last epoch's losses

    for epoch in range(cfg.local_epochs):
        perms = [rngs[m].permutation(n) for m in alive]
        losses = {m: [] for m in alive}
        for start in range(0, n, cfg.batch_size):
            idx = [perm[start:start + cfg.batch_size] for perm in perms]
            if lone:
                x, y = windows[0].x[idx[0]], windows[0].y[idx[0]]
            else:
                x = np.stack([windows[m].x[i] for m, i in zip(alive, idx)])
                y = np.stack([windows[m].y[i] for m, i in zip(alive, idx)])
            loss = _objective(spec, stack, x, y, cfg, anchor,
                              stacked=not lone)
            values = loss.data.reshape(-1).tolist()
            rows = [j for j, v in enumerate(values) if math.isfinite(v)]
            if not rows:
                return [None] * len(members), [None] * len(members)
            diverged = len(rows) < len(alive)
            stack.zero_grad()
            # a diverged slice's gradient and step are garbage, but only
            # its own: no op mixes slices
            with np.errstate(all="ignore" if diverged else None):
                (loss if lone else T.reduce_sum(loss)).backward()
                opt.step()
            del loss    # the step's graph, before the next one is built
            if diverged:
                stack.keep(rows)
                if anchor is not None:
                    anchor.keep(rows)
                opt.keep(rows)
                alive = [alive[j] for j in rows]
                perms = [perms[j] for j in rows]
            for m, j in zip(alive, rows):
                losses[m].append(values[j])

    trained = [None] * len(members)
    member_losses = [None] * len(members)
    for j, m in enumerate(alive):
        if not lone:
            members[m].flat[...] = stack.flat[j]
        trained[m] = members[m]
        member_losses[m] = float(np.mean(losses[m])) if losses[m] else 0.0
    return trained, member_losses


def predict_trace(spec, params, windows):
    """Stitched eval-mode forecasts and aligned ground truth."""
    if not windows:
        raise ModelError("no evaluation windows")
    x, y = windows.x, windows.y
    preds = []
    for start in range(0, x.shape[0], 256):
        preds.append(forward(spec, params, x[start:start + 256], training=False))
    yhat = np.concatenate(preds, axis=0)
    return yhat.ravel(), y.ravel()


# ---------------------------------------------------------------------------
# checkpoints: one JSON spec header line + the ParamSet blob
# ---------------------------------------------------------------------------


def _atomic_write(path, data):
    """Write str or bytes to `path` through a temp file in the same directory,
    so a reader never sees a partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(path, spec, params):
    header = json.dumps(asdict(spec), sort_keys=True).encode("utf-8")
    _atomic_write(path, header + b"\n" + params.to_bytes())


def load_checkpoint(path):
    """(spec, params) of a checkpoint; CheckpointError naming the file when
    its header or parameter blob is corrupt or cut short, when the blob's
    names, shapes, batch-norm or trainable flags are not those of the
    header's model (`_layout`, so no model is built), or when a value is
    not finite."""
    with open(path, "rb") as fh:
        header = fh.readline()
        blob = fh.read()
    try:
        fields = json.loads(header)
        fields["conv_channels"] = tuple(fields["conv_channels"])
        spec, params = ModelSpec(**fields), ParamSet.from_bytes(blob)
    except (ValueError, TypeError, KeyError) as exc:
        raise CheckpointError(f"{path}: corrupt checkpoint: {exc}") from None
    expected = [(name, shape, is_bn, trainable)
                for name, shape, _, is_bn, trainable in _layout(spec)]
    if params.layout != expected:
        raise CheckpointError(f"{path}: the parameters are not those of the "
                              f"{spec.arch} model its header describes")
    bad = [name for name, t, _ in params if not np.isfinite(t.data).all()]
    if bad:
        raise CheckpointError(f"{path}: non-finite values in "
                              f"{', '.join(bad)}")
    return spec, params
