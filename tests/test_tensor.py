"""Autodiff core: forced-arithmetic examples, finite-difference oracles."""

import numpy as np
import pytest

from fedcast import models
from fedcast import tensor as T

from oracle_ops import (concat, div, exp, getitem, grad_check, sigmoid, sqrt,
                        tanh)


def test_mse_identical_vectors():
    assert float(T.mse(T.Tensor([1.0, 2.0]), np.array([1.0, 2.0])).data) == 0.0


def test_mse_forced_arithmetic():
    # mean of squares: ((0-2)^2 + (0-2)^2) / 2 = 4
    assert float(T.mse(T.Tensor([0.0, 0.0]), np.array([2.0, 2.0])).data) == 4.0


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        T.mse(T.Tensor([1.0, 2.0]), np.array([1.0, 2.0, 3.0]))


def test_sigmoid_gradient_at_zero():
    x = T.Tensor(np.zeros(1), requires_grad=True)
    sigmoid(x).backward(np.ones(1))
    assert abs(x.grad[0] - 0.25) < 1e-15


def test_quadratic_grad_check():
    x = T.Tensor(np.array([3.0]), requires_grad=True)

    def f():
        return T.reduce_sum(T.mul(x, x))

    err = grad_check(f, [x], eps=1e-5)
    assert err < 1e-8
    assert abs(x.grad[0] - 6.0) < 1e-9


def test_mlp_grad_check():
    rng = np.random.default_rng(0)
    w1 = T.Tensor(rng.normal(size=(4, 8)) * 0.5, requires_grad=True)
    b1 = T.Tensor(rng.normal(size=8) * 0.1, requires_grad=True)
    w2 = T.Tensor(rng.normal(size=(8, 2)) * 0.5, requires_grad=True)
    b2 = T.Tensor(rng.normal(size=2) * 0.1, requires_grad=True)
    x = np.ascontiguousarray(rng.normal(size=(5, 4)))
    y = rng.normal(size=(5, 2))

    def f():
        h = tanh(T.add(T.matmul(T.Tensor(x), w1), b1))
        return T.mse(T.add(T.matmul(h, w2), b2), y)

    assert grad_check(f, [w1, b1, w2, b2], eps=1e-5) < 1e-5


@pytest.mark.parametrize("op", [
    lambda a: T.reduce_sum(getitem(T.softmax(a, axis=-1), np.s_[:, :2])),
    lambda a: T.reduce_sum(exp(T.mul(a, T.Tensor(0.3)))),
    lambda a: T.reduce_sum(tanh(T.matmul(a, T.transpose(a, (1, 0))))),
    lambda a: T.reduce_mean(concat([a, T.mul(a, a)], axis=1)),
    lambda a: T.reduce_sum(T.mul(T.reshape(a, (2, 6)), T.Tensor(np.arange(12.0).reshape(2, 6)))),
    lambda a: T.reduce_sum(sqrt(T.add(T.mul(a, a), T.Tensor(0.5)))),
    lambda a: T.reduce_sum(div(a, T.Tensor(np.full((3, 4), 2.0)))),
    lambda a: T.reduce_sum(T.leaky_relu(a, 0.1)),
    lambda a: T.reduce_mean(getitem(a, np.s_[1:, ::2])),
])
def test_elementwise_ops_grad_check(op):
    rng = np.random.default_rng(42)
    a = T.Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    assert grad_check(lambda: op(a), [a], eps=1e-5) < 1e-6


def test_conv2d_grad_check():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(2, 2, 4, 5)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)
    y = rng.normal(size=(2, 3, 4, 5))

    def f():
        return T.mse(T.conv2d(x, w), y)

    assert grad_check(f, [x, w], eps=1e-5) < 1e-6


def test_lstm_grad_check():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    w_ih = T.Tensor(rng.normal(size=(2, 12)) * 0.5, requires_grad=True)
    w_hh = T.Tensor(rng.normal(size=(3, 12)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=12) * 0.5, requires_grad=True)
    weights = T.Tensor(rng.normal(size=(3, 4, 3)))

    def f():
        return T.reduce_sum(T.mul(T.lstm(x, w_ih, w_hh, b), weights))

    assert grad_check(f, [x, w_ih, w_hh, b], eps=1e-5) < 1e-6


def test_batchnorm_train_grad_check():
    rng = np.random.default_rng(7)
    x = T.Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    gamma = T.Tensor(np.ones(3) * 1.3, requires_grad=True)
    beta = T.Tensor(np.full(3, 0.2), requires_grad=True)
    rm = T.Tensor(np.zeros(3))
    rv = T.Tensor(np.ones(3))
    y = rng.normal(size=(6, 3))

    def f():
        out = T.batch_norm(x, gamma, beta, rm, rv, channel_axis=1, training=True)
        return T.mse(out, y)

    assert grad_check(f, [x, gamma, beta], eps=1e-5) < 1e-6


def test_batchnorm_running_stats_track_batch():
    rng = np.random.default_rng(11)
    data = rng.normal(loc=2.0, scale=3.0, size=(64, 2))
    gamma = T.Tensor(np.ones(2), requires_grad=True)
    beta = T.Tensor(np.zeros(2), requires_grad=True)
    rm = T.Tensor(np.zeros(2))
    rv = T.Tensor(np.ones(2))
    for _ in range(200):
        T.batch_norm(T.Tensor(data), gamma, beta, rm, rv, channel_axis=1,
                     training=True)
    assert np.allclose(rm.data, data.mean(axis=0), atol=1e-6)
    assert np.allclose(rv.data, data.var(axis=0, ddof=1), atol=1e-6)
    # eval mode normalizes with the running statistics
    out = T.batch_norm(T.Tensor(data), gamma, beta, rm, rv, channel_axis=1,
                       training=False)
    assert abs(out.data.mean()) < 1e-6


# The graph of elementary ops that the fused training-mode batch norm
# replaced, and the zero-filling first accumulation it was run with, kept as
# the exact oracle of both.


def _tape_batch_norm(x, gamma, beta, running_mean, running_var, channel_axis,
                     training, momentum=0.1, eps=1e-5):
    x = T.as_tensor(x)
    ndim = x.data.ndim
    channel_axis = channel_axis % ndim
    axes = tuple(ax for ax in range(ndim) if ax != channel_axis)
    bshape = [1] * ndim
    bshape[channel_axis] = x.data.shape[channel_axis]
    gamma_r = T.reshape(gamma, bshape)
    beta_r = T.reshape(beta, bshape)
    if training:
        mean = T.reduce_mean(x, axis=axes, keepdims=True)
        centered = T.sub(x, mean)
        var = T.reduce_mean(T.mul(centered, centered), axis=axes,
                            keepdims=True)
        inv_std = div(T.Tensor(1.0), sqrt(T.add(var, T.Tensor(eps))))
        xhat = T.mul(centered, inv_std)
        n = 1
        for ax in axes:
            n *= x.data.shape[ax]
        bm = mean.data.reshape(-1)
        bv = var.data.reshape(-1) * (n / (n - 1)) if n > 1 \
            else var.data.reshape(-1)
        running_mean.data *= (1.0 - momentum)
        running_mean.data += momentum * bm
        running_var.data *= (1.0 - momentum)
        running_var.data += momentum * bv
    else:
        rm = running_mean.data.reshape(bshape)
        rv = running_var.data.reshape(bshape)
        xhat = T.mul(T.sub(x, T.Tensor(rm)), T.Tensor(1.0 / np.sqrt(rv + eps)))
    return T.add(T.mul(gamma_r, xhat), beta_r)


def _zero_fill_accum(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


def _bn_case(rng, shape, channel_axis, x_kind, g_kind):
    channels = shape[channel_axis]
    x = {"normal": rng.normal(size=shape) * 3.0 + 1.0,
         "zeros": np.zeros(shape)}[x_kind]
    g = {"normal": rng.normal(size=shape), "zeros": np.zeros(shape),
         "neg_zeros": np.full(shape, -0.0)}[g_kind]
    return (x, rng.normal(size=channels), rng.normal(size=channels),
            rng.normal(size=channels), rng.uniform(0.5, 2.0, channels), g)


def _bn_run(batch_norm, case, channel_axis, needs_grad=(True, True, True)):
    """Output, x/gamma/beta gradients and running statistics after one
    training-mode batch norm under upstream gradient g."""
    x, gamma, beta, rm, rv, g = case
    xt, gt, bt = (T.Tensor(a.copy(), requires_grad=r)
                  for a, r in zip((x, gamma, beta), needs_grad))
    rmt, rvt = T.Tensor(rm.copy()), T.Tensor(rv.copy())
    out = batch_norm(xt, gt, bt, rmt, rvt, channel_axis=channel_axis,
                     training=True)
    out.backward(g.copy())
    return [out.data, xt.grad, gt.grad, bt.grad, rmt.data, rvt.data]


# (shape, channel_axis): the LSTM's features at batch 1, 2 and 32, the
# Transformer's feed-forward activations, the CNN's second convolution
_BN_SHAPES = [((1, 24), 1), ((2, 24), 1), ((32, 24), 1), ((5, 16, 48), 2),
              ((32, 8, 7, 16), 1), ((3, 4, 5, 6), -3)]


@pytest.mark.parametrize("shape, channel_axis", _BN_SHAPES,
                         ids=lambda v: "x".join(map(str, v))
                         if isinstance(v, tuple) else str(v))
@pytest.mark.parametrize("x_kind, g_kind", [
    ("normal", "normal"), ("zeros", "normal"), ("normal", "zeros"),
    ("normal", "neg_zeros"), ("zeros", "neg_zeros")])
def test_fused_batch_norm_is_bit_identical_to_tape_graph(
        monkeypatch, shape, channel_axis, x_kind, g_kind):
    case = _bn_case(np.random.default_rng(len(shape) * 100 + shape[0]),
                    shape, channel_axis, x_kind, g_kind)
    fused = _bn_run(T.batch_norm, case, channel_axis)
    monkeypatch.setattr(T.Tensor, "_accum", _zero_fill_accum)
    tape = _bn_run(_tape_batch_norm, case, channel_axis)
    for a, b in zip(fused, tape):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("needs_grad", [(False, True, True),
                                        (True, False, False),
                                        (False, True, False)],
                         ids=["x-constant", "gamma-beta-constant",
                              "gamma-only"])
def test_fused_batch_norm_partial_gradients(monkeypatch, needs_grad):
    """Only the inputs that need a gradient get one, with the tape's bits."""
    case = _bn_case(np.random.default_rng(3), (6, 4), 1, "normal", "normal")
    fused = _bn_run(T.batch_norm, case, 1, needs_grad)
    monkeypatch.setattr(T.Tensor, "_accum", _zero_fill_accum)
    tape = _bn_run(_tape_batch_norm, case, 1, needs_grad)
    for a, b in zip(fused, tape):
        assert (a is None) == (b is None)
        assert a is None or a.tobytes() == b.tobytes()


@pytest.mark.parametrize("arch", models.ARCHS)
def test_fused_batch_norm_models_match_tape_graph(monkeypatch, arch):
    """One training step of every architecture with batch norm: the
    prediction, every parameter gradient and the running statistics, byte
    for byte, against the tape graph with zero-filled accumulation."""
    spec = models.ModelSpec(arch=arch, in_features=5, history=7, horizon=2,
                            hidden=8, conv_channels=(4, 4),
                            use_batchnorm=True)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(9, 5, spec.steps))
    y = rng.normal(size=(9, 2))

    def run():
        params = models.init_model(spec, seed=4)
        pred = models.forward_graph(spec, params, x, training=True)
        T.mse(pred, y).backward()
        return [pred.data] + [t.grad for t in params.trainable()] \
            + [t.data for _, t, _ in params]

    fused = run()
    monkeypatch.setattr(T, "batch_norm", _tape_batch_norm)
    monkeypatch.setattr(T.Tensor, "_accum", _zero_fill_accum)
    tape = run()
    assert len(fused) == len(tape)
    for a, b in zip(fused, tape):
        assert a.tobytes() == b.tobytes()


def test_first_accumulation_of_negative_zero_stores_positive_zero():
    t = T.Tensor(np.ones(3))
    t._accum(np.full(3, -0.0))
    assert not np.signbit(t.grad).any()
    t._accum(np.full(3, -0.0))
    assert not np.signbit(t.grad).any()


def test_accumulation_broadcasts_to_the_full_shape():
    t = T.Tensor(np.ones((2, 3)))
    t._accum(np.array([1.0, 2.0, 3.0]))
    assert t.grad.shape == (2, 3)
    assert np.array_equal(t.grad, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])


def test_accumulated_gradient_never_aliases_the_caller_array():
    g = np.array([1.0, 2.0, 3.0])
    t = T.Tensor(np.zeros(3))
    t._accum(g)
    assert t.grad is not g and not np.shares_memory(t.grad, g)
    t._accum(np.ones(3))
    t.grad += 10.0
    assert np.array_equal(g, [1.0, 2.0, 3.0])
    assert np.array_equal(t.grad, [12.0, 13.0, 14.0])


def test_gradient_linearity():
    rng = np.random.default_rng(5)
    w = T.Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    x = np.ascontiguousarray(rng.normal(size=(4, 3)))
    y1 = rng.normal(size=(4, 3))
    y2 = rng.normal(size=(4, 3))

    def loss(y):
        return T.mse(T.matmul(T.Tensor(x), w), y)

    w.grad = None
    T.add(loss(y1), loss(y2)).backward()
    g_sum = w.grad.copy()

    w.grad = None
    loss(y1).backward()
    g1 = w.grad.copy()
    w.grad = None
    loss(y2).backward()
    g2 = w.grad.copy()
    assert np.allclose(g_sum, g1 + g2, atol=1e-12)


def test_unused_parameter_gets_no_gradient():
    used = T.Tensor(np.ones(3), requires_grad=True)
    unused = T.Tensor(np.ones(3), requires_grad=True)
    T.reduce_sum(T.mul(used, used)).backward()
    assert unused.grad is None
    assert used.grad is not None


def test_forward_determinism():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(5, 5))
    r1 = T.softmax(T.Tensor(a), axis=1).data
    r2 = T.softmax(T.Tensor(a), axis=1).data
    assert np.array_equal(r1, r2)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        T.Tensor(np.ones(3), requires_grad=True).backward()


def _where_leaky_relu(a, alpha):
    """The `np.where` leaky ReLU that `T.leaky_relu` replaced, kept as its
    exact oracle."""
    positive = a.data > 0

    def back(g):
        a._accum(g * np.where(positive, 1.0, alpha))

    return T._make(np.where(positive, a.data, alpha * a.data), (a,), back)


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.5, 1.0, 5e-324])
def test_leaky_relu_is_bitwise_the_where_forms(alpha):
    """Forward and backward at the CNN step's shape, plus +-0.0, +-inf, nan
    and the extremes, in the input and in the upstream gradient."""
    rng = np.random.default_rng(8)
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324,
               -5e-324, 1e308, -1e308]
    x = np.concatenate([rng.normal(size=32 * 8 * 6 * 16), special, special])
    g = np.concatenate([rng.normal(size=x.size - 2 * len(special)),
                        special, special[::-1]])
    runs = []
    with np.errstate(invalid="ignore", over="ignore"):
        for op in (T.leaky_relu, _where_leaky_relu):
            xt = T.Tensor(x.copy(), requires_grad=True)
            out = op(xt, alpha)
            out.backward(g)
            runs.append((out.data.tobytes(), xt.grad.tobytes()))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("alpha", [0.0, -0.01, 1.5, np.inf, np.nan])
def test_leaky_relu_rejects_alpha_outside_the_max_identity(alpha):
    # at alpha = 0, max(inf, 0 * inf) is nan; above 1, max picks alpha * x
    with pytest.raises(ValueError):
        T.leaky_relu(T.Tensor(np.ones(2)), alpha)


def test_grad_check_rejects_bad_eps():
    x = T.Tensor(np.ones(1), requires_grad=True)
    with pytest.raises(ValueError):
        grad_check(lambda: T.reduce_sum(x), [x], eps=1.0)


def test_named_array_serialization_roundtrip_and_stability():
    rng = np.random.default_rng(1)
    entries = [("layer.w", rng.normal(size=(3, 4)), False, True),
               ("bn.running_mean", rng.normal(size=4), True, False),
               ("bn.gamma", rng.normal(size=4), True, True)]
    blob1 = T.write_named_arrays(entries)
    blob2 = T.write_named_arrays(entries)
    assert blob1 == blob2
    back = T.read_named_arrays(blob1)
    assert len(back) == 3
    for (n1, a1, bn1, tr1), (n2, a2, bn2, tr2) in zip(entries, back):
        assert n1 == n2 and bn1 == bn2 and tr1 == tr2
        assert np.array_equal(a1, a2)


def test_named_array_bad_magic():
    with pytest.raises(ValueError):
        T.read_named_arrays(b"XXXX" + b"\x00" * 16)


def test_named_arrays_reject_every_truncation_and_trailing_bytes():
    blob = T.write_named_arrays([("w", np.arange(6.0).reshape(2, 3), False,
                                  True), ("s", np.array(2.0), True, False)])
    for cut in range(len(blob)):
        with pytest.raises(ValueError):
            T.read_named_arrays(blob[:cut])
    with pytest.raises(ValueError, match="trailing"):
        T.read_named_arrays(blob + b"\x00")
