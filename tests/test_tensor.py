"""Autodiff core: forced-arithmetic examples, finite-difference oracles."""

import numpy as np
import pytest

from fedcast import tensor as T


def concat(tensors, axis=0):
    """Concatenation as a tape op; no model uses it, so it lives here, for
    the grad-check below."""
    tensors = [T.as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        parts = np.split(g, splits, axis=axis)
        for t, part in zip(tensors, parts):
            if t.requires_grad:
                t._accum(part)

    return T._make(np.concatenate([t.data for t in tensors], axis=axis),
                   tensors, back)


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
    T.sigmoid(x).backward(np.ones(1))
    assert abs(x.grad[0] - 0.25) < 1e-15


def test_quadratic_grad_check():
    x = T.Tensor(np.array([3.0]), requires_grad=True)

    def f():
        return T.reduce_sum(T.mul(x, x))

    err = T.grad_check(f, [x], eps=1e-5)
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
        h = T.tanh(T.add(T.matmul(T.Tensor(x), w1), b1))
        return T.mse(T.add(T.matmul(h, w2), b2), y)

    assert T.grad_check(f, [w1, b1, w2, b2], eps=1e-5) < 1e-5


@pytest.mark.parametrize("op", [
    lambda a: T.reduce_sum(T.softmax(a, axis=-1)[:, :2]),
    lambda a: T.reduce_sum(T.exp(T.mul(a, T.Tensor(0.3)))),
    lambda a: T.reduce_sum(T.tanh(T.matmul(a, T.transpose(a, (1, 0))))),
    lambda a: T.reduce_mean(concat([a, T.mul(a, a)], axis=1)),
    lambda a: T.reduce_sum(T.mul(T.reshape(a, (2, 6)), T.Tensor(np.arange(12.0).reshape(2, 6)))),
    lambda a: T.reduce_sum(T.sqrt(T.add(T.mul(a, a), T.Tensor(0.5)))),
    lambda a: T.reduce_sum(T.div(a, T.Tensor(np.full((3, 4), 2.0)))),
    lambda a: T.reduce_sum(T.leaky_relu(a, 0.1)),
    lambda a: T.reduce_mean(a[1:, ::2]),
])
def test_elementwise_ops_grad_check(op):
    rng = np.random.default_rng(42)
    a = T.Tensor(rng.normal(size=(3, 4)) + 0.1, requires_grad=True)
    assert T.grad_check(lambda: op(a), [a], eps=1e-5) < 1e-6


def test_conv2d_grad_check():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(2, 2, 4, 5)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 2, 3, 3)) * 0.3, requires_grad=True)
    y = rng.normal(size=(2, 3, 4, 5))

    def f():
        return T.mse(T.conv2d(x, w), y)

    assert T.grad_check(f, [x, w], eps=1e-5) < 1e-6


def test_lstm_grad_check():
    rng = np.random.default_rng(3)
    x = T.Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    w_ih = T.Tensor(rng.normal(size=(2, 12)) * 0.5, requires_grad=True)
    w_hh = T.Tensor(rng.normal(size=(3, 12)) * 0.5, requires_grad=True)
    b = T.Tensor(rng.normal(size=12) * 0.5, requires_grad=True)
    weights = T.Tensor(rng.normal(size=(3, 4, 3)))

    def f():
        return T.reduce_sum(T.mul(T.lstm(x, w_ih, w_hh, b), weights))

    assert T.grad_check(f, [x, w_ih, w_hh, b], eps=1e-5) < 1e-6


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

    assert T.grad_check(f, [x, gamma, beta], eps=1e-5) < 1e-6


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


def test_grad_check_rejects_bad_eps():
    x = T.Tensor(np.ones(1), requires_grad=True)
    with pytest.raises(ValueError):
        T.grad_check(lambda: T.reduce_sum(x), [x], eps=1.0)


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
