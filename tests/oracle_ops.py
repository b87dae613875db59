"""Tape ops no model uses, as `fedcast.tensor` held them, so the tests'
graph oracles (the per-step LSTM, the elementary-op batch norm) keep their
bits; and the central-difference gradient check. Slice a Tensor with
`getitem(t, key)`."""

import numpy as np

from fedcast.tensor import _make, _sigmoid_into, _unbroadcast, as_tensor


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(a.data / b.data, (a, b), back)


def exp(a):
    a = as_tensor(a)
    y = np.exp(a.data)

    def back(g):
        if a.requires_grad:
            a._accum(g * y)

    return _make(y, (a,), back)


def sqrt(a):
    a = as_tensor(a)
    y = np.sqrt(a.data)

    def back(g):
        if a.requires_grad:
            a._accum(g * 0.5 / y)

    return _make(y, (a,), back)


def sigmoid(a):
    a = as_tensor(a)
    y = _sigmoid_into(a.data, np.empty_like(a.data))

    def back(g):
        if a.requires_grad:
            a._accum(g * y * (1.0 - y))

    return _make(y, (a,), back)


def tanh(a):
    a = as_tensor(a)
    y = np.tanh(a.data)

    def back(g):
        if a.requires_grad:
            a._accum(g * (1.0 - y * y))

    return _make(y, (a,), back)


def concat(tensors, axis=0):
    tensors = [as_tensor(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def back(g):
        for t, part in zip(tensors, np.split(g, splits, axis=axis)):
            if t.requires_grad:
                t._accum(part)

    return _make(np.concatenate([t.data for t in tensors], axis=axis),
                 tensors, back)


def getitem(a, key):
    a = as_tensor(a)

    def back(g):
        if a.requires_grad:
            buf = np.zeros_like(a.data)
            np.add.at(buf, key, g)
            a._accum(buf)

    return _make(a.data[key].copy(), (a,), back)


def grad_check(f, params, eps=1e-5):
    """Max relative error between tape gradients and central differences.

    f() rebuilds and returns the scalar loss from the current parameter
    values. Relative error per coordinate uses |a|+|b| with a 1e-5 floor.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError("eps out of the supported range")
    for p in params:
        p.grad = None
    loss = f()
    if not np.isfinite(loss.data):
        raise FloatingPointError("non-finite loss in grad_check")
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    max_rel = 0.0
    for p, ana in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = ana.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            fp = float(f().data)
            flat[i] = orig - eps
            fm = float(f().data)
            flat[i] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise FloatingPointError("non-finite loss in grad_check")
            num = (fp - fm) / (2.0 * eps)
            rel = abs(aflat[i] - num) / max(abs(aflat[i]) + abs(num), 1e-5)
            max_rel = max(max_rel, rel)
    return max_rel
