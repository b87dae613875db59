"""Dense tensors with reverse-mode automatic differentiation.

Small tape-based engine: each op returns a new Tensor holding a backward
closure; Tensor.backward() walks the graph once in reverse topological
order. Every Tensor holds float64; a float64 array is wrapped, not
copied, so a Tensor can be a view of a larger buffer.
"""

import math
import struct

import numpy as np

from . import accel


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._backward = None
        self._parents = ()

    def _accum(self, g):
        if self.grad is None:
            # the bits of zeros + g (-0.0 becomes +0.0) in one pass; a new
            # array, so a later += never writes into the caller's g
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        self.grad = np.asarray(grad, dtype=self.data.dtype)

        # iterative topological sort
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))

        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(grad, shape):
    """Sum gradient over axes that numpy broadcasting expanded.

    Shapes align from the end, as in broadcasting, so a stacked (K, 1, C)
    bias takes one sum over each slice's batch. The leading axes are summed
    first, then each size-1 axis from the front: that order sets the bits."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


def _make(data, parents, backward, requires_grad=None):
    out = Tensor(data)
    if requires_grad is None:
        requires_grad = any(p.requires_grad for p in parents)
    out.requires_grad = requires_grad
    if requires_grad:
        out._parents = tuple(parents)
        out._backward = backward
    return out


def add(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g, b.data.shape))

    return _make(a.data + b.data, (a, b), back)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(-g, b.data.shape))

    return _make(a.data - b.data, (a, b), back)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)

    def back(g):
        if a.requires_grad:
            a._accum(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accum(_unbroadcast(g * a.data, b.data.shape))

    return _make(a.data * b.data, (a, b), back)


def matmul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = np.matmul(a.data, b.data)

    def back(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accum(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accum(_unbroadcast(gb, b.data.shape))

    return _make(out, (a, b), back)


def _sigmoid_into(z, out):
    """1 / (1 + exp(-z)) written into `out`, one op at a time. The fused
    `lstm` and the per-step graph's `sigmoid` op (kept with the tests as
    its oracle) both compute through it, so both give the same bits."""
    np.negative(z, out=out)
    np.exp(out, out=out)
    np.add(1.0, out, out=out)
    return np.divide(1.0, out, out=out)


def relu(a):
    a = as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._accum(g * (a.data > 0))

    return _make(np.maximum(a.data, 0.0), (a,), back)


def leaky_relu(a, alpha=0.01):
    """x where x > 0, else alpha * x, for 0 < alpha <= 1.

    In that range it is max(x, alpha * x), and its slope is
    max(x > 0, alpha): both have the bits of the `np.where` forms, -0.0,
    +-inf and nan included, at a fraction of their cost on a random-sign
    mask. At alpha = 0, max(inf, 0 * inf) would be nan, and above 1 the
    max picks alpha * x. Only the bool mask is kept for the backward: a
    float64 slope array kept alive through the step costs no arithmetic
    but can push the process into page faults."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"leaky_relu needs 0 < alpha <= 1, got {alpha}")
    a = as_tensor(a)
    positive = a.data > 0

    def back(g):
        if a.requires_grad:
            a._accum(g * np.maximum(positive, alpha))

    return _make(np.maximum(a.data, alpha * a.data), (a,), back)


def softmax(a, axis=-1):
    a = as_tensor(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def back(g):
        if a.requires_grad:
            dot = (g * y).sum(axis=axis, keepdims=True)
            a._accum(y * (g - dot))

    return _make(y, (a,), back)


def reshape(a, shape):
    a = as_tensor(a)

    def back(g):
        if a.requires_grad:
            a._accum(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), back)


def transpose(a, axes):
    a = as_tensor(a)
    inv = np.argsort(axes)

    def back(g):
        if a.requires_grad:
            a._accum(g.transpose(inv))

    return _make(a.data.transpose(axes), (a,), back)


def _axes_tuple(axis, ndim):
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        return (axis % ndim,)
    return tuple(ax % ndim for ax in axis)


def reduce_sum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _axes_tuple(axis, a.data.ndim)

    def back(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a._accum(np.broadcast_to(g, a.data.shape))

    return _make(a.data.sum(axis=axes, keepdims=keepdims), (a,), back)


def reduce_mean(a, axis=None, keepdims=False):
    a = as_tensor(a)
    axes = _axes_tuple(axis, a.data.ndim)
    count = 1
    for ax in axes:
        count *= a.data.shape[ax]

    def back(g):
        if a.requires_grad:
            if not keepdims:
                g = np.expand_dims(g, axes)
            a._accum(np.broadcast_to(g / count, a.data.shape))

    return _make(a.data.mean(axis=axes, keepdims=keepdims), (a,), back)


def mse(pred, target, per_slice=False):
    """Mean squared error over all elements; target is a constant.

    With per_slice, one mean over each slice of the leading axis, shape
    (K,): slice k has the bits of the mse of pred[k] alone, and so does its
    gradient when the root sums the K losses."""
    pred = as_tensor(pred)
    t = target.data if isinstance(target, Tensor) else np.asarray(target)
    if pred.data.shape != t.shape:
        raise ValueError(f"mse shape mismatch {pred.data.shape} vs {t.shape}")
    diff = pred.data - t
    if per_slice:
        axes = tuple(range(1, diff.ndim))
        n = diff[0].size
        value = np.mean(diff * diff, axis=axes)
    else:
        axes = ()
        n = diff.size
        value = np.array(np.mean(diff * diff))

    def back(g):
        if pred.requires_grad:
            pred._accum(np.expand_dims(g, axes) * 2.0 * diff / n)

    return _make(value, (pred,), back)


def conv2d(x, w):
    """3x3, stride-1, same-padding convolution; x (B,C,H,W), w (F,C,3,3).

    When w needs a gradient, the forward's im2col matrix is kept for the
    weight gradient and dropped as soon as that is computed, before the
    input gradient builds columns of its own."""
    x, w = as_tensor(x), as_tensor(w)
    if w.requires_grad:
        out, cols = accel.conv2d_forward(x.data, w.data, keep_cols=True)
    else:
        out, cols = accel.conv2d_forward(x.data, w.data), None

    def back(g):
        nonlocal cols
        if w.requires_grad:
            w._accum(accel.conv2d_grad_weight(x.data, g, cols))
            cols = None
        if x.requires_grad:
            x._accum(accel.conv2d_grad_input(g, w.data))

    return _make(out, (x, w), back)


def lstm(x_seq, w_ih, w_hh, bias, last=False):
    """One LSTM layer from a zero state; x_seq (B,S,D), w_ih (D,4H),
    w_hh (H,4H), bias (4H,) with gates in the order i, f, g, o.

    Returns the (B,S,H) hidden sequence as one node whose backward runs
    BPTT over the tape the forward keeps; with `last`, only the last
    hidden state, (B,H), whose gradient the backward takes directly.

    Every step repeats the arithmetic of the per-step graph (sigmoid, tanh,
    mul and matmul ops) in its order, on arrays of the same shape and
    layout: the step's input is copied to a contiguous (B,D) array, and
    each activation reads a contiguous (B,H) array (a ufunc may take
    another code path on a strided view). The
    weight and bias gradients are summed step by step in reverse time
    order, from +0.0, in contiguous buffers, and each weight takes its sum
    in one accumulation after the last step, so outputs and gradients are
    bit-identical to that graph as long as each weight's gradient starts
    at None or at the +0.0 that `zero_grad` leaves (one consumer per
    weight, as in every model). A stack's gradients are strided views of
    its gradient matrix, where one add costs ~3x a contiguous one.
    Projecting all steps with one matmul, or summing the weight gradient
    over steps in one, would reorder the floating-point sums.

    The tape is five (S,B,H) arrays, the cell state c and the gates i, f,
    g and o of every step, written in place with `out=`; a call where
    nothing needs a gradient keeps two rotating slots instead. The
    backward rebuilds h_prev = o * tanh(c) of the step before from the
    tape: tanh reads the same contiguous cell state as in the forward, so
    both products have the forward's bits, and that tanh(c) is the one
    the step before then uses. Under `last`, the gradient of every earlier
    step's hidden state is dh_next + 0.0, the bits of the zero gradient
    that slicing the sequence gave those steps plus dh_next.

    The forward also takes a stack of such inputs, x_seq (K,B,S,D), and
    returns (K,B,S,H) (with `last`, (K,B,H)): matmul runs one product per
    (B,·) slice, so each slice gets the bits of its own call. The backward
    takes the stack too when the weights are stacked with it, w_ih
    (K,D,4H), w_hh (K,H,4H) and bias (K,1,4H): every step counts its axes
    from the end, so slice k's gradients are the bits of its own (B,S,D)
    call.
    """
    x_seq, w_ih, w_hh, bias = (as_tensor(t) for t in (x_seq, w_ih, w_hh, bias))
    *lead, steps, _ = x_seq.data.shape
    hid = w_hh.data.shape[-2]
    state = (*lead, hid)
    track = any(t.requires_grad for t in (x_seq, w_ih, w_hh, bias))
    slots = steps if track else 2
    cs, ig, fg, gg, og = (np.empty((slots, *state)) for _ in range(5))
    zeros = np.zeros(state)
    xt = np.empty(x_seq.data.shape[:-2] + x_seq.data.shape[-1:])
    gates = np.empty((*lead, 4 * hid))
    proj = np.empty_like(gates)
    tc = np.empty(state)
    h = np.zeros(state)
    seq = None if last else np.empty((*lead, steps, hid))
    for t in range(steps):
        s = t % slots
        c_prev = cs[(t - 1) % slots] if t else zeros
        c, i, f, g, o = cs[s], ig[s], fg[s], gg[s], og[s]
        np.copyto(xt, x_seq.data[..., t, :])
        np.matmul(xt, w_ih.data, out=gates)
        np.matmul(h, w_hh.data, out=proj)
        np.add(gates, proj, out=gates)
        np.add(gates, bias.data, out=gates)
        _sigmoid_into(gates[..., :hid], i)
        _sigmoid_into(gates[..., hid:2 * hid], f)
        np.copyto(g, gates[..., 2 * hid:3 * hid])
        np.tanh(g, out=g)
        _sigmoid_into(gates[..., 3 * hid:], o)
        np.multiply(f, c_prev, out=c)
        np.multiply(i, g, out=tc)
        np.add(c, tc, out=c)
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h)
        if seq is not None:
            seq[..., t, :] = h
    out = h if last else seq
    if not track:
        return Tensor(out)

    def back(grad):
        dx = np.empty_like(x_seq.data) if x_seq.requires_grad else None
        w_ih_t = np.swapaxes(w_ih.data, -1, -2)
        w_hh_t = np.swapaxes(w_hh.data, -1, -2)
        dh_buf, dh_next, dc, dc_next, tmp, do, tc_prev = (
            np.empty(state) for _ in range(7))
        tc = np.tanh(cs[-1])
        dgates = np.empty((*lead, 4 * hid))
        d_i, d_f, d_g, d_o = (dgates[..., k * hid:(k + 1) * hid]
                              for k in range(4))
        db = np.empty(dgates.shape[:-2] + dgates.shape[-1:])
        dw_ih, dw_hh, dxt = (np.empty_like(a) for a in (w_ih.data, w_hh.data,
                                                         xt))
        sum_ih, sum_hh, sum_b = (np.zeros_like(a) for a in (dw_ih, dw_hh, db))
        zeros = np.zeros(state)
        # transposed views, made once: the (D,B) and (H,B) operands of the
        # weight gradients
        xt_t, tmp_t, zeros_t = (np.swapaxes(a, -1, -2) for a in (xt, tmp,
                                                                  zeros))
        for t in reversed(range(steps)):
            c, i, f, g, o = cs[t], ig[t], fg[t], gg[t], og[t]
            c_prev = cs[t - 1] if t else zeros
            if t:
                np.tanh(c_prev, out=tc_prev)
            if last:
                dh = np.add(grad if t == steps - 1 else dh_next, 0.0,
                            out=dh_buf)
            elif t == steps - 1:
                dh = grad[..., t, :]
            else:
                dh = np.add(grad[..., t, :], dh_next, out=dh_buf)
            np.multiply(dh, tc, out=do)
            np.multiply(dh, o, out=dc)
            np.multiply(tc, tc, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            np.multiply(dc, tmp, out=dc)
            if t < steps - 1:
                np.add(dc, dc_next, out=dc)
            # each gate's ((dc * x) * y) * (1 - z), as the graph multiplies
            np.multiply(dc, g, out=tmp)
            np.multiply(tmp, i, out=tmp)
            np.subtract(1.0, i, out=d_i)
            np.multiply(tmp, d_i, out=d_i)
            np.multiply(dc, c_prev, out=tmp)
            np.multiply(tmp, f, out=tmp)
            np.subtract(1.0, f, out=d_f)
            np.multiply(tmp, d_f, out=d_f)
            np.multiply(dc, i, out=tmp)
            np.multiply(g, g, out=d_g)
            np.subtract(1.0, d_g, out=d_g)
            np.multiply(tmp, d_g, out=d_g)
            np.multiply(do, o, out=tmp)
            np.subtract(1.0, o, out=d_o)
            np.multiply(tmp, d_o, out=d_o)
            if bias.requires_grad:
                np.add.reduce(dgates, axis=-2, out=db)
                np.add(sum_b, db, out=sum_b)
            if dx is not None:
                np.matmul(dgates, w_ih_t, out=dxt)
                dx[..., t, :] = dxt
            if w_ih.requires_grad:
                np.copyto(xt, x_seq.data[..., t, :])
                np.matmul(xt_t, dgates, out=dw_ih)
                np.add(sum_ih, dw_ih, out=sum_ih)
            if w_hh.requires_grad:
                if t:   # h_prev, as the forward made it
                    np.multiply(og[t - 1], tc_prev, out=tmp)
                np.matmul(tmp_t if t else zeros_t, dgates, out=dw_hh)
                np.add(sum_hh, dw_hh, out=sum_hh)
            np.matmul(dgates, w_hh_t, out=dh_next)
            np.multiply(dc, f, out=dc_next)
            tc, tc_prev = tc_prev, tc
        if bias.requires_grad:
            bias._accum(sum_b.reshape(bias.data.shape))
        if w_ih.requires_grad:
            w_ih._accum(sum_ih)
        if w_hh.requires_grad:
            w_hh._accum(sum_hh)
        if dx is not None:
            x_seq._accum(dx)

    return _make(out, (x_seq, w_ih, w_hh, bias), back)


def batch_norm(x, gamma, beta, running_mean, running_var, channel_axis,
               training, momentum=0.1, eps=1e-5):
    """Batch normalization over all axes except channel_axis.

    gamma/beta are flat (C,) Tensors; running_mean/var are flat (C,)
    Tensors updated in place (no gradient) while training. For a stack of
    models on the leading axis of x, all four are stacked and shaped to
    broadcast against x, e.g. (K,1,C) for x (K,B,C): each slice then takes
    its moments over its own batch and keeps its own running statistics.

    In training mode this is one node whose backward repeats, bit for bit,
    the arithmetic of the graph of elementary ops it replaces
    (mean, centered = x - mean, var = mean(centered**2),
    inv_std = 1 / sqrt(var + eps), xhat = centered * inv_std,
    out = gamma * xhat + beta): each intermediate gradient starts as
    `value + 0.0`, as the graph's accumulation from zero does (so -0.0
    becomes +0.0); every reduction goes through `_unbroadcast`, one axis at
    a time; centered's gradient is (p + q) + q, p from xhat and q from each
    factor of the square, in the graph's order; and x takes two
    accumulations, first centered's gradient, then the mean's.
    """
    x, gamma, beta = as_tensor(x), as_tensor(gamma), as_tensor(beta)
    ndim = x.data.ndim
    channel_axis = channel_axis % ndim
    stacked = gamma.data.ndim > 1
    axes = tuple(ax for ax in range(int(stacked), ndim) if ax != channel_axis)
    if stacked:
        bshape = list(gamma.data.shape)
    else:
        bshape = [1] * ndim
        bshape[channel_axis] = x.data.shape[channel_axis]
    gamma_r = gamma.data.reshape(bshape)
    beta_r = beta.data.reshape(bshape)

    if not training:
        rm = running_mean.data.reshape(bshape)
        rv = running_var.data.reshape(bshape)
        xhat = mul(sub(x, Tensor(rm)), Tensor(1.0 / np.sqrt(rv + eps)))
        return add(mul(reshape(gamma, bshape), xhat), reshape(beta, bshape))

    mean = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    std = np.sqrt(var + eps)
    inv_std = 1.0 / std
    xhat = centered * inv_std
    n = math.prod(x.data.shape[ax] for ax in axes)
    # running statistics track detached batch moments (unbiased variance)
    bm = mean.reshape(running_mean.data.shape)
    bv = var.reshape(running_var.data.shape)
    if n > 1:
        bv = bv * (n / (n - 1))
    running_mean.data *= (1.0 - momentum)
    running_mean.data += momentum * bm
    running_var.data *= (1.0 - momentum)
    running_var.data += momentum * bv

    def back(g):
        if beta.requires_grad:
            g_beta = _unbroadcast(g, bshape) + 0.0
            beta._accum(g_beta.reshape(beta.data.shape))
        g_scaled = g + 0.0  # gradient of gamma * xhat
        if gamma.requires_grad:
            g_gamma = _unbroadcast(g_scaled * xhat, bshape) + 0.0
            gamma._accum(g_gamma.reshape(gamma.data.shape))
        if not x.requires_grad:
            return
        g_xhat = g_scaled * gamma_r
        g_xhat += 0.0
        g_inv_std = _unbroadcast(g_xhat * centered, bshape) + 0.0
        g_std = -g_inv_std / (std * std) + 0.0
        g_var = g_std * 0.5 / std + 0.0
        # the gradient each factor of the square gives the centred input
        q = (g_var / n + 0.0) * centered
        g_centered = g_xhat * inv_std
        g_centered += 0.0
        g_centered += q
        g_centered += q
        x._accum(g_centered)
        g_mean = _unbroadcast(-g_centered, bshape) + 0.0
        x._accum(np.broadcast_to(g_mean / n, x.data.shape))

    return _make(gamma_r * xhat + beta_r, (x, gamma, beta), back)


# ---------------------------------------------------------------------------
# Named-array serialization (checkpoint payload). Byte-stable: fixed-order
# little-endian layout, float64 buffers.
# ---------------------------------------------------------------------------

_MAGIC = b"FCT1"


def write_named_arrays(entries):
    """entries: iterable of (name, ndarray, is_batchnorm, trainable)."""
    entries = list(entries)
    out = [_MAGIC, struct.pack("<I", len(entries))]
    for name, arr, is_bn, trainable in entries:
        nb = name.encode("utf-8")
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        out.append(struct.pack("<H", len(nb)))
        out.append(nb)
        out.append(struct.pack("<B", (1 if is_bn else 0) | (2 if trainable else 0)))
        out.append(struct.pack("<B", arr.ndim))
        out.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        out.append(arr.astype("<f8").tobytes())
    return b"".join(out)


def read_named_arrays(blob):
    """Inverse of write_named_arrays. ValueError when the blob is not one:
    bad magic, a field or payload cut short, or bytes left over."""
    view = memoryview(blob)
    off = 0

    def take(n, what):
        nonlocal off
        if off + n > len(view):
            raise ValueError(f"truncated at byte {off}: {what} needs {n} "
                             f"bytes, {len(view) - off} left")
        off += n
        return view[off - n:off]

    if take(4, "magic") != _MAGIC:
        raise ValueError("bad checkpoint magic")
    (count,) = struct.unpack("<I", take(4, "entry count"))
    entries = []
    for i in range(count):
        (nlen,) = struct.unpack("<H", take(2, f"entry {i} name length"))
        name = str(take(nlen, f"entry {i} name"), "utf-8")
        flags, ndim = struct.unpack("<BB", take(2, f"{name} flags"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, f"{name} shape"))
        payload = take(8 * math.prod(shape), f"{name} payload")
        arr = np.frombuffer(payload, dtype="<f8").reshape(shape).copy()
        entries.append((name, arr, bool(flags & 1), bool(flags & 2)))
    if off != len(view):
        raise ValueError(f"{len(view) - off} trailing bytes after {count} entries")
    return entries
