"""A fixed reference workload, timed next to every benchmark pass.

The host this benchmark runs on is shared: the same pass on the same
inputs can take 15-40% longer from one minute to the next, in CPU time as
well as in wall time. Dividing each pass by the time of this kernel, run
just before and just after it, cancels about half of that drift.

The kernel does what fedcast's hot paths do, with code of its own that no
change to fedcast can touch: a small reverse-mode autograd LSTM over 15
steps at hidden size 24 and batch 32 (many small numpy arrays and Python
closures), and a vectorised MPC rollout that scores all 6**6 bitrate
sequences at once (a few large numpy arrays). Of the kinds of code tried
(these two, a plain-Python MPC enumeration, an im2col convolution), these
two tracked the passes of every workload best.
"""

import numpy as np

H, B, T = 24, 32, 15
LADDER = np.array([300.0, 750.0, 1200.0, 1850.0, 2850.0, 4300.0])


class _Node:
    __slots__ = ("v", "g", "parents", "back")

    def __init__(self, v, parents=(), back=None):
        self.v, self.g, self.parents, self.back = v, None, parents, back


def _acc(node, g):
    node.g = g if node.g is None else node.g + g


def _unbroadcast(g, shape):
    return g if g.shape == shape else g.sum(axis=0)


def _matmul(a, b):
    def back(g):
        _acc(a, g @ b.v.T)
        _acc(b, a.v.T @ g)
    return _Node(a.v @ b.v, (a, b), back)


def _add(a, b):
    def back(g):
        _acc(a, _unbroadcast(g, a.v.shape))
        _acc(b, _unbroadcast(g, b.v.shape))
    return _Node(a.v + b.v, (a, b), back)


def _mul(a, b):
    def back(g):
        _acc(a, g * b.v)
        _acc(b, g * a.v)
    return _Node(a.v * b.v, (a, b), back)


def _sigmoid(a):
    s = 1.0 / (1.0 + np.exp(-a.v))
    return _Node(s, (a,), lambda g: _acc(a, g * s * (1.0 - s)))


def _tanh(a):
    t = np.tanh(a.v)
    return _Node(t, (a,), lambda g: _acc(a, g * (1.0 - t * t)))


def _cols(a, i, j):
    def back(g):
        z = np.zeros_like(a.v)
        z[:, i:j] = g
        _acc(a, z)
    return _Node(a.v[:, i:j], (a,), back)


def _backward(root):
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
        elif id(node) not in seen:
            seen.add(id(node))
            stack.append((node, True))
            stack.extend((p, False) for p in node.parents)
    root.g = np.ones_like(root.v)
    for node in reversed(order):
        if node.back is not None and node.g is not None:
            node.back(node.g)


_rng = np.random.default_rng(12345)
_X = _rng.standard_normal((T, B, 1))
_W = _rng.standard_normal((1 + H, 4 * H)) * 0.1


def _lstm_grad():
    w, b = _Node(_W.copy()), _Node(np.zeros(4 * H))
    h, c = _Node(np.zeros((B, H))), _Node(np.zeros((B, H)))
    for t in range(T):
        z = _add(_matmul(_Node(np.concatenate([_X[t], h.v], axis=1)), w), b)
        i, f, o = (_sigmoid(_cols(z, k * H, (k + 1) * H)) for k in range(3))
        c = _add(_mul(f, c), _mul(i, _tanh(_cols(z, 3 * H, 4 * H))))
        h = _mul(o, _tanh(c))
    loss = _Node(np.array([[float((h.v ** 2).mean())]]), (h,))
    loss.back = lambda g: _acc(h, g * 2.0 * h.v / h.v.size)
    _backward(loss)
    return float(w.g.sum())


def _rollout(horizon=6, tput=2500.0, rtt=0.08, chunk=4.0):
    n_rates = len(LADDER)
    seq = np.arange(n_rates ** horizon)
    buf = np.full(len(seq), 8.0)
    lat = np.zeros(len(seq))
    score = np.zeros(len(seq))
    q_prev = np.zeros(len(seq))
    for j in range(horizon):
        rate = LADDER[(seq // n_rates ** (horizon - 1 - j)) % n_rates]
        dl = rtt + rate * chunk / tput
        stall = np.maximum(dl - buf, 0.0)
        buf = np.maximum(buf - dl, 0.0) + chunk
        lat = lat + stall
        q = np.log(rate / LADDER[0])
        psi = 1.0 / (1.0 + np.exp(4.0 - lat))
        score += q - np.abs(q - q_prev) - 0.5 * psi - 4.3 * stall
        q_prev = q
    return float(score.max())


def reference(units):
    """Run `units` times 4 LSTM gradients and 1 rollout; return a checksum."""
    total = 0.0
    for _ in range(units):
        total += sum(_lstm_grad() for _ in range(4)) + _rollout()
    return total
