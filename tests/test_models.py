"""Architectures, initialization, local training and checkpoints."""

import tracemalloc

import numpy as np
import pytest

from fedcast import fl, models
from fedcast import tensor as T
from fedcast.preprocess import Windows, WindowConfig, build_windows
from fedcast.trace import ClientTrace

from oracle_ops import concat, getitem, sigmoid, tanh


def _toy_spec(arch, **kw):
    base = dict(arch=arch, in_features=4, history=5, horizon=1, hidden=8,
                num_heads=2, conv_channels=(3, 3), ff_dim=8)
    base.update(kw)
    return models.ModelSpec(**base)


def _params_bytes(params):
    return params.to_bytes()


def test_init_deterministic_bitwise():
    for arch in models.ARCHS:
        spec = _toy_spec(arch)
        a = models.init_model(spec, seed=7)
        b = models.init_model(spec, seed=7)
        assert _params_bytes(a) == _params_bytes(b)


def test_init_bn_identity():
    params = models.init_model(_toy_spec("CNN"), seed=0)
    assert np.array_equal(params.get("bn1.gamma").data, np.ones(3))
    assert np.array_equal(params.get("bn1.beta").data, np.zeros(3))
    assert np.array_equal(params.get("bn1.running_mean").data, np.zeros(3))
    assert np.array_equal(params.get("bn1.running_var").data, np.ones(3))


def test_init_seed_sensitivity():
    spec = _toy_spec("LSTM")
    a = models.init_model(spec, seed=1)
    b = models.init_model(spec, seed=2)
    assert any(not np.array_equal(ta.data, tb.data)
               for (_, ta, _), (_, tb, _) in zip(a.entries, b.entries))


def test_bn_entries_tagged():
    params = models.init_model(_toy_spec("LSTM"), seed=0)
    bn_names = {n for n, _, is_bn in params.entries if is_bn}
    assert bn_names == {"bn.gamma", "bn.beta", "bn.running_mean",
                        "bn.running_var"}
    no_bn = models.init_model(_toy_spec("LSTM", use_batchnorm=False), seed=0)
    assert all(not is_bn for _, _, is_bn in no_bn.entries)


@pytest.mark.parametrize("arch", models.ARCHS)
def test_forward_shape_contract(arch):
    spec = _toy_spec(arch)
    params = models.init_model(spec, seed=0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, spec.in_features, spec.steps))
    out = models.forward(spec, params, x)
    assert out.shape == (4, 1)
    assert np.isfinite(out).all()


@pytest.mark.parametrize("arch", models.ARCHS)
def test_eval_forward_deterministic(arch):
    spec = _toy_spec(arch)
    params = models.init_model(spec, seed=3)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(3, spec.in_features, spec.steps))
    assert np.array_equal(models.forward(spec, params, x),
                          models.forward(spec, params, x))


def test_forward_rejects_bad_shapes():
    spec = _toy_spec("LSTM")
    params = models.init_model(spec, seed=0)
    with pytest.raises(models.ModelError):
        models.forward(spec, params, np.zeros((2, 3, spec.steps)))
    with pytest.raises(models.ModelError):
        models.forward(spec, params, np.zeros((0, 4, spec.steps)))
    with pytest.raises(models.ModelError):
        models.forward(spec, params, np.zeros((3, 0, 4, spec.steps)))
    with pytest.raises(models.ModelError):
        models.forward(spec, params, np.zeros((1, 1, 1, 4, spec.steps)))
    # batch statistics would mix the slices of a stack
    with pytest.raises(models.ModelError):
        models.forward(spec, params, np.zeros((2, 1, 4, spec.steps)),
                       training=True)


@pytest.mark.parametrize("arch", models.ARCHS)
@pytest.mark.parametrize("use_batchnorm", [False, True])
def test_stacked_forward_equals_per_call_forward(arch, use_batchnorm):
    """A (T, 1, |F|+1, H+1) stack gives, slice for slice, the bits of T
    batch-of-one calls. The widths are the demo's, so that one GEMM over
    the stack, which sums in another order than T vector-matrix products,
    fails this test."""
    spec = _toy_spec(arch, history=15, horizon=3, hidden=24, ff_dim=0,
                     conv_channels=(8, 8), use_batchnorm=use_batchnorm)
    params = models.init_model(spec, seed=4)
    rng = np.random.default_rng(6)
    for name, t, _ in params:
        if name.endswith("running_mean"):
            t.data[:] = rng.normal(0.0, 0.5, t.data.shape)
        elif name.endswith("running_var"):
            t.data[:] = rng.uniform(0.5, 2.0, t.data.shape)
    for n_stack in (1, 2, 110):
        x = rng.normal(size=(n_stack, 1, spec.in_features, spec.steps))
        got = models.forward(spec, params, x)
        assert got.shape == (n_stack, 1, spec.horizon)
        for k in range(n_stack):
            want = models.forward(spec, params, x[k])
            assert got[k].tobytes() == want.tobytes(), (n_stack, k)


@pytest.mark.parametrize("bad", [dict(hidden=0), dict(num_layers=0),
                                 dict(num_heads=0), dict(ff_dim=-1),
                                 dict(conv_channels=(8, 0)),
                                 dict(conv_channels=(8,)),
                                 dict(arch="LSTM_CNN", num_layers=3)])
def test_spec_rejects_out_of_range_sizes(bad):
    arch = "CNN" if "conv_channels" in bad else "TRANSFORMER"
    with pytest.raises(models.ModelError):
        _toy_spec(**{"arch": arch, **bad})


def test_transformer_positional_encoding_distinguishes_order():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 6))
    perm = rng.permutation(6)
    x_perm = x[:, :, perm]

    with_pe = _toy_spec("TRANSFORMER", use_positional=True)
    params = models.init_model(with_pe, seed=2)
    out = models.forward(with_pe, params, x)
    out_perm = models.forward(with_pe, params, x_perm)
    assert not np.allclose(out, out_perm)

    no_pe = _toy_spec("TRANSFORMER", use_positional=False)
    params2 = models.init_model(no_pe, seed=2)
    out2 = models.forward(no_pe, params2, x)
    out2_perm = models.forward(no_pe, params2, x_perm)
    # mean-pooled encoder without positions cannot see token order
    assert np.allclose(out2, out2_perm, atol=1e-9)


def test_bn_eval_uses_frozen_running_stats():
    spec = _toy_spec("LSTM")
    params = models.init_model(spec, seed=0)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 4, 6))
    models.forward(spec, params, x, training=True)
    rm_after = params.get("bn.running_mean").data.copy()
    out1 = models.forward(spec, params, x[:2], training=False)
    out2 = models.forward(spec, params, x[:2], training=False)
    assert np.array_equal(out1, out2)
    assert np.array_equal(params.get("bn.running_mean").data, rm_after)


def _samples_from_series(series, h=5, f=1):
    n = len(series)
    series = np.asarray(series, dtype=float)
    i = np.arange(n)
    columns = {"timestamp": i.astype(float), "latitude": np.full(n, 0.1),
               "longitude": np.full(n, 0.2), "speed": 1.0 + 0.5 * np.sin(i / 7),
               "rsrp": -100 + 0.2 * series, "sinr": 5.0 + 0.1 * series,
               "throughput": series, "radio_type": np.full(n, "NR")}
    tr = ClientTrace(client_id="c", dataset_tag="d", columns=columns)
    return build_windows(tr, WindowConfig(history=h, horizon=f))


def _lstm_layer(params, prefix, x_seq, hidden):
    """The per-step LSTM graph that `T.lstm` replaced, kept as its exact
    oracle: ~15 tape nodes per timestep."""
    b_n, steps, _ = x_seq.data.shape
    w_ih = params.get(f"{prefix}.w_ih")
    w_hh = params.get(f"{prefix}.w_hh")
    bias = params.get(f"{prefix}.b")
    h = T.Tensor(np.zeros((b_n, hidden)))
    c = T.Tensor(np.zeros((b_n, hidden)))
    outputs = []
    for t in range(steps):
        xt = getitem(x_seq, np.s_[:, t, :])
        gates = T.add(T.add(T.matmul(xt, w_ih), T.matmul(h, w_hh)), bias)
        i = sigmoid(getitem(gates, np.s_[:, :hidden]))
        f = sigmoid(getitem(gates, np.s_[:, hidden:2 * hidden]))
        g = tanh(getitem(gates, np.s_[:, 2 * hidden:3 * hidden]))
        o = sigmoid(getitem(gates, np.s_[:, 3 * hidden:]))
        c = T.add(T.mul(f, c), T.mul(i, g))
        h = T.mul(o, tanh(c))
        outputs.append(T.reshape(h, (b_n, 1, hidden)))
    return h, concat(outputs, axis=1)


def _lstm_params(rng, d, hidden, scale):
    return models.ParamSet([
        ("l.w_ih", T.Tensor(rng.normal(size=(d, 4 * hidden)) * scale,
                            requires_grad=True), False),
        ("l.w_hh", T.Tensor(rng.normal(size=(hidden, 4 * hidden)) * scale,
                            requires_grad=True), False),
        ("l.b", T.Tensor(rng.normal(size=4 * hidden) * scale,
                         requires_grad=True), False)])


def _lstm_run(mode, params, x, g_out):
    """Output, input gradient and parameter gradients of one layer under a
    linear loss. Modes: "graph" and "fused" take the loss on the whole
    sequence, "graph_last" and "fused_slice" on the last hidden state
    sliced from it, and "graph_h" and "fused_last" on the last hidden
    state as returned (the per-step graph's h, `T.lstm(..., last=True)`).
    Stacked inputs (K, B, S, D) take stacked parameters; only the fused
    modes run them."""
    params = params.copy()
    hidden = params.get("l.w_hh").data.shape[-2]
    xt = T.Tensor(x.copy(), requires_grad=True)
    weights = (params.get("l.w_ih"), params.get("l.w_hh"), params.get("l.b"))
    if mode == "fused_last":
        out = T.lstm(xt, *weights, last=True)
    elif mode.startswith("fused"):
        out = T.lstm(xt, *weights)
    else:
        last, out = _lstm_layer(params, "l", xt, hidden)
        if mode == "graph_h":
            out = last
    if mode in ("graph_last", "fused_slice"):
        out = getitem(out, np.s_[..., -1, :])
    g = g_out if out.data.shape == g_out.shape else g_out[..., -1, :]
    T.reduce_sum(T.mul(out, T.Tensor(g))).backward()
    return [out.data, xt.grad] + [t.grad for _, t, _ in params]


def _assert_same_bytes(got, want, case):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape, case
        assert a.tobytes() == b.tobytes(), case


def test_fused_lstm_is_bit_identical_to_per_step_graph():
    rng = np.random.default_rng(11)
    shapes = [(1, 1, 1, 1), (1, 16, 6, 24), (32, 1, 6, 24), (32, 16, 6, 24)]
    shapes += [tuple(int(v) for v in rng.integers(1, (40, 20, 8, 33)))
               for _ in range(40)]
    for k, (b_n, steps, d, hidden) in enumerate(shapes):
        # every third case has all-zero inputs: exact-zero gradient terms,
        # whose signs must match too
        scale = 0.0 if k % 3 == 2 else 0.5
        x = rng.normal(size=(b_n, steps, d)) * scale
        params = _lstm_params(rng, d, hidden, 0.5)
        g_out = rng.normal(size=(b_n, steps, hidden))
        case = (b_n, steps, d, hidden)
        for fused, graph in (("fused", "graph"), ("fused_slice", "graph_last"),
                             ("fused_last", "graph_h")):
            _assert_same_bytes(_lstm_run(fused, params, x, g_out),
                               _lstm_run(graph, params, x, g_out), case)
    # zero weights: every gate gradient but g's is a signed zero, and so is
    # every hidden-state gradient carried back a step
    for b_n, steps, d, hidden in shapes[:8]:
        x = rng.normal(size=(b_n, steps, d))
        params = _lstm_params(rng, d, hidden, 0.0)
        g_out = rng.normal(size=(b_n, steps, hidden))
        for fused, graph in (("fused", "graph"), ("fused_last", "graph_h")):
            _assert_same_bytes(_lstm_run(fused, params, x, g_out),
                               _lstm_run(graph, params, x, g_out),
                               (b_n, steps, d, hidden))


@pytest.mark.parametrize("scale", [0.5, 0.0])
def test_stacked_fused_lstm_slices_are_each_slices_per_step_graph(scale):
    """A (K, B, S, D) stack with stacked weights: slice k's last hidden
    state, hidden sequence and gradients are the bytes of the per-step
    graph on slice k alone."""
    rng = np.random.default_rng(5)
    k_n, b_n, steps, d, hidden = 4, 32, 16, 6, 24
    x = rng.normal(size=(k_n, b_n, steps, d)) * scale
    members = [_lstm_params(rng, d, hidden, 0.5) for _ in range(k_n)]
    stacked = models.stack_params(members)
    g_out = rng.normal(size=(k_n, b_n, steps, hidden))
    for fused, graph in (("fused", "graph"), ("fused_last", "graph_h")):
        got = _lstm_run(fused, stacked, x, g_out)
        for j in range(k_n):
            want = _lstm_run(graph, members[j], x[j], g_out[j])
            mine = [a[j].reshape(b.shape) for a, b in zip(got, want)]
            _assert_same_bytes(mine, want, (fused, j))


@pytest.mark.parametrize("arch, layers", [("LSTM", 1), ("LSTM", 2),
                                          ("LSTM_CNN", 1)])
def test_fused_lstm_models_match_per_step_graph(monkeypatch, arch, layers):
    """Whole-model outputs and every parameter gradient, byte for byte:
    with two layers the input gradient of the upper layer trains the lower
    one; LSTM_CNN takes gradients from the whole sequence."""
    spec = _toy_spec(arch, in_features=6, num_layers=layers)
    rng = np.random.default_rng(layers)
    x = rng.normal(size=(7, 6, spec.steps))
    y = rng.normal(size=(7, 1))

    def run():
        params = models.init_model(spec, seed=4)
        pred = models.forward_graph(spec, params, x, training=True)
        T.mse(pred, y).backward()
        return [pred.data] + [t.grad for t in params.trainable()] \
            + [t.data for _, t, _ in params]

    fused = run()

    def per_step_lstm(params, prefix, x_seq, last=False):
        h, seq = _lstm_layer(params, prefix, x_seq, spec.hidden)
        return h if last else seq

    monkeypatch.setattr(models, "_lstm", per_step_lstm)
    per_step = run()
    assert len(fused) == len(per_step)
    for a, b in zip(fused, per_step):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("arch", models.ARCHS)
def test_eval_forward_builds_no_graph(arch, monkeypatch):
    spec = _toy_spec(arch)
    params = models.init_model(spec, seed=3)
    x = np.random.default_rng(2).normal(size=(3, spec.in_features,
                                              spec.steps))
    graphs = []
    forward_graph = models.forward_graph

    def spy(*args, **kwargs):
        out = forward_graph(*args, **kwargs)
        graphs.append(out)
        return out

    monkeypatch.setattr(models, "forward_graph", spy)
    out = models.forward(spec, params, x)
    assert not graphs[0].requires_grad and graphs[0]._backward is None
    # same arithmetic as the differentiable graph
    assert out.tobytes() == forward_graph(spec, params, x).data.tobytes()
    assert all(t.grad is None for t in params.trainable())
    # training=True still moves the batch-norm running statistics
    stats = [t for _, t, is_bn in params if is_bn and not t.requires_grad]
    before = [t.data.copy() for t in stats]
    models.forward(spec, params, x, training=True)
    assert all(not np.array_equal(t.data, b) for t, b in zip(stats, before))


def test_local_train_prox_zero_matches_plain_mse_gradient():
    spec = _toy_spec("LSTM")
    params = models.init_model(spec, seed=1)
    anchor = params.copy()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(4, 4, 6))
    y = rng.normal(size=(4, 1))

    def grads(mu):
        work = params.copy()
        pred = models.forward_graph(spec, work, x, training=True)
        loss = T.mse(pred, y)
        if mu > 0:
            pen = models._prox_penalty(work, anchor, include_bn=False)
            loss = T.add(loss, T.mul(T.Tensor(mu / 2.0), pen))
        loss.backward()
        return [t.grad.copy() for t in work.trainable()]

    g0 = grads(0.0)
    # at w == anchor the proximal gradient contribution is exactly zero
    g_mu = grads(10.0)
    for a, b in zip(g0, g_mu):
        assert np.array_equal(a, b)


def test_local_train_prox_shrinks_drift():
    rng = np.random.default_rng(4)
    series = 10 + 3 * np.sin(np.arange(80) / 5.0) + rng.normal(0, 0.4, 80)
    samples = _samples_from_series(series)
    spec = _toy_spec("LSTM", in_features=6)
    cfgs = {mu: models.TrainConfig(learning_rate=0.01, batch_size=16,
                                   local_epochs=2, prox_mu=mu)
            for mu in (0.0, 1e6)}
    norms = {}
    for mu, cfg in cfgs.items():
        params = models.init_model(spec, seed=9)
        anchor = params.copy()
        (trained,), _ = models.local_train(spec, [params], [samples], cfg,
                                           global_anchor=[anchor],
                                           rng=[np.random.default_rng(0)])
        drift = 0.0
        for (name, t, is_bn) in trained.entries:
            if t.requires_grad and not is_bn:
                drift += float(np.sum((t.data - anchor.get(name).data) ** 2))
        norms[mu] = np.sqrt(drift)
    assert norms[1e6] < norms[0.0]


def test_local_train_requires_anchor_for_prox():
    spec = _toy_spec("LSTM")
    params = models.init_model(spec, seed=0)
    samples = _samples_from_series(np.arange(20, dtype=float))
    cfg = models.TrainConfig(learning_rate=0.01, prox_mu=0.5)
    with pytest.raises(models.ModelError):
        models.local_train(spec, [params], [samples], cfg)


def _graph_prox_penalty(params, anchor, include_bn, stacked=False):
    """The per-entry graph that `models._prox_penalty` replaced, kept as its
    exact oracle: a sub, mul and reduce_sum per entry, and a chain of adds."""
    total = None
    for name, t, is_bn in params.entries:
        if not t.requires_grad:
            continue
        if is_bn and not include_bn:
            continue
        diff = T.sub(t, T.Tensor(anchor.get(name).data))
        axes = tuple(range(1, t.data.ndim)) if stacked else None
        term = T.reduce_sum(T.mul(diff, diff), axis=axes)
        total = term if total is None else T.add(total, term)
    return total


def _prox_case(stacked, anchor_kind):
    """(params, anchor): a CNN with batch norm, or a stack of 3 of them;
    the anchor moved off the parameters, equal to them, or both holding
    +-0.0 in a third of their values each."""
    spec = _toy_spec("CNN")
    rng = np.random.default_rng(5)
    pairs = []
    for k in range(3 if stacked else 1):
        params = models.init_model(spec, seed=k)
        anchor = params.copy()
        if anchor_kind != "equal":
            anchor.flat += rng.normal(size=anchor.flat.shape) * 0.1
        if anchor_kind == "signed_zeros":
            params.flat[0::3], params.flat[1::3] = -0.0, 0.0
            anchor.flat[0::2], anchor.flat[1::2] = 0.0, -0.0
        pairs.append((params, anchor))
    if not stacked:
        return pairs[0]
    return tuple(models.stack_params(list(ps)) for ps in zip(*pairs))


def _prox_run(penalty, params, anchor, include_bn, stacked, root):
    """The penalty's bits and each entry's gradient bits (None for no
    gradient): into zeroed gradients under FedProx's loss, or from a raw
    root gradient holding -0.0 into no gradient yet."""
    params = params.copy()
    if root == "objective":
        params.zero_grad()
    pen = penalty(params, anchor, include_bn, stacked)
    if root == "objective":
        loss = T.mul(T.Tensor(0.05 / 2.0), pen)
        (T.reduce_sum(loss) if stacked else loss).backward()
    else:
        pen.backward(np.array([-0.0, 2.5, 0.0]) if stacked
                     else np.array(-0.0))
    return [pen.data.tobytes()] + [None if t.grad is None
                                   else t.grad.tobytes()
                                   for _, t, _ in params]


@pytest.mark.parametrize("stacked", [False, True])
@pytest.mark.parametrize("include_bn", [False, True])
@pytest.mark.parametrize("anchor_kind", ["moved", "equal", "signed_zeros"])
@pytest.mark.parametrize("root", ["objective", "raw"])
def test_prox_node_is_bitwise_the_per_entry_graph(stacked, include_bn,
                                                  anchor_kind, root):
    params, anchor = _prox_case(stacked, anchor_kind)
    got = _prox_run(models._prox_penalty, params, anchor, include_bn,
                    stacked, root)
    want = _prox_run(_graph_prox_penalty, params, anchor, include_bn,
                     stacked, root)
    assert got == want
    if root == "raw":   # every trainable entry, batch norm's only with
        #                 include_bn, and no other takes a gradient
        penalised = [t.requires_grad and (include_bn or not is_bn)
                     for _, t, is_bn in params]
        assert [g is not None for g in got[1:]] == penalised


@pytest.mark.parametrize("arch, k", [("CNN", 1), ("LSTM", 3)])
def test_prox_training_is_bitwise_the_per_entry_graph(monkeypatch, arch, k):
    """FedProx local training, where each entry also takes the forward
    graph's gradient: the trained models and losses of the per-entry
    graph."""
    spec = _toy_spec(arch, in_features=6) if arch == "CNN" \
        else _lockstep_spec()
    params, windows = _cohort(spec, k, n=40)
    cfg = models.TrainConfig(learning_rate=3e-3, batch_size=16,
                             local_epochs=2, prox_mu=0.5,
                             include_bn_in_prox=arch == "LSTM")
    runs = []
    for penalty in (models._prox_penalty, _graph_prox_penalty):
        monkeypatch.setattr(models, "_prox_penalty", penalty)
        anchors = [p.copy() for p in params]
        trained, loss = models.local_train(
            spec, [p.copy() for p in params], windows, cfg,
            global_anchor=anchors, rng=[_member_rng(j) for j in range(k)])
        runs.append(([p.to_bytes() for p in trained], loss))
    assert runs[0] == runs[1]


def test_local_train_and_predict_reject_empty_windows():
    spec = _toy_spec("LSTM", in_features=6)
    params = models.init_model(spec, seed=0)
    none = _samples_from_series(np.arange(20, dtype=float))[:0]
    cfg = models.TrainConfig(learning_rate=0.01, local_epochs=0)
    with pytest.raises(models.ModelError, match="no training windows"):
        models.local_train(spec, [params], [none], cfg)
    with pytest.raises(models.ModelError, match="no evaluation windows"):
        models.predict_trace(spec, params, none)


def test_local_train_detects_divergence():
    spec = _toy_spec("LSTM", in_features=6)
    params = models.init_model(spec, seed=0)
    params.get("head.w").data[:] = 1e300
    samples = _samples_from_series(np.arange(30, dtype=float) * 1e10)
    cfg = models.TrainConfig(learning_rate=1e30, batch_size=8, local_epochs=1)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(models.TrainingDiverged):
            models.local_train(spec, [params], [samples], cfg)


def test_predict_trace_alignment():
    series = np.sin(np.arange(40) / 3.0) + 2.0
    spec = _toy_spec("LSTM", in_features=6)
    params = models.init_model(spec, seed=0)
    samples = _samples_from_series(series)[:20]
    yhat, y = models.predict_trace(spec, params, samples)
    assert yhat.shape == y.shape == (20,)
    expected = np.concatenate(list(samples.y))
    assert np.array_equal(y, expected)


def test_predict_trace_tiles_multi_step():
    series = np.cos(np.arange(60) / 4.0) * 3 + 5
    samples = _samples_from_series(series, h=5, f=3)
    stride3 = samples[::3]
    anchors = stride3.anchor.tolist()
    assert all(b - a == 3 for a, b in zip(anchors, anchors[1:]))
    spec = _toy_spec("LSTM_CNN", in_features=6, horizon=3)
    params = models.init_model(spec, seed=0)
    yhat, y = models.predict_trace(spec, params, stride3)
    assert yhat.size == y.size == 3 * len(stride3)


def test_trained_model_tracks_constant_trace():
    rng = np.random.default_rng(6)
    series = np.full(120, 20.0) + rng.normal(0, 0.05, 120)
    samples = _samples_from_series(series)
    spec = _toy_spec("LSTM", in_features=6)
    params = models.init_model(spec, seed=0)
    cfg = models.TrainConfig(learning_rate=0.01, batch_size=32, local_epochs=30)
    models.local_train(spec, [params], [samples], cfg,
                       rng=[np.random.default_rng(1)])
    yhat, _ = models.predict_trace(spec, params, samples)
    assert np.all(np.abs(yhat - 20.0) / 20.0 < 0.05)


@pytest.mark.parametrize("arch", models.ARCHS)
def test_training_loss_monotone_in_median(arch):
    # learnable synthetic task; median per-epoch loss over 5 seeds must not
    # increase across the first 5 epochs
    losses = np.zeros((5, 5))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        # scaled regime, like the preprocessed pipeline feeds the models
        series = 0.6 + 0.25 * np.sin(np.arange(70) / 4.0) \
            + rng.normal(0, 0.015, 70)
        samples = _samples_from_series(series)
        spec = _toy_spec(arch, in_features=6)
        params = models.init_model(spec, seed=seed)
        cfg = models.TrainConfig(learning_rate=0.01, batch_size=16,
                                 local_epochs=1)
        for epoch in range(5):
            (params,), loss = models.local_train(
                spec, [params], [samples], cfg,
                rng=[np.random.default_rng((seed, epoch))])
            losses[seed, epoch] = loss
    med = np.median(losses, axis=0)
    assert all(b <= a + 1e-12 for a, b in zip(med, med[1:]))


# --- a cohort in one local_train call ---------------------------------------


def _lockstep_spec(**kw):
    # the demo's widths: hidden 24, H 15, six input rows
    return _toy_spec("LSTM", in_features=6, history=15, hidden=24, **kw)


def _cohort(spec, k, n=75, seed=0):
    """k members with train sets of n windows: own models, own data."""
    rng = np.random.default_rng(seed)
    windows = [Windows(rng.normal(size=(n, spec.in_features, spec.steps)),
                       rng.normal(size=(n, spec.horizon)), np.arange(n))
               for _ in range(k)]
    return [models.init_model(spec, seed=(seed, j)) for j in range(k)], windows


def _member_rng(j):
    return np.random.default_rng((9, j))


def _train_each(spec, params, windows, cfg):
    """The oracle: one local_train call per member, a cohort of one that
    trains with no client axis; (params, loss), or None if it diverges."""
    prox = cfg.prox_mu > 0
    out = []
    for j, (p, w) in enumerate(zip(params, windows)):
        try:
            (trained,), loss = models.local_train(
                spec, [p.copy()], [w], cfg,
                global_anchor=[p] if prox else None, rng=[_member_rng(j)])
            out.append((trained, loss))
        except models.TrainingDiverged:
            out.append(None)
    return out


def _train_cohort(spec, params, windows, cfg):
    return models.local_train(
        spec, [p.copy() for p in params], windows, cfg,
        global_anchor=params if cfg.prox_mu > 0 else None,
        rng=[_member_rng(j) for j in range(len(params))])


def _assert_cohort_is_each(cohort, each):
    trained, loss = cohort
    assert len(trained) == len(each)
    for j, (got, want) in enumerate(zip(trained, each)):
        if want is None:
            assert got is None, j
        else:   # every entry, running statistics included
            for (name, t, _), (_, w, _) in zip(got, want[0]):
                assert t.data.shape == w.data.shape, (j, name)
                assert t.data.tobytes() == w.data.tobytes(), (j, name)
    want_loss = np.mean([w[1] for w in each if w is not None])
    assert isinstance(loss, float)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()


@pytest.mark.parametrize("k", [1, 2, 4, 5, 7, 8])
@pytest.mark.parametrize("use_batchnorm", [True, False])
@pytest.mark.parametrize("prox_mu", [0.0, 0.05])
def test_cohort_call_is_bitwise_the_per_member_calls(k, use_batchnorm,
                                                     prox_mu):
    """Trained in lockstep, each member gets the bits of its own call:
    parameters, batch-norm running statistics and loss (FedAvg and FedBN
    train with prox_mu 0, FedProx with prox_mu > 0). 75 windows in
    batches of 32 make a short last batch."""
    spec = _lockstep_spec(use_batchnorm=use_batchnorm)
    params, windows = _cohort(spec, k)
    cfg = models.TrainConfig(learning_rate=3e-3, batch_size=32,
                             local_epochs=2, prox_mu=prox_mu)
    _assert_cohort_is_each(_train_cohort(spec, params, windows, cfg),
                           _train_each(spec, params, windows, cfg))
    if use_batchnorm and k > 1:     # each member keeps its own statistics
        stats = [p.get("bn.running_mean").data
                 for p in _train_cohort(spec, params, windows, cfg)[0]]
        assert not np.array_equal(stats[0], stats[1])


def _traced(fn):
    """(result, bytes still allocated after fn, peak bytes during fn)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - before, peak - before


def test_lstm_training_tape_is_five_state_arrays_per_step():
    """The forward of a demo-shape stack of LOCKSTEP_MAX members keeps c,
    i, f, g and o of every step, (S, K, B, H) each, and little else: the
    slack is three (K, B, H) arrays (the returned last hidden state, the
    step's input copy and the node itself)."""
    spec = _lockstep_spec()
    k, b_n = models.LOCKSTEP_MAX, 32
    stack = models.stack_params([models.init_model(spec, seed=j)
                                 for j in range(k)])
    x = T.Tensor(np.random.default_rng(0).normal(
        size=(k, b_n, spec.steps, spec.in_features)))
    weights = [stack.get(f"lstm0.{n}") for n in ("w_ih", "w_hh", "b")]
    out, kept, _ = _traced(lambda: T.lstm(x, *weights, last=True))
    assert out.data.shape == (k, b_n, spec.hidden)
    step = k * b_n * spec.hidden * 8
    assert kept <= 5 * spec.steps * step + 3 * step, kept / step


def test_lstm_eval_forward_keeps_no_tape():
    """An eval forward of 256 windows peaks below two (S, 256, H) arrays:
    a tape of even one of c, i, f, g, o over every step, or a hidden
    sequence kept for the last step, would pass that."""
    spec = _lockstep_spec()
    params = models.init_model(spec, seed=1)
    x = np.random.default_rng(1).normal(size=(256, spec.in_features,
                                              spec.steps))
    models.forward(spec, params, x)     # warm-up
    out, _, peak = _traced(lambda: models.forward(spec, params, x))
    assert out.shape == (256, spec.horizon)
    assert peak < 2 * spec.steps * 256 * spec.hidden * 8, peak


def test_cohort_of_seven_in_one_stack_is_bitwise_the_per_member_calls(
        monkeypatch):
    # the stack holds any number of members, not only LOCKSTEP_MAX
    monkeypatch.setattr(models, "LOCKSTEP_MAX", 7)
    spec = _lockstep_spec()
    params, windows = _cohort(spec, 7)
    cfg = models.TrainConfig(learning_rate=3e-3, batch_size=32,
                             local_epochs=2, prox_mu=0.05)
    _assert_cohort_is_each(_train_cohort(spec, params, windows, cfg),
                           _train_each(spec, params, windows, cfg))


def test_cohort_of_two_layers_under_sgd_is_bitwise_the_per_member_calls():
    # the second layer's input gradient runs through the stacked BPTT, and
    # the proximal term covers the batch-norm entries
    spec = _lockstep_spec(num_layers=2)
    params, windows = _cohort(spec, 3, n=40, seed=1)
    cfg = models.TrainConfig(learning_rate=0.05, batch_size=16,
                             local_epochs=2, optimizer="sgd", prox_mu=0.1,
                             include_bn_in_prox=True)
    _assert_cohort_is_each(_train_cohort(spec, params, windows, cfg),
                           _train_each(spec, params, windows, cfg))


@pytest.mark.parametrize("bad", [(1, 3), (0, 1), (0, 1, 2, 3)])
def test_cohort_member_diverging_mid_epoch_is_dropped(monkeypatch, bad):
    """Members `bad` meet a target of 1e300 in the third batch of their
    first epoch: their entries are None, and the others train on to the
    bits of their own calls. Four members train as two stacks of two: bad
    members in both stacks, a whole stack of them, or all of them, when
    the call raises."""
    _diverge_in_cohort(monkeypatch, bad, prox_mu=0.0)


def test_fedprox_cohort_member_diverging_mid_epoch_is_dropped(monkeypatch):
    # the dropped member leaves the stacked proximal anchor too
    _diverge_in_cohort(monkeypatch, (1, 3), prox_mu=0.05)


def _diverge_in_cohort(monkeypatch, bad, prox_mu):
    monkeypatch.setattr(models, "LOCKSTEP_MAX", 3)
    spec = _lockstep_spec()
    params, windows = _cohort(spec, 4)
    cfg = models.TrainConfig(learning_rate=3e-3, batch_size=32,
                             local_epochs=2, prox_mu=prox_mu)
    for j in bad:
        first_epoch = _member_rng(j).permutation(len(windows[j]))
        windows[j].y[first_epoch[2 * cfg.batch_size]] = 1e300
    with np.errstate(over="ignore", invalid="ignore"):
        each = _train_each(spec, params, windows, cfg)
        assert [j for j, w in enumerate(each) if w is None] == list(bad)
        if len(bad) == len(params):
            with pytest.raises(models.TrainingDiverged):
                _train_cohort(spec, params, windows, cfg)
        else:
            _assert_cohort_is_each(_train_cohort(spec, params, windows, cfg),
                                   each)


def test_cohort_without_epochs_returns_its_models_untrained():
    spec = _lockstep_spec()
    params, windows = _cohort(spec, 2)
    cfg = models.TrainConfig(learning_rate=3e-3, local_epochs=0)
    trained, loss = _train_cohort(spec, params, windows, cfg)
    assert loss == 0.0
    assert [t.to_bytes() for t in trained] == [p.to_bytes() for p in params]
    _assert_cohort_is_each((trained, loss),
                           _train_each(spec, params, windows, cfg))


def test_cohort_needs_one_train_length_and_a_lockstep_architecture():
    cfg = models.TrainConfig(learning_rate=3e-3)
    spec = _lockstep_spec()
    params, windows = _cohort(spec, 2)
    with pytest.raises(models.ModelError, match="length"):
        _train_cohort(spec, params, [windows[0], windows[1][:-1]], cfg)
    with pytest.raises(models.ModelError, match="one params"):
        models.local_train(spec, params, windows[:1], cfg)
    cnn = _toy_spec("CNN", in_features=6, history=15)
    params, windows = _cohort(cnn, 2)
    with pytest.raises(models.ModelError, match="CNN"):
        _train_cohort(cnn, params, windows, cfg)
    # a CNN cohort of one trains, with no client axis
    _assert_cohort_is_each(_train_cohort(cnn, params[:1], windows[:1], cfg),
                           _train_each(cnn, params[:1], windows[:1], cfg))


def test_paramset_copy_is_deep():
    params = models.init_model(_toy_spec("CNN"), seed=0)
    cp = params.copy()
    cp.get("conv1.w").data[:] = 0.0
    assert not np.array_equal(params.get("conv1.w").data,
                              cp.get("conv1.w").data)


def test_paramset_rejects_duplicates():
    t = T.Tensor(np.zeros(1), requires_grad=True)
    with pytest.raises(models.ModelError):
        models.ParamSet([("a", t, False), ("a", t, False)])


def _assert_views_of_flat(params):
    """Every entry's array is a view of `params.flat`, in entry order."""
    lead = params.flat.shape[:-1]
    for name, t, _ in params:
        assert np.shares_memory(t.data, params.flat), name
    assert np.concatenate([t.data.reshape(*lead, -1) for _, t, _ in params],
                          axis=-1).tobytes() == params.flat.tobytes()


def test_paramset_entries_are_views_of_one_flat_vector():
    spec = _toy_spec("CNN")
    params = models.init_model(spec, seed=0)
    other = models.init_model(spec, seed=1)
    copied = params.copy()
    loaded = models.ParamSet.from_bytes(params.to_bytes())
    for ps in (params, copied, loaded):
        _assert_views_of_flat(ps)
        assert ps.flat.tobytes() == params.flat.tobytes()
    assert not np.shares_memory(copied.flat, params.flat)
    updates = [(params, 2), (other, 1)]
    _assert_views_of_flat(fl.aggregate_fedavg(updates))
    bn = [i for i, (_, _, is_bn) in enumerate(params.entries) if is_bn]
    for merged in fl.aggregate_fedbn(updates, bn):
        _assert_views_of_flat(merged)

    members = [models.init_model(_lockstep_spec(), seed=j) for j in range(3)]
    stack = models.stack_params(members)
    _assert_views_of_flat(stack)
    for j, member in enumerate(members):
        assert stack.flat[j].tobytes() == member.flat.tobytes()
    stack.keep([2, 0])
    _assert_views_of_flat(stack)
    assert stack.flat.tobytes() == \
        np.stack([members[2].flat, members[0].flat]).tobytes()


class _PerParameterAdam:
    """The reference: Adam stepping one parameter array at a time, the loop
    the whole-vector step replaced, kept as it was."""

    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0

    def step(self):
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        c1, c2 = 1 - b1 ** self.t, 1 - b2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:
                continue
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
            p.data -= update

    def keep(self, rows):
        """Stacked parameters keep only slices `rows`: so do the moments."""
        self.m = [m[rows] for m in self.m]
        self.v = [v[rows] for v in self.v]


@pytest.mark.parametrize("arch", ["CNN", "LSTM"])
def test_adam_on_the_vector_is_bitwise_the_per_parameter_step(arch):
    """Seven steps of random gradients: the parameters and moments are the
    bits of the per-parameter reference's. An LSTM stack of LOCKSTEP_MAX
    drops two members after the third step. The first trainable entry's
    gradient is -0.0 throughout, and the running statistics take none: all
    keep their bits, a -0.0 value included, and their moments stay +0.0."""
    if arch == "CNN":
        params = models.init_model(_toy_spec("CNN"), seed=3)
        zero, stat = "conv1.w", "bn1.running_mean"
    else:
        params = models.stack_params([
            models.init_model(_lockstep_spec(), seed=j)
            for j in range(models.LOCKSTEP_MAX)])
        zero, stat = "lstm0.w_ih", "bn.running_mean"
    params.get(zero).data[..., 0] = -0.0
    params.get(stat).data[..., 0] = -0.0
    ref = [T.Tensor(t.data.copy()) for t in params.trainable()]
    names = [name for name, t, _ in params if t.requires_grad]
    frozen = {name: t.data.copy() for name, t, _ in params
              if name == zero or not t.requires_grad}
    opt = models.Adam(params, lr=1e-2)
    ref_opt = _PerParameterAdam(ref, lr=1e-2)
    rng = np.random.default_rng(0)
    for step in range(7):
        params.zero_grad()
        for name, r in zip(names, ref):
            g = rng.normal(size=r.data.shape) if name != zero \
                else np.full(r.data.shape, -0.0)
            params.get(name).grad += g
            r.grad = g
        opt.step()
        ref_opt.step()
        if arch == "LSTM" and step == 2:
            rows = [0, models.LOCKSTEP_MAX - 1]
            params.keep(rows)
            opt.keep(rows)
            for r in ref:
                r.data = r.data[rows]
            ref_opt.keep(rows)
            frozen = {name: f[rows] for name, f in frozen.items()}
    moments = [models.ParamSet.from_flat(params.layout, vec)
               for vec in (opt.m, opt.v)]
    for i, name in enumerate(names):
        assert params.get(name).data.tobytes() == ref[i].data.tobytes(), name
        for mine, want in zip(moments, (ref_opt.m[i], ref_opt.v[i])):
            assert mine.get(name).data.tobytes() == want.tobytes(), name
    for name in (zero, stat):
        assert np.signbit(params.get(name).data[..., 0]).all(), name
    for name, before in frozen.items():
        assert params.get(name).data.tobytes() == before.tobytes(), name
        for mine in moments:
            got = mine.get(name).data
            assert not got.any() and not np.signbit(got).any(), name


def test_checkpoint_roundtrip(tmp_path):
    spec = _toy_spec("TRANSFORMER")
    params = models.init_model(spec, seed=5)
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(path, spec, params)
    spec2, params2 = models.load_checkpoint(path)
    assert spec2 == spec
    assert params2.to_bytes() == params.to_bytes()


def test_corrupt_checkpoint_header_names_the_file(tmp_path):
    spec = _toy_spec("LSTM")
    path = tmp_path / "model.ckpt"
    models.save_checkpoint(path, spec, models.init_model(spec, seed=5))
    header, blob = path.read_bytes().split(b"\n", 1)
    for bad in (b"{not json", b"[1, 2]", header.replace(b'"hidden": 8',
                                                         b'"hidden": 0')):
        path.write_bytes(bad + b"\n" + blob)
        with pytest.raises(models.CheckpointError, match="model.ckpt"):
            models.load_checkpoint(path)


def test_default_train_configs_match_architecture_table():
    assert models.default_train_config("CNN").learning_rate == 1e-3
    assert models.default_train_config("LSTM").learning_rate == 3e-4
    assert models.default_train_config("LSTM_CNN").learning_rate == 3e-3
    assert models.default_train_config("TRANSFORMER").learning_rate == 1e-3
    for arch in models.ARCHS:
        assert models.default_train_config(arch).batch_size == 32
