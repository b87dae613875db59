"""Spans around the public functions of each fedcast layer.

Every function is patched where its caller looks it up (`fl.local_train`,
not `models.local_train`; `stream.mpc_select_bitrate`; methods on their
class), so the program runs unchanged apart from the wrapper. A span's
self time is its duration minus the durations of the spans it encloses.
A call that re-enters a span of the same name (the conv forward inside
the conv input gradient, the harmonic fallback inside the model
predictor) is not a new span.
"""

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np


class Patches:
    """Replace attributes and put the originals back on exit."""

    def __init__(self):
        self._saved = []

    def wrap(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, original))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


# Stage spans: everything traced inside a stage is attributed to it.
STAGES = {"federate": "cli.federate", "analyze": "analysis.analyze",
          "stream": "cli.stream"}


class Tracer:
    """In-memory span statistics, keyed by span name."""

    def __init__(self):
        self._stack = []          # open spans: [name, start, enclosed_s]
        self._open = Counter()
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.samples = defaultdict(list)
        self.counts = Counter()
        self.stage_total_s = defaultdict(float)
        self.stage_self_sum_s = defaultdict(float)
        self._seen_now = set()    # (session, now) pairs the predictor saw
        self.passes = 0

    def span(self, name, fn, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._open[name]:
                return fn(*args, **kwargs)
            frame = [name, 0.0, 0.0]
            tracer._open[name] += 1
            tracer._stack.append(frame)
            frame[1] = t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer._close(name, dur, dur - frame[2])
            if on_result is not None:
                # the hook's own cost is tracing overhead: keep it out of
                # the enclosing span's self time
                t1 = perf_counter()
                on_result(result, args)
                if tracer._stack:
                    tracer._stack[-1][2] += perf_counter() - t1
            return result

        return wrapper

    def _close(self, name, dur, self_dur):
        self.calls[name] += 1
        self.total_s[name] += dur
        self.self_s[name] += self_dur
        self.samples[name].append(dur)
        if self._stack:
            self._stack[-1][2] += dur
            root = self._stack[0][0]
        else:
            root = name
            self.stage_total_s[name] += dur
        self.stage_self_sum_s[root] += self_dur

    def install(self, patches, fedcast):
        """Wrap every layer boundary; `fedcast` maps module names to modules."""
        cli, fl, models, stream, accel, tensor = (
            fedcast[m] for m in ("cli", "fl", "models", "stream", "accel",
                                 "tensor"))
        counts = self.counts

        def span(owner, attr, name, on_result=None):
            patches.wrap(owner, attr,
                         lambda fn: self.span(name, fn, on_result))

        # trace: synthetic generation, or the file parser and resampler
        span(cli, "generate_synthetic", "trace.load",
             lambda r, a: counts.update({"trace.rows": sum(len(t) for t in r)}))
        span(cli, "load_mapping", "trace.load")
        span(cli, "load_trace", "trace.load",
             lambda r, a: counts.update({"trace.rows": len(r)}))
        span(cli, "clean_and_resample", "trace.load")
        # preprocess: filter, scale and window every client
        span(cli, "build_client_set", "preprocess.build_clients",
             lambda r, a: counts.update(
                 {"preprocess.windows": sum(len(c.train) + len(c.test)
                                            for c in r)}))
        # stages, as cli.run looks them up
        span(cli, "cmd_federate", STAGES["federate"])
        span(cli, "cmd_analyze", STAGES["analyze"])
        span(cli, "cmd_stream", STAGES["stream"])
        # fl
        span(fl, "run_round", "fl.round")
        span(fl, "aggregate_fedavg", "fl.aggregate")
        span(fl, "evaluate_client", "fl.evaluate")
        span(fl, "local_train", "models.local_train",
             lambda r, a: counts.update({"fl.updates_useful": 1}))
        # models and tensor
        patches.wrap(models, "forward_graph", self._forward_graph)
        span(models, "forward", "models.forward_eval")
        span(models.Adam, "step", "models.optimizer")
        span(models.SGD, "step", "models.optimizer")
        span(tensor.Tensor, "backward", "tensor.backward")
        # accel kernels, as tensor and stream look them up
        for attr in ("conv2d_forward", "conv2d_grad_input",
                     "conv2d_grad_weight"):
            span(accel, attr, "accel.conv2d")
        span(accel, "mpc_rollout_scores", "accel.mpc_rollout",
             lambda r, a: counts.update({"accel.mpc_sequences": len(r)}))
        # stream
        span(stream, "simulate_session", "stream.session", self._on_session)
        span(stream, "mpc_select_bitrate", "stream.mpc")
        for cls in (stream.ModelPredictor, stream.HarmonicMeanPredictor,
                    stream.OraclePredictor, stream.ConstantPredictor):
            span(cls, "__call__", "stream.predict", self._on_predict)

    def _forward_graph(self, fn):
        timed = self.span("models.forward_train", fn)

        def wrapper(*args, **kwargs):
            training = kwargs.get("training", args[3] if len(args) > 3 else False)
            return timed(*args, **kwargs) if training else fn(*args, **kwargs)

        return wrapper

    def _on_predict(self, result, args):
        # sessions run one at a time, so the completed-session count
        # numbers the open one
        key = (self.calls["stream.session"], len(args[1]) - 1)
        if key not in self._seen_now:
            self._seen_now.add(key)
            self.counts["stream.predict_distinct"] += 1
        if not np.isfinite(result).all():
            self.counts["stream.predict_nonfinite"] += 1

    def _on_session(self, result, args):
        kinds = Counter(ev[1] for ev in result.events)
        self.counts.update({"stream.skips": kinds["skip"],
                            "stream.chunks_started": kinds["download_start"],
                            "stream.chunks_done": kinds["download_done"]})
        self.counts["stream.stall_s"] += result.stall_time


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tr):
    """Per-pass per-layer metrics from a tracer that ran `tr.passes` passes."""
    n = max(tr.passes, 1)
    c = tr.calls
    k = tr.counts

    def ms(name):
        return [d * 1e3 for d in tr.samples[name]]

    return {
        "trace.load_s": (tr.total_s["trace.load"] / n, "s"),
        "trace.rows": (k["trace.rows"] / n, "count"),
        "preprocess.build_clients_s":
            (tr.total_s["preprocess.build_clients"] / n, "s"),
        "preprocess.windows": (k["preprocess.windows"] / n, "count"),
        "tensor.backward_s": (tr.total_s["tensor.backward"] / n, "s"),
        "tensor.backward_calls": (c["tensor.backward"] / n, "count"),
        "models.forward_train_s": (tr.total_s["models.forward_train"] / n, "s"),
        "models.local_train_s": (tr.total_s["models.local_train"] / n, "s"),
        "models.local_train_calls": (c["models.local_train"] / n, "count"),
        "models.local_train_ms_p50": (_pct(ms("models.local_train"), 50), "ms"),
        "models.local_train_ms_p95": (_pct(ms("models.local_train"), 95), "ms"),
        "models.optimizer_s": (tr.total_s["models.optimizer"] / n, "s"),
        "models.forward_eval_s": (tr.total_s["models.forward_eval"] / n, "s"),
        "models.forward_eval_calls": (c["models.forward_eval"] / n, "count"),
        "fl.evaluate_s": (tr.total_s["fl.evaluate"] / n, "s"),
        "fl.round_s_p50": (_pct(tr.samples["fl.round"], 50), "s"),
        "fl.round_s_p75": (_pct(tr.samples["fl.round"], 75), "s"),
        "fl.aggregate_s": (tr.total_s["fl.aggregate"] / n, "s"),
        "fl.round_self_s": (tr.self_s["fl.round"] / n, "s"),
        "fl.updates_attempted": (c["models.local_train"] / n, "count"),
        "fl.updates_useful_ratio":
            (_ratio(k["fl.updates_useful"], c["models.local_train"]), "ratio"),
        "accel.conv2d_s": (tr.total_s["accel.conv2d"] / n, "s"),
        "accel.conv2d_calls": (c["accel.conv2d"] / n, "count"),
        "analysis.analyze_s": (tr.total_s["analysis.analyze"] / n, "s"),
        "stream.session_s_p50": (_pct(tr.samples["stream.session"], 50), "s"),
        "stream.decisions": (c["stream.mpc"] / n, "count"),
        "stream.predict_s": (tr.total_s["stream.predict"] / n, "s"),
        "stream.predict_calls": (c["stream.predict"] / n, "count"),
        "stream.predict_ms_p50": (_pct(ms("stream.predict"), 50), "ms"),
        "stream.predict_ms_p99": (_pct(ms("stream.predict"), 99), "ms"),
        "stream.predict_distinct_ratio":
            (_ratio(k["stream.predict_distinct"], c["stream.predict"]), "ratio"),
        "stream.mpc_s": (tr.total_s["stream.mpc"] / n, "s"),
        "stream.mpc_ms_p50": (_pct(ms("stream.mpc"), 50), "ms"),
        "stream.mpc_ms_p99": (_pct(ms("stream.mpc"), 99), "ms"),
        "accel.mpc_rollout_s": (tr.total_s["accel.mpc_rollout"] / n, "s"),
        "accel.mpc_sequences": (k["accel.mpc_sequences"] / n, "count"),
        "stream.loop_self_s": (tr.self_s["stream.session"] / n, "s"),
        "stream.stall_s": (k["stream.stall_s"] / n, "s"),
        "stream.skips": (k["stream.skips"] / n, "count"),
        "stream.chunks_started": (k["stream.chunks_started"] / n, "count"),
        "stream.chunks_useful_ratio":
            (_ratio(k["stream.chunks_done"], k["stream.chunks_started"]),
             "ratio"),
        "cli.federate_self_s": (tr.self_s["cli.federate"] / n, "s"),
        "cli.stream_self_s": (tr.self_s["cli.stream"] / n, "s"),
    }


def self_sum_gap(tr, stage_span):
    """Stage time minus the self times of every span inside it (seconds)."""
    return tr.stage_total_s[stage_span] - tr.stage_self_sum_s[stage_span]
