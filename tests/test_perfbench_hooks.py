"""The benchmark's layer spans still find and time the functions they wrap."""

import importlib.util
import math
from pathlib import Path

import pytest

from fedcast import accel, cli, fl, models, stream, tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_spans_record_calls(tmp_path, name):
    tracing = _load("tracing")
    wl = WORKLOADS[name]
    cfg_path = wl.write_inputs(cli, 5, tmp_path)
    # the workloads' own rounds; shorter demo sessions keep it quick
    cfg_path.write_text(cfg_path.read_text().replace("session_len = 32",
                                                     "session_len = 20"))
    tracer = tracing.Tracer()
    with tracing.Patches() as patches:
        tracer.install(patches, dict(accel=accel, cli=cli, fl=fl,
                                     models=models, stream=stream,
                                     tensor=tensor))
        for stage in wl.stages:
            assert cli.run(str(cfg_path), stage,
                           out=str(tmp_path / "run")) == 0, stage
    silent = [span for span in wl.required_spans if not tracer.calls[span]]
    assert not silent, silent

    if name == "demo_all":
        cfg = cli._parse_config(str(cfg_path), {})
        h, f = cfg.window.history, cfg.window.horizon
        # train and eval stride are both 1: every anchor H .. T-1-F is a
        # window
        assert cfg.window.train_stride == cfg.window.eval_stride == 1
        windows = sum(len(tr) - h - f for tr in cli._load_traces(cfg))
        assert tracer.counts["preprocess.windows"] == windows == 2272


# local_train calls per federate stage: demo_all's 7 participants of one
# train length are one LSTM cohort in its one round; the CNN trains each of
# its 7 participants alone, in 2 rounds
_TRAIN_CALLS = {"demo_all": 1, "cnn_prox_files": 14}


@pytest.mark.parametrize("name", sorted(_TRAIN_CALLS))
def test_output_log_reads_a_finite_float_loss_per_train_call(tmp_path, name):
    """perfbench's untraced hook unpacks `params, loss` from every
    `fl.local_train` call and checks `math.isfinite(loss)`."""
    checks = _load("checks")
    tracing = _load("tracing")
    cfg_path = WORKLOADS[name].write_inputs(cli, 5, tmp_path)
    out = tmp_path / "run"
    log = checks.OutputLog()
    with tracing.Patches() as patches:
        log.install(patches, fl, stream, models)
        assert cli.run(str(cfg_path), "federate", out=str(out)) == 0
    assert len(log.losses) == _TRAIN_CALLS[name]
    assert all(type(loss) is float and math.isfinite(loss)
               for loss in log.losses), log.losses
    check = checks.PassCheck()
    check.federate(out, log.losses)
    assert check.problems == [] and check.failed == 0
    assert check.attempted == len(log.losses)
