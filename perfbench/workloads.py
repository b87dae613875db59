"""The three benchmark workloads: a config per seed, plus its input files.

Each workload is a fixed sequence of `fedcast` stages run through
`cli.run` on a config generated here from the benchmark seed. The seed is
the experiment's master seed, so it picks the synthetic traces, the client
sampling and the model initialisation; everything else is fixed, so the
same seed gives the same inputs and the same artifacts.
"""

from dataclasses import dataclass
from pathlib import Path

# Mirrors configs/demo.ini (8 non-IID clients in 4 dataset groups, 300 s
# traces at 10-100 Mbps, LSTM hidden 24 with FedBN, model predictor at MPC
# horizon 5), cut to 1 round and 32 s sessions so one pass of
# federate -> analyze -> stream takes a few seconds.
_DEMO = """\
[experiment]
seed = {seed}
out_dir = {out}

[data]
source = synthetic

[synthetic]
n_clients = 8
length = 300
offset_min = 10
offset_max = 100
ar_min = 0.3
ar_max = 0.9
amp_frac = 0.3
period_min = 25
period_max = 90
noise_frac = 0.04
n_datasets = 4

[preprocess]
filter_window = 3
scaler = minmax
scope = per_dataset

[window]
history = 15
horizon = 1

[model]
arch = LSTM
hidden = 24

[train]
learning_rate = 0.003
batch_size = 32
local_epochs = 3

[rounds]
strategy = FEDBN
total_rounds = 1
participation = 0.85

[stream]
session_len = 32
predictor = model
mpc_horizon = 5
rtt_overhead = 0.08

[qoe]
omega = 4.0
"""

# Same cohort shape as the demo, but the CNN under FedProx, fed from CSV
# trace files through the trace parser; federate only.
_CNN_PROX_FILES = """\
[experiment]
seed = {seed}
out_dir = {out}

[data]
source = files
files = {files}
dataset_tag = files

[preprocess]
filter_window = 3
scaler = minmax
scope = per_client

[window]
history = 15
horizon = 1

[model]
arch = CNN
conv_channels = 8,8

[train]
learning_rate = 0.001
batch_size = 32
local_epochs = 2

[rounds]
strategy = FEDPROX
mu = 0.01
total_rounds = 2
participation = 0.85
"""

# Traces generated for the files workload before they are written as CSV;
# the demo's trace shape.
_CNN_TRACES = dict(n_clients=8, length=300, offset_min=10.0, offset_max=100.0,
                   ar_min=0.3, ar_max=0.9, amp_frac=0.3, period_min=25.0,
                   period_max=90.0, noise_frac=0.04, n_datasets=1)

# 0.8-8 Mbps around the bitrate ladder (300-6000 kbps), amplitude 1.1x the
# offset so throughput is clipped to 0 for part of every period, and short
# periods so each 16 s session meets outages: stalls, skips and abandoned
# downloads. The harmonic predictor needs no checkpoint; stream only.
_STREAM_OUTAGE_H6 = """\
[experiment]
seed = {seed}
out_dir = {out}

[data]
source = synthetic

[synthetic]
n_clients = 6
length = 40
offset_min = 0.8
offset_max = 8
ar_min = 0.3
ar_max = 0.9
amp_frac = 1.1
period_min = 6
period_max = 16
noise_frac = 0.04
n_datasets = 4

[preprocess]
filter_window = 3
scaler = minmax
scope = per_dataset

[window]
history = 15
horizon = 1

[stream]
session_len = 16
predictor = harmonic
mpc_horizon = 6
rtt_overhead = 0.08

[qoe]
omega = 4.0
"""


@dataclass(frozen=True)
class Workload:
    name: str
    stages: tuple
    template: str
    # traced spans that must record at least one call on this workload
    required_spans: tuple
    # SyntheticSpec fields of the traces written as CSV files, if any
    file_traces: dict = None

    def write_inputs(self, cli, seed, work):
        """Write the config (and any trace files) under `work`; return its path."""
        Path(work).mkdir(parents=True, exist_ok=True)
        files = ""
        if self.file_traces:
            from fedcast.trace import export_trace
            spec = cli.SyntheticSpec(**self.file_traces)
            paths = []
            for tr in cli.generate_synthetic(spec, seed):
                path = Path(work) / f"{tr.client_id}.csv"
                export_trace(tr, path)
                paths.append(str(path))
            files = ", ".join(paths)
        cfg_path = Path(work) / f"{self.name}.ini"
        cfg_path.write_text(self.template.format(
            seed=seed, out=Path(work) / "unused", files=files))
        return cfg_path


_FEDERATE_SPANS = ("trace.load", "preprocess.build_clients", "cli.federate",
                   "fl.round", "fl.aggregate", "fl.evaluate",
                   "models.local_train", "models.forward_train",
                   "models.forward_eval", "models.optimizer", "tensor.backward")
_STREAM_SPANS = ("trace.load", "cli.stream", "stream.session",
                 "stream.predict", "stream.mpc", "accel.mpc_rollout")

WORKLOADS = {w.name: w for w in (
    Workload("demo_all", ("federate", "analyze", "stream"), _DEMO,
             _FEDERATE_SPANS + _STREAM_SPANS + ("analysis.analyze",)),
    Workload("cnn_prox_files", ("federate",), _CNN_PROX_FILES,
             _FEDERATE_SPANS + ("accel.conv2d",), _CNN_TRACES),
    Workload("stream_outage_h6", ("stream",), _STREAM_OUTAGE_H6,
             _STREAM_SPANS),
)}
