"""Output checks on the artifacts of one benchmark pass.

An operation is a stage run, a client update (one `local_train` call) or
a streaming session. Each check that fails marks its operation failed and
adds a line to `problems`.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

HASHED = ("rounds.csv", "summary.json", "qoe.csv")


class OutputLog:
    """Results of `local_train` and `simulate_session`, captured as they return.

    Neither result reaches a run artifact whole: `run_round` drops the
    local loss, and `qoe.json` has no session wall-clock bounds.
    """

    def __init__(self):
        self.losses = []          # one per local_train call; nan if it raised
        self.sessions = []        # (qoe, time-conservation drift in s)

    def install(self, patches, fl, stream, models):
        log = self

        def local_train(fn):
            def wrapper(*args, **kwargs):
                try:
                    params, loss = fn(*args, **kwargs)
                except models.TrainingDiverged:
                    log.losses.append(math.nan)
                    raise
                log.losses.append(loss)
                return params, loss
            return wrapper

        def simulate_session(fn):
            def wrapper(*args, **kwargs):
                r = fn(*args, **kwargs)
                drift = abs((r.end_wall - r.startup_wall)
                            - (r.played_time + r.stall_time + r.skip_wait_time))
                log.sessions.append((r.breakdown.qoe, drift))
                return r
            return wrapper

        # where run_round and cmd_stream look them up
        patches.wrap(fl, "local_train", local_train)
        patches.wrap(stream, "simulate_session", simulate_session)

    def clear(self):
        self.losses.clear()
        self.sessions.clear()


def artifact_hashes(out):
    """SHA-256 of the byte-compared artifacts the pass wrote."""
    out = Path(out)
    names = [n for n in HASHED if (out / n).is_file()]
    if (out / "events").is_dir():
        names += sorted(f"events/{p.name}" for p in (out / "events").glob("*.csv"))
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


class PassCheck:
    """Counts and checks the operations of one pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.final_mean_r2 = None
        self.mean_qoe = None

    def op(self, ok, problem):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def stages(self, codes, n_stages):
        for stage, code in codes.items():
            self.op(code == 0, f"stage {stage} exited {code}")
        for _ in range(n_stages - len(codes)):
            self.op(False, "stage skipped after a failed stage")

    def federate(self, out, losses):
        for loss in losses:
            self.op(math.isfinite(loss), f"client update loss {loss}")
        try:
            with open(Path(out) / "rounds.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            summary = json.loads((Path(out) / "summary.json").read_text())
        except (OSError, ValueError) as exc:
            self.problems.append(f"federate artifacts unreadable: {exc}")
            return
        bad = [r for r in rows
               if not (math.isfinite(float(r["r2"]))
                       and math.isfinite(float(r["mse"])))]
        if not rows or bad:
            self.problems.append(f"rounds.csv: {len(bad)} non-finite of "
                                 f"{len(rows)} evaluations")
        self.final_mean_r2 = summary.get("final_mean_r2")
        if not isinstance(self.final_mean_r2, float) \
                or not math.isfinite(self.final_mean_r2):
            self.problems.append(f"final_mean_r2 is {self.final_mean_r2}")

    def stream(self, out, sessions, coeffs, chunk_dur):
        """QoE decomposition identity and time conservation, as criterion 08."""
        try:
            qoe_json = json.loads((Path(out) / "qoe.json").read_text())
            with open(Path(out) / "qoe.csv", newline="") as fh:
                csv_rows = list(csv.DictReader(fh))
        except (OSError, ValueError) as exc:
            self.problems.append(f"stream artifacts unreadable: {exc}")
            return
        if len(csv_rows) != len(sessions):
            self.problems.append(f"qoe.csv has {len(csv_rows)} sessions, "
                                 f"{len(sessions)} were simulated")
        qoes = []
        for row, (qoe, drift) in zip(csv_rows, sessions):
            b = qoe_json["sessions"][row["client_id"]]
            recomputed = (coeffs.mu1 * b["quality"] - coeffs.mu2 * b["stall"]
                          - coeffs.mu3 * b["switch"] - coeffs.mu4 * b["latency"]
                          - coeffs.mu5 * b["skip"])
            identity = (math.isfinite(b["qoe"])
                        and abs(recomputed - b["qoe"]) < 1e-9
                        and float(row["qoe"]) == b["qoe"] == qoe)
            self.op(identity and drift < chunk_dur,
                    f"session {row['client_id']}: identity "
                    f"{'holds' if identity else 'violated'}, time conservation "
                    f"off by {drift:.3f} s")
            qoes.append(b["qoe"])
        self.mean_qoe = sum(qoes) / len(qoes) if qoes else None
