#!/usr/bin/env python3
"""fedcast benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload demo_all --seed 1 --seconds 40 --trace 0

Run from the repository root; fedcast is imported from ./src. The
workload's config is generated from --seed, then the workload's stages
run through `cli.run`, one after the other (a closed loop in one
process), as many passes as fit in --seconds, each into a fresh run
directory. Set-up (config parse, trace generation or loading, client
building) is timed on its own, twice before each pass.

A fixed reference kernel (reference.py) is timed before the first pass
and after every pass. The host is shared and its speed drifts by tens of
percent over minutes, so every time reported is scaled to a reference
host: a time measured next to a pass is divided by the mean of the
reference runs on either side of that pass and multiplied by
REF_SECONDS, the reference's typical time on the host the benchmark was
tuned on. This keeps about half of the drift out of the result. The
report line also gives the times as measured, under "wall".

--trace 0 reports the end-to-end metrics, the same three on every
workload: setup_s (median set-up), pipeline_s (median over passes of the
wall time of one pass through the workload's stages), both scaled to the
reference host, and peak_rss_mb. The per-stage medians (federate_s,
analyze_s, stream_s), the last-round mean R^2, the mean session QoE and
failed_ops_share go on the report line: a stage time, R^2 or QoE exists
only on the workloads that run that stage, and failed_ops_share is 0 when
nothing fails; it is `failed` / `attempted` in the result. Untraced
passes carry two hooks, on `fl.local_train` and `stream.simulate_session`,
that keep the results the checks need.

--trace 1 alternates untraced passes with passes that wrap each layer's
public functions (see tracing.py) and reports per-layer metrics per pass,
plus the tracing overhead: median traced minus median untraced pass.

Every pass is checked (see checks.py), and every pass of one seed must
write byte-identical artifacts. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}; the line before it,
`report {...}`, holds the stage times, R^2, QoE, artifact SHA-256 hashes
and the machine (nproc, Python, numpy, BLAS threads, numba). BLAS runs on
one thread.
"""

import os

# One BLAS thread, set before numpy loads: the work is small matrices, and a
# second BLAS thread on a shared 2-core host doubled the pass-to-pass spread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from checks import OutputLog, PassCheck, artifact_hashes
from reference import reference
from tracing import STAGES, Patches, Tracer, layer_metrics, self_sum_gap
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_PER_PASS = 2
MIN_PASSES = 3
# Reference kernel per timing, and its typical time on the 2-core Xeon VM
# the benchmark was tuned on: the host that reported times are scaled to.
REF_UNITS = 25
REF_SECONDS = 0.55


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_fedcast():
    """fedcast from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "fedcast" / "__init__.py").is_file():
        raise ImportError(f"no fedcast package under {src}")
    sys.path.insert(0, str(src))
    from fedcast import accel, cli, fl, models, stream, tensor
    if Path(cli.__file__).resolve().parent != (src / "fedcast").resolve():
        raise ImportError(f"fedcast imported from {cli.__file__}, not {src}")
    return dict(accel=accel, cli=cli, fl=fl, models=models, stream=stream,
                tensor=tensor)


@dataclass
class Pass:
    traced: bool
    seconds: float          # wall time of the workload's stages
    stage_s: dict
    check: PassCheck
    hashes: dict
    setup_s: list           # set-up samples taken just before the pass
    ref_s: float            # mean of the reference runs before and after it

    def host_s(self, seconds):
        """`seconds` measured next to this pass, on the reference host."""
        return seconds / self.ref_s * REF_SECONDS


def set_up(cli, cfg_path):
    """What every stage does before its work; returns the parsed config."""
    cfg = cli._parse_config(str(cfg_path), {})
    traces = cli._load_traces(cfg)
    cli.build_client_set(traces, cfg.preprocess, cfg.window, cfg.train_ratio)
    return cfg


def run_pass(cli, stages, cfg_path, out):
    """Run the stages in order; stop at the first that fails."""
    stage_s, codes = {}, {}
    for stage in stages:
        t0 = perf_counter()
        codes[stage] = cli.run(str(cfg_path), stage, out=str(out))
        stage_s[stage] = perf_counter() - t0
        if codes[stage] != 0:
            break
    return stage_s, codes


def check_pass(wl, out, codes, log, coeffs, chunk_dur):
    check = PassCheck()
    check.stages(codes, len(wl.stages))
    if "federate" in codes:
        check.federate(out, log.losses)
    if "stream" in codes:
        check.stream(out, log.sessions, coeffs, chunk_dur)
    return check


def blas_threads():
    """Threads of the OpenBLAS bundled with numpy, or None if not found."""
    import numpy as np
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return getattr(dll, sym)()
    return None


def machine(accel):
    import numpy as np
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh
                           if line.startswith("Threads:"))
    except (OSError, StopIteration):
        threads = None
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas_threads": blas_threads(), "process_threads": threads,
            "numba_enabled": accel.NUMBA_ENABLED}


def measure(wl, args, mods, work):
    cli, stream = mods["cli"], mods["stream"]
    cfg_path = wl.write_inputs(cli, args.seed, work)
    cfg = set_up(cli, cfg_path)     # untimed: the first call warms up
    coeffs = stream.QoECoefficients(**cfg.qoe_kwargs)
    chunk_dur = stream.StreamConfig(**cfg.stream_kwargs).chunk_dur

    log = OutputLog()
    tracer = Tracer()
    passes, ref_sums = [], set()

    def time_reference():
        t0 = perf_counter()
        ref_sums.add(reference(REF_UNITS))
        return perf_counter() - t0

    time_reference()                # untimed warm-up
    longest = 0.0
    ref_before = time_reference()
    with Patches() as patches:
        log.install(patches, mods["fl"], stream, mods["models"])
        t_start = perf_counter()
        while True:
            t_iter = perf_counter()
            # set-up samples spread over the run, like the passes
            setup_s = []
            for _ in range(SETUP_PER_PASS):
                t0 = perf_counter()
                set_up(cli, cfg_path)
                setup_s.append(perf_counter() - t0)
            traced = bool(args.trace) and len(passes) % 2 == 1
            out = work / f"pass{len(passes)}"
            log.clear()
            if traced:
                with Patches() as trace_patches:
                    tracer.install(trace_patches, mods)
                    stage_s, codes = run_pass(cli, wl.stages, cfg_path, out)
                tracer.passes += 1
            else:
                stage_s, codes = run_pass(cli, wl.stages, cfg_path, out)
            check = check_pass(wl, out, codes, log, coeffs, chunk_dur)
            hashes = artifact_hashes(out)
            shutil.rmtree(out, ignore_errors=True)
            ref_after = time_reference()
            passes.append(Pass(traced, sum(stage_s.values()), stage_s, check,
                               hashes, setup_s, (ref_before + ref_after) / 2))
            ref_before = ref_after
            longest = max(longest, perf_counter() - t_iter)
            if len(passes) >= MIN_PASSES + args.trace \
                    and perf_counter() - t_start + longest > args.seconds:
                break
    return passes, tracer, ref_sums


def summarise(wl, args, mods, passes, tracer, ref_sums):
    """(result JSON for the last line, report for the line before it)."""
    problems = [msg for p in passes for msg in p.check.problems]
    if len(ref_sums) != 1:
        problems.append(f"reference kernel checksums differ: {ref_sums}")
    attempted = sum(p.check.attempted for p in passes)
    failed = sum(p.check.failed for p in passes)
    hashes = passes[0].hashes
    if any(p.hashes != hashes for p in passes):
        problems.append("artifacts differ between passes of one seed")

    plain = [p for p in passes if not p.traced]
    pipeline_s = statistics.median(p.host_s(p.seconds) for p in plain)
    setup_s = statistics.median(p.host_s(s) for p in passes for s in p.setup_s)
    stage_median = {
        f"{s}_s": {"value": statistics.median(p.host_s(p.stage_s[s])
                                              for p in plain if s in p.stage_s),
                   "unit": "s"}
        for s in wl.stages if any(s in p.stage_s for p in plain)}
    first = passes[0].check
    report = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "passes": len(passes), "stages": stage_median,
        "wall": {  # as measured, not scaled to the reference host
            "pipeline_s": statistics.median(p.seconds for p in plain),
            "setup_s": statistics.median(s for p in passes for s in p.setup_s),
            "reference_s": statistics.median(p.ref_s for p in passes),
            "passes": [{"traced": p.traced, "s": p.seconds, "ref_s": p.ref_s,
                        "setup_s": p.setup_s} for p in passes]},
        "final_mean_r2": {"value": first.final_mean_r2, "unit": "R2"},
        "mean_qoe": {"value": first.mean_qoe, "unit": "QoE"},
        "failed_ops_share": {"value": failed / max(attempted, 1),
                             "unit": "share"},
        "ops_attempted": attempted, "artifact_sha256": hashes,
        "machine": machine(mods["accel"]),
    }

    if args.trace:
        overhead = statistics.median(
            p.host_s(p.seconds) for p in passes if p.traced) - pipeline_s
        metrics = {name: {"value": v, "unit": unit}
                   for name, (v, unit) in layer_metrics(tracer).items()}
        metrics["bench.tracing_overhead_s"] = {"value": overhead, "unit": "s"}
        for name in wl.required_spans:
            if tracer.calls[name] == 0:
                problems.append(f"traced span {name} recorded no calls")
        if tracer.counts["stream.predict_nonfinite"]:
            problems.append("non-finite throughput forecasts")
        gaps = {s: self_sum_gap(tracer, STAGES[s]) / tracer.passes
                for s in wl.stages}
        report["stage_self_sum_gap_s"] = gaps
        if "federate" in gaps and not 0 <= gaps["federate"] <= max(
                abs(overhead), 1e-3):
            problems.append(f"federate self times miss the stage time by "
                            f"{gaps['federate']} s, overhead {overhead} s")
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pipeline_s": {"value": pipeline_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    report["problems"] = problems
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return result, report


def main(argv=None):
    args = parse_args(argv)
    try:
        mods = import_fedcast()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    try:
        passes, tracer, ref_sums = measure(wl, args, mods, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run is still using it
    result, report = summarise(wl, args, mods, passes, tracer,
                               sorted(ref_sums))
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
