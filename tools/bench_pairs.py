#!/usr/bin/env python3
"""Compare two fedcast source trees with the benchmark, in alternating pairs.

    python3 tools/bench_pairs.py --parent OLD/src --change NEW/src \\
        --workloads demo_all,cnn_prox_files,stream_outage_h6 \\
        --pairs 10 --seconds 40 --seed 1301 --out BENCH_N.json

Each side gets its own checkout in a work directory: a copy of its `src/`
next to a copy of this repository's `perfbench/`, so both sides run the
same benchmark script. Pair p of workload w runs both sides at seed
`--seed + 100 * w + p`, the parent first in even pairs and the change
first in odd ones, so that a drift of the host's speed does not favour
one side. With `--traced-seed S`, each workload then runs once per side
with `--trace 1` at seed S + 100 * w.

The JSON written to --out holds, per workload, each side's value of every
end-to-end metric and stage time, the number of passes in the run
(`passes`), and the minor page faults and system CPU seconds of the whole
benchmark process (`proc.minor_faults`, `proc.sys_s`) and per pass
(`proc.minor_faults_per_pass`, `proc.sys_s_per_pass`), in pair order,
their medians and inclusive quartiles, the median ratio change / parent,
the number of pairs in which the change is lower, and whether the two
sides wrote byte-identical artifacts in every pair. Each end-to-end metric
of BENCHMARK.json also gets its relative median change next to its bound
and a verdict (`judge`), printed to stderr as well; the pass and process
counts get none. Read them before trusting a timing: a time that moves
with the page faults or the system time may be the allocator's, not the
code's. Every time is scaled by the reference kernel timed in the same
process, so when the two sides' median `wall.reference_s` differ by more
than REFERENCE_TOLERANCE, a warning is printed and `reference_moved` set:
the reference then ran at another speed next to one side, and the scaled
times moved with it.
"""

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# the largest relative difference of the two sides' median reference times
# at which their scaled times are compared without a warning
REFERENCE_TOLERANCE = 0.03


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--parent", required=True, type=Path,
                   help="the parent's src/ directory")
    p.add_argument("--change", required=True, type=Path,
                   help="the change's src/ directory")
    p.add_argument("--workloads", required=True,
                   help="comma-separated perfbench workload names")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--seed", type=int, required=True,
                   help="seed of the first pair of the first workload")
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", required=True, type=Path)
    args = p.parse_args(argv)
    for side in SIDES:
        src = getattr(args, side)
        if not (src / "fedcast" / "__init__.py").is_file():
            p.error(f"--{side} {src}: no fedcast package there")
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    return args


def make_checkout(src, dest):
    """dest/src as a copy of `src` and dest/perfbench as this repo's."""
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(src, dest / "src", ignore=ignore)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=ignore)
    return dest


def run_bench(checkout, workload, seed, seconds, trace):
    """(result, report, usage) of one perfbench run in `checkout`; `usage`
    holds the run's minor page faults and system CPU seconds, the
    getrusage(RUSAGE_CHILDREN) difference across it."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 \
            or not lines[-2].startswith("report "):
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    usage = {"minor_faults": after.ru_minflt - before.ru_minflt,
             "sys_s": after.ru_stime - before.ru_stime}
    return (json.loads(lines[-1]), json.loads(lines[-2][len("report "):]),
            usage)


def pair_record(seed, first, runs):
    """What one pair keeps: `runs` maps side -> (result, report, usage)."""
    rec = {"seed": seed, "first": first}
    for side, (result, report, usage) in runs.items():
        values = {name: m["value"] for name, m in result["metrics"].items()}
        values.update({f"stage.{name}": m["value"]
                       for name, m in report["stages"].items()})
        values["wall.pipeline_s"] = report["wall"]["pipeline_s"]
        values["wall.reference_s"] = report["wall"]["reference_s"]
        values["passes"] = report["passes"]
        for name, v in usage.items():
            values[f"proc.{name}"] = v
            values[f"proc.{name}_per_pass"] = v / report["passes"]
        rec[side] = {"values": values, "correct": result["correct"],
                     "failed": result["failed"],
                     "attempted": result["attempted"],
                     "artifact_sha256": report["artifact_sha256"]}
    return rec


def _quartiles(values):
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarise(pairs):
    """Per metric, each side's values in pair order, their medians and
    inclusive quartiles, the median ratio change / parent and how many
    pairs the change is lower in; plus the pairs' correctness, failed
    operations and artifact-hash equality, and whether the median
    reference time moved by more than REFERENCE_TOLERANCE."""
    names = [n for n in pairs[0]["parent"]["values"]
             if all(n in p[s]["values"] for p in pairs for s in SIDES)]
    metrics = {}
    for name in names:
        vals = {s: [p[s]["values"][name] for p in pairs] for s in SIDES}
        med = {s: statistics.median(vals[s]) for s in SIDES}
        lower = sum(c < p for p, c in zip(vals["parent"], vals["change"]))
        metrics[name] = {
            "parent": vals["parent"], "change": vals["change"],
            "parent_median": med["parent"], "change_median": med["change"],
            "parent_quartiles": _quartiles(vals["parent"]),
            "change_quartiles": _quartiles(vals["change"]),
            "median_ratio": (med["change"] / med["parent"]
                             if med["parent"] else None),
            "change_lower": f"{lower}/{len(pairs)}",
        }
    equal = [p["parent"]["artifact_sha256"] == p["change"]["artifact_sha256"]
             for p in pairs]
    ref_ratio = metrics.get("wall.reference_s", {}).get("median_ratio")
    return {
        "seeds": [p["seed"] for p in pairs],
        "first": [p["first"] for p in pairs],
        "metrics": metrics,
        "failed_ops": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
        "ops_attempted": {s: [p[s]["attempted"] for p in pairs]
                          for s in SIDES},
        "correct_all_runs": all(p[s]["correct"] for p in pairs
                                for s in SIDES),
        "artifact_sha256_equal": equal,
        "artifact_sha256_equal_all_pairs": all(equal),
        "reference_moved": ref_ratio is not None
        and abs(ref_ratio - 1.0) > REFERENCE_TOLERANCE,
    }


def judge(parent, change, better, bound):
    """The verdict on one end-to-end metric from each side's runs, with
    `better` ("lower" or "higher") and the relative `bound` of
    BENCHMARK.json: "worse" when the change's median is worse than the
    parent's by more than the bound; "unresolved" when the parent's
    interquartile range exceeds the bound times its median and not every
    change run beats every parent run; "not worse" otherwise."""
    sign = 1.0 if better == "lower" else -1.0    # + is worse
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    if sign * (cm - pm) > bound * abs(pm):
        verdict = "worse"
    elif q3 - q1 > bound * abs(pm) \
            and max(sign * c for c in change) >= min(sign * p for p in parent):
        verdict = "unresolved"
    else:
        verdict = "not worse"
    return {"better": better, "bound": bound,
            "median_change": (cm - pm) / pm if pm else math.nan,
            "verdict": verdict}


def traced_record(seed, runs):
    """Per-layer metrics of one --trace 1 run per side: name -> [parent,
    change]."""
    results = {side: result for side, (result, *_) in runs.items()}
    names = sorted(set(results["parent"]["metrics"])
                   | set(results["change"]["metrics"]))
    return {
        "seed": seed,
        "correct": [results[s]["correct"] for s in SIDES],
        "artifact_sha256_equal": runs["parent"][1]["artifact_sha256"]
        == runs["change"][1]["artifact_sha256"],
        "metrics": {n: [results[s]["metrics"].get(n, {}).get("value")
                        for s in SIDES] for n in names},
    }


def main(argv=None):
    args = parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "end_to_end"]
    out = {"command": "python3 perfbench/run.py --workload W --seed N "
                      f"--seconds {args.seconds:g} --trace {{0,1}}",
           "pairs": args.pairs, "end_to_end": {}, "traced": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as work:
        checkouts = {side: make_checkout(getattr(args, side),
                                         Path(work) / side)
                     for side in SIDES}
        for w, workload in enumerate(workloads):
            pairs = []
            for p in range(args.pairs):
                seed = args.seed + 100 * w + p
                order = SIDES if p % 2 == 0 else SIDES[::-1]
                runs = {side: run_bench(checkouts[side], workload, seed,
                                        args.seconds, 0) for side in order}
                pairs.append(pair_record(seed, order[0], runs))
                print(f"{workload} pair {p + 1}/{args.pairs} seed {seed}: "
                      + ", ".join(f"{s} {pairs[-1][s]['values']['pipeline_s']:.4f}"
                                  for s in SIDES), file=sys.stderr)
            summary = out["end_to_end"][workload] = summarise(pairs)
            if summary["reference_moved"]:
                ratio = summary["metrics"]["wall.reference_s"]["median_ratio"]
                print(f"{workload} WARNING: the median wall.reference_s "
                      f"moved {ratio - 1.0:+.1%} between the sides (more than "
                      f"{REFERENCE_TOLERANCE:.0%}); every scaled time moved "
                      f"with it, compare the wall times", file=sys.stderr)
            for metric in end_to_end:
                m = summary["metrics"][metric["name"]]
                m.update(judge(m["parent"], m["change"], metric["better"],
                               metric["bound"]))
                print(f"{workload} {metric['name']}: median "
                      f"{m['median_change']:+.1%} (bound {m['bound']:.0%}), "
                      f"{m['verdict']}", file=sys.stderr)
            if args.traced_seed is not None:
                seed = args.traced_seed + 100 * w
                runs = {side: run_bench(checkouts[side], workload, seed,
                                        args.seconds, 1) for side in SIDES}
                out["traced"][workload] = traced_record(seed, runs)
            out["machine"] = runs["change"][1]["machine"]
            args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
