"""The pair summary of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _pair(seed, parent, change, same_hash=True, failed=0):
    def side(value, digest):
        return {"values": {"pipeline_s": value}, "correct": not failed,
                "failed": failed, "attempted": 10,
                "artifact_sha256": {"rounds.csv": digest}}
    return {"seed": seed, "first": "parent" if seed % 2 == 0 else "change",
            "parent": side(parent, "a"),
            "change": side(change, "a" if same_hash else "b")}


def test_summary_of_pairs():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.5, 1.0, 3.0, 4.0]
    pairs = [_pair(10 + i, p, c) for i, (p, c) in enumerate(zip(parent,
                                                                 change))]
    got = bench_pairs.summarise(pairs)
    m = got["metrics"]["pipeline_s"]
    assert m["parent"] == parent and m["change"] == change
    assert m["parent_median"] == 3.0 and m["change_median"] == 2.5
    # inclusive quartiles: the 25th and 75th percentiles of the sorted
    # values, interpolated between order statistics
    assert m["parent_quartiles"] == [2.0, 4.0]
    assert m["change_quartiles"] == [1.0, 3.0]
    assert m["median_ratio"] == pytest.approx(2.5 / 3.0)
    assert m["change_lower"] == "4/5"
    assert got["seeds"] == [10, 11, 12, 13, 14]
    assert got["first"] == ["parent", "change", "parent", "change", "parent"]
    assert got["artifact_sha256_equal_all_pairs"]
    assert got["correct_all_runs"]
    assert got["failed_ops"] == {"parent": 0, "change": 0}


def test_summary_flags_unequal_artifacts_and_failures():
    pairs = [_pair(0, 1.0, 1.0), _pair(1, 1.0, 2.0, same_hash=False,
                                       failed=1)]
    got = bench_pairs.summarise(pairs)
    assert got["artifact_sha256_equal"] == [True, False]
    assert not got["artifact_sha256_equal_all_pairs"]
    assert not got["correct_all_runs"]
    assert got["failed_ops"] == {"parent": 1, "change": 1}
    m = got["metrics"]["pipeline_s"]
    assert m["change_lower"] == "0/2"   # a tie is not lower
    assert m["parent_quartiles"] == [1.0, 1.0]


@pytest.mark.parametrize("parent, change, better, verdict", [
    # tight parent runs; the change's median is 40% slower
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.4, 1.41, 1.39, 1.4, 1.42], "lower",
     "worse"),
    # a larger-is-better metric that fell by 40%
    ([1.0, 1.01, 0.99, 1.0, 1.02], [0.6, 0.61, 0.59, 0.6, 0.62], "higher",
     "worse"),
    # the parent's quartiles are 0.8 and 1.6 around a median of 1.0, wider
    # than the bound, and the change's runs overlap the parent's
    ([0.5, 0.8, 1.0, 1.6, 2.0], [0.6, 0.9, 1.1, 1.5, 1.9], "lower",
     "unresolved"),
    # as wide, but every change run beats every parent run
    ([0.5, 0.8, 1.0, 1.6, 2.0], [0.1, 0.2, 0.3, 0.4, 0.45], "lower",
     "not worse"),
    # tight parent runs, the change 10% slower: within the bound
    ([1.0, 1.01, 0.99, 1.0, 1.02], [1.1, 1.11, 1.09, 1.1, 1.12], "lower",
     "not worse"),
])
def test_judge_end_to_end_metric(parent, change, better, verdict):
    got = bench_pairs.judge(parent, change, better, 0.25)
    assert got["verdict"] == verdict
    assert got["bound"] == 0.25 and got["better"] == better
    want = (sorted(change)[2] - sorted(parent)[2]) / sorted(parent)[2]
    assert got["median_change"] == pytest.approx(want)


def test_run_bench_records_the_child_faults_and_system_time(tmp_path):
    # a stand-in benchmark that touches 8 MB of fresh pages, ~2,000 minor
    # faults on 4 KB pages, before its two output lines
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "buf = bytearray(8 << 20)\n"
        "buf[::4096] = b'x' * len(buf[::4096])\n"
        "print('report ' + json.dumps({'stages': {}, 'wall': {}}))\n"
        "print(json.dumps({'metrics': {}}))\n")
    result, report, usage = bench_pairs.run_bench(tmp_path, "w", 1, 1.0, 0)
    assert result == {"metrics": {}}
    assert report == {"stages": {}, "wall": {}}
    assert set(usage) == {"minor_faults", "sys_s"}
    assert usage["minor_faults"] >= 2000
    assert usage["sys_s"] >= 0.0


def test_pair_record_keeps_process_counts_without_a_verdict():
    def run(pipeline_s, faults, sys_s):
        result = {"metrics": {"pipeline_s": {"value": pipeline_s}},
                  "correct": True, "failed": 0, "attempted": 3}
        report = {"stages": {"stream_s": {"value": pipeline_s}},
                  "wall": {"pipeline_s": pipeline_s, "reference_s": 0.5},
                  "artifact_sha256": {"qoe.csv": "a"}, "passes": 4}
        return result, report, {"minor_faults": faults, "sys_s": sys_s}
    pairs = [
        bench_pairs.pair_record(0, "parent", {"parent": run(1.0, 700, 0.02),
                                              "change": run(0.9, 690, 0.03)}),
        bench_pairs.pair_record(1, "change", {"parent": run(1.1, 710, 0.01),
                                              "change": run(1.0, 705, 0.02)})]
    assert pairs[0]["change"]["values"]["proc.minor_faults"] == 690
    assert pairs[1]["parent"]["values"]["proc.sys_s"] == 0.01
    m = bench_pairs.summarise(pairs)["metrics"]
    assert m["proc.minor_faults"]["parent"] == [700, 710]
    assert m["proc.minor_faults"]["change_lower"] == "2/2"
    assert m["proc.sys_s"]["change_median"] == pytest.approx(0.025)
    assert "verdict" not in m["proc.minor_faults"]


def _run(pipeline_s, passes, faults, sys_s, reference_s):
    """One side's (result, report, usage), as `run_bench` returns them."""
    metrics = {name: {"value": pipeline_s}
               for name in ("pipeline_s", "setup_s", "peak_rss_mb")}
    result = {"metrics": metrics, "correct": True, "failed": 0,
              "attempted": 3}
    report = {"stages": {}, "passes": passes,
              "wall": {"pipeline_s": pipeline_s, "reference_s": reference_s},
              "artifact_sha256": {"qoe.csv": "a"}, "machine": {}}
    return result, report, {"minor_faults": faults, "sys_s": sys_s}


def test_process_counts_per_pass_take_no_verdict():
    # a faster change runs more passes in the same time: its whole-process
    # faults rise although each pass faults less
    pairs = [
        bench_pairs.pair_record(0, "parent", {
            "parent": _run(1.0, 4, 4000, 0.08, 0.5),
            "change": _run(0.8, 5, 4500, 0.10, 0.5)}),
        bench_pairs.pair_record(1, "change", {
            "parent": _run(1.0, 4, 4400, 0.04, 0.5),
            "change": _run(0.8, 6, 4800, 0.06, 0.5)})]
    m = bench_pairs.summarise(pairs)["metrics"]
    assert m["passes"]["parent"] == [4, 4] and m["passes"]["change"] == [5, 6]
    assert m["proc.minor_faults"]["change_lower"] == "0/2"
    per_pass = m["proc.minor_faults_per_pass"]
    assert per_pass["parent"] == [1000.0, 1100.0]
    assert per_pass["change"] == [900.0, 800.0]
    assert per_pass["change_lower"] == "2/2"
    assert m["proc.sys_s_per_pass"]["parent"] == pytest.approx([0.02, 0.01])
    assert m["proc.sys_s_per_pass"]["change"] == pytest.approx([0.02, 0.01])
    for name in ("passes", "proc.minor_faults_per_pass",
                 "proc.sys_s_per_pass"):
        assert "verdict" not in m[name]


@pytest.mark.parametrize("change_ref, moved", [
    (0.5, False), (0.514, False), (0.486, False),
    (0.52, True), (0.48, True), (0.6, True)])
def test_reference_moved_beyond_three_percent(change_ref, moved):
    pairs = [bench_pairs.pair_record(seed, "parent", {
        "parent": _run(1.0, 4, 1000, 0.0, 0.5),
        "change": _run(1.0, 4, 1000, 0.0, change_ref)}) for seed in (0, 1)]
    got = bench_pairs.summarise(pairs)
    assert got["reference_moved"] is moved
    assert "verdict" not in got["metrics"]["wall.reference_s"]


def test_summary_without_reference_times_is_not_flagged():
    got = bench_pairs.summarise([_pair(0, 1.0, 1.0), _pair(1, 2.0, 2.0)])
    assert got["reference_moved"] is False


def test_main_warns_when_the_reference_moved(tmp_path, monkeypatch, capsys):
    for side in ("old", "new"):
        (tmp_path / side / "fedcast").mkdir(parents=True)
        (tmp_path / side / "fedcast" / "__init__.py").write_text("")

    def run_bench(checkout, workload, seed, seconds, trace):
        # the change's reference kernel runs 10% faster
        return _run(1.0, 4, 1000, 0.0, 0.45 if checkout.name == "change"
                    else 0.5)
    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(tmp_path / "old"), "--change", str(tmp_path / "new"),
        "--workloads", "w", "--pairs", "2", "--seed", "1",
        "--out", str(out)]) == 0
    err = capsys.readouterr().err
    assert "w WARNING: the median wall.reference_s moved -10.0%" in err
    assert json.loads(out.read_text())["end_to_end"]["w"]["reference_moved"]
