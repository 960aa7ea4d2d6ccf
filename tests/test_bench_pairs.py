"""Tests of ``tools/bench_pairs.py``: the REF tree it builds, the order of
its runs, and the claim summary."""

import importlib.util
import json
import os
import shutil

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", os.path.join(ROOT, "tools", "bench_pairs.py"))
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "run_cal", "better": "lower"},
         {"name": "trace_samples_per_cal", "better": "higher"}]


def result(run_cal, rate, failed=0):
    return {"attempted": 10, "failed": failed,
            "metrics": {"run_cal": {"value": run_cal, "unit": "cal"},
                        "trace_samples_per_cal": {"value": rate, "unit": "1/cal"}}}


def test_summary_medians_quartiles_and_wins():
    ref = [result(v, 1000.0 / v) for v in (5.0, 5.1, 4.9, 5.2, 5.0)]
    new = [result(v, 1000.0 / v) for v in (4.5, 5.3, 4.6, 4.4, 4.5)]
    lines = bench_pairs.summary(SPECS, ref, new)
    # quartiles of 4.9 5.0 5.0 5.1 5.2 (exclusive): 4.95 and 5.15
    assert lines[0] == ("run_cal REF 5 (4.95-5.15) -> 4.5 (4.45-4.95) -10.0% "
                        "wins 4/5 gap 0.5 vs REF IQR 0.2")
    assert lines[1].startswith("trace_samples_per_cal REF 200 ")
    assert " wins 4/5 " in lines[1]  # higher is better: the same pairs win
    assert lines[2:] == ["failed ops, REF: 0 of 50",
                         "failed ops, work tree: 0 of 50"]


def test_summary_of_one_pair():
    lines = bench_pairs.summary(SPECS[:1], [result(4.0, 1.0)], [result(5.0, 1.0, 2)])
    assert lines == ["run_cal REF 4 (4-4) -> 5 (5-5) +25.0% wins 0/1 gap 1 "
                     "vs REF IQR 0",
                     "failed ops, REF: 0 of 10", "failed ops, work tree: 2 of 10"]


def test_pairs_alternate_which_side_runs_first(monkeypatch, capsys, tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [s["name"] for s in json.load(f)["end_to_end"]]
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append(("work tree" if root == ROOT else "REF", workload, seed, seconds))
        value = 4.0 if root == ROOT else 5.0
        return {"attempted": 10, "failed": 0,
                "metrics": {name: {"value": value, "unit": ""} for name in names}}

    monkeypatch.setattr(bench_pairs, "ref_tree", lambda ref, dest: str(tmp_path))
    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    assert bench_pairs.main(["HEAD", "--workload", "crosscheck", "--pairs", "3",
                             "--seconds", "2"]) == 0
    assert [c[0] for c in calls] == ["REF", "work tree", "work tree", "REF",
                                     "REF", "work tree"]
    assert {c[1:] for c in calls} == {("crosscheck", 1, 2.0)}
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "# pair 0 REF: " + " ".join(f"{n}=5" for n in names) + " failed=0"
    assert sum(line.startswith("# pair ") for line in out) == 6
    assert [line.split()[0] for line in out[6:-2]] == names
    assert "run_cal REF 5 (5-5) -> 4 (4-4) -20.0% wins 3/3 " in out[6:-2][names.index("run_cal")]


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_ref_tree_is_src_beside_this_harness(tmp_path):
    root = bench_pairs.ref_tree("HEAD", str(tmp_path))
    assert sorted(os.listdir(root)) == ["BENCHMARK.json", "benchmarks", "src"]
    assert os.path.isfile(os.path.join(root, "src", "logsens", "cli.py"))
    assert sorted(os.listdir(os.path.join(root, "benchmarks"))) == sorted(
        name for name in os.listdir(os.path.join(ROOT, "benchmarks"))
        if name != "__pycache__")
