"""Fast self-check of the benchmark harness on tiny grids.

    python3 -m pytest benchmarks/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


def test_benchmark_json_names_emitted_metrics():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    for key, units in (("end_to_end", run.END_TO_END_UNITS),
                       ("per_layer", run.PER_LAYER_UNITS)):
        for spec in BENCH[key]:
            assert units[spec["name"]] == spec["unit"], spec


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_emitted(workload, trace):
    record = run.run_workload(workload, seed=3, seconds=0, trace=trace,
                              tiny=True, setup_repeats=1)
    assert record["failed"] == 0, record["failures"]
    if trace:
        expected = run.PER_LAYER_UNITS
    else:
        commands = {op.command for op in workloads.build_ops(workload, 3, True)}
        absent = {f"{c}_{u}" for c in run.COMMANDS if c not in commands
                  for u in ("s", "cal")}
        expected = {k: u for k, u in run.END_TO_END_UNITS.items() if k not in absent}
    assert {k: u for k, (_, u) in record["metrics"].items()} == expected
    line = run.result_line(record, BENCH["per_layer" if trace else "end_to_end"])
    assert line["correct"] and line["attempted"] >= 1
    if not trace:
        assert all(m["value"] > 0 for m in line["metrics"].values()), line


def _run_op(op, tmp_path):
    from logsens import cli

    (cfg, out), = workloads.write_configs([op], str(tmp_path))
    verifier = workloads.Verifier(op, seed=5)
    verifier.reference(cli)
    _, rc, stdout, _, _ = run.call_cli(cli, op.argv(cfg, out))
    return verifier, rc, stdout, out


def test_checks_reject_a_perturbed_trace(tmp_path):
    op = workloads.build_ops("classical_long", 5, tiny=True)[0]
    verifier, rc, stdout, out = _run_op(op, tmp_path)
    assert verifier.verify(rc, stdout, out)[0] == []
    i = int(verifier._ref["idx"][1])
    path = os.path.join(out, "trace.csv")
    with open(path) as f:
        lines = f.read().split("\n")
    cols = lines[i + 1].split(",")
    cols[3] = repr(float(cols[3]) * (1 + 1e-6) + 1e-6)
    lines[i + 1] = ",".join(cols)
    with open(path, "w") as f:
        f.write("\n".join(lines))
    reasons, _ = verifier.verify(rc, stdout, out)
    assert any("derror" in r for r in reasons), reasons


def test_checks_reject_a_wrong_table1_row(tmp_path):
    op = workloads.build_ops("crosscheck", 5, tiny=True)[-1]
    verifier, rc, stdout, out = _run_op(op, tmp_path)
    assert verifier.verify(rc, stdout, out)[0] == []
    path = os.path.join(out, "table1_n3.csv")
    with open(path) as f:
        text = f.read()
    head, first, rest = text.split("\n", 2)
    fid, val = first.split(",")
    with open(path, "w") as f:
        f.write(f"{head}\n{fid},{float(val) * 1.001!r}\n{rest}")
    assert verifier.verify(rc, stdout, out)[0]


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "crosscheck",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
