"""Smoke test of ``tools/op_digests.py``: one digest line per benchmark op."""

import importlib.util
import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "op_digests", os.path.join(ROOT, "tools", "op_digests.py"))
op_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(op_digests)

SHA = "[0-9a-f]{64}"


def test_tiny_run_digests_every_op(capsys):
    assert op_digests.main(["--tiny", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    ops = {name: op_digests.workloads.build_ops(name, 1, tiny=True)
           for name in op_digests.workloads.WORKLOADS}
    assert [line.split()[:3] for line in lines] == [
        [name, "1", str(i)] for name in ops for i in range(len(ops[name]))]
    for line, op in zip(lines, (op for name in ops for op in ops[name])):
        files = {"run": r"report\.json:{0} trace\.csv:{0}",
                 "check": "", "table1": r"table1_n[23]\.csv:{0}"}[op.command]
        assert re.fullmatch(rf"\S+ 1 \d+ rc=0 stdout={SHA} ?" + files.format(SHA),
                            line), line
