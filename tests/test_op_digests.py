"""Smoke tests of ``tools/op_digests.py``: one digest line per benchmark op,
and ``--against`` a git revision."""

import importlib.util
import os
import re
import shutil
import subprocess

import pytest

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


def _src_clean():
    """Whether ``src/`` is a git work tree's, with no local edits."""
    if shutil.which("git") is None:
        return False
    status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain", "src"],
                            capture_output=True, text=True)
    return status.returncode == 0 and status.stdout == ""


@pytest.mark.skipif(not _src_clean(), reason="needs git and a work tree whose "
                    "src/ has no local edits")
def test_against_head_is_identical(capsys):
    assert op_digests.main(["--against", "HEAD", "--tiny", "1"]) == 0
    n = sum(len(op_digests.workloads.build_ops(name, 1, tiny=True))
            for name in op_digests.workloads.WORKLOADS)
    assert capsys.readouterr().out == f"{n} ops identical to HEAD\n"
