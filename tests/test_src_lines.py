"""Smoke test of ``tools/src_lines.py``: the src lines a program never runs."""

import inspect
import os
import re
import subprocess
import sys

from logsens import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_tiny_digests_run_main():
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_lines.py"),
         os.path.join(ROOT, "tools", "op_digests.py"), "--tiny", "1"],
        capture_output=True, text=True, timeout=60, check=True)
    listed = [line for line in proc.stdout.splitlines() if line.startswith("src/")]
    assert listed and all(re.fullmatch(r"src/logsens/\w+\.py:\d+", line) for line in listed)
    assert re.fullmatch(rf"{len(listed)} executable src/logsens lines never ran\n",
                        proc.stderr)
    # every tiny op builds the parser and parses its argv; none is refused
    source, start = inspect.getsourcelines(cli.main)
    parsed = start + next(i for i, text in enumerate(source) if "parse_args" in text)
    never = {int(line.split(":")[1]) for line in listed if line.startswith("src/logsens/cli.py:")}
    assert not never & set(range(start + 1, parsed + 1))
    refused = start + next(i for i, text in enumerate(source) if 'ConfigError("--samples"' in text)
    assert refused in never
