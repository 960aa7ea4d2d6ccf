"""Smoke tests of ``tools/src_lines.py``: the src lines a program never runs."""

import inspect
import os
import re
import subprocess
import sys

from logsens import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def never_run(target, *args, path="src/logsens/cli.py"):
    """The line numbers of ``path`` that ``tools/src_lines.py`` lists as
    never run by ``python target args``, and every listed line."""
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "tools", "src_lines.py"), target, *args],
        capture_output=True, text=True, timeout=60, check=True)
    listed = [line for line in proc.stdout.splitlines() if line.startswith("src/")]
    assert re.fullmatch(rf"{len(listed)} executable src/logsens lines never ran\n",
                        proc.stderr)
    lines = {int(line.split(":")[1]) for line in listed
             if line.startswith(path + ":")}
    return lines, listed


def line_of(func, text):
    """The line number of the first line of ``func`` holding ``text``."""
    source, start = inspect.getsourcelines(func)
    return start + next(i for i, line in enumerate(source) if text in line)


def test_tiny_digests_run_main():
    never, listed = never_run(os.path.join(ROOT, "tools", "op_digests.py"), "--tiny", "1")
    assert listed and all(re.fullmatch(r"src/logsens/\w+\.py:\d+", line) for line in listed)
    # every tiny op parses its argv, the first with the parser it builds; none
    # is refused
    start = inspect.getsourcelines(cli.main)[1]
    assert not never & set(range(start + 1, line_of(cli.main, "parse_args") + 1))
    source, start = inspect.getsourcelines(cli._parser)
    assert not never & set(range(start, start + len(source)))
    assert line_of(cli.main, 'ConfigError("--samples"') in never


def test_float_formatter_tests_run_all_of_it():
    # tier-1 runs every line of the block formatter's float spelling, the
    # repr fallback for inf, nan and |x| >= 2^50 included
    never, _ = never_run("-m", "pytest", "-q", "-p", "no:cacheprovider",
                         os.path.join(ROOT, "tests", "test_floatrepr.py"),
                         path="src/logsens/_floatrepr.py")
    assert never == set()


def test_forked_children_lines_count_as_run(tmp_path):
    # 32 blocks on two usable CPUs: the second run is formatted by a forked
    # child; both runs hold masked rows and values repr spells (2^50 and up)
    script = tmp_path / "write.py"
    script.write_text(
        "import os\n"
        "import numpy as np\n"
        "from logsens import cli\n"
        "from logsens.sensan import SensitivityTrace\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "t = np.arange(32 * cli._CSV_BLOCK, dtype=float)\n"
        "cli.write_trace_csv(os.path.join(os.path.dirname(__file__), 'trace.csv'),\n"
        "                    SensitivityTrace(t, t * 2.0 ** 40, t, t, t % 3 == 0))\n")
    never, _ = never_run(str(script))
    child = {line_of(cli._format_part, text)
             for text in ("part.write(", "part.flush(", "status = 0", "os._exit(")}
    assert not never & child
    source, start = inspect.getsourcelines(cli._csv_block)
    assert not never & set(range(start, start + len(source)))
    # the child exited 0: this process copied its part, and none was left to kill
    assert line_of(cli._csv_blocks, "yield from iter(") not in never
    assert line_of(cli._csv_blocks, "os.kill(") in never
    assert (tmp_path / "trace.csv").stat().st_size > 0
