"""The lines of ``src/logsens`` that a program never runs.

Usage (from any directory)::

    python tools/src_lines.py SCRIPT [ARG ...]
    python tools/src_lines.py -m MODULE [ARG ...]

Runs the script or module as ``python SCRIPT ...`` or ``python -m MODULE
...`` would, with this checkout's ``src/`` on ``sys.path`` right after the
target's own directory, under a ``sys.settrace`` line tracer (stdlib only).
Then it prints ``src/logsens/<file>.py:<line>`` for every executable line
that never ran, one per line, and a count on stderr.  A line is executable
when the compiled module attributes an instruction to it.  The traced
process's threads are seen, and so are its forked children that leave by
``os._exit`` (the CSV writer's do): each saves its lines for the parent to
merge.  The exit code is the target's.

For example, the lines the tier-1 suite never runs::

    python tools/src_lines.py -m pytest -q
"""

from __future__ import annotations

import os
import pickle
import runpy
import sys
import tempfile
import threading
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "logsens")


def executable_lines(path) -> set:
    """Line numbers the compiled code of ``path`` attributes instructions to."""
    with open(path) as f:
        stack = [compile(f.read(), path, "exec")]
    lines = set()
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _tracer(ran):
    """A global trace function adding ``(path, line)`` to ``ran`` for each
    line run in a frame of a ``PACKAGE`` file; other frames go untraced."""
    paths = {}  # co_filename -> its real path under PACKAGE, or None

    def local(frame, event, arg):
        if event == "line":
            ran.add((paths[frame.f_code.co_filename], frame.f_lineno))
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in paths:
            path = os.path.realpath(name)
            paths[name] = path if os.path.dirname(path) == PACKAGE else None
        return local if paths[name] else None

    return global_


def _saving_exit(ran, directory):
    """An ``os._exit`` that, in a process forked from this one, first saves
    ``ran`` to ``directory`` as ``<pid>.pickle``."""
    parent, exit_ = os.getpid(), os._exit

    def _exit(status):
        try:
            if os.getpid() != parent:
                with open(os.path.join(directory, f"{os.getpid()}.pickle"), "wb") as f:
                    pickle.dump(ran, f)
        finally:
            exit_(status)

    return _exit


def main(argv=None):
    """Run the target; print the lines it never ran; return its exit status."""
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv == ["-m"]:
        print(__doc__, file=sys.stderr)
        return 2
    module = argv[0] == "-m"
    target, args = (argv[1], argv[2:]) if module else (argv[0], argv[1:])
    sys.argv = [target, *args]
    sys.path[0] = os.getcwd() if module else os.path.dirname(os.path.abspath(target))
    sys.path.insert(1, os.path.join(ROOT, "src"))
    ran = set()
    tracer = _tracer(ran)
    exit_ = os._exit
    with tempfile.TemporaryDirectory() as forked:
        os._exit = _saving_exit(ran, forked)
        threading.settrace(tracer)
        sys.settrace(tracer)
        try:
            if module:
                runpy.run_module(target, run_name="__main__", alter_sys=True)
            else:
                runpy.run_path(target, run_name="__main__")
            rc = 0
        except SystemExit as e:
            rc = e.code
        finally:
            sys.settrace(None)
            threading.settrace(None)
            os._exit = exit_
        for name in os.listdir(forked):
            with open(os.path.join(forked, name), "rb") as f:
                ran |= pickle.load(f)
    sys.stdout.flush()
    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            path = os.path.join(PACKAGE, name)
            for line in sorted(executable_lines(path) - {l for p, l in ran if p == path}):
                print(f"src/logsens/{name}:{line}")
                missed += 1
    print(f"{missed} executable src/logsens lines never ran", file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
