"""Digests of every benchmark op's exit code, stdout and output files.

Usage (from any directory)::

    python tools/op_digests.py [--tiny] SEED [SEED ...] > digests.txt
    python tools/op_digests.py --against REF [--tiny] SEED [SEED ...]

For each seed, each op of the three workloads in ``benchmarks/workloads.py``
runs once through ``logsens.cli.main`` of this checkout's ``src/``, in a
temporary directory.  One line per op::

    <workload> <seed> <index> rc=<exit code> stdout=<sha256> <file>:<sha256> ...

stdout is hashed with the temporary directory replaced by ``<work>``; the
files are the ones the op wrote, sorted by name.  Run the script on two
checkouts and ``diff`` the outputs: no difference means every exit code,
stdout and output file is byte-identical.  ``--tiny`` runs the workloads'
tiny ops instead, in seconds.

``--against REF`` does both runs itself: it builds ``tools/bench_pairs.py``'s
REF tree (``git archive REF src`` beside this checkout's ``benchmarks/``) in
a temporary directory, puts this checkout's ``tools/`` beside it, so both
sides run the same ops, and runs that copy of this script in a subprocess
(two ``logsens`` packages cannot share one interpreter).  It prints the number of identical ops, or each differing op
as a ``-`` (REF) / ``+`` (this checkout) pair, and exits 0 only when the two
sides are identical.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import os
import shutil
import subprocess
import sys
import tempfile
import warnings

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, name) for name in ("src", "benchmarks", "tools")]

from logsens import cli  # noqa: E402
import workloads  # noqa: E402
from bench_pairs import ref_tree  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def op_lines(workload, seed, tiny=False):
    """One digest line per op of ``workload`` built for ``seed``."""
    ops = workloads.build_ops(workload, seed, tiny)
    with tempfile.TemporaryDirectory() as work:
        for i, (op, (cfg, out_dir)) in enumerate(
                zip(ops, workloads.write_configs(ops, work))):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(io.StringIO()), \
                    warnings.catch_warnings(record=True):
                try:
                    rc = cli.main(op.argv(cfg, out_dir))
                except Exception as e:  # anything main() does not map
                    rc = type(e).__name__
            stdout = out.getvalue().replace(work, "<work>")
            files = []
            for name in sorted(os.listdir(out_dir)):
                if name != "config.json":
                    with open(os.path.join(out_dir, name), "rb") as f:
                        files.append(f"{name}:{_sha(f.read())}")
            yield " ".join([workload, str(seed), str(i), f"rc={rc}",
                            f"stdout={_sha(stdout.encode())}", *files])


def ref_lines(ref, argv):
    """The digest lines of ``git archive REF src``, run with this checkout's
    scripts and benchmarks on the arguments ``argv``."""
    with tempfile.TemporaryDirectory() as tmp:
        tools = os.path.join(ref_tree(ref, tmp), "tools")
        shutil.copytree(os.path.join(ROOT, "tools"), tools,
                        ignore=shutil.ignore_patterns("__pycache__"))
        return subprocess.run([sys.executable, os.path.join(tools, "op_digests.py"), *argv],
                              check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("seeds", type=int, nargs="+")
    parser.add_argument("--tiny", action="store_true",
                        help="the workloads' tiny ops")
    parser.add_argument("--against", metavar="REF",
                        help="compare with the src/ of git revision REF")
    args = parser.parse_args(argv)
    lines = (line for seed in args.seeds for workload in workloads.WORKLOADS
             for line in op_lines(workload, seed, args.tiny))
    if args.against is None:
        for line in lines:
            print(line, flush=True)
        return 0
    theirs = ref_lines(args.against, [*(["--tiny"] * args.tiny), *map(str, args.seeds)])
    differ = 0
    for old, new in itertools.zip_longest(theirs, lines, fillvalue="(no op)"):
        if old != new:
            differ += 1
            print(f"- {old}\n+ {new}", flush=True)
    if differ:
        print(f"{differ} ops differ from {args.against}")
        return 1
    print(f"{len(theirs)} ops identical to {args.against}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
