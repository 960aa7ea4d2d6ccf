"""Alternating benchmark pairs: a git revision's ``src/`` against this checkout's.

Usage (from any directory)::

    python tools/bench_pairs.py REF --workload W [--pairs N] [--seconds S] [--seed K]

It extracts ``git archive REF src`` into a temporary directory and puts this
checkout's ``benchmarks/`` and ``BENCHMARK.json`` beside it, as
``tools/op_digests.py --against`` builds its copy, so both sides run one
harness.  Then it runs ``benchmarks/run.py --workload W --seed K --seconds S
--trace 0`` N times on each side, one pair at a time; REF runs first in the
even pairs (0, 2, ...), this checkout in the odd ones.  Each run's metrics
are printed on a ``#`` line as it ends.  Then, for every end-to-end metric
``BENCHMARK.json`` lists, one line::

    <metric> REF <median> (<q1>-<q3>) -> <median> (<q1>-<q3>) <change>%
        wins <k>/<N> gap <|median difference|> vs REF IQR <q3 - q1>

A pair is a win when this checkout's value is better (by the metric's
``better``) than REF's in the same pair.  A gain claim needs wins in at
least 9 of 10 pairs and a gap wider than REF's interquartile range (the
quartiles are ``statistics.quantiles``' exclusive ones).  The failed and
attempted op counts of both sides close the output.  Stdlib only; nothing
under ``benchmarks/`` is changed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def ref_tree(ref, dest):
    """Fill ``dest`` with ``git archive REF src``, this checkout's
    ``benchmarks/`` and ``BENCHMARK.json``; return ``dest``.  The REF side
    of ``tools/op_digests.py --against`` is this tree too."""
    archive = subprocess.run(["git", "-C", ROOT, "archive", ref, "src"],
                             check=True, stdout=subprocess.PIPE).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    shutil.copytree(os.path.join(ROOT, "benchmarks"), os.path.join(dest, "benchmarks"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    return dest


def run_once(root, workload, seed, seconds):
    """The result object (last stdout line) of one ``--trace 0`` run of the
    harness under ``root``."""
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "benchmarks", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"], capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmarks/run.py under {root} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def summary(specs, ref_runs, new_runs):
    """One line per metric of ``specs`` (``BENCHMARK.json`` end-to-end
    entries) over paired result objects, then the failed-op counts."""
    lines = []
    for spec in specs:
        name = spec["name"]
        old = [r["metrics"][name]["value"] for r in ref_runs]
        new = [r["metrics"][name]["value"] for r in new_runs]
        sign = 1.0 if spec["better"] == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(old, new))
        (q1, m_old, q3), (p1, m_new, p3) = (
            statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
            for v in (old, new))
        change = 100.0 * (m_new - m_old) / m_old if m_old else float("nan")
        lines.append(
            f"{name} REF {m_old:.4g} ({q1:.4g}-{q3:.4g}) -> {m_new:.4g} "
            f"({p1:.4g}-{p3:.4g}) {change:+.1f}% wins {wins}/{len(old)} "
            f"gap {abs(m_new - m_old):.3g} vs REF IQR {q3 - q1:.3g}")
    for side, runs in (("REF", ref_runs), ("work tree", new_runs)):
        lines.append(f"failed ops, {side}: {sum(r['failed'] for r in runs)} of "
                     f"{sum(r['attempted'] for r in runs)}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", metavar="REF", help="git revision to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    runs = {"REF": [], "work tree": []}
    with tempfile.TemporaryDirectory() as tmp:
        roots = {"REF": ref_tree(args.ref, tmp), "work tree": ROOT}
        for k in range(args.pairs):
            for side in (("REF", "work tree") if k % 2 == 0 else ("work tree", "REF")):
                result = run_once(roots[side], args.workload, args.seed, args.seconds)
                runs[side].append(result)
                values = " ".join(f"{name}={m['value']:.6g}"
                                  for name, m in result["metrics"].items())
                print(f"# pair {k} {side}: {values} failed={result['failed']}",
                      flush=True)
    print("\n".join(summary(specs, runs["REF"], runs["work tree"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
