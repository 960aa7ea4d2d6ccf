"""Ungated reports built from the traced harness: the ROADMAP baseline table
and the n/T scaling sweep.

    python3 benchmarks/report.py baseline
    python3 benchmarks/report.py scaling

Each row runs one ``logsens.cli.main`` call with every layer function
wrapped (``tracing.Recorder``): one untimed warm-up, then three traced
repetitions; a row's time is the median of the named span's total.  Peak memory comes from a
separate ``tracemalloc`` call of ``sensan.trace`` on the same grid.  The
last line is a JSON object holding every number printed.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from run import WORK, call_cli, trace_peak_mib  # noqa: E402
from tracing import Recorder  # noqa: E402

# Largest predicted sensan.trace peak the T sweep runs.
SCALING_CAP_MIB = 2048.0
REPEATS = 3

# (label, config, extra CLI arguments, span, ROADMAP low, high, unit)
BASELINE = [
    *[(f"run_scenario {k} defaults", {"kind": k}, (), "cli.run_scenario", lo,
       lo, "s") for k, lo in (("spring_mass", 0.048), ("rlc", 0.051),
                              ("two_qubit", 0.117), ("spin_chain", 0.067))],
    *[(f"write_trace_csv {k} (5001 rows)", {"kind": k}, (),
       "cli.write_trace_csv", 0.039, 0.084, "s")
      for k in ("spring_mass", "rlc", "spin_chain")],
    ("analytic trace two_qubit, 2001 samples", {"kind": "two_qubit"}, (),
     "sensan.trace", 0.116, 0.116, "s"),
    ("analytic trace two_qubit, 20001 samples",
     {"kind": "two_qubit", "grid": {"t_start": 0.0, "t_end": 2000.0, "dt": 0.1}},
     (), "sensan.trace", 0.415, 0.415, "s"),
    ("analytic trace spin_chain N=10, 2001 samples",
     {"kind": "spin_chain", "parameters": {"N": 10},
      "grid": {"t_start": 0.0, "t_end": 20.0, "dt": 0.01}},
     (), "sensan.trace", 2.0, 2.6, "s"),
    ("spin_chain_scenario(10) build",
     {"kind": "spin_chain", "parameters": {"N": 10},
      "grid": {"t_start": 0.0, "t_end": 20.0, "dt": 0.01}},
     (), "quantum.spin_chain_scenario", 0.226, 0.226, "s"),
    ("trace(method=blockaug) two_qubit, 2001 samples", {"kind": "two_qubit"},
     ("--method", "blockaug"), "sensan.trace", 9.2, 9.2, "s"),
    ("check two_qubit, 20 samples", {"kind": "two_qubit"}, (),
     "cli.check_oracles", 3.0, 3.0, "s"),
]


def _grid(t_end, samples):
    return {"t_start": 0.0, "t_end": t_end, "dt": t_end / (samples - 1)}


class TracedCli:
    """Runs one CLI call under the recorder; returns the median over
    ``REPEATS`` traced calls of each span name's total time."""

    def __init__(self, work):
        from logsens import cli

        self.cli = cli
        self.work = work
        self.rec = Recorder()
        os.makedirs(work, exist_ok=True)

    def __call__(self, config, args=(), command="run"):
        cfg_path = os.path.join(self.work, "config.json")
        with open(cfg_path, "w") as f:
            json.dump(config, f)
        argv = [command, cfg_path, *(["--out-dir", self.work] if command == "run"
                                     else []), *args]
        call_cli(self.cli, argv)                       # warm-up, untimed
        runs = []
        for _ in range(REPEATS):
            self.rec.spans.clear()
            self.rec.install()
            self.rec.begin(0)
            try:
                dt, rc, _, err, _ = call_cli(self.cli, argv)
            finally:
                self.rec.end()
                self.rec.uninstall()
            if rc != 0:
                raise RuntimeError(f"{argv}: exit {rc}: {err.strip()}")
            totals = defaultdict(float, op=dt)
            for sp in self.rec.spans:
                totals[sp.name] += sp.dur
            runs.append(totals)
        names = set().union(*runs)
        return defaultdict(float, {k: statistics.median(r[k] for r in runs)
                                   for k in names})


def baseline(traced):
    print("| what | ROADMAP | measured | note |\n| --- | --- | --- | --- |")
    out = []
    csv_share = {}
    for label, config, args, span, lo, hi, unit in BASELINE:
        command = "check" if span == "cli.check_oracles" else "run"
        spans = traced(config, args, command)
        value = spans[span]
        if span == "cli.write_trace_csv":
            csv_share[config["kind"]] = value / spans["cli.run_scenario"]
        ref = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        differs = not (lo / 1.5 <= value <= hi * 1.5)
        note = "differs by more than 1.5x" if differs else ""
        if label.startswith("analytic trace two_qubit, 20001"):
            peak = trace_peak_mib(traced.cli, config)
            note = f"peak {peak:.0f} MiB (ROADMAP 323 MiB) {note}".strip()
        print(f"| {label} | {ref} {unit} | {value:.4f} {unit} | {note} |")
        out.append({"what": label, "roadmap": [lo, hi], "measured": value,
                    "unit": unit, "note": note})
    shares = ", ".join(f"{k} {v:.0%}" for k, v in csv_share.items())
    print(f"\nwrite_trace_csv share of run_scenario: {shares}")
    return {"baseline": out, "csv_share": csv_share}


def scaling(traced):
    rows = []
    print("| system | n | T | op s | trace s | csv s | phi MiB (computed) "
          "| trace peak MiB |\n| --- | --- | --- | --- | --- | --- | --- | --- |")

    def point(label, config):
        spans = traced(config)
        peak = trace_peak_mib(traced.cli, config)
        cfg = traced.cli.validate_config(config)
        n = traced.cli.build_system(cfg)[0].n
        T = len(cfg.grid_times())
        row = {"system": label, "n": n, "T": T, "op_s": spans["op"],
               "trace_s": spans["sensan.trace"],
               "csv_s": spans["cli.write_trace_csv"],
               "phi_mib": 16 * n * n * T / 2 ** 20, "peak_mib": peak}
        rows.append(row)
        print(f"| {label} | {n} | {T} | {row['op_s']:.3f} | {row['trace_s']:.3f} "
              f"| {row['csv_s']:.3f} | {row['phi_mib']:.1f} | {peak:.1f} |",
              flush=True)
        return peak / T

    for N in range(2, 11):
        point(f"spin_chain N={N}", {"kind": "spin_chain", "parameters": {"N": N},
                                    "grid": _grid(20.0, 2001)})
    for kind, t_end in (("spring_mass", 50.0), ("two_qubit", 2000.0)):
        per_sample = 0.0
        for T in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6):
            if per_sample * T > SCALING_CAP_MIB:
                print(f"| {kind} | | {T} | skipped: predicted trace peak "
                      f"{per_sample * T:.0f} MiB > {SCALING_CAP_MIB:.0f} MiB | | | | |")
                continue
            per_sample = point(kind, {"kind": kind, "grid": _grid(t_end, T)})
    return {"scaling": rows}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if argv not in (["baseline"], ["scaling"]):
        print(__doc__, file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{os.getpid()}-report")
    try:
        result = (baseline if argv[0] == "baseline" else scaling)(TracedCli(work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
