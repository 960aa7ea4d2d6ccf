"""Benchmark harness for logsens: end-to-end CLI timings and per-layer spans.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload {classical_long,quantum_dim,crosscheck,all}
                              --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; nothing is installed.
Each workload is a closed loop with one client: one process issues one
``logsens.cli.main(argv)`` call after another on configs generated from the
seed (see ``workloads.py``).  Every call's outputs are checked independently
of the package (``workloads.Verifier``).

``--trace 0`` (end to end)
    One untimed warm-up op, then the workload's ops in order, cyclically,
    until ``--seconds`` have passed and every op ran at least once.
``--trace 1`` (per layer)
    Untraced and traced passes over all ops alternate until ``--seconds``
    have passed (at least one of each); every public function of the five
    layer modules is wrapped from ``tracing.py``.  A third pass runs each
    ``run`` op's ``sensan.trace`` under ``tracemalloc`` for peak memory; its
    timings are discarded.

Result schema
-------------
The last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": float, "unit": str}, ...}}

``metrics`` holds exactly the metrics ``BENCHMARK.json`` lists for the mode
(``end_to_end`` for ``--trace 0``, ``per_layer`` for ``--trace 1``).  The
lines above it, each starting with ``#``, carry the full record:
``# env {...}`` (Python/numpy/scipy versions, BLAS and its thread count,
nproc, total memory, seed, git commit), one ``# op`` line per operation,
``# fail`` lines naming each failing op with its reason, ``# check`` lines
with each ``check`` op's ``max_rel_deviation`` and ``worst_pair``, and
``# metric <name> = <value> <unit>`` for every metric below.  With
``--workload all`` each workload runs in its own process and the last line
maps workload names to their result objects.

End-to-end metrics (``--trace 0``).  Each op is timed on every
repetition, and a fixed calibration kernel (``calibrate``, ~15 ms) runs
right before it.  On a shared 2-core VM the speed drifted by 30% and more
over minutes as other tenants loaded it; an op's time divided by the
kernel's time next to it cancels most of that drift, so ``BENCHMARK.json``
gates the ``*_cal`` metrics (and ``setup_s``, ``peak_rss_mib``).  The
seconds are printed too.
    setup_s              median of 3 fresh interpreters importing
                         ``logsens.cli`` and writing the configs
    wall_s               one untraced pass: sum of the per-op median times
    run_s / check_s / table1_s
                         the same sum over that command's ops; a metric is
                         absent when the workload lacks the command
    trace_samples_per_s  trace rows written by ``run`` ops / run_s
    wall_cal, run_cal, check_cal, table1_cal, trace_samples_per_cal
                         the same with each op time replaced by the median
                         of (op time / calibration time): unit ``cal``
    cal_s                median calibration time, to convert back
    peak_rss_mib         ru_maxrss of this process (never tracemalloc)
    fail_frac            failed ops / attempted ops

Per-layer metrics (``--trace 1``; per traced pass, median over passes).
``.s`` is total span time, ``.self_s`` span time minus child spans.  Each is
listed with the end-to-end metric it should move and where; a layer a
workload never calls reads 0.  ``BENCHMARK.json`` lists the counts and the
times every workload spends; a time that reads 0 on some workload (the
``table1``/``check`` self times, ``close_loop``, ``bloch_dissipator``,
quadrature, the analytic/oracle split of ``sensan.trace``, ``error_signal``
and ``log_sensitivity``) is printed on the ``# metric`` lines only.

    cli.write_trace_csv.s/.rows/.mib   run_s, trace_samples_per_s on
                                       classical_long, not quantum_dim
    cli.report.s                       run_s everywhere, a little
                                       (``_dump_json`` + atomic write)
    cli.table1_repro.self_s            table1_s on crosscheck
    cli.check_oracles.self_s           check_s on crosscheck
    classical.close_loop.s             control: flat everywhere
    quantum.scenario.s, quantum.bloch_coherent.s/.calls,
    quantum.bloch_dissipator.s         run_s on quantum_dim
    matexp.eig_decompose.calls/.s/.calls_per_system
                                       table1_s on crosscheck, run_s on
                                       quantum_dim (calls per distinct A)
    matexp.couplings.calls, matexp.dderiv_diag.calls/.s
                                       table1_s on crosscheck, run_s on
                                       quantum_dim
    matexp.dderiv_oracle_quadrature.s/.calls
                                       check_s on crosscheck
    matexp.dderiv_oracle_blockaug.s/.calls, matexp.dderiv_oracle_fd.s/.calls
                                       run_s and check_s on crosscheck, the
                                       spot check in run_s on quantum_dim
    matexp.expm.calls/.matrices/.s     check_s and run_s on crosscheck
                                       (``.matrices`` counts stacked batches)
    matexp.quadrature.unconverged      fail_frac (RuntimeWarnings counted)
    sensan.trace.s, sensan.trace.analytic.s, sensan.trace.oracle.s
                                       run_s on quantum_dim / classical_long
                                       (analytic), crosscheck (oracle)
    sensan.trace.samples, sensan.trace.phi_mib (computed as 16 n^2 T),
    sensan.trace.peak_mib (tracemalloc pass), sensan.trace.masked_frac
                                       peak_rss_mib on quantum_dim
    sensan.classify.s                  run_s on quantum_dim
    sensan.detect_spikes.s/.count, sensan.fit.s
                                       run_s on classical_long, a little
    sensan.error_signal.*, sensan.error_derivative.*,
    sensan.log_sensitivity.* (.calls/.s)
                                       table1_s on crosscheck
    trace_overhead_frac                traced / untraced pass time - 1
                                       (per-op medians)
    unattributed_frac                  share of op time outside every
                                       top-level layer span

Exit status is 0 whenever a result line is printed (``correct`` reports
failing ops); it is 2 without a result when ``src/logsens`` is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import logsens.cli, workloads; "
    "workloads.write_configs(workloads.build_ops(sys.argv[3], int(sys.argv[4]),"
    " sys.argv[5] == '1'), sys.argv[6])"
)

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "run_s": "s", "check_s": "s",
    "table1_s": "s", "trace_samples_per_s": "1/s",
    "wall_cal": "cal", "run_cal": "cal", "check_cal": "cal", "table1_cal": "cal",
    "trace_samples_per_cal": "1/cal", "cal_s": "s", "peak_rss_mib": "MiB",
    "fail_frac": "frac",
}
COMMANDS = ("run", "check", "table1")

PER_LAYER_UNITS = {
    "cli.write_trace_csv.s": "s", "cli.write_trace_csv.rows": "count",
    "cli.write_trace_csv.mib": "MiB", "cli.report.s": "s",
    "cli.table1_repro.self_s": "s", "cli.check_oracles.self_s": "s",
    "classical.close_loop.s": "s",
    "quantum.scenario.s": "s", "quantum.bloch_coherent.s": "s",
    "quantum.bloch_coherent.calls": "count", "quantum.bloch_dissipator.s": "s",
    "matexp.eig_decompose.calls": "count", "matexp.eig_decompose.s": "s",
    "matexp.eig_decompose.calls_per_system": "ratio",
    "matexp.couplings.calls": "count",
    "matexp.dderiv_diag.calls": "count", "matexp.dderiv_diag.s": "s",
    "matexp.dderiv_oracle_quadrature.s": "s",
    "matexp.dderiv_oracle_quadrature.calls": "count",
    "matexp.dderiv_oracle_blockaug.s": "s",
    "matexp.dderiv_oracle_blockaug.calls": "count",
    "matexp.dderiv_oracle_fd.s": "s", "matexp.dderiv_oracle_fd.calls": "count",
    "matexp.expm.calls": "count", "matexp.expm.matrices": "count",
    "matexp.expm.s": "s", "matexp.quadrature.unconverged": "count",
    "sensan.trace.s": "s", "sensan.trace.analytic.s": "s",
    "sensan.trace.oracle.s": "s", "sensan.trace.samples": "count",
    "sensan.trace.phi_mib": "MiB", "sensan.trace.peak_mib": "MiB",
    "sensan.trace.masked_frac": "frac",
    "sensan.classify.s": "s", "sensan.detect_spikes.s": "s",
    "sensan.detect_spikes.count": "count", "sensan.fit.s": "s",
    "sensan.error_signal.calls": "count", "sensan.error_signal.s": "s",
    "sensan.error_derivative.calls": "count", "sensan.error_derivative.s": "s",
    "sensan.log_sensitivity.calls": "count", "sensan.log_sensitivity.s": "s",
    "trace_overhead_frac": "frac", "unattributed_frac": "frac",
}

MIB = 2.0 ** 20


# -- environment -----------------------------------------------------------------

def _blas_threads():
    """OpenBLAS thread count from the library numpy loaded, if it is one."""
    import ctypes
    import glob

    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    mem = None
    with contextlib.suppress(OSError):
        with open("/proc/meminfo") as f:
            mem = int(f.readline().split()[1]) / 1024 ** 2
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "mem_total_gib": round(mem, 2) if mem else None,
        "seed": seed, "git_commit": _git_commit(),
    }


# -- operations --------------------------------------------------------------------

def call_cli(cli, argv):
    """(seconds, exit code, stdout, stderr, unconverged-quadrature count)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as e:          # argparse refusals
            rc = e.code if isinstance(e.code, int) else 2
        except Exception as e:           # anything main() does not map
            rc = f"{type(e).__name__}: {e}"
        dt = time.perf_counter() - t0
    unconverged = sum("quadrature tolerance" in str(w.message) for w in caught)
    return dt, rc, out.getvalue(), err.getvalue(), unconverged


class WorkloadRun:
    """One workload's ops, their config paths, verifiers and outcomes."""

    def __init__(self, cli, workloads, name, seed, tiny):
        self.cli = cli
        self.ops = workloads.build_ops(name, seed, tiny)
        self.work = os.path.join(WORK, f"{os.getpid()}-{name}")
        self.paths = workloads.write_configs(self.ops, self.work)
        self.verifiers = [workloads.Verifier(op, seed) for op in self.ops]
        for v in self.verifiers:
            v.reference(cli)
        warm = workloads.build_ops(name, seed, tiny=True)[0]
        self.warmup_argv = warm.argv(*workloads.write_configs(
            [warm], os.path.join(self.work, "warmup"))[0])
        self.attempted = 0
        self.failures = {}                  # op index -> first reason
        self.checks = {}                    # op index -> check facts
        self.facts = {}

    def warmup(self):
        call_cli(self.cli, self.warmup_argv)

    def execute(self, i, rec=None):
        """Run op ``i`` (inside an open span op when ``rec`` is given)."""
        if rec is not None:
            rec.begin(i)
        try:
            dt, rc, out, err, unconv = call_cli(self.cli, self.ops[i].argv(*self.paths[i]))
        finally:
            if rec is not None:
                rec.end()
        if rc != 0 and err.strip():
            rc = f"{rc} ({err.strip().splitlines()[-1]})"
        reasons, facts = self.verifiers[i].verify(rc, out, self.paths[i][1])
        self.attempted += 1
        if reasons:
            self.failures.setdefault(i, "; ".join(reasons))
        if self.ops[i].command == "check" and facts:
            self.checks[i] = facts
        elif facts:
            self.facts[i] = facts
        return dt, unconv, bool(reasons)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK)


def measure_setup(name, seed, tiny, repeats):
    times = []
    for k in range(repeats):
        out = os.path.join(WORK, f"{os.getpid()}-setup{k}")
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, SRC, HERE, name,
                        str(seed), "1" if tiny else "0", out], check=True,
                       timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(out, ignore_errors=True)
    return statistics.median(times)


# -- end to end ----------------------------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed kernel: an interpreter loop plus one numpy pass
    over 300k doubles, like the mix of work in the ops (about 15 ms)."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i
    np.exp(np.linspace(0.0, 1.0, 300_000)).sum()
    return time.perf_counter() - t0


def end_to_end(s: WorkloadRun, seconds, setup_s):
    s.warmup()
    durs, rels = [[] for _ in s.ops], [[] for _ in s.ops]
    cals = []
    failed = 0
    deadline = time.perf_counter() + seconds
    k = 0
    while k < len(s.ops) or time.perf_counter() < deadline:
        i = k % len(s.ops)
        cals.append(calibrate())
        dt, _, bad = s.execute(i)
        durs[i].append(dt)
        rels[i].append(dt / cals[-1])
        failed += bad
        k += 1
    med = [statistics.median(d) for d in durs]
    rel = [statistics.median(r) for r in rels]
    m = {"setup_s": setup_s}
    for cmd in ("wall", *COMMANDS):
        idx = [i for i, op in enumerate(s.ops) if cmd in ("wall", op.command)]
        if idx:
            m[f"{cmd}_s"] = sum(med[i] for i in idx)
            m[f"{cmd}_cal"] = sum(rel[i] for i in idx)
    rows = sum(v.rows for v in s.verifiers)
    m["trace_samples_per_s"] = rows / m["run_s"]
    m["trace_samples_per_cal"] = rows / m["run_cal"]
    m["cal_s"] = statistics.median(cals)
    m["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    m["fail_frac"] = failed / s.attempted
    return {k: (v, END_TO_END_UNITS[k]) for k, v in m.items()}, durs, failed


# -- per layer -------------------------------------------------------------------------

def layer_metrics(spans, op_durs, unconverged):
    """Per-layer metrics of one traced pass (see the module docstring)."""
    from tracing import self_times

    selfs = self_times(spans)
    calls, tot, slf = defaultdict(int), defaultdict(float), defaultdict(float)
    for sp, st in zip(spans, selfs):
        calls[sp.name] += 1
        tot[sp.name] += sp.dur
        slf[sp.name] += st

    def tagged(name):
        return [sp.tag for sp in spans if sp.name == name]

    m = {}
    csv = tagged("cli.write_trace_csv")
    m["cli.write_trace_csv.s"] = tot["cli.write_trace_csv"]
    m["cli.write_trace_csv.rows"] = sum(t["rows"] for t in csv)
    m["cli.write_trace_csv.mib"] = sum(t["bytes"] for t in csv) / MIB
    m["cli.report.s"] = sum(
        sp.dur for sp in spans
        if sp.name in ("cli._dump_json", "cli._atomic_write") and sp.parent >= 0
        and spans[sp.parent].name == "cli.run_scenario")
    m["cli.table1_repro.self_s"] = slf["cli.table1_repro"]
    m["cli.check_oracles.self_s"] = slf["cli.check_oracles"]
    m["classical.close_loop.s"] = tot["classical.close_loop"]
    m["quantum.scenario.s"] = (tot["quantum.two_qubit_scenario"]
                               + tot["quantum.spin_chain_scenario"])
    m["quantum.bloch_coherent.s"] = tot["quantum.bloch_coherent"]
    m["quantum.bloch_coherent.calls"] = calls["quantum.bloch_coherent"]
    m["quantum.bloch_dissipator.s"] = tot["quantum.bloch_dissipator"]
    systems = len(set(tagged("matexp.eig_decompose")))
    m["matexp.eig_decompose.calls"] = calls["matexp.eig_decompose"]
    m["matexp.eig_decompose.s"] = tot["matexp.eig_decompose"]
    m["matexp.eig_decompose.calls_per_system"] = (
        calls["matexp.eig_decompose"] / systems if systems else 0.0)
    m["matexp.couplings.calls"] = calls["matexp.couplings"]
    for fn in ("dderiv_diag", "dderiv_oracle_quadrature",
               "dderiv_oracle_blockaug", "dderiv_oracle_fd", "expm"):
        m[f"matexp.{fn}.calls"] = calls[f"matexp.{fn}"]
        m[f"matexp.{fn}.s"] = tot[f"matexp.{fn}"]
    m["matexp.expm.matrices"] = sum(tagged("matexp.expm"))
    m["matexp.quadrature.unconverged"] = unconverged
    traces = [sp for sp in spans if sp.name == "sensan.trace"]
    samples = sum(sp.tag["samples"] for sp in traces)
    m["sensan.trace.s"] = tot["sensan.trace"]
    m["sensan.trace.analytic.s"] = sum(
        sp.dur for sp in traces if sp.tag["method"] == "analytic")
    m["sensan.trace.oracle.s"] = m["sensan.trace.s"] - m["sensan.trace.analytic.s"]
    m["sensan.trace.samples"] = samples
    m["sensan.trace.phi_mib"] = sum(sp.tag["phi_bytes"] for sp in traces) / MIB
    m["sensan.trace.masked_frac"] = (
        sum(sp.tag["masked"] for sp in traces) / samples if samples else 0.0)
    m["sensan.classify.s"] = tot["sensan.classify"]
    m["sensan.detect_spikes.s"] = tot["sensan.detect_spikes"]
    m["sensan.detect_spikes.count"] = sum(tagged("sensan.detect_spikes"))
    m["sensan.fit.s"] = tot["sensan.fit_slope"] + tot["sensan.fit_polynomial_degree"]
    for fn in ("error_signal", "error_derivative", "log_sensitivity"):
        m[f"sensan.{fn}.calls"] = calls[f"sensan.{fn}"]
        m[f"sensan.{fn}.s"] = tot[f"sensan.{fn}"]
    top = defaultdict(float)
    for sp in spans:
        if sp.parent < 0:
            top[sp.op] += sp.dur
    total = sum(op_durs.values())
    m["unattributed_frac"] = sum(d - top[i] for i, d in op_durs.items()) / total
    return m


def trace_peak_mib(cli, config, method="analytic"):
    """tracemalloc peak of one ``sensan.trace`` call on a config's grid."""
    from logsens import sensan

    cfg = cli.validate_config(dict(config, method=method))
    sys_ = cli.build_system(cfg)[0]
    times = cfg.grid_times()
    tracemalloc.start()
    try:
        sensan.trace(sys_, times, method=cfg.method)
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def memory_pass(s: WorkloadRun):
    """Peak ``sensan.trace`` MiB over the workload's run ops."""
    import workloads

    return max((trace_peak_mib(s.cli, op.config, workloads.method_of(op))
                for op in s.ops if op.command == "run"), default=0.0)


def per_layer(s: WorkloadRun, seconds):
    from tracing import Recorder

    rec = Recorder()
    plain, traced = [[] for _ in s.ops], [[] for _ in s.ops]
    layers = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not layers or time.perf_counter() < deadline:
        s.warmup()
        for i in range(len(s.ops)):
            dt, _, bad = s.execute(i)
            plain[i].append(dt)
            failed += bad
        s.warmup()
        rec.spans.clear()
        rec.install()
        op_durs, unconverged = {}, 0
        try:
            for i in range(len(s.ops)):
                dt, unconv, bad = s.execute(i, rec)
                op_durs[i] = dt
                traced[i].append(dt)
                unconverged += unconv
                failed += bad
        finally:
            rec.uninstall()
        layers.append(layer_metrics(rec.spans, op_durs, unconverged))
    m = {k: statistics.median(p[k] for p in layers) for k in layers[0]}
    m["trace_overhead_frac"] = (sum(map(statistics.median, traced))
                                / sum(map(statistics.median, plain)) - 1)
    m["sensan.trace.peak_mib"] = memory_pass(s)
    return {k: (m[k] if u == "count" else float(m[k]), u)
            for k, u in PER_LAYER_UNITS.items()}, failed


# -- entry point ----------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, tiny=False, setup_repeats=SETUP_REPEATS):
    """Measure one workload; returns the full record (all metrics)."""
    import workloads
    from logsens import cli

    setup_s = None if trace else measure_setup(name, seed, tiny, setup_repeats)
    s = WorkloadRun(cli, workloads, name, seed, tiny)
    try:
        if trace:
            metrics, failed = per_layer(s, seconds)
            durs = None
        else:
            metrics, durs, failed = end_to_end(s, seconds, setup_s)
    finally:
        s.close()
    return {"workload": name, "seed": seed, "trace": trace,
            "env": environment(seed), "ops": [op.name for op in s.ops],
            "op_s": durs, "attempted": s.attempted, "failed": failed,
            "failures": {s.ops[i].name: r for i, r in s.failures.items()},
            "checks": {s.ops[i].name: c for i, c in s.checks.items()},
            "facts": {s.ops[i].name: f for i, f in s.facts.items()},
            "metrics": metrics}


def check_flags(record):
    """``check`` ops whose reported deviation exceeds the flag level."""
    import workloads

    out = {}
    for op, c in record["checks"].items():
        if c["max_rel_deviation"] > workloads.CHECK_FLAG:
            reason = (
                "known defect of check: it scales each pair by the local "
                "|de/dxi|; on an undamped chain de/dxi nears 1e-13 at sampled "
                "times while finite differences carry ~1e-10 noise"
                if "spin_chain" in op else "unexplained")
            out[op] = reason
    return out


def print_record(record):
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    durs = record["op_s"]
    for k, op in enumerate(record["ops"]):
        times = (f"min {min(durs[k]):8.4f} s  median {statistics.median(durs[k]):8.4f} s"
                 f"  n={len(durs[k])}" if durs else "-")
        print(f"# op {op}: {times}  {json.dumps(record['facts'].get(op, {}))}")
    for op, reason in record["failures"].items():
        print(f"# fail {op}: {reason}")
    flags = check_flags(record)
    for op, c in record["checks"].items():
        note = f"  [flagged: {flags[op]}]" if op in flags else ""
        print(f"# check {op}: max_rel_deviation {c['max_rel_deviation']:.3e} "
              f"worst_pair {c['worst_pair']}{note}")
    for name, (value, unit) in record["metrics"].items():
        print(f"# metric {name} = {value!r} {unit}")
    print(f"# failed {record['failed']} / attempted {record['attempted']}")


def result_line(record, wanted):
    """The contract line: only the metrics ``BENCHMARK.json`` names."""
    metrics = {}
    for spec in wanted:
        value, unit = record["metrics"][spec["name"]]
        if unit != spec["unit"]:
            raise ValueError(f"{spec['name']}: unit {unit} != {spec['unit']}")
        metrics[spec["name"]] = {"value": value, "unit": unit}
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "logsens", "cli.py")):
        print(f"error: {SRC}/logsens not found; run from a logsens checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import workloads

    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {list(workloads.WORKLOADS)} or all")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    print(f"# logsens benchmark workload={args.workload} seed={args.seed} "
          f"trace={args.trace} seconds={args.seconds}: "
          f"{workloads.WORKLOADS[args.workload]}", flush=True)
    record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_record(record)
    print(json.dumps(result_line(record, wanted)))
    return 0


def run_all(args, names):
    """Each workload in its own process, so peak_rss_mib is its own."""
    results = {}
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
