"""Workload generation and the independent output checks.

Each workload is a list of ``Op``: one ``logsens`` CLI call (``run``,
``check`` or ``table1``) on a generated config.  Only the configs and the
table targets depend on the workload seed; grid lengths and state
dimensions do not, so every seed costs about the same.

The checks never call the package's numerical code.  ``run`` traces are
compared with ``scipy.linalg.expm(A0 t)`` and the block-augmented
exponential; ``table1`` rows with the closed forms of the N=2 and N=3
chains.  The system matrices for the ``run`` references come from
``cli.build_system`` (scenario assembly is not under test here).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

WORKLOADS = {
    "classical_long": "run, analytic method, small-n loops on 1e5-sample "
                      "grids: CSV writing dominates, masked share 0-97%",
    "quantum_dim": "run on spin chains N=4..10 (n=16..100) and two_qubit "
                   "S1-S4: the (n, n, T) trace tensor and memory dominate",
    "crosscheck": "check, oracle-method run and table1: thousands of tiny "
                  "eigendecompositions and expm calls, no long-grid trace",
}

CSV_HEADER = "t,error,abs_error,derror,logsens,abs_logsens,spike_flag"
SPIKE_FLOOR_REL = 1e-12          # the CLI's documented masking rule
TRACE_TOL = 1e-8                 # relative to the column maximum
CHECKED_ROWS = 8                 # seeded rows per trace, plus first and last
TABLE1_TOL = 1e-7
CHECK_FLAG = 1e-4                # check deviations above this are listed
PATHS = ("analytic", "quadrature", "blockaug", "fd")
CHECK_PAIRS = {f"{a}_vs_{b}" for i, a in enumerate(PATHS) for b in PATHS[i + 1:]}
RLC_COMPLEX_POLES = [[-2.0, math.pi / 10], [-2.0, -math.pi / 10]]


@dataclass(frozen=True)
class Op:
    """One CLI call: ``command`` with a config file and extra arguments."""

    name: str
    command: str
    config: dict | None = None
    args: tuple = ()
    pin: str | None = None     # paper number the report must reproduce

    def argv(self, cfg_path: str, out_dir: str) -> list:
        if self.command == "run":
            return ["run", cfg_path, "--out-dir", out_dir, *self.args]
        if self.command == "check":
            return ["check", cfg_path, *self.args]
        return ["table1", "--out-dir", out_dir, *self.args]


def _grid(t_end, dt):
    return {"t_start": 0.0, "t_end": t_end, "dt": dt}


def _cfg_seed(rng):
    return int(rng.integers(0, 2 ** 31))


def _custom_system(rng, n=6, xi0=0.5):
    """Random stable n=6 system with a fixed spectrum.

    The spectrum is fixed and the eigenbasis is a random rotation, so the
    adaptive quadrature of ``check`` costs about the same for every seed.
    """
    B = np.zeros((n, n))
    for k, (re, im) in enumerate(((-0.3, 1.0), (-1.4, 0.6))):
        i = 2 * k
        B[i:i + 2, i:i + 2] = [[re, im], [-im, re]]
    B[4, 4], B[5, 5] = -0.5, -0.9
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    S = 0.2 * rng.standard_normal((n, n))
    A0 = Q @ B @ Q.T
    return {"A1": (A0 - xi0 * S).tolist(), "S": S.tolist(),
            "c": rng.standard_normal(n).tolist(),
            "v": rng.standard_normal(n).tolist(), "xi0": xi0}


def build_ops(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's operations for ``seed``; ``tiny`` shrinks every grid
    and count so that the harness can check itself in seconds."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    if workload == "classical_long":
        scale = 100 if tiny else 5
        lam = math.pi / 5 * (1 + 0.05 * rng.uniform(-1, 1))
        return [
            Op("run spring_mass dt=5e-4", "run",
               {"kind": "spring_mass", "grid": _grid(50.0, 1e-4 * scale),
                "seed": _cfg_seed(rng)}, pin="spring_mass"),
            Op("run rlc real", "run",
               {"kind": "rlc", "grid": _grid(50.0, 1e-4 * scale),
                "seed": _cfg_seed(rng)}, pin="rlc_real"),
            Op("run rlc complex t_end=500", "run",
               {"kind": "rlc", "parameters": {"poles": RLC_COMPLEX_POLES},
                "grid": _grid(500.0, 1e-3 * scale), "seed": _cfg_seed(rng)},
               pin="rlc_complex"),
            Op("run spin_chain N=2 t_end=500", "run",
               {"kind": "spin_chain", "parameters": {"N": 2, "lambda": lam},
                "grid": _grid(500.0, 1e-3 * scale), "seed": _cfg_seed(rng)}),
        ]
    if workload == "quantum_dim":
        ops = []
        for N in ((3, 4) if tiny else (4, 6, 8, 10)):
            params = {"N": N, "perturbed_coupling": int(rng.integers(1, N))}
            ops.append(Op(f"run spin_chain N={N}", "run",
                          {"kind": "spin_chain", "parameters": params,
                           "seed": _cfg_seed(rng)}))
        for pert in ("S1", "S2", "S3", "S4"):
            cfg = {"kind": "two_qubit", "parameters": {"perturbation": pert},
                   "seed": _cfg_seed(rng)}
            if tiny:
                cfg["grid"] = _grid(2000.0, 20.0)
            ops.append(Op(f"run two_qubit {pert}", "run", cfg, pin="two_qubit"))
        return ops
    if workload == "crosscheck":
        samples = ("--samples", "3") if tiny else ()
        n_targets = 5 if tiny else 100
        grid = {"grid": _grid(50.0, 0.1)} if tiny else {}
        ops = [
            Op("check spring_mass", "check", {"kind": "spring_mass"}, samples),
            Op("check rlc complex", "check",
               {"kind": "rlc", "parameters": {"poles": RLC_COMPLEX_POLES}},
               samples),
            Op("check two_qubit", "check", {"kind": "two_qubit"}, samples),
            Op("check spin_chain N=2", "check",
               {"kind": "spin_chain", "parameters": {"N": 2}}, samples),
            Op("check spin_chain N=4", "check",
               {"kind": "spin_chain", "parameters": {
                   "N": 4, "perturbed_coupling": int(rng.integers(1, 4))}},
               samples),
            Op("check custom n=6", "check",
               {"kind": "custom", "parameters": _custom_system(rng)}, samples),
            Op("run --method blockaug rlc", "run",
               {"kind": "rlc", "seed": _cfg_seed(rng), **grid},
               ("--method", "blockaug"), pin="rlc_real"),
            Op("run --method fd spring_mass", "run",
               {"kind": "spring_mass", "seed": _cfg_seed(rng), **grid},
               ("--method", "fd"), pin="spring_mass"),
        ]
        for chain in ("n2", "n3"):
            targets = rng.uniform(0.5, 0.9999, n_targets)
            ops.append(Op(f"table1 --chain {chain}", "table1", None,
                          ("--chain", chain, "--targets",
                           *(repr(float(x)) for x in targets))))
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def write_configs(ops, work_dir: str) -> list:
    """Write each op's config under ``work_dir``; returns (cfg, out) paths."""
    paths = []
    for i, op in enumerate(ops):
        out = os.path.join(work_dir, f"op{i}")
        os.makedirs(out, exist_ok=True)
        cfg = os.path.join(out, "config.json")
        if op.config is not None:
            with open(cfg, "w") as f:
                json.dump(op.config, f)
        paths.append((cfg, out))
    return paths


# -- independent references ---------------------------------------------------

def method_of(op):
    return op.args[op.args.index("--method") + 1] if "--method" in op.args \
        else "analytic"


def _grid_count(cfg):
    t0, t1, dt = cfg.grid
    return int(round((t1 - t0) / dt)) + 1


def _ref_rows(sys_, times):
    """e(t) from expm(A0 t) and de/dxi from the block-augmented expm."""
    n = sys_.n
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = C[n:, n:] = sys_.A0
    C[:n, n:] = sys_.S
    e = [float(sys_.c @ scipy.linalg.expm(sys_.A0 * t) @ sys_.v) for t in times]
    de = [float(sys_.c @ scipy.linalg.expm(C * t)[:n, n:] @ sys_.v) for t in times]
    return np.array(e), np.array(de)


@dataclass
class Verifier:
    """Checks one op's outputs; caches references and verified digests."""

    op: Op
    seed: int
    _ref: dict | None = None
    _good: set = field(default_factory=set)

    def reference(self, cli):
        if self._ref is not None or self.op.command == "check":
            return
        if self.op.command == "table1":
            self._ref = {"rows": _table1_reference(self.op)}
            return
        cfg = dict(self.op.config)
        cfg["method"] = method_of(self.op)
        cfg = cli.validate_config(cfg)
        sys_ = cli.build_system(cfg)[0]
        count = _grid_count(cfg)
        rng = np.random.default_rng([self.seed, count])
        idx = np.unique(np.concatenate([[0, count - 1], rng.integers(
            0, count, CHECKED_ROWS)]))
        times = cfg.grid[0] + cfg.grid[2] * idx
        e, de = _ref_rows(sys_, times)
        self._ref = {"count": count, "idx": idx, "times": times, "e": e,
                     "de": de, "xi0": sys_.xi0}

    @property
    def rows(self) -> int:
        """Trace rows the op writes (``run`` only)."""
        return self._ref["count"] if self.op.command == "run" else 0

    def verify(self, rc, stdout, out_dir) -> tuple[list, dict]:
        """(failure reasons, recorded facts) for one execution."""
        if rc != 0:
            return [f"exit code {rc}"], {}
        try:
            if self.op.command == "check":
                return _verify_check(stdout)
            if self.op.command == "table1":
                return self._cached(os.path.join(
                    out_dir, f"table1_{self.op.args[1]}.csv"),
                    lambda text: _verify_table1(text, self._ref["rows"])), {}
            reasons = self._cached(os.path.join(out_dir, "trace.csv"),
                                   self._verify_csv)
            with open(os.path.join(out_dir, "report.json")) as f:
                report = json.load(f)
            facts = {"kind": report["classification"]["kind"],
                     "oracle_max_rel_deviation":
                         report["oracle_check"]["max_rel_deviation"],
                     "rows": self.rows}
            if f"classification: {facts['kind']}" not in stdout:
                reasons.append("stdout does not name the classification")
            if self.op.pin:
                reasons += PINS[self.op.pin](report, self.op)
            return reasons, facts
        except (OSError, ValueError, KeyError, IndexError, TypeError) as e:
            return [f"malformed output: {type(e).__name__}: {e}"], {}

    def _cached(self, path, check):
        with open(path, "rb") as f:
            data = f.read()
        digest = hashlib.sha256(data).hexdigest()
        if digest in self._good:
            return []
        reasons = check(data.decode())
        if not reasons:
            self._good.add(digest)
        return reasons

    def _verify_csv(self, text) -> list:
        ref = self._ref
        lines = text.split("\n")
        if lines[-1] != "":
            return ["trace CSV lacks a final newline"]
        lines = lines[1:-1] if lines[0] == CSV_HEADER else None
        if lines is None:
            return ["trace CSV header differs"]
        if len(lines) != ref["count"]:
            return [f"trace CSV has {len(lines)} rows, grid has {ref['count']}"]
        err = np.array([ln.split(",", 2)[1] for ln in lines], dtype=float)
        derr = np.array([ln.split(",", 4)[3] for ln in lines], dtype=float)
        emax, dmax = np.max(np.abs(err)), np.max(np.abs(derr))
        reasons = []
        for k, i in enumerate(ref["idx"]):
            t, e, ae, de, ls, als, flag = lines[i].split(",")
            t, e, ae, de = float(t), float(e), float(ae), float(de)
            if abs(t - ref["times"][k]) > 1e-12 * max(1.0, abs(t)):
                reasons.append(f"row {i}: t={t} off grid")
            if abs(e - ref["e"][k]) > TRACE_TOL * emax:
                reasons.append(f"row {i}: error {e!r} vs expm {ref['e'][k]!r}")
            if abs(de - ref["de"][k]) > TRACE_TOL * dmax:
                reasons.append(f"row {i}: derror {de!r} vs blockaug "
                               f"{ref['de'][k]!r}")
            if ae != abs(e):
                reasons.append(f"row {i}: abs_error is not |error|")
            masked = abs(e) <= SPIKE_FLOOR_REL * emax
            if flag != ("1" if masked else "0"):
                reasons.append(f"row {i}: spike_flag {flag} but |e|/max "
                               f"{abs(e) / emax:.3e}")
            elif not masked:
                s = ref["xi0"] * de / e
                if abs(float(ls) - s) > 1e-9 * abs(s) or float(als) != abs(float(ls)):
                    reasons.append(f"row {i}: logsens {ls} vs xi0*de/e {s!r}")
            elif ls or als:
                reasons.append(f"row {i}: masked row carries logsens")
        return reasons


def _verify_check(stdout):
    out = json.loads(stdout)
    dev, pair = out["max_rel_deviation"], out["worst_pair"]
    if not (isinstance(dev, float) and math.isfinite(dev) and dev >= 0):
        return [f"max_rel_deviation {dev!r} is not a finite float"], {}
    if pair not in CHECK_PAIRS and not (pair is None and dev == 0.0):
        return [f"worst_pair {pair!r} is not a derivative-path pair"], {}
    return [], {"max_rel_deviation": dev, "worst_pair": pair}


# -- table1 -------------------------------------------------------------------

def _table1_reference(op):
    """|s| at fidelity f on the approach to the first transfer (t in [0, 5]).

    N=2 (coupling 1): e = (1 + cos th)/2, de/dxi = -t sin th, xi0 = pi/10.
    N=3 (coupling 2): e = 3/4 + x/2 - x^2/4 with x = cos th,
    de/dxi = -sqrt2/4 t sin th + sqrt2/8 t sin 2th, xi0 = sqrt2 pi/10.
    Here th = pi t / 5; solving 1 - e = f gives x = 1 - 2f (N=2) and
    x = 1 - 2 sqrt(f) (N=3).
    """
    chain = op.args[1]
    targets = [float(x) for x in op.args[op.args.index("--targets") + 1:]]
    rows = []
    for f in targets:
        if chain == "n2":
            th = math.acos(1 - 2 * f)
            e = (1 + math.cos(th)) / 2
            de = -(5 * th / math.pi) * math.sin(th)
            xi0 = math.pi / 10
        else:
            th = math.acos(1 - 2 * math.sqrt(f))
            x = math.cos(th)
            e = 0.75 + x / 2 - x * x / 4
            t = 5 * th / math.pi
            de = math.sqrt(2) * t * (-math.sin(th) / 4 + math.sin(2 * th) / 8)
            xi0 = math.sqrt(2) * math.pi / 10
        rows.append((f, abs(xi0 * de / e)))
    return rows


def _verify_table1(text, rows) -> list:
    lines = text.split("\n")
    if lines[0] != "fidelity,abs_logsens" or lines[-1] != "" \
            or len(lines) != len(rows) + 2:
        return ["table1 CSV layout differs"]
    reasons = []
    for (f, s), ln in zip(rows, lines[1:-1]):
        fid, val = ln.split(",")
        if float(fid) != f:
            reasons.append(f"table1 row fidelity {fid} != target {f!r}")
        elif abs(float(val) - s) > TABLE1_TOL * s:
            reasons.append(f"table1 fidelity {f!r}: |s| {val} vs closed form {s!r}")
    return reasons


# -- paper pins ------------------------------------------------------------------

def _within(x, target, rel):
    return x is not None and abs(abs(x) - target) <= rel * target


def _pin_linear(target, rel, fitted=True):
    def check(report, op):
        cls, emp = report["classification"], report["empirical"]
        reasons = []
        if cls["kind"] != "LinearReal":
            return [f"classification {cls['kind']}, paper: LinearReal"]
        if not _within(cls["slope"], target, rel):
            reasons.append(f"predicted |slope| {cls['slope']!r}, paper {target}")
        if fitted and not _within(emp["fitted_slope"], target, rel):
            reasons.append(f"fitted |slope| {emp['fitted_slope']!r}, paper {target}")
        return reasons
    return check


def _pin_two_qubit(report, op):
    pert = op.config["parameters"]["perturbation"]
    target = 0.00344 if pert in ("S1", "S2") else 0.00351
    return _pin_linear(target, 0.02, fitted=False)(report, op)


def _pin_rlc_complex(report, op):
    """Spikes at 10.49 + 10 n s while exp(-2 t) stays a normal double.

    Past t ~ 345 the error underflows and the detected minima are noise, so
    the schedule is only checked before that.
    """
    cls = report["classification"]
    if cls["kind"] != "PeriodicComplex":
        return [f"classification {cls['kind']}, paper: PeriodicComplex"]
    reasons = []
    if abs(cls["t0"] - 10.49) > 0.05 or abs(cls["period"] - 10.0) > 0.01:
        reasons.append(f"t0 {cls['t0']!r} / period {cls['period']!r}, "
                       "paper 10.49 / 10")
    t_end = min(op.config["grid"]["t_end"], math.log(1e300) / 2)
    spikes = [s for s in report["empirical"]["detected_spikes"]
              if 5.0 <= s <= t_end]
    expect = [10.49 + 10 * k for k in range(int((t_end - 10.49) // 10) + 1)]
    if len(spikes) != len(expect) or any(
            abs(s - x) > 0.05 for s, x in zip(spikes, expect)):
        reasons.append(f"{len(spikes)} spikes in [5, {t_end:.0f}] s do not "
                       f"match 10.49 + 10n ({len(expect)} expected)")
    return reasons


PINS = {
    "spring_mass": _pin_linear(4.0 / 3.0, 0.01),
    "rlc_real": _pin_linear(1.58, 0.01),
    "rlc_complex": _pin_rlc_complex,
    "two_qubit": _pin_two_qubit,
}
