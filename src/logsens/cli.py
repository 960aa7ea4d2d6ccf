"""Scenario runner: JSON config in, CSV trace and JSON analysis report out.

Subcommands
-----------
``run <config>``    build the scenario, sample the trace, classify, validate
                    the prediction empirically, write trace CSV + report JSON
``check <config>``  cross-validate the four derivative paths on sample times
``table1``          fidelity vs |log-sensitivity| table for the N=2 / N=3
                    perfect-transfer chains

Exit codes: 0 success (including Inconclusive classifications), 1 numerical
failure (a non-finite trace value or any overflow included), out of memory or
an output that cannot be written (each with one line on stderr), 2 config
error (so are a usage error, a non-finite number or a bool where a number
belongs, a config a scenario builder refuses, a grid over ``MAX_GRID_ROWS``
samples or with merging times, a chain over ``MAX_CHAIN_SITES`` sites, output
names that are empty, end in a separator, name one file twice or one inside
the other, a non-finite ``table1 --targets`` value).
Output locations honor ``LOGSENS_OUT_DIR`` when no explicit out-dir is
given.  For a fixed config the outputs are byte-identical across runs on
one numpy/BLAS build and BLAS thread count: no timestamps, sorted
report keys, shortest round-trip floats.
The trace CSV is formatted column-wise in fixed-size blocks of rows, each
written as it is made, so the writer's memory does not grow with the grid.
A trace of ``_CSV_POOL_ROWS`` rows (32 blocks) or more is cut into one
contiguous run of blocks per usable CPU: this process formats the first
while a forked child formats each other run into a temp file.  Then, in row
order, it copies the part of each child that exited 0 and formats any other
run itself, so the bytes depend on neither the CPU count nor a child's fate.
Outputs get the mode a plain ``open()`` would give them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import signal
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import __version__
from .classical import RLC_LAMBDA3_DEFAULT, close_loop, rlc_scenario, spring_mass_scenario
from .matexp import couplings
from .quantum import TWO_QUBIT_PERTURBATIONS, spin_chain_scenario, two_qubit_scenario
from .sensan import (
    DERIVATIVE_METHODS,
    ErrorSystem,
    _modal,
    classify,
    detect_spikes,
    fit_polynomial_degree,
    fit_slope,
    spike_schedule,
    trace,
)

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "validate_config",
    "run_scenario",
    "check_oracles",
    "table1_repro",
    "main",
]

SCHEMA_VERSION = 1

# Row budget: the most samples a grid (or ``check --samples``) may ask for.
# A trace holds O(rows) memory, so a larger grid, or one whose row count is
# not finite, is refused as a config error before anything is allocated.
MAX_GRID_ROWS = 10 ** 7

# Smallest step, in ulp(t_end), of a grid (or ``check --samples``) reaching
# below its end's binade.  Times ``t0 + fl(k h)`` (``np.linspace`` too) sit
# within 2e-9 h of ``t0 + k h`` under the row budget, where doubles are at
# most 2 ulp(t_end) apart, so 3 ulp never rounds two into one.  Inside one
# binade 1 ulp does: every time is a multiple of it, and a tie needs 1e7 rows.
MIN_STEP_ULPS = 3

# Largest spin chain: N^2 Bloch dimensions, so time grows like N^6 and memory
# like N^4; at 24 sites a default ``run`` takes ~6 s, ``check`` ~30 s / 0.5 GiB.
MAX_CHAIN_SITES = 24

# Documented grid step for the discretization-dependent fidelity-1.0 rows of
# the chain trade-off table; |s| diverges at exact transfer, so those rows
# are order-of-magnitude only.
TABLE1_ARTIFACT_DT = 2e-4

TABLE1_DEFAULT_TARGETS = {
    "n2": (1.0, 0.9999, 0.99899, 0.98999, 0.90001),
    "n3": (1.0, 0.9999, 0.99899, 0.98996, 0.90008),
}

# A config's grid fields, in the order ``ScenarioConfig.grid`` holds them
# and the config reads them, and its output names with their defaults.
_GRID_KEYS = ("t_start", "t_end", "dt")
_OUTPUT_DEFAULTS = {"trace_csv": "trace.csv", "report_json": "report.json"}


class ConfigError(Exception):
    """Invalid configuration; ``path`` locates the offending field."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str
    parameters: dict
    grid: tuple  # in _GRID_KEYS order
    method: str
    outputs: dict
    seed: int
    schema_version: int = SCHEMA_VERSION

    def grid_times(self) -> np.ndarray:
        t0, t1, dt = self.grid
        n = math.floor((t1 - t0) / dt + 1e-6)  # none past t1; the ratio errs < 1e-8
        return t0 + dt * np.arange(n + 1)

    def echo(self) -> dict:
        return dict(asdict(self), grid=dict(zip(_GRID_KEYS, self.grid)))


# -- config validation --------------------------------------------------------

# Each kind's default grid (t_start, t_end, dt) and fit window, in the order
# the ``kind`` refusal lists the kinds.
_KIND_DEFAULTS = {
    "spring_mass": ((0.0, 50.0, 0.01), (10.0, 50.0)),
    "rlc": ((0.0, 50.0, 0.01), (10.0, 50.0)),
    "two_qubit": ((0.0, 2000.0, 1.0), (500.0, 2000.0)),
    "spin_chain": ((0.0, 50.0, 0.01), (10.0, 50.0)),
    "custom": ((0.0, 50.0, 0.01), (10.0, 50.0)),
}

# The step-tracking loops, closed by pole placement: each kind's plant
# builder, default xi0 and what xi0 is, default poles and the pole counts
# accepted (rlc fills a missing third pole with ``RLC_LAMBDA3_DEFAULT``).
_LOOPS = {
    "spring_mass": (spring_mass_scenario, 4.0, "spring constant",
                    [-2.0, -5.0], (2,)),
    "rlc": (rlc_scenario, 0.5, "inverse inductance", [-1.0, -2.0, -4.0], (2, 3)),
}


def _want(raw, path, types, default=None, required=False):
    if raw is None:
        if required:
            raise ConfigError(path, "required field missing")
        return default
    if isinstance(raw, bool) or not isinstance(raw, types):  # no field is a bool
        names = getattr(types, "__name__", None) or "/".join(
            t.__name__ for t in types)
        raise ConfigError(path, f"expected {names}, got {type(raw).__name__}")
    return raw


def _number(raw, path, default=None, types=(int, float)):
    """Every number a config holds is read here, ``default`` when absent
    (required if None): refuses non-numbers, bools, and NaN, +-Infinity or
    integers past the float range (``json.load`` reads them), naming the field."""
    if isinstance(raw, float) and not math.isfinite(raw):
        raise ConfigError(path, f"must be a finite number, got {raw!r}")
    if isinstance(raw, int) and abs(raw) > sys.float_info.max:
        raise ConfigError(path, "must be a finite number, got an integer past "
                                "the float range")
    return _want(raw, path, types, default, required=default is None)


def _reject_unknown(d, allowed, path):
    for key in d:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}" if path else key, "unknown key")


def _pole_value(entry, path):
    if isinstance(entry, list) and len(entry) == 2:
        return complex(*(_number(x, f"{path}[{i}]") for i, x in enumerate(entry)))
    if isinstance(entry, (int, float)):
        return complex(_number(entry, path))
    raise ConfigError(path, "pole must be a number or [re, im] pair")


def _matrix(raw, path, rows=None, cols=None):
    if not (isinstance(raw, list) and raw
            and all(isinstance(r, list) for r in raw)):
        raise ConfigError(path, "expected a list of rows")
    m = np.array([_vector(r, f"{path}[{i}]", len(raw[0])) for i, r in enumerate(raw)])
    if rows is not None and len(m) != rows:
        raise ConfigError(path, f"expected {rows} rows, got {len(m)}")
    if cols is not None and m.shape[1] != cols:
        raise ConfigError(path, f"expected {cols} columns, got {m.shape[1]}")
    return m


def _vector(raw, path, size=None):
    if not isinstance(raw, list):
        raise ConfigError(path, "expected a list of numbers")
    v = np.array([_number(x, f"{path}[{i}]") for i, x in enumerate(raw)], dtype=float)
    if size is not None and len(v) != size:
        raise ConfigError(path, f"expected length {size}, got {len(v)}")
    return v


def _window(raw, path, default):
    if raw is None:
        return list(default)
    w = _vector(raw, path, size=2)
    if w[0] >= w[1]:
        raise ConfigError(path, "window must be increasing")
    return [float(w[0]), float(w[1])]


def _validate_parameters(kind, raw):
    p = dict(raw or {})
    out = {}
    if kind in _LOOPS:
        _, xi0, xi0_name, poles, counts = _LOOPS[kind]
        _reject_unknown(p, {"xi0", "poles", "fit_window"}, "parameters")
        out["xi0"] = float(_number(p.get("xi0"), "parameters.xi0", xi0))
        if out["xi0"] <= 0:
            raise ConfigError("parameters.xi0", f"{xi0_name} must be positive")
        poles = p.get("poles", poles)
        if not isinstance(poles, list) or len(poles) not in counts:
            raise ConfigError("parameters.poles",
                              f"expected {' or '.join(map(str, counts))} poles")
        vals = [_pole_value(x, f"parameters.poles[{i}]")
                for i, x in enumerate(poles)]
        if kind == "rlc" and len(vals) == 2:
            vals.append(complex(RLC_LAMBDA3_DEFAULT))
        out["poles"] = [_complex_to_json(v) for v in vals]
    elif kind == "two_qubit":
        _reject_unknown(p, {"perturbation", "alpha", "Delta", "gamma", "rho0",
                            "fit_window"}, "parameters")
        pert = _want(p.get("perturbation"), "parameters.perturbation", str, "S1")
        if pert not in TWO_QUBIT_PERTURBATIONS:
            raise ConfigError("parameters.perturbation",
                              f"must be one of {', '.join(TWO_QUBIT_PERTURBATIONS)}")
        out["perturbation"] = pert
        out["alpha"] = _vector(p.get("alpha", [1.0, 1.0]), "parameters.alpha", 2).tolist()
        out["Delta"] = _vector(p.get("Delta", [-0.1, 0.1]), "parameters.Delta", 2).tolist()
        out["gamma"] = _vector(p.get("gamma", [1.0, 1.0]), "parameters.gamma", 2).tolist()
        rho0 = p.get("rho0", "ground")
        out["rho0"] = rho0 if rho0 == "ground" else _matrix(
            rho0, "parameters.rho0", rows=4, cols=4).tolist()
    elif kind == "spin_chain":
        _reject_unknown(p, {"N", "lambda", "perturbed_coupling",
                            "excitation_site", "fit_window"}, "parameters")
        N = _number(p.get("N"), "parameters.N", 2, int)
        if N < 2:
            raise ConfigError("parameters.N", "chain needs at least 2 sites")
        if N > MAX_CHAIN_SITES:
            raise ConfigError("parameters.N", f"{N} sites exceed the chain bound "
                                              f"MAX_CHAIN_SITES = {MAX_CHAIN_SITES}")
        out["N"] = N
        out["lambda"] = float(_number(p.get("lambda"), "parameters.lambda", np.pi / 5))
        if out["lambda"] <= 0:
            raise ConfigError("parameters.lambda", "must be positive")
        pc = _number(p.get("perturbed_coupling"), "parameters.perturbed_coupling", 1, int)
        if not 1 <= pc <= N - 1:
            raise ConfigError("parameters.perturbed_coupling",
                              f"must be in 1..{N - 1}")
        out["perturbed_coupling"] = pc
        site = _number(p.get("excitation_site"), "parameters.excitation_site", 1, int)
        if not 1 <= site <= N:
            raise ConfigError("parameters.excitation_site", f"must be in 1..{N}")
        out["excitation_site"] = site
    elif kind == "custom":
        _reject_unknown(p, {"A1", "c", "S", "v", "xi0", "fit_window"}, "parameters")
        A1 = _matrix(_want(p.get("A1"), "parameters.A1", list, required=True),
                     "parameters.A1")
        n = A1.shape[0]
        if A1.shape[1] != n:
            raise ConfigError("parameters.A1", "must be square")
        S = _matrix(_want(p.get("S"), "parameters.S", list, required=True),
                    "parameters.S", rows=n, cols=n)
        c = _vector(_want(p.get("c"), "parameters.c", list, required=True),
                    "parameters.c", size=n)
        v = _vector(_want(p.get("v"), "parameters.v", list, required=True),
                    "parameters.v", size=n)
        out.update(A1=A1.tolist(), S=S.tolist(), c=c.tolist(), v=v.tolist())
        out["xi0"] = float(_number(p.get("xi0"), "parameters.xi0", 1.0))
    out["fit_window"] = _window(p.get("fit_window"), "parameters.fit_window",
                                _KIND_DEFAULTS[kind][1])
    return out


def validate_config(raw) -> ScenarioConfig:
    """Validate a raw JSON document, filling and echoing all defaults."""
    cfg = _read_config(raw)
    t_start, t_end, dt = cfg.grid
    if dt <= 0:
        raise ConfigError("grid.dt", "must be positive")
    rows = (t_end - t_start) / dt + 1
    if not rows <= MAX_GRID_ROWS:  # also refuses inf and nan
        raise ConfigError("grid", f"{rows:.3g} rows exceed the row budget "
                                  f"MAX_GRID_ROWS = {MAX_GRID_ROWS:.0e}")
    _refuse_merging_step("grid.dt", dt, t_start, t_end)
    return cfg


def _read_config(raw) -> ScenarioConfig:
    """``validate_config`` short of the grid step, which ``check`` never reads."""
    if not isinstance(raw, dict):
        raise ConfigError("", "config must be a JSON object")
    _reject_unknown(raw, {f.name for f in fields(ScenarioConfig)}, "")
    ver = _number(raw.get("schema_version"), "schema_version", SCHEMA_VERSION, int)
    if ver != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"unsupported version {ver}")
    kind = _want(raw.get("kind"), "kind", str, required=True)
    if kind not in _KIND_DEFAULTS:
        raise ConfigError("kind", f"must be one of {tuple(_KIND_DEFAULTS)}")
    params = _validate_parameters(kind, _want(raw.get("parameters"),
                                              "parameters", dict, {}))
    g = _want(raw.get("grid"), "grid", dict, {})
    _reject_unknown(g, _GRID_KEYS, "grid")
    grid = tuple(float(_number(g.get(key), f"grid.{key}", default))
                 for key, default in zip(_GRID_KEYS, _KIND_DEFAULTS[kind][0]))
    t_start, t_end, _ = grid
    if t_start < 0 or t_end <= t_start:
        raise ConfigError("grid", "need t_end > t_start >= 0")
    method = _want(raw.get("method"), "method", str, "analytic")
    if method not in DERIVATIVE_METHODS:
        raise ConfigError("method", f"must be one of {DERIVATIVE_METHODS}")
    outputs = _want(raw.get("outputs"), "outputs", dict, {})
    _reject_unknown(outputs, _OUTPUT_DEFAULTS, "outputs")
    outputs = {key: _want(outputs.get(key), f"outputs.{key}", str, default)
               for key, default in _OUTPUT_DEFAULTS.items()}
    for key, name in outputs.items():
        if os.path.basename(name) in ("", ".", ".."):
            raise ConfigError(f"outputs.{key}", f"{name!r} does not name a file")
    trace_csv, report_json = (os.path.normpath(name) + os.sep for name in outputs.values())
    if trace_csv.startswith(report_json) or report_json.startswith(trace_csv):
        raise ConfigError("outputs.report_json", "names the same file as "
                          "outputs.trace_csv, or one lies inside the other")
    seed = _number(raw.get("seed"), "seed", 0, int)
    if seed < 0:
        raise ConfigError("seed", f"must be non-negative, got {seed}")
    return ScenarioConfig(kind=kind, parameters=params, grid=grid, method=method,
                          outputs=outputs, seed=seed)


def _refuse_merging_step(path, step, t_start, t_end):
    """Refuse a grid step too small for its times to strictly increase."""
    ulps = 1 if np.spacing(t_start) == np.spacing(t_end) else MIN_STEP_ULPS
    if step < ulps * np.spacing(t_end):
        raise ConfigError(path, f"step {step!r} is below {ulps} ulp of the grid's "
                                f"end {t_end!r}, so its times cannot strictly increase")


# -- scenario assembly ---------------------------------------------------------

def _complex_to_json(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def build_system(cfg: ScenarioConfig):
    """Instantiate the configured scenario.

    Returns (ErrorSystem, coupling_vec, notes): ``coupling_vec`` is the vector
    the modal couplings are built from (A0^{-1} b for tracking loops, the
    initial Bloch vector for free response).  A ``ValueError`` of a builder
    (poles, ``rho0``, steady state, stability) is a ``ConfigError``.
    """
    p = cfg.parameters
    notes = {}
    try:
        if cfg.kind in _LOOPS:
            poles = [_pole_value(x, f"parameters.poles[{i}]")
                     for i, x in enumerate(p["poles"])]
            loop, sys = close_loop(_LOOPS[cfg.kind][0](p["xi0"]), poles)
            if cfg.kind == "rlc" and any(abs(z.imag) > 0 for z in poles):
                # the real pole beside the complex pair
                notes["rlc_lambda3"] = min(poles, key=lambda z: abs(z.imag)).real
            return sys, loop.beta, notes
        if cfg.kind == "two_qubit":
            rho0 = None if p["rho0"] == "ground" else np.asarray(p["rho0"], dtype=complex)
            model, sys = two_qubit_scenario(alpha=p["alpha"], Delta=p["Delta"],
                                            gamma=p["gamma"],
                                            perturbation=p["perturbation"], rho0=rho0)
            notes["steady_state_purity"] = float(model.r_ss @ model.r_ss)
            return sys, sys.v, notes
        if cfg.kind == "spin_chain":
            model, sys = spin_chain_scenario(p["N"], lam=p["lambda"],
                                             perturbed_coupling=p["perturbed_coupling"],
                                             excitation_site=p["excitation_site"])
            return sys, sys.v, notes
        A1 = np.asarray(p["A1"], dtype=float)
        S = np.asarray(p["S"], dtype=float)
        sys = ErrorSystem(A0=A1 + p["xi0"] * S, S=S, c=np.asarray(p["c"]),
                          v=np.asarray(p["v"]), xi0=p["xi0"])
        return sys, sys.v, notes
    except np.linalg.LinAlgError:  # a ValueError too, but the solver's
        raise
    except ValueError as e:
        raise ConfigError("parameters", str(e)) from e


# -- serialization -------------------------------------------------------------

def _json_value(x):
    """Recursively coerce report values into JSON types: numpy scalars and
    arrays to Python ones, complex to {"re", "im"}, non-finite floats to null."""
    if isinstance(x, dict):
        return {str(k): _json_value(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        x = x.tolist()
    if isinstance(x, (list, tuple)):
        return [_json_value(v) for v in x]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (complex, np.complexfloating)):
        z = complex(x)
        return {"re": _json_value(z.real), "im": _json_value(z.imag)}
    if isinstance(x, (float, np.floating)):
        return float(x) if math.isfinite(x) else None
    return x


def _dumps(doc) -> str:
    """Deterministic JSON of a coerced document: sorted keys, shortest
    round-trip floats."""
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)


def _umask():
    """The process umask, read by setting it and back."""
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _atomic_write(path, pieces):
    """Write byte pieces to ``path`` as they come, through a temp file that
    replaces it only once complete: a failure leaves the old file as it was."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    f = tempfile.NamedTemporaryFile(dir=d, suffix=".tmp", delete=False)
    try:
        with f:
            os.chmod(f.name, 0o666 & ~_umask())  # its 0600 -> open()'s mode
            f.writelines(pieces)
        os.replace(f.name, path)
    except BaseException:
        os.unlink(f.name)
        raise


_CSV_BLOCK = 1024  # rows formatted and written at a time
_CSV_POOL_ROWS = 32 * _CSV_BLOCK  # shortest trace split among forked processes
_CSV_MAX_WORKERS = 8  # each fork copies the parent's page tables


def _csv_block(tr, lo):
    """CSV lines, as bytes, of rows ``lo`` to ``lo + _CSV_BLOCK`` of a trace."""
    rows = slice(lo, lo + _CSV_BLOCK)
    masked = tr.spike_mask[rows].tolist()
    e = list(map(repr, tr.error[rows].tolist()))
    ls = ["" if m else repr(x)
          for m, x in zip(masked, tr.logsens[rows].tolist())]
    # repr(abs(x)) == repr(x).lstrip("-") for every double, -0.0/nan too
    ae, als = ([s.lstrip("-") for s in col] for col in (e, ls))
    cols = (map(repr, tr.times[rows].tolist()), e, ae,
            map(repr, tr.derror[rows].tolist()), ls, als,
            ["1" if m else "0" for m in masked])
    return ("\n".join(map(",".join, zip(*cols))) + "\n").encode()


def _csv_workers(rows):
    """Processes to format a trace of ``rows`` rows: one per usable CPU, at
    most ``_CSV_MAX_WORKERS``; 1 (this process alone) below
    ``_CSV_POOL_ROWS`` rows or where the usable CPUs are unknown."""
    if rows < _CSV_POOL_ROWS or not hasattr(os, "sched_getaffinity"):
        return 1
    return min(len(os.sched_getaffinity(0)), _CSV_MAX_WORKERS)


def _format_part(tr, run, part):
    """In a forked child: write the CSV of the blocks starting at ``run`` to
    the binary file ``part`` and leave by ``os._exit``, with status 0 once
    all of it is written and 1 otherwise."""
    status = 1
    try:
        for lo in run:
            part.write(_csv_block(tr, lo))
        part.flush()
        status = 0
    finally:
        os._exit(status)


def _csv_blocks(tr, d):
    """The trace CSV's header, then its rows in order, as bytes.

    The block starts are cut into ``_csv_workers`` contiguous runs.  One
    child is forked per run after the first, before any formatting, to write
    its run to an unnamed temp file in directory ``d``.  This process walks
    the runs in order, copying a child's part if that child exited 0 and
    formatting the run itself otherwise, so every error raised is its own.
    Every child is killed and reaped when the generator finishes, fails or
    is closed.  A forked child runs only ``_csv_block``, which takes no lock
    another thread may hold at the fork.
    """
    yield b"t,error,abs_error,derror,logsens,abs_logsens,spike_flag\n"
    starts = range(0, len(tr), _CSV_BLOCK)
    k = _csv_workers(len(tr))
    runs = [starts[len(starts) * i // k:len(starts) * (i + 1) // k] for i in range(k)]
    children = []  # (pid, part) of each child not yet reaped, in run order
    with contextlib.ExitStack() as parts:
        try:
            for run in runs[1:]:
                part = parts.enter_context(tempfile.TemporaryFile(dir=d))
                pid = os.fork()
                if pid == 0:
                    _format_part(tr, run, part)
                children.append((pid, part))
            for i, run in enumerate(runs):
                if i:  # reap run i's child; copy its part if it exited 0
                    pid, part = children[0]
                    status = os.waitpid(pid, 0)[1]
                    del children[0]
                    if status == 0:
                        part.seek(0)
                        # 1 MiB at a time, none held here while the next is read
                        yield from iter(lambda: part.read(1 << 20), b"")
                        continue
                for lo in run:  # this process's own run, or a failed child's
                    yield _csv_block(tr, lo)
        finally:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def write_trace_csv(path, tr):
    """Trace CSV: shortest round-trip floats, empty logsens on masked rows,
    formatted column-wise and streamed to disk in blocks of rows.  Any
    process it forks has ended when it returns or raises."""
    with contextlib.closing(_csv_blocks(tr, os.path.dirname(os.path.abspath(path)))) as blocks:
        _atomic_write(path, blocks)


def _config_hash(cfg: ScenarioConfig) -> str:
    canon = json.dumps(cfg.echo(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


# -- analysis ------------------------------------------------------------------

# Smallest scale of a path comparison: below it a deviation is an absolute one.
_SCALE_FLOOR = 1e-12


def _largest(vals: dict) -> float:
    """The largest |de/dxi| any path (``{method: values at the sample
    times}``) returns at any of the times."""
    return max(float(np.max(np.abs(v), initial=0.0)) for v in vals.values())


def _path_deviations(vals: dict) -> dict:
    """Each pair's largest |de/dxi| difference of the paths (``{method:
    values at the sample times}``), over their ``_largest`` value, floored
    at ``_SCALE_FLOOR`` (a per-time scale blows up where de/dxi nears zero,
    1e-13 on undamped chains)."""
    methods = list(vals)
    scale = max(_largest(vals), _SCALE_FLOOR)
    return {f"{a}_vs_{b}": float(np.max(np.abs(vals[a] - vals[b]) / scale, initial=0.0))
            for i, a in enumerate(methods) for b in methods[i + 1:]}


def _finite(tr, what):
    """``tr``, or an ``ArithmeticError`` naming ``what`` when its e or de/dxi
    holds a non-finite value: an overflow in the trace, which the spike
    mask would hide (a max |e| of inf masks every sample)."""
    for name, x in (("e", tr.error), ("de/dxi", tr.derror)):
        bad = len(x) - np.count_nonzero(np.isfinite(x))
        if bad:
            raise ArithmeticError(f"{what}: {bad} of {len(x)} {name} values "
                                  "are not finite")
    return tr


def _compare_paths(sys_: ErrorSystem, ts, methods, keep=None) -> dict:
    """Compare the first ``keep`` (default all) applicable paths of
    ``methods`` by one ``trace`` each over the sorted times ``ts``, each
    refused unless finite (``_finite``).  Returns the paths compared
    (``methods``), each pair's ``_path_deviations`` (``pairs``), their
    largest (``max_rel_deviation``), any path left out and why (``skipped``:
    the spectrum's ``analytic_refusal``), and ``scale_floored: true`` where
    every value is below ``_SCALE_FLOOR``, so the deviations are absolute."""
    why = sys_.spectrum().analytic_refusal
    out = {"skipped": {"analytic": why}} if why else {}
    used = tuple(m for m in methods if m not in out.get("skipped", ()))[:keep]
    vals = {m: _finite(trace(sys_, ts, method=m), f"oracle check: {m} trace").derror
            for m in used}
    pairs = _path_deviations(vals)
    if _largest(vals) < _SCALE_FLOOR:
        out["scale_floored"] = True
    for pair, dev in pairs.items():
        if not math.isfinite(dev):
            raise ArithmeticError(f"oracle check: {pair} deviation is {dev!r}")
    return dict(out, methods=used, pairs=pairs, max_rel_deviation=max(pairs.values()))


def _oracle_spot_check(sys_: ErrorSystem, cfg: ScenarioConfig) -> dict:
    """de/dxi of two paths at five seeded uniform draws from [t_start, t_end]
    (not grid points; repeats dropped): analytic vs blockaug, or blockaug vs fd
    on a near-defective spectrum, the only place fd comes in, since stepped
    over five distinct steps it costs far more than blockaug."""
    t0, t1, _ = cfg.grid
    ts = np.unique(np.random.default_rng(cfg.seed).uniform(t0, t1, 5))
    out = _compare_paths(sys_, ts, ("analytic", "blockaug", "fd"), keep=2)
    return dict(out, sample_times=ts)


def run_scenario(cfg: ScenarioConfig, out_dir: str = ".") -> dict:
    """Run one configured scenario, write its trace and report files, and
    return the report as the plain dict written to ``report.json``."""
    sys_, coupling_vec, notes = build_system(cfg)
    times = cfg.grid_times()
    tr = _finite(trace(sys_, times, method=cfg.method), f"{cfg.method} trace")
    spec = sys_.spectrum()
    coup = couplings(spec, sys_.S, sys_.c, coupling_vec)
    cls = classify(spec, coup, sys_.xi0)

    window = tuple(cfg.parameters["fit_window"])
    # s = xi0 (de/dxi) / e is identically zero: no spikes, masked rows or not
    spikes = detect_spikes(tr) if sys_.xi0 and np.any(tr.derror) else np.array([])
    empirical = {"fitted_slope": None, "detected_spikes": spikes,
                 "fitted_degree": None}
    deviations = {}
    if cls.kind in ("LinearReal", "LinearRepeatedReal"):
        try:
            fitted = fit_slope(tr, window)
            empirical["fitted_slope"] = fitted
            if cls.slope:
                deviations["slope_rel_dev"] = (
                    abs(abs(fitted) - abs(cls.slope)) / abs(cls.slope))
        except ValueError as e:
            empirical["fit_error"] = str(e)
    if cls.kind == "PolynomialJordan":
        try:
            empirical["fitted_degree"] = fit_polynomial_degree(tr, window)
            deviations["degree_delta"] = empirical["fitted_degree"] - cls.degree
        except ValueError as e:
            empirical["fit_error"] = str(e)
    if cls.kind == "PeriodicComplex" and len(spikes) > 0:
        sched = spike_schedule(cls, max(len(spikes) + 2, 8))
        deltas = [s - sched[int(np.argmin(np.abs(sched - s)))] for s in spikes
                  if s >= cls.t0 - 0.25 * cls.period]
        deviations["spike_deltas"] = deltas
        if deltas:
            deviations["spike_max_abs_delta"] = np.max(np.abs(deltas))

    report = _json_value({
        "classification": asdict(cls),
        "empirical": empirical,
        "deviations": deviations,
        "oracle_check": _oracle_spot_check(sys_, cfg),
        "provenance": {
            "config_hash": _config_hash(cfg),
            "tool_version": __version__,
            "config": cfg.echo(),
            "notes": notes,
        },
    })
    write_trace_csv(os.path.join(out_dir, cfg.outputs["trace_csv"]), tr)
    _atomic_write(os.path.join(out_dir, cfg.outputs["report_json"]),
                  [(_dumps(report) + "\n").encode()])
    return report


def check_oracles(cfg: ScenarioConfig, t_samples: int = 20) -> dict:
    """Pairwise relative deviations of the derivative paths on ``t_samples``
    evenly spaced times: each pair's maximum, and the largest of them.  Each
    path is one ``trace`` over those times."""
    sys_, _, _ = build_system(cfg)
    t0, t1, _ = cfg.grid
    out = _compare_paths(sys_, np.linspace(t0, t1, t_samples), DERIVATIVE_METHODS)
    del out["methods"]
    pairs = out["pairs"]
    out["worst_pair"] = max(pairs, key=pairs.get) if out["max_rel_deviation"] > 0 else None
    return out


# -- chain trade-off table -----------------------------------------------------

def _chain_for_table(chain: str):
    """The N = 2 or 3 chain of ``chain``, its last coupling perturbed."""
    if chain not in TABLE1_DEFAULT_TARGETS:
        raise ValueError(f"chain must be {' or '.join(map(repr, TABLE1_DEFAULT_TARGETS))}")
    N = int(chain[1])
    return spin_chain_scenario(N, perturbed_coupling=N - 1)[1]


def table1_repro(chain: str, fidelity_targets=None) -> list:
    """Fidelity vs |s| rows at the approach to the first transfer maximum.

    Finite targets are solved by bisection of 1 - e(t) = target on [0, 5]
    (fidelity is monotone there) to 1e-12 in t, all targets at once: each
    bisection level evaluates e at every unconverged midpoint in one call.
    A target of exactly 1.0 is a grid artifact: |s| diverges at perfect
    transfer, so the value is sampled one documented grid step (2e-4)
    before t = 5 and flagged.
    """
    sys_ = _chain_for_table(chain)
    spec = sys_.spectrum()
    if fidelity_targets is None:
        fidelity_targets = TABLE1_DEFAULT_TARGETS[chain]
    T = 5.0
    rows = [{"fidelity": float(target), "abs_logsens": None, "t": None,
             "flag": "unreachable"} for target in fidelity_targets]
    solve = []
    for row in rows:
        if row["fidelity"] == 1.0:
            row.update(t=T - TABLE1_ARTIFACT_DT, flag="grid_artifact")
        elif 0.0 < row["fidelity"] < 1.0:
            solve.append(row)
    target = np.array([row["fidelity"] for row in solve])
    e0, eT = _modal(sys_, spec, np.array([0.0, T]))[0]
    reach = ((1.0 - e0) - target <= 0) & ((1.0 - eT) - target >= 0)
    solve, target = [r for r, ok in zip(solve, reach) if ok], target[reach]
    lo, hi, live = np.zeros(len(solve)), np.full(len(solve), T), np.arange(len(solve))
    while len(live):
        mid = 0.5 * (lo[live] + hi[live])
        below = (1.0 - _modal(sys_, spec, mid)[0]) - target[live] < 0
        lo[live[below]] = mid[below]
        hi[live[~below]] = mid[~below]
        live = live[hi[live] - lo[live] > 1e-12]
    for row, t_star in zip(solve, (0.5 * (lo + hi)).tolist()):
        row.update(t=t_star, flag="")
    for row in rows:  # |log_sensitivity|: a one-sample trace's xi0 * de / e
        if row["t"] is not None:
            (e,), (de,) = _modal(sys_, spec, np.array([row["t"]]))
            row["abs_logsens"] = abs(float(sys_.xi0 * de / e))
    return rows


def write_table1_csv(path, rows):
    lines = ["fidelity,abs_logsens\n"]
    for r in rows:
        val = "" if r["abs_logsens"] is None else repr(float(r["abs_logsens"]))
        lines.append(f'{r["fidelity"]!r},{val}\n')
    _atomic_write(path, ["".join(lines).encode()])


# -- entry point ---------------------------------------------------------------

def _load_config(path, grid_override=None, method_override=None, read=validate_config):
    try:
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(path, f"cannot read config: {e}")
    except (ValueError, RecursionError) as e:  # not UTF-8, a 4301-digit int, deep nesting
        raise ConfigError(path, f"invalid JSON: {e}")
    if not isinstance(raw, dict):
        raise ConfigError(path, "config must be a JSON object")
    if grid_override:
        try:
            raw["grid"] = dict(zip(_GRID_KEYS, map(float, grid_override.split(":")),
                                   strict=True))
        except ValueError:
            raise ConfigError("--grid", "expected start:end:step")
    if method_override:
        raw["method"] = method_override
    return read(raw)


def _default_out_dir(explicit):
    return explicit or os.environ.get("LOGSENS_OUT_DIR", ".")


class _Parser(argparse.ArgumentParser):
    """Usage errors are ``ConfigError``s: one line, exit 2 (``-h`` exits 0)."""

    def error(self, message):
        raise ConfigError(self.prog, message)


@np.errstate(over="raise", invalid="raise")  # one FloatingPointError, not warnings
def main(argv=None) -> int:
    parser = _Parser(
        prog="logsens",
        description="Time-domain log-sensitivity analysis of error signals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=None)
    p_run.add_argument("--grid", default=None, metavar="START:END:STEP")
    p_run.add_argument("--method", default=None, choices=DERIVATIVE_METHODS)

    p_check = sub.add_parser("check", help="cross-validate derivative paths")
    p_check.add_argument("config")
    p_check.add_argument("--samples", type=int, default=20)
    p_check.add_argument("--grid", default=None, metavar="START:END:STEP")

    p_tab = sub.add_parser("table1", help="chain fidelity/log-sensitivity table")
    p_tab.add_argument("--chain", required=True, choices=tuple(TABLE1_DEFAULT_TARGETS))
    p_tab.add_argument("--targets", type=float, nargs="*", default=None)
    p_tab.add_argument("--out-dir", default=None)

    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            cfg = _load_config(args.config, args.grid, args.method)
            report = run_scenario(cfg, _default_out_dir(args.out_dir))
            kind = report["classification"]["kind"]
            print(f"classification: {kind}")
            if kind == "Inconclusive":
                print(f"diagnostic: {report['classification']['diagnostic']}")
            print(f"outputs: {', '.join(cfg.outputs.values())}")
            return 0
        if args.command == "check":
            if not 1 <= args.samples <= MAX_GRID_ROWS:
                raise ConfigError("--samples", f"need 1 to the row budget "
                                  f"MAX_GRID_ROWS = {MAX_GRID_ROWS:.0e}, got {args.samples}")
            cfg = _load_config(args.config, args.grid, read=_read_config)
            t0, t1, _ = cfg.grid
            if args.samples > 1:
                _refuse_merging_step("--samples", (t1 - t0) / (args.samples - 1), t0, t1)
            print(_dumps(_json_value(check_oracles(cfg, args.samples))))
            return 0
        if args.command == "table1":
            bad = [x for x in args.targets or () if not math.isfinite(x)]
            if bad:
                raise ConfigError("--targets", f"a fidelity must be finite, got {bad[0]!r}")
            rows = table1_repro(args.chain, args.targets)
            out = os.path.join(_default_out_dir(args.out_dir),
                               f"table1_{args.chain}.csv")
            write_table1_csv(out, rows)
            for r in rows:
                flag = f"  [{r['flag']}]" if r["flag"] else ""
                val = "unreachable" if r["abs_logsens"] is None \
                    else f"{r['abs_logsens']:.4f}"
                print(f"fidelity {r['fidelity']}: |s| = {val}{flag}")
            print(f"wrote {out}")
            return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (ArithmeticError, ValueError) as e:  # LinAlgError is a ValueError
        print(f"numerical failure: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"out of memory: {str(e) or 'an allocation failed'}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"cannot write output: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
