"""Config fuzzer: configs of every kind, built from the CLI's own schema and
laced with adversarial numbers, run through ``main``.

Every config ``main`` is given ends one of two ways: a result whose trace
and oracle comparison are finite, or one stderr line with the exit code of
its cause.  Grids have at most 50 rows and chains at most 4 sites, so each
example takes milliseconds.  Config files that are no JSON config at all
(arbitrary bytes, a config cut short, a number nested in up to 1e5 lists)
end in a result or one ``config error:`` line.
"""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import DEFECTIVE_BASES

from logsens.cli import (
    _GRID_KEYS,
    _KIND_DEFAULTS,
    _OUTPUT_DEFAULTS,
    MAX_GRID_ROWS,
    ScenarioConfig,
    main,
)
from logsens.quantum import TWO_QUBIT_PERTURBATIONS
from logsens.sensan import DERIVATIVE_METHODS

# Numbers a field may be replaced by; ``json.dumps`` writes NaN as ``NaN``
# and 10**400 as an integer literal, both of which ``json.load`` reads.
ADVERSARIAL = [0, 0.0, -1.0, -3, 1e300, -1e300, 1e-300, -1e-300, 10 ** 400,
               True, False, math.nan]

# An exactly defective A1 with xi0 = 0, so it is A0: numpy returns its
# eigenvectors exactly parallel.
DEFECTIVE = DEFECTIVE_BASES["exact_block"]["parameters"]

# Outputs go to a fresh directory under names the config may give, so no
# write may fail there.
EXIT1_PREFIXES = ("numerical failure: ", "out of memory: ")
MAX_ROWS = 50


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


def _vec(n, lo, hi):
    return st.lists(_floats(lo, hi), min_size=n, max_size=n)


def _mat(n, lo, hi):
    return st.lists(_vec(n, lo, hi), min_size=n, max_size=n)


@st.composite
def _loop_parameters(draw, kind):
    pair = draw(st.tuples(_floats(-3, -0.1), _floats(0.05, 3)))
    real = _floats(-5, -0.1)
    complex_poles = [[pair[0], pair[1]], [pair[0], -pair[1]]]
    if kind == "spring_mass":
        poles = draw(st.sampled_from([complex_poles, None])) or draw(
            st.lists(real, min_size=2, max_size=2))
    else:
        poles = draw(st.sampled_from([
            complex_poles, complex_poles + [draw(real)], None])) or draw(
            st.lists(real, min_size=3, max_size=3))
    return {"xi0": draw(_floats(0.1, 5)), "poles": poles}


@st.composite
def _two_qubit_parameters(draw):
    rho0 = draw(st.sampled_from(["ground", "excited", "mixed"]))
    if rho0 != "ground":
        diag = [0.0, 0.0, 0.0, 1.0] if rho0 == "excited" else [0.25] * 4
        rho0 = [[diag[i] if i == j else 0.0 for j in range(4)] for i in range(4)]
    return {"perturbation": draw(st.sampled_from(list(TWO_QUBIT_PERTURBATIONS))),
            "alpha": draw(_vec(2, 0.1, 2)), "Delta": draw(_vec(2, -1, 1)),
            "gamma": draw(_vec(2, 0.1, 2)), "rho0": rho0}


@st.composite
def _spin_chain_parameters(draw):
    N = draw(st.integers(2, 4))
    return {"N": N, "lambda": draw(_floats(0.1, 2)),
            "perturbed_coupling": draw(st.integers(1, N - 1)),
            "excitation_site": draw(st.integers(1, N))}


@st.composite
def _custom_parameters(draw):
    case = draw(st.sampled_from(["random", "defective", "xi0_zero", "S_zero"]))
    if case == "defective":
        return DEFECTIVE
    n = draw(st.integers(1, 3))
    A1 = np.array(draw(_mat(n, -3, 3)))
    # shift the spectrum left of the axis, so most draws are stable
    A1 -= (np.max(np.linalg.eigvals(A1).real) + draw(_floats(0.05, 1))) * np.eye(n)
    S = [[0.0] * n] * n if case == "S_zero" else draw(_mat(n, -1, 1))
    xi0 = 0.0 if case == "xi0_zero" else draw(_floats(-2, 2))
    return {"A1": A1.tolist(), "S": S, "c": draw(_vec(n, -2, 2)),
            "v": draw(_vec(n, -2, 2)), "xi0": xi0}


PARAMETERS = {
    "spring_mass": _loop_parameters("spring_mass"),
    "rlc": _loop_parameters("rlc"),
    "two_qubit": _two_qubit_parameters(),
    "spin_chain": _spin_chain_parameters(),
    "custom": _custom_parameters(),
}


@st.composite
def _grid(draw):
    # a far-out grid reaches t ~ 1e299, a tiny one ends below 1e-298; the
    # step need not divide the window
    t_start = draw(st.sampled_from([0.0, 0.5, 3.0]))
    steps = draw(st.integers(1, MAX_ROWS - 1)) + draw(st.sampled_from([0.0, 0.3, 0.6]))
    dt = draw(_floats(0.01, 1.0)) * draw(st.sampled_from([1.0, 1.0, 1e298, 1e-300]))
    if dt < 1e-200:
        t_start = 0.0
    return dict(zip(_GRID_KEYS, (t_start, t_start + steps * dt, dt)))


def _fields(kind):
    """A strategy for each of ``ScenarioConfig``'s fields."""
    return {
        "schema_version": st.just(1),
        "kind": st.just(kind),
        "parameters": PARAMETERS[kind],
        "grid": _grid(),
        "method": st.sampled_from(DERIVATIVE_METHODS),
        "outputs": st.dictionaries(st.sampled_from(list(_OUTPUT_DEFAULTS)),
                                   st.sampled_from(["t.csv", "r.json", "sub/x.csv",
                                                    "sub", "", "."])),
        "seed": st.integers(0, 2 ** 31),
    }


def _numbers(doc, path=()):
    """The path of every number in a config document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return [path] if isinstance(doc, (int, float)) else []
    return [p for key, value in items for p in _numbers(value, (*path, key))]


def _put(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _rows(grid):
    """The rows a grid would have, or None where it is refused anyway."""
    t0, t1, dt = values = [grid.get(key) for key in _GRID_KEYS]
    if not all(type(x) in (int, float) and abs(x) <= 1e308 and math.isfinite(x)
               for x in values):  # bools, NaN and huge ints are refused
        return None
    if dt <= 0 or t0 < 0 or t1 <= t0:
        return None
    rows = (t1 - t0) / dt + 1
    return rows if rows <= MAX_GRID_ROWS else None


@st.composite
def configs(draw, kind):
    """A config of ``kind``: every field of ``ScenarioConfig`` present or
    not (kind and grid always), then up to two numbers replaced by
    ``ADVERSARIAL`` ones."""
    strategies, doc = _fields(kind), {}
    for field in fields(ScenarioConfig):
        if field.name in ("kind", "grid") or draw(st.booleans()):
            doc[field.name] = draw(strategies[field.name])
    doc = json.loads(json.dumps(doc))  # fresh lists, safe to edit
    paths = _numbers(doc)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        _put(doc, draw(st.sampled_from(paths)), draw(st.sampled_from(ADVERSARIAL)))
    rows = _rows(doc["grid"])
    if rows is not None and rows > MAX_ROWS + 1:
        _put(doc, ("grid", "dt"), (doc["grid"]["t_end"] - doc["grid"]["t_start"]) / MAX_ROWS)
    return doc


def _call(argv):
    """(exit code, stdout, stderr) of ``main(argv)``, its warnings recorded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    # a quadrature miss warns by design; nothing else may
    assert all(str(w.message).startswith("quadrature tolerance not reached")
               for w in caught), [str(w.message) for w in caught]
    return rc, out.getvalue(), err.getvalue()


def _check_refusal(rc, err):
    assert rc in (1, 2), rc
    assert err.count("\n") == 1 and err.endswith("\n"), err
    assert err.startswith("config error: " if rc == 2 else EXIT1_PREFIXES), err


def _check_trace(path, report):
    """Every trace value finite, every time within the grid's window (to
    rounding), ``logsens`` empty exactly on masked rows, and no spike where
    ``|s|`` is identically 0: every unmasked ``abs_logsens`` is 0 and some
    row is unmasked, every ``derror`` is 0, or ``xi0`` is 0."""
    with open(path) as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:]]
    assert rows
    config = report["provenance"]["config"]
    t_start, t_end, dt = (config["grid"][key] for key in _GRID_KEYS)
    abs_ls, derror = [], []
    for t, e, ae, de, ls, als, flag in rows:
        assert all(math.isfinite(float(x)) for x in (t, e, ae, de))
        assert t_start <= float(t) <= t_end + 1e-6 * dt + math.ulp(t_end), (t, t_end)
        assert (ls == "") == (als == "") == (flag == "1")
        derror.append(float(de))
        if ls:
            assert math.isfinite(float(ls))
            abs_ls.append(float(als))
    xi0 = config["parameters"].get("xi0", 1.0)
    if (abs_ls and not any(abs_ls)) or not any(derror) or xi0 == 0:
        assert report["empirical"]["detected_spikes"] == []


def _check_pairs(result):
    assert result["max_rel_deviation"] is not None
    assert result["pairs"] and None not in result["pairs"].values()


def _fuzz(doc):
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "cfg.json")
        with open(cfg, "w") as f:
            json.dump(doc, f)
        out_dir = os.path.join(work, "out")
        rc, _, err = _call(["run", cfg, "--out-dir", out_dir])
        if rc == 0:
            outputs = dict(_OUTPUT_DEFAULTS, **doc.get("outputs", {}))
            with open(os.path.join(out_dir, outputs["report_json"])) as f:
                report = json.load(f)
            _check_pairs(report["oracle_check"])
            _check_trace(os.path.join(out_dir, outputs["trace_csv"]), report)
        else:
            _check_refusal(rc, err)
            assert not os.path.exists(out_dir)  # every refusal comes before a write
        rc, stdout, err = _call(["check", cfg, "--samples", "3"])
        if rc == 0:
            _check_pairs(json.loads(stdout))
        else:
            _check_refusal(rc, err)


@pytest.mark.parametrize("kind", list(_KIND_DEFAULTS))
@settings(max_examples=40)
@given(data=st.data())
def test_every_config_ends_in_a_result_or_one_line(kind, data):
    _fuzz(data.draw(configs(kind)))


@st.composite
def raw_files(draw):
    """The bytes of a config file: arbitrary, a config cut short, or a
    config with one number nested in 1 to 1e5 lists, closed or not."""
    case = draw(st.sampled_from(["bytes", "truncated", "nested"]))
    if case == "bytes":
        return draw(st.binary(max_size=100))
    doc = draw(configs(draw(st.sampled_from(list(_KIND_DEFAULTS)))))
    if case == "truncated":
        text = json.dumps(doc)
        return text[:draw(st.integers(0, len(text) - 1))].encode()
    depth = draw(st.sampled_from([1, 30, 999, 100_000]))
    _put(doc, draw(st.sampled_from(_numbers(doc))), "NEST")
    nest = "[" * depth + "0" + ("]" * depth if draw(st.booleans()) else "")
    return json.dumps(doc).replace('"NEST"', nest).encode()


@settings(max_examples=100)
@given(raw=raw_files())
def test_every_raw_file_ends_in_a_result_or_one_line(raw):
    with tempfile.TemporaryDirectory() as work:
        cfg = os.path.join(work, "cfg.json")
        with open(cfg, "wb") as f:
            f.write(raw)
        for argv in (["run", cfg, "--out-dir", os.path.join(work, "out")],
                     ["check", cfg, "--samples", "3"]):
            rc, _, err = _call(argv)
            assert rc in (0, 2), (rc, err)
            if rc == 2:
                assert err.count("\n") == 1 and err.endswith("\n"), err
                assert err.startswith("config error: "), err
            else:
                assert err == "", err
