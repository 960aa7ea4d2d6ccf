"""Tests for config validation, scenario runs, file outputs and exit codes."""

import copy
import errno
import json
import math
import os
import re
import signal
import stat
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from conftest import make_jordan_system, peak_mib
from hypothesis import given, settings
from hypothesis import strategies as st

import logsens.cli as cli
from logsens.cli import (
    _CSV_BLOCK,
    TABLE1_DEFAULT_TARGETS,
    ConfigError,
    _atomic_write,
    _dumps,
    _json_value,
    _path_deviations,
    build_system,
    check_oracles,
    main,
    run_scenario,
    table1_repro,
    validate_config,
    write_trace_csv,
)
from logsens.sensan import DERIVATIVE_METHODS, SensitivityTrace, trace


class TestValidateConfig:
    def test_minimal_spring_mass_defaults(self):
        cfg = validate_config({"kind": "spring_mass"})
        assert cfg.parameters["poles"] == [-2.0, -5.0]
        assert cfg.parameters["xi0"] == 4.0
        assert cfg.grid == (0.0, 50.0, 0.01)
        assert cfg.method == "analytic"
        assert cfg.outputs["trace_csv"] == "trace.csv"
        echoed = cfg.echo()
        assert echoed["schema_version"] == 1
        assert echoed["parameters"]["xi0"] == 4.0

    @pytest.mark.parametrize("raw", [[], None, "spring_mass"], ids=["list", "null", "str"])
    def test_non_object_rejected(self, raw):
        # a top-level refusal has no field path to name
        with pytest.raises(ConfigError, match="^config must be a JSON object$") as e:
            validate_config(raw)
        assert e.value.path == ""

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigError, match="grid.dt"):
            validate_config({"kind": "spring_mass", "grid": {"dt": 0.0}})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            validate_config({"kind": "spring_mass", "frobnicate": 1})
        with pytest.raises(ConfigError, match="parameters.mass"):
            validate_config({"kind": "spring_mass", "parameters": {"mass": 1}})

    def test_custom_dimension_mismatch_path(self):
        raw = {
            "kind": "custom",
            "parameters": {
                "A1": [[0, 1, 0], [0, 0, 1], [-1, -2, -3]],
                "c": [1, 0],
                "S": [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
                "v": [1, 0, 0],
            },
        }
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.path == "parameters.c"

    def test_rlc_pair_gets_default_third_pole(self):
        cfg = validate_config({
            "kind": "rlc",
            "parameters": {"poles": [[-2.0, 0.31], [-2.0, -0.31]]},
        })
        assert len(cfg.parameters["poles"]) == 3
        assert cfg.parameters["poles"][2] == -5.3

    def test_bad_method(self):
        with pytest.raises(ConfigError, match="method"):
            validate_config({"kind": "spring_mass", "method": "magic"})

    def test_unsupported_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            validate_config({"kind": "spring_mass", "schema_version": 2})

    @pytest.mark.parametrize("kind, params, path, message", [
        ("spring_mass", {"xi0": 0}, "parameters.xi0",
         "spring constant must be positive"),
        ("spring_mass", {"xi0": -4.0}, "parameters.xi0",
         "spring constant must be positive"),
        ("spring_mass", {"xi0": "4"}, "parameters.xi0", "expected int/float, got str"),
        ("rlc", {"xi0": 0.0}, "parameters.xi0", "inverse inductance must be positive"),
        ("rlc", {"xi0": -1}, "parameters.xi0", "inverse inductance must be positive"),
        ("rlc", {"xi0": "0.5"}, "parameters.xi0", "expected int/float, got str"),
        ("spring_mass", {"poles": [-2.0]}, "parameters.poles", "expected 2 poles"),
        ("spring_mass", {"poles": [-1.0, -2.0, -4.0]}, "parameters.poles",
         "expected 2 poles"),
        ("spring_mass", {"poles": -2.0}, "parameters.poles", "expected 2 poles"),
        ("rlc", {"poles": [-1.0]}, "parameters.poles", "expected 2 or 3 poles"),
        ("rlc", {"poles": [-1.0, -2.0, -3.0, -4.0]}, "parameters.poles",
         "expected 2 or 3 poles"),
        ("rlc", {"poles": {"re": -1.0}}, "parameters.poles", "expected 2 or 3 poles"),
        ("spring_mass", {"poles": [-2.0, [-5.0, 0.0, 1.0]]}, "parameters.poles[1]",
         "pole must be a number or [re, im] pair"),
        ("rlc", {"poles": [[-2.0, 0.3, 0.0], [-2.0, -0.3]]}, "parameters.poles[0]",
         "pole must be a number or [re, im] pair"),
        ("rlc", {"poles": [-1.0, "-2"]}, "parameters.poles[1]",
         "pole must be a number or [re, im] pair"),
        ("spring_mass", {"mass": 1.0}, "parameters.mass", "unknown key"),
        ("rlc", {"resistance": 1.0}, "parameters.resistance", "unknown key"),
    ])
    def test_loop_refusals(self, kind, params, path, message):
        with pytest.raises(ConfigError) as exc:
            validate_config({"kind": kind, "parameters": params})
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    def test_unknown_kind_lists_kinds(self):
        with pytest.raises(ConfigError) as exc:
            validate_config({"kind": "pendulum"})
        assert str(exc.value) == ("kind: must be one of ('spring_mass', 'rlc', "
                                  "'two_qubit', 'spin_chain', 'custom')")

    CUSTOM = {"A1": [[-1.0]], "S": [[1.0]], "c": [1.0], "v": [1.0]}
    GRID = {"t_start": 0.0, "t_end": 50.0, "dt": 0.01}

    # the config hashes are the ones every report so far has carried
    @pytest.mark.parametrize("raw, parameters, grid, config_hash", [
        ({"kind": "spring_mass"},
         {"xi0": 4.0, "poles": [-2.0, -5.0], "fit_window": [10.0, 50.0]}, GRID,
         "c59a2df2e1a6f8baa5e32f0ec3c8e66cfee85cad2857cd8d8175f46b1df1e4fe"),
        ({"kind": "rlc"},
         {"xi0": 0.5, "poles": [-1.0, -2.0, -4.0], "fit_window": [10.0, 50.0]}, GRID,
         "5a9461f8d61b84319c7b85f00a429789200a461d924f3edb207f563686aa5277"),
        ({"kind": "rlc", "parameters": {"poles": [-1, [-2.0, 0.5]]}},
         {"xi0": 0.5, "poles": [-1.0, [-2.0, 0.5], -5.3], "fit_window": [10.0, 50.0]},
         GRID, "02b0cefd3122ce4dc605514613178912fb613ac830eea5eb4755a2fa32959503"),
        ({"kind": "two_qubit"},
         {"perturbation": "S1", "alpha": [1.0, 1.0], "Delta": [-0.1, 0.1],
          "gamma": [1.0, 1.0], "rho0": "ground", "fit_window": [500.0, 2000.0]},
         {"t_start": 0.0, "t_end": 2000.0, "dt": 1.0},
         "c97360ef34ad062e676474ef3cfcc53c7ab308c7ccd021998ccfa60e4cfa7dbe"),
        ({"kind": "spin_chain"},
         {"N": 2, "lambda": 0.6283185307179586, "perturbed_coupling": 1,
          "excitation_site": 1, "fit_window": [10.0, 50.0]}, GRID,
         "f5d3aded056d7125a6c7bf6420ea92eb981afefd20dd3985c6b27634f9d997a8"),
        ({"kind": "custom", "parameters": {"A1": [[-1]], "S": [[1]], "c": [1], "v": [1]}},
         {"A1": [[-1.0]], "S": [[1.0]], "c": [1.0], "v": [1.0], "xi0": 1.0,
          "fit_window": [10.0, 50.0]}, GRID,
         "0e14f7822ed23cb5dd075ec026f65d7d88d5f10ee9c8df07ce993bb332439937"),
    ], ids=["spring_mass", "rlc", "rlc_pair", "two_qubit", "spin_chain", "custom"])
    def test_echoed_defaults(self, raw, parameters, grid, config_hash):
        cfg = validate_config(raw)
        echoed = cfg.echo()
        assert echoed == {"schema_version": 1, "kind": raw["kind"],
                          "parameters": parameters, "grid": grid,
                          "method": "analytic",
                          "outputs": {"trace_csv": "trace.csv",
                                      "report_json": "report.json"},
                          "seed": 0}
        # floats stay floats: 4 and 4.0 give different config hashes
        assert json.dumps(echoed["parameters"]) == json.dumps(parameters)
        assert cli._config_hash(cfg) == config_hash


class TestRunScenario:
    def test_spring_mass_report(self, tmp_path):
        cfg = validate_config({"kind": "spring_mass"})
        report = run_scenario(cfg, str(tmp_path))
        cls = report["classification"]
        assert cls["kind"] == "LinearReal"
        assert abs(cls["slope"]) == pytest.approx(4.0 / 3.0, abs=1e-9)
        fitted = report["empirical"]["fitted_slope"]
        assert abs(fitted) == pytest.approx(4.0 / 3.0, rel=0.01)
        assert report["deviations"]["slope_rel_dev"] < 0.01
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "report.json").exists()

    def test_report_keys(self, tmp_path):
        cfg = validate_config({"kind": "spin_chain",
                               "grid": {"t_end": 30.0}})
        run_scenario(cfg, str(tmp_path))
        with open(tmp_path / "report.json") as f:
            doc = json.load(f)
        assert sorted(doc) == ["classification", "deviations", "empirical",
                               "oracle_check", "provenance"]
        assert doc["provenance"]["tool_version"]
        assert doc["provenance"]["config"]["kind"] == "spin_chain"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = validate_config({"kind": "spring_mass",
                               "grid": {"t_end": 20.0}})
        d1, d2 = tmp_path / "a", tmp_path / "b"
        run_scenario(cfg, str(d1))
        run_scenario(cfg, str(d2))
        for name in ("trace.csv", "report.json"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_csv_format_and_finiteness(self, tmp_path):
        cfg = validate_config({"kind": "spin_chain",
                               "grid": {"t_end": 30.0}})
        run_scenario(cfg, str(tmp_path))
        lines = (tmp_path / "trace.csv").read_text().split("\n")
        assert lines[0] == "t,error,abs_error,derror,logsens,abs_logsens,spike_flag"
        assert lines[-1] == ""  # trailing newline
        flagged = 0
        for line in lines[1:-1]:
            cells = line.split(",")
            assert len(cells) == 7
            assert "nan" not in line and "inf" not in line
            if cells[6] == "1":
                flagged += 1
                assert cells[4] == "" and cells[5] == ""
            else:
                float(cells[4])
        assert flagged >= 1  # transfer times mask the error zeros

    def test_csv_round_trip_floats(self, tmp_path):
        cfg = validate_config({"kind": "spring_mass", "grid": {"t_end": 5.0}})
        run_scenario(cfg, str(tmp_path))
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")[1:]
        t, e = [], []
        for row in rows:
            cells = row.split(",")
            t.append(float(cells[0]))
            e.append(float(cells[1]))
        from logsens.classical import close_loop, spring_mass_scenario
        from logsens.sensan import trace as mk_trace
        _, sys_ = close_loop(spring_mass_scenario(4.0), [-2.0, -5.0])
        tr = mk_trace(sys_, cfg.grid_times())
        np.testing.assert_array_equal(np.array(t), tr.times)
        np.testing.assert_array_equal(np.array(e), tr.error)

    def test_two_qubit_fitted_slope(self, tmp_path):
        cfg = validate_config({"kind": "two_qubit",
                               "parameters": {"perturbation": "S1"}})
        report = run_scenario(cfg, str(tmp_path))
        assert abs(report["empirical"]["fitted_slope"]) == pytest.approx(
            0.00344, rel=0.02)

    def test_inconclusive_still_writes(self, tmp_path):
        # incommensurate dominant pairs: classification is Inconclusive
        w2 = float(np.sqrt(2.0))
        A0 = np.array([[-0.5, 1.0, 0.0, 0.0], [-1.0, -0.5, 0.0, 0.0],
                       [0.0, 0.0, -0.5, w2], [0.0, 0.0, -w2, -0.5]])
        S = [[0.0, 1.0, 0.0, 0.3], [1.0, 0.0, 0.2, 0.0],
             [0.0, 0.2, 0.0, 1.0], [0.3, 0.0, 1.0, 0.0]]
        raw = {
            "kind": "custom",
            "parameters": {
                "A1": (A0 - S).tolist(),  # A0 = A1 + xi0 S
                "S": S,
                "c": [1.0, 0.2, 0.5, 0.1],
                "v": [1.0, 0.5, 1.0, 0.2],
                "xi0": 1.0,
            },
            "grid": {"t_end": 20.0},
        }
        cfg = validate_config(raw)
        report = run_scenario(cfg, str(tmp_path))
        assert report["classification"]["kind"] == "Inconclusive"
        assert "incommensurate" in report["classification"]["diagnostic"]
        assert (tmp_path / "report.json").exists()


class TestReportJson:
    def test_non_finite_null_and_complex_pairs(self):
        doc = _json_value({
            "nan": float("nan"), "inf": np.inf, "ninf": np.float64(-np.inf),
            "z": np.complex128(1.5 - 2j), "zi": complex(np.inf, 1.0),
            "arr": np.array([0.25, np.nan]), "n": np.int64(3),
            "flag": np.bool_(True), "modes": (1, 2), 7: "key",
        })
        assert json.loads(_dumps(doc)) == {
            "nan": None, "inf": None, "ninf": None,
            "z": {"re": 1.5, "im": -2.0}, "zi": {"re": None, "im": 1.0},
            "arr": [0.25, None], "n": 3, "flag": True, "modes": [1, 2],
            "7": "key",
        }

    def test_shortest_round_trip_floats(self):
        assert _dumps(_json_value({"x": np.float64(0.1)})) == '{\n  "x": 0.1\n}'

    def test_file_parses_to_returned_dict(self, tmp_path):
        # a periodic report carries spike deltas next to the classification
        cfg = validate_config({"kind": "spring_mass", "grid": {"t_end": 20.0},
                               "parameters": {"poles": [[-0.5, 1.0],
                                                        [-0.5, -1.0]]}})
        report = run_scenario(cfg, str(tmp_path))
        assert report["classification"]["kind"] == "PeriodicComplex"
        assert report["deviations"]["spike_deltas"]
        with open(tmp_path / "report.json") as f:
            assert json.load(f) == report


NEAR_DEFECTIVE = {
    "kind": "custom",
    "parameters": {"A1": [[-1.0, 1.0], [0.0, -1.0]],
                   "S": [[0.0, 0.0], [1.0, 0.0]],
                   "c": [1.0, 0.0], "v": [0.0, 1.0], "xi0": 0.0},
    "grid": {"t_end": 10.0, "dt": 0.1},
}


def reference_csv(tr) -> bytes:
    """The row-at-a-time formatter that the block writer replaced."""
    lines = ["t,error,abs_error,derror,logsens,abs_logsens,spike_flag"]
    for i in range(len(tr)):
        t, e, de = float(tr.times[i]), float(tr.error[i]), float(tr.derror[i])
        if tr.spike_mask[i]:
            ls = als = ""
            flag = 1
        else:
            ls = repr(float(tr.logsens[i]))
            als = repr(abs(float(tr.logsens[i])))
            flag = 0
        lines.append(f"{t!r},{e!r},{abs(e)!r},{de!r},{ls},{als},{flag}")
    return ("\n".join(lines) + "\n").encode()


# Doubles whose shortest repr is awkward: signed zeros, subnormals, both
# sides of repr's switches to exponent form (1e-4/1e-5 and 1e16), inf, nan.
AWKWARD = np.array([
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1.5e-310,
    1e-4, np.nextafter(1e-4, 0), -1e-5, np.nextafter(-1e-5, -1),
    1e16, np.nextafter(1e16, 0), -1e16, 1.2345678901234567e300,
    -0.1, 1 / 3, np.inf, -np.inf, np.nan,
])


def awkward_trace(rows, seed=0):
    """Synthetic trace cycling through AWKWARD with negative logsens and
    masked rows on both sides of every block boundary."""
    rng = np.random.default_rng(seed)
    pick = lambda: AWKWARD[rng.integers(0, len(AWKWARD), rows)]
    mask = rng.random(rows) < 0.3
    for edge in range(_CSV_BLOCK, rows, _CSV_BLOCK):
        mask[edge - 2:edge + 2] = True
    logsens = np.where(mask, np.nan, -np.abs(pick()) * rng.choice([1, -1], rows))
    return SensitivityTrace(np.arange(rows) * 1e-3, pick(), pick(), logsens,
                            mask)


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child forked while the test runs."""
    forked, fork = [], os.fork

    def spy():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return forked


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def usable_cpus(monkeypatch, k):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))


class TestTraceCsvWriter:
    """The block writer reproduces the row formatter's bytes, whether this
    process alone or it and forked children format the blocks, and keeps
    its memory to a block of rows."""

    @pytest.mark.parametrize("rows", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK,
                                      _CSV_BLOCK + 1])
    def test_bytes_match_row_formatter(self, rows, tmp_path):
        cfg = validate_config({"kind": "spin_chain"})
        tr = trace(build_system(cfg)[0], 0.01 * np.arange(rows))
        assert rows < 1000 or tr.spike_mask.any()
        write_trace_csv(tmp_path / "trace.csv", tr)
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(tr)

    def test_awkward_values_match_row_formatter(self, tmp_path):
        tr = awkward_trace(2 * _CSV_BLOCK + 5)
        write_trace_csv(tmp_path / "trace.csv", tr)
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(tr)

    @pytest.mark.parametrize("blocks", [31, 32, 33])
    def test_pool_from_32_blocks(self, blocks, forks, tmp_path, monkeypatch):
        # three runs: 10, 11 and 11 blocks at 32, none forked at 31
        usable_cpus(monkeypatch, 3)
        tr = awkward_trace(blocks * _CSV_BLOCK)
        write_trace_csv(tmp_path / "trace.csv", tr)
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(tr)
        assert len(forks) == (0 if blocks < 32 else 2)
        assert_no_children()

    def test_awkward_values_across_pool_blocks(self, forks, tmp_path, monkeypatch):
        # masked rows on both sides of each of the 39 block boundaries
        usable_cpus(monkeypatch, 2)
        tr = awkward_trace(39 * _CSV_BLOCK + 5, seed=1)
        write_trace_csv(tmp_path / "trace.csv", tr)
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(tr)
        assert len(forks) == 1

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4, 8])
    def test_bytes_independent_of_cpus(self, cpus, forks, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, cpus)
        cfg = validate_config({"kind": "spin_chain", "grid": {"dt": 1e-3}})
        tr = trace(build_system(cfg)[0], cfg.grid_times())
        assert tr.spike_mask.any() and not tr.spike_mask.all()
        write_trace_csv(tmp_path / "trace.csv", tr)
        assert (tmp_path / "trace.csv").read_bytes() == reference_csv(tr)
        assert len(forks) == cpus - 1
        assert_no_children()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_closed_stream_leaves_no_child(self, cpus, forks, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, cpus)
        blocks = cli._csv_blocks(awkward_trace(40 * _CSV_BLOCK), str(tmp_path))
        next(blocks)  # the header, before any fork
        assert forks == []
        next(blocks)  # this process's first block, after every fork
        assert len(forks) == cpus - 1
        blocks.close()
        assert_no_children()
        assert list(tmp_path.iterdir()) == []

    def test_memory_does_not_grow_with_rows(self, forks, tmp_path, monkeypatch):
        # the row-at-a-time writer peaked at 45 MiB here, this one at 0.4 MiB
        # alone and 1.0 MiB with a child (one 1 MiB piece of its part)
        tr = awkward_trace(200_000)
        for cpus in (1, 2):
            usable_cpus(monkeypatch, cpus)
            assert peak_mib(lambda: write_trace_csv(tmp_path / "trace.csv", tr)) < 16
        assert len(forks) == 1

    def test_failed_stream_keeps_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"previous\n")

        def blocks():
            yield b"t,error\n"
            yield b"0.0,1.0\n" * 100_000  # past the buffer, onto disk
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            _atomic_write(str(path), blocks())
        assert path.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_chmod_failure_closes_and_removes_temp_file(self, tmp_path, monkeypatch):
        fds = []
        open_ = os.open

        def recording_open(*args, **kwargs):
            fds.append(open_(*args, **kwargs))
            return fds[-1]

        def failing_chmod(*args, **kwargs):
            raise OSError("no chmod")

        monkeypatch.setattr(os, "open", recording_open)
        monkeypatch.setattr(os, "chmod", failing_chmod)
        with pytest.raises(OSError, match="no chmod"):
            _atomic_write(str(tmp_path / "x.csv"), [b"a\n"])
        monkeypatch.undo()
        assert len(fds) == 1
        with pytest.raises(OSError):
            os.fstat(fds[0])
        assert list(tmp_path.iterdir()) == []


class TestWorkerProcesses:
    """A forked child only saves time: the run of a child that did not exit
    0 is formatted here, with the same bytes.  No child outlives a write, and
    a failure here or in the file keeps the previous file and leaves no
    temp file."""

    # 50001 rows: 49 blocks, blocks 24 to 48 in the child's run
    LONG = {"kind": "spring_mass", "grid": {"t_end": 50.0, "dt": 1e-3}}

    @pytest.fixture
    def out(self, tmp_path, monkeypatch):
        usable_cpus(monkeypatch, 2)
        (tmp_path / "cfg.json").write_text(json.dumps(self.LONG))
        (tmp_path / "trace.csv").write_bytes(b"previous\n")
        return tmp_path

    def run_long(self, out):
        return main(["run", str(out / "cfg.json"), "--out-dir", str(out)])

    def fail_at_block_40(self, monkeypatch, fail, child_only):
        """Make ``fail()`` at block 40, in the child only or wherever that
        block is formatted; return the numbers of the blocks this process formats."""
        parent, block, formatted = os.getpid(), cli._csv_block, []

        def failing(tr, lo):
            here = os.getpid() == parent
            if here:
                formatted.append(lo // _CSV_BLOCK)
            if lo == 40 * _CSV_BLOCK and not (here and child_only):
                fail()
            return block(tr, lo)

        monkeypatch.setattr(cli, "_csv_block", failing)
        return formatted

    @staticmethod
    def exhausted():
        raise MemoryError("Unable to allocate 8.00 GiB for an array")

    def unfailed_bytes(self):
        cfg = validate_config(self.LONG)
        return reference_csv(trace(build_system(cfg)[0], cfg.grid_times()))

    def test_none_after_write(self, out, forks, capsys):
        assert self.run_long(out) == 0
        assert_no_children()
        assert len(forks) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "cfg.json", "report.json", "trace.csv"]

    def test_failed_writelines(self, out, forks, monkeypatch):
        named = tempfile.NamedTemporaryFile

        class FullDisk:
            def __init__(self, f):
                self.f, self.name = f, f.name

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def writelines(self, pieces):
                for i, piece in enumerate(pieces):
                    if i == 3:
                        raise OSError(errno.ENOSPC, "No space left on device")
                    self.f.write(piece)

        monkeypatch.setattr(tempfile, "NamedTemporaryFile",
                            lambda *a, **k: FullDisk(named(*a, **k)))
        with pytest.raises(OSError, match="No space") as failed:
            write_trace_csv(str(out / "trace.csv"), awkward_trace(40 * _CSV_BLOCK))
        # the traceback, which holds the block stream, is still alive here
        assert failed.value.errno == errno.ENOSPC
        assert_no_children()
        assert len(forks) == 1
        assert (out / "trace.csv").read_bytes() == b"previous\n"
        assert sorted(p.name for p in out.iterdir()) == ["cfg.json", "trace.csv"]

    @pytest.mark.parametrize("fail", ["killed", "out_of_memory"])
    def test_failed_child_run_formatted_here(self, fail, out, forks, monkeypatch,
                                             capsys):
        formatted = self.fail_at_block_40(monkeypatch, {
            "killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
            "out_of_memory": self.exhausted}[fail], child_only=True)
        assert self.run_long(out) == 0
        assert capsys.readouterr().err == ""
        assert formatted == list(range(49))  # the child's run too
        assert (out / "trace.csv").read_bytes() == self.unfailed_bytes()
        assert_no_children()
        assert len(forks) == 1
        assert sorted(p.name for p in out.iterdir()) == [
            "cfg.json", "report.json", "trace.csv"]

    def test_out_of_memory_wherever_formatted_is_1(self, out, forks, monkeypatch,
                                                   capsys):
        formatted = self.fail_at_block_40(monkeypatch, self.exhausted, child_only=False)
        assert self.run_long(out) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("out of memory: Unable")
        assert formatted == list(range(41))  # the child failed, then this process
        assert_no_children()
        assert len(forks) == 1
        assert (out / "trace.csv").read_bytes() == b"previous\n"
        assert sorted(p.name for p in out.iterdir()) == ["cfg.json", "trace.csv"]


class TestOutputFiles:
    @pytest.mark.parametrize("mask", [0o022, 0o077], ids=oct)
    def test_mode_of_plain_open(self, mask, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spring_mass", "grid": {"t_end": 5.0}}))
        old = os.umask(mask)
        try:
            assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
            assert main(["table1", "--chain", "n2", "--targets", "0.9",
                         "--out-dir", str(tmp_path)]) == 0
            with open(tmp_path / "plain", "w"):
                pass
        finally:
            os.umask(old)
        modes = {p.name: stat.S_IMODE(p.stat().st_mode) for p in tmp_path.iterdir()
                 if p.name != "cfg.json"}
        assert modes == dict.fromkeys(["plain", "trace.csv", "report.json",
                                       "table1_n2.csv"], 0o666 & ~mask)

    @pytest.mark.parametrize("outputs, field", [
        ({"trace_csv": "out.csv", "report_json": "out.csv"}, "outputs.report_json"),
        ({"trace_csv": "out.csv", "report_json": "./sub/../out.csv"},
         "outputs.report_json"),
        ({"trace_csv": ""}, "outputs.trace_csv"),
        ({"report_json": ""}, "outputs.report_json"),
        ({"trace_csv": "sub" + os.sep}, "outputs.trace_csv"),
        ({"report_json": "sub/."}, "outputs.report_json"),
    ])
    def test_bad_names_are_2(self, outputs, field, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spring_mass", "grid": {"t_end": 5.0},
                                   "outputs": outputs}))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("command", ["run", "check"])
    @pytest.mark.parametrize("outputs", [
        {"trace_csv": "x", "report_json": "x/r.json"},
        {"trace_csv": "x/t.csv", "report_json": "x"},
        {"trace_csv": "x/./y", "report_json": "x/y/../y/z/r.json"},
    ], ids=["report_inside_trace", "trace_inside_report", "normalized"])
    def test_nested_names_are_2(self, command, outputs, tmp_path, capsys):
        # refused before any work, so nothing is written in either order
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spring_mass", "grid": {"t_end": 5.0},
                                   "outputs": outputs}))
        out = tmp_path / "out"
        argv = [command, str(cfg)] + (["--out-dir", str(out)] if command == "run" else [])
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "config error: outputs.report_json: names the same file as "
            "outputs.trace_csv, or one lies inside the other\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_sibling_names_with_a_common_prefix_run(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"kind": "spring_mass", "grid": {"t_end": 5.0},
                                   "outputs": {"trace_csv": "x", "report_json": "xy"}}))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "x", "xy"]


class TestNearDefective:
    """An exact Jordan block eigendecomposes with cond_M ~ 9e15: the oracle
    paths still run, the analytic path refuses, and the skip is recorded."""

    @pytest.fixture
    def cfg(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(NEAR_DEFECTIVE))
        return str(p)

    def test_oracle_run_skips_analytic(self, cfg, tmp_path, capsys):
        assert main(["run", cfg, "--method", "blockaug",
                     "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Inconclusive" in out and "near-defective" in out
        with open(tmp_path / "report.json") as f:
            spot = json.load(f)["oracle_check"]
        assert spot["methods"] == ["blockaug", "fd"]
        assert "cond_M" in spot["skipped"]["analytic"]
        assert spot["max_rel_deviation"] < 1e-8

    def test_check_skips_analytic(self, cfg, capsys):
        assert main(["check", cfg, "--samples", "5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "near-defective" in out["skipped"]["analytic"]
        assert out["worst_pair"] in ("quadrature_vs_blockaug",
                                     "quadrature_vs_fd", "blockaug_vs_fd")
        assert out["max_rel_deviation"] < 1e-8

    def test_analytic_run_refuses(self, cfg, tmp_path, capsys):
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "cond_M" in capsys.readouterr().err

    def test_skipped_only_when_near_defective(self, tmp_path):
        # on a well-conditioned spectrum the spot check compares the
        # analytic path with blockaug and skips nothing
        cfg = validate_config({"kind": "spring_mass", "grid": {"t_end": 5.0}})
        assert sorted(check_oracles(cfg, t_samples=3)) == [
            "max_rel_deviation", "pairs", "worst_pair"]
        spot = run_scenario(cfg, str(tmp_path))["oracle_check"]
        assert sorted(spot) == ["max_rel_deviation", "methods", "pairs",
                                "sample_times"]
        assert spot["methods"] == ["analytic", "blockaug"]


# Generators whose computed eigenbasis is that of a defective matrix: an
# exact size-2 Jordan block that numpy's eig meets as two exactly parallel
# eigenvectors, and double poles that rounding splits about sqrt(eps) apart.
DEFECTIVE_BASES = {
    "exact_block": {"kind": "custom", "grid": {"t_end": 10.0, "dt": 0.01},
                    "parameters": {"A1": make_jordan_system(
                        np.random.default_rng(123595), [2], eigenvalues=[-0.4])[0].tolist(),
                        "S": [[0.0, 0.0], [1.0, 0.0]], "c": [1.0, 0.0],
                        "v": [0.0, 1.0], "xi0": 0.0}},
    "rlc_double_pole": {"kind": "rlc", "parameters": {"poles": [-1, -1, -4]}},
    "spring_mass_double_pole": {"kind": "spring_mass", "parameters": {"poles": [-3, -3]}},
}


class TestDefectiveBases:
    """One verdict on every defective eigenbasis: the analytic path refuses
    it up front with one line, the oracle paths run and classify it
    Inconclusive, and ``check`` compares the oracles alone."""

    @pytest.fixture(params=sorted(DEFECTIVE_BASES))
    def cfg(self, request, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(DEFECTIVE_BASES[request.param]))
        return str(p)

    def test_analytic_run_refuses_in_one_line(self, cfg, tmp_path, capsys):
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert re.fullmatch(r"numerical failure: spectrum is near-defective \(cond_M = "
                            r"\S+\); use --method quadrature\|blockaug\|fd, or "
                            r"Spectrum\.from_jordan data\n", captured.err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_oracle_run_is_inconclusive(self, cfg, tmp_path, capsys):
        assert main(["run", cfg, "--method", "blockaug", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "classification: Inconclusive" in out and "cond_M" in out
        for name in ("report.json", "trace.csv"):
            assert "nan" not in (tmp_path / name).read_text().lower().replace(
                "provenance", "")

    def test_check_skips_analytic(self, cfg, capsys):
        assert main(["check", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "cond_M" in out["skipped"]["analytic"]
        assert not any(p.startswith("analytic") for p in out["pairs"])
        assert out["max_rel_deviation"] < 1e-9


class TestOracleSpotCheck:
    def test_pairs_keep_fd_truncation_apart(self, tmp_path):
        # the five-time spot check of ``run`` leaves fd out on a
        # well-conditioned spectrum: its O(h^2) truncation (3.4e-8 here when
        # it was in) no longer sets the maximum, analytic vs blockaug does
        spot = run_scenario(validate_config({"kind": "two_qubit"}),
                            str(tmp_path))["oracle_check"]
        pairs = spot["pairs"]
        assert spot["methods"] == ["analytic", "blockaug"]
        assert sorted(pairs) == ["analytic_vs_blockaug"]
        assert spot["max_rel_deviation"] == pairs["analytic_vs_blockaug"] <= 1e-11


# A stable custom system (eigenvalues -1 +- 2i).
CUSTOM = {"A1": [[0.0, 1.0], [-4.0, -2.0]], "S": [[0.0, 0.0], [-1.0, 0.0]],
          "c": [1.0, 0.0], "v": [1.0, 0.0], "xi0": 1.0}


# One config per shipped kind, and the near-defective one on an oracle path.
SPOT_CHECK_CONFIGS = {
    "spring_mass": {"kind": "spring_mass"},
    "rlc": {"kind": "rlc"},
    "two_qubit": {"kind": "two_qubit"},
    "spin_chain": {"kind": "spin_chain", "parameters": {"N": 4}},
    "custom": {"kind": "custom", "parameters": CUSTOM},
    "near_defective": dict(NEAR_DEFECTIVE, method="blockaug"),
}


class TestSpotCheckThroughTrace:
    """The report's spot check evaluates every path by one ``trace`` over its
    sample times; the matrix-valued oracles are never called."""

    @pytest.mark.parametrize("name", sorted(SPOT_CHECK_CONFIGS))
    def test_pairs_are_trace_deviations(self, name, tmp_path, monkeypatch):
        import logsens
        from logsens import cli, classical, matexp, quantum, sensan

        def refuse(*args, **kwargs):
            raise AssertionError("per-time oracle call")

        for fn in ("dderiv_oracle_blockaug", "dderiv_oracle_fd"):
            orig = getattr(matexp, fn)
            for mod in (logsens, cli, classical, matexp, quantum, sensan):
                if getattr(mod, fn, None) is orig:
                    monkeypatch.setattr(mod, fn, refuse)
        cfg = validate_config(SPOT_CHECK_CONFIGS[name])
        spot = run_scenario(cfg, str(tmp_path))["oracle_check"]
        assert spot["methods"] == (["blockaug", "fd"] if name == "near_defective"
                                   else ["analytic", "blockaug"])
        ts = np.array(spot["sample_times"])
        assert len(ts) == 5 and np.all(np.diff(ts) > 0)
        sys_ = build_system(cfg)[0]
        assert spot["pairs"] == _path_deviations(
            {m: trace(sys_, ts, method=m).derror for m in spot["methods"]})
        assert spot["max_rel_deviation"] == max(spot["pairs"].values())

    def test_coinciding_draws_traced_once(self, tmp_path):
        # a window 4 ulp wide: the five draws repeat times, and a trace needs
        # strictly increasing ones
        ulp = float(np.spacing(1e6))
        cfg = validate_config({"kind": "spin_chain", "grid": {
            "t_start": 1e6, "t_end": 1e6 + 4 * ulp, "dt": ulp}})
        ts = run_scenario(cfg, str(tmp_path))["oracle_check"]["sample_times"]
        assert 1 <= len(ts) < 5 and np.all(np.diff(ts) > 0)


class TestCheckOracles:
    def test_spring_mass_triangle(self):
        cfg = validate_config({"kind": "spring_mass", "grid": {"t_end": 10.0}})
        summary = check_oracles(cfg, t_samples=10)
        assert summary["max_rel_deviation"] < 1e-6

    def test_zero_structure_all_paths_zero(self):
        raw = {
            "kind": "custom",
            "parameters": {
                "A1": [[0.0, 1.0], [-4.0, -2.0]],
                "S": [[0.0, 0.0], [0.0, 0.0]],
                "c": [1.0, 0.0], "v": [1.0, 0.0], "xi0": 1.0,
            },
            "grid": {"t_end": 5.0},
        }
        summary = check_oracles(validate_config(raw), t_samples=5)
        assert summary["max_rel_deviation"] == 0.0

    def test_undamped_chain_scaled_by_largest_derivative(self):
        # de/dxi nears 1e-13 at some sample times; a per-time scale read ~1.0
        summary = check_oracles(validate_config(
            {"kind": "spin_chain", "parameters": {"N": 2}}))
        assert summary["max_rel_deviation"] < 1e-6


    def test_overflowing_deviation_refused(self, monkeypatch):
        # two paths whose de/dxi differ by 2e308, past the float range: the
        # pair's deviation is inf, refused by name; under main's
        # errstate(over="raise") the subtraction raises first (exit 1 either way)
        sys_ = build_system(validate_config({"kind": "spring_mass"}))[0]

        def fake_trace(sys_, ts, method="analytic"):
            de = np.full(len(ts), {"analytic": 1e308, "blockaug": -1e308}[method])
            return SensitivityTrace(ts, np.ones(len(ts)), de, de.copy(),
                                    np.zeros(len(ts), dtype=bool))

        monkeypatch.setattr(cli, "trace", fake_trace)
        args = (sys_, np.array([1.0, 2.0]), ("analytic", "blockaug"))
        with np.errstate(over="ignore"), pytest.raises(
                ArithmeticError,
                match="^oracle check: analytic_vs_blockaug deviation is inf$"):
            cli._compare_paths(*args)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            cli._compare_paths(*args)

    def test_one_quadrature_per_distinct_step(self, monkeypatch):
        # each path is one trace over the sorted sample times: linspace(0,
        # 50, 20) has steps 0 and three roundings of 50/19
        import logsens.sensan as sensan
        steps = []
        orig = sensan._quadrature

        def counted(A, S, t, **kwargs):
            steps.append(t)
            return orig(A, S, t, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("per-time derivative in check")

        monkeypatch.setattr(sensan, "_quadrature", counted)
        monkeypatch.setattr(sensan, "error_derivative", refuse)
        check_oracles(validate_config({"kind": "spring_mass"}), t_samples=20)
        assert len(steps) == len(set(steps)) == 4

    @pytest.mark.parametrize("kind", ["two_qubit", "spring_mass"])
    def test_one_full_quadrature_per_check(self, kind, monkeypatch):
        # linspace(0, t_end, 20) spells t_end/19 up to six ways; one full
        # quadrature runs, every other call is 0 or a remainder of at most
        # 4 ulp(t_end)
        import logsens.sensan as sensan
        steps = []
        orig = sensan._quadrature

        def counted(A, S, t, **kwargs):
            steps.append(t)
            return orig(A, S, t, **kwargs)

        monkeypatch.setattr(sensan, "_quadrature", counted)
        cfg = validate_config({"kind": kind})
        check_oracles(cfg, t_samples=20)
        tol = 4 * np.spacing(cfg.grid[1])
        assert len([d for d in steps if d > 1e-9]) == 1
        assert len([d for d in steps if d <= tol]) == len(steps) - 1
        assert len(steps) == len(np.unique(np.diff(
            np.linspace(0.0, cfg.grid[1], 20), prepend=0.0)))

    def test_pairs_name_each_maximum(self):
        # fd's O(h^2) truncation sits far above the analytic-vs-blockaug
        # agreement; the per-pair maxima keep the two apart
        out = check_oracles(validate_config({"kind": "two_qubit"}))
        pairs = out["pairs"]
        assert sorted(pairs) == sorted(
            f"{a}_vs_{b}" for i, a in enumerate(DERIVATIVE_METHODS)
            for b in DERIVATIVE_METHODS[i + 1:])
        assert out["max_rel_deviation"] == max(pairs.values())
        assert out["worst_pair"] == max(pairs, key=pairs.get)
        assert pairs["analytic_vs_blockaug"] < 1e-11
        assert pairs["analytic_vs_quadrature"] < 1e-11
        assert 1e-9 < pairs["analytic_vs_fd"] < 1e-7

    def test_fd_without_cancellation(self):
        # the deviation-form fd trace: the per-time subtracted exponentials
        # read 1.55e-10 here
        out = check_oracles(validate_config({"kind": "spring_mass"}))
        assert out["max_rel_deviation"] < 1e-12

    def test_one_quadrature_warning_per_check(self, monkeypatch):
        # linspace(0, 50, 20) spells 50/19 three ways: the full quadrature
        # of the smallest misses on one panel, the two remainders do not,
        # and all 19 nonzero steps are charged with the full one's estimate
        import functools
        import warnings

        import logsens.sensan as sensan
        coarse = functools.partial(sensan._quadrature, max_panels=1)
        monkeypatch.setattr(sensan, "_quadrature", coarse)
        cfg = validate_config({"kind": "rlc"})
        sys_ = build_system(cfg)[0]
        steps = np.diff(np.linspace(0.0, 50.0, 20), prepend=0.0)
        achieved = coarse(sys_.A0, sys_.S, np.min(steps[steps > 0]))[1].achieved
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            check_oracles(cfg, t_samples=20)
        assert [w.category for w in caught] == [RuntimeWarning]
        assert str(caught[0].message) == (
            f"quadrature tolerance not reached on 1 of 4 distinct steps: the "
            f"sum over samples of their steps' error estimates is "
            f"{19 * achieved:.3e} (before propagation)")


class TestOneSpectrumPerSystem:
    @pytest.fixture
    def eig_calls(self, monkeypatch):
        import logsens
        from logsens import cli, matexp, quantum, sensan
        calls = []
        orig = matexp.eig_decompose

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        for mod in (logsens, cli, matexp, quantum, sensan):
            if getattr(mod, "eig_decompose", None) is orig:
                monkeypatch.setattr(mod, "eig_decompose", counted)
        return calls

    def test_table1(self, eig_calls):
        table1_repro("n2", (0.99, 0.95, 0.9, 0.8, 0.7))
        assert len(eig_calls) == 1

    def test_table1_couplings_once(self, monkeypatch):
        # the modal coefficients are kept with the spectrum, so the
        # bisection's scalar calls project onto the modes only once
        import logsens
        from logsens import cli, matexp, sensan
        calls = []
        orig = matexp.couplings

        def counted(*args, **kwargs):
            calls.append(1)
            return orig(*args, **kwargs)

        for mod in (logsens, cli, matexp, sensan):
            if getattr(mod, "couplings", None) is orig:
                monkeypatch.setattr(mod, "couplings", counted)
        table1_repro("n3")
        assert len(calls) == 1

    def test_run(self, eig_calls, tmp_path):
        run_scenario(validate_config({"kind": "two_qubit"}), str(tmp_path))
        assert len(eig_calls) == 1


class TestTable1:
    def test_n2_rows(self):
        rows = table1_repro("n2", (0.9999, 0.90001))
        assert rows[0]["abs_logsens"] == pytest.approx(311.95, rel=5e-3)
        assert rows[1]["abs_logsens"] == pytest.approx(7.4949, rel=5e-3)

    def test_n3_row(self):
        rows = table1_repro("n3", (0.98996,))
        assert rows[0]["abs_logsens"] == pytest.approx(21.079, rel=5e-3)

    def test_unknown_chain_rejected(self):
        with pytest.raises(ValueError, match="^chain must be 'n2' or 'n3'$"):
            table1_repro("n4")

    def test_unreachable_flagged(self):
        rows = table1_repro("n2", (1.5,))
        assert rows[0]["flag"] == "unreachable"
        assert rows[0]["abs_logsens"] is None

    def test_monotone_tradeoff(self):
        rows = table1_repro("n2", (0.9, 0.99, 0.999, 0.9999))
        vals = [r["abs_logsens"] for r in rows]
        assert vals == sorted(vals)


class TestTable1Rows:
    @pytest.mark.parametrize("chain", ["n2", "n3"])
    def test_rows_equal_log_sensitivity(self, chain):
        # each row's |s| carries the bits of log_sensitivity at its t
        from logsens.cli import _chain_for_table
        from logsens.sensan import log_sensitivity
        sys_ = _chain_for_table(chain)
        targets = (*TABLE1_DEFAULT_TARGETS[chain], *benchmark_targets(1, chain))
        rows = table1_repro(chain, targets)
        assert sum(row["t"] is not None for row in rows) == len(targets)
        for row in rows:
            want = abs(log_sensitivity(sys_, row["t"]))
            assert type(row["abs_logsens"]) is float
            assert repr(row["abs_logsens"]) == repr(want), row


def reference_table1(chain, targets):
    """The per-target scalar bisection that the batched one replaced."""
    from logsens.cli import TABLE1_ARTIFACT_DT, _chain_for_table
    from logsens.sensan import error_signal, log_sensitivity

    sys_ = _chain_for_table(chain)
    T = 5.0
    rows = []
    for target in targets:
        if not 0.0 < target <= 1.0:
            rows.append({"fidelity": float(target), "abs_logsens": None,
                         "t": None, "flag": "unreachable"})
            continue
        if target == 1.0:
            t_star = T - TABLE1_ARTIFACT_DT
            rows.append({"fidelity": 1.0,
                         "abs_logsens": abs(log_sensitivity(sys_, t_star)),
                         "t": t_star, "flag": "grid_artifact"})
            continue
        lo, hi = 0.0, T
        f = lambda t: (1.0 - error_signal(sys_, t)) - target
        if f(lo) > 0 or f(hi) < 0:
            rows.append({"fidelity": float(target), "abs_logsens": None,
                         "t": None, "flag": "unreachable"})
            continue
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if f(mid) < 0:
                lo = mid
            else:
                hi = mid
        t_star = 0.5 * (lo + hi)
        rows.append({"fidelity": float(target),
                     "abs_logsens": abs(log_sensitivity(sys_, t_star)),
                     "t": t_star, "flag": ""})
    return rows


def typed(rows):
    """Rows with every value as (type, repr): equal values of another type,
    and nan against nan, compare as they print."""
    return [{k: (type(v), repr(v)) for k, v in r.items()} for r in rows]


def benchmark_targets(seed, chain):
    """The table1 targets of the benchmark's crosscheck workload."""
    import importlib.util
    import sys
    path = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks",
                        "workloads.py")
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses resolve the module by name
    try:
        spec.loader.exec_module(mod)
        ops = mod.build_ops("crosscheck", seed)
    finally:
        del sys.modules[spec.name]
    op = next(op for op in ops if op.args[:2] == ("--chain", chain))
    return [float(x) for x in op.args[3:]]


class TestTable1Bisection:
    """All targets are bisected at once; rows match the per-target scalar
    bisection except where a vector evaluation of e(t) rounds the other way
    at a midpoint that sits on the root (on the benchmark's seeds 1-40 that
    happens once: seed 13, n3, t moves 5.7e-13, |s| 1.8e-12 relative)."""

    EDGES = (0.0, -1.0, float("nan"), 1.0, 1.5, 0.9999999, 0.95, 0.95, 1)

    @pytest.mark.parametrize("chain", ["n2", "n3"])
    @pytest.mark.parametrize("targets", ["default", "seed1", "seed7", "edges",
                                         "empty"])
    def test_rows_equal_scalar_bisection(self, chain, targets):
        if targets.startswith("seed"):
            targets = benchmark_targets(int(targets[4:]), chain)
        else:
            targets = {"default": TABLE1_DEFAULT_TARGETS[chain],
                       "edges": self.EDGES, "empty": ()}[targets]
        assert typed(table1_repro(chain, targets)) == typed(
            reference_table1(chain, targets))

    def test_rounding_flip_within_bisection_tolerance(self):
        targets = benchmark_targets(13, "n3")
        for got, ref in zip(table1_repro("n3", targets),
                            reference_table1("n3", targets)):
            assert abs(got["t"] - ref["t"]) <= 1e-12
            assert got["abs_logsens"] == pytest.approx(ref["abs_logsens"],
                                                       rel=1e-11)

    @pytest.mark.parametrize("chain", ["n2", "n3"])
    def test_root_bracketed_on_benchmark_seeds(self, chain):
        # the scalar fidelity changes sign within 1e-12 of every t
        from logsens.cli import _chain_for_table
        from logsens.sensan import error_signal
        sys_ = _chain_for_table(chain)
        for seed in range(1, 41):
            for row in table1_repro(chain, benchmark_targets(seed, chain)):
                f = lambda t: 1.0 - error_signal(sys_, t) - row["fidelity"]
                assert f(row["t"] - 1e-12) < 0 < f(row["t"] + 1e-12), (seed, row)

    def test_modal_calls_per_level_not_per_target(self, monkeypatch):
        import logsens.cli as cli
        import logsens.sensan as sensan
        calls = []
        orig = sensan._modal

        def counted(*args):
            calls.append(len(args[2]))
            return orig(*args)

        monkeypatch.setattr(sensan, "_modal", counted)
        monkeypatch.setattr(cli, "_modal", counted)
        targets = np.linspace(0.5, 0.999, 200).tolist()
        table1_repro("n2", targets)
        batched = [n for n in calls if n > 1]
        # 1 + 43 bisection levels, plus one scalar |s| per target
        assert len(batched) <= 50
        assert len(calls) - len(batched) == len(targets)


class TestMainExitCodes:
    def write(self, tmp_path, doc, name="cfg.json"):
        p = tmp_path / name
        p.write_text(json.dumps(doc))
        return str(p)

    def test_run_ok(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 10.0}})
        rc = main(["run", cfg, "--out-dir", str(tmp_path)])
        assert rc == 0
        assert "LinearReal" in capsys.readouterr().out

    def test_uncoupled_dominant_mode_is_inconclusive(self, tmp_path, capsys):
        # S touches only the fast mode of A0 = diag(-0.1, -1); the slow one,
        # still read out, outlives it
        cfg = self.write(tmp_path, {"kind": "custom", "parameters": {
            "A1": [[-0.1, 0.0], [0.0, -2.0]], "S": [[0.0, 0.0], [0.0, 1.0]],
            "c": [1.0, 1.0], "v": [1.0, 1.0], "xi0": 1.0}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "classification: Inconclusive",
            "diagnostic: a structurally uncoupled mode dominates the error decay; "
            "log-sensitivity need not diverge"]

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "sprong_mass"})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["run", str(p)]) == 2

    @pytest.mark.parametrize("override", [[], ["--grid", "0:1:0.1"],
                                          ["--method", "fd"]])
    def test_non_object_config_is_2(self, tmp_path, capsys, override):
        # a JSON list is refused before an override is merged into it
        cfg = self.write(tmp_path, [1, 2])
        assert main(["run", cfg, "--out-dir", str(tmp_path), *override]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {cfg}: config must be a JSON object")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_numerical_failure_is_1(self, tmp_path, capsys):
        # schema-valid chains whose coupling overflows a trace: the first
        # trace with a non-finite e or de/dxi is refused in one line, with
        # no floating-point warning (an error under this suite's filter),
        # and nothing is written
        short = {"kind": "spin_chain", "parameters": {"lambda": 1e300},
                 "grid": {"t_end": 5.0}}
        n3 = {"kind": "spin_chain", "parameters": {"lambda": 1e300, "N": 3}}
        for doc, command, err in (
                (short, "run", "oracle check: blockaug trace: 5 of 5 e values"),
                (short, "check", "oracle check: quadrature trace: 19 of 20 e values"),
                (n3, "run", "analytic trace: 5000 of 5001 e values")):
            cfg = self.write(tmp_path, doc)
            argv = [command, cfg] + (["--out-dir", str(tmp_path)] if command == "run" else [])
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err == f"numerical failure: {err} are not finite\n"
            assert captured.out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("parameters, message", [
        ({"kind": "spring_mass", "parameters": {"poles": [[-1.0, 1.0], [-1.0, 1.0]]}},
         "pole set must be closed under conjugation"),
        ({"kind": "rlc", "parameters": {"poles": [1.0, -2.0]}},
         "requested poles must satisfy Re <= 0"),
        ({"kind": "two_qubit", "parameters": {"rho0": [
            [0.5, 0.5, 0, 0], [0, 0.5, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]}},
         "rho is not Hermitian within tolerance"),
        ({"kind": "two_qubit", "parameters": {"rho0": [[0] * 4] * 4}},
         "rho must have unit trace"),
        ({"kind": "two_qubit", "parameters": {"gamma": [0, 0]}},
         "zero eigenvalue of A+L has multiplicity 6, need 1"),
        ({"kind": "custom", "parameters": {"A1": [[1.0]], "S": [[0.0]], "c": [1.0],
                                           "v": [1.0], "xi0": 1.0}},
         "A0 must be marginally stable (max Re eig = 1.000e+00)"),
    ], ids=["poles_not_conjugate", "pole_re_positive", "rho0_not_hermitian",
            "rho0_zero", "gamma_zero", "custom_unstable"])
    def test_builder_refusals_are_2(self, tmp_path, capsys, parameters, message):
        # configs valid field by field that a scenario builder refuses
        cfg = self.write(tmp_path, parameters)
        for argv in (["run", cfg, "--out-dir", str(tmp_path)], ["check", cfg]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: parameters: {message}\n"
            assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_builder_solver_failure_is_1(self, tmp_path, capsys, monkeypatch):
        # a LinAlgError is a ValueError, but the solver's fault, not the config's
        def fails(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "spin_chain_scenario", fails)
        cfg = self.write(tmp_path, {"kind": "spin_chain"})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        assert capsys.readouterr().err == "numerical failure: Eigenvalues did not converge\n"

    def test_negative_seed_is_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass", "seed": -1})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "config error: seed: must be non-negative, got -1\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("where", ["trace", "_csv_blocks"])
    def test_out_of_memory_is_1(self, where, tmp_path, capsys, monkeypatch):
        # raised by the trace, or by the CSV writer after its first block
        import logsens.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        def exhausted_after_header(tr, d):
            yield b"t,error\n"
            exhausted()

        monkeypatch.setattr(cli, where, {"trace": exhausted,
                                         "_csv_blocks": exhausted_after_header}[where])
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 5.0}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("out of memory: Unable")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_output_is_a_directory_is_1(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": {"t_end": 5.0}})
        (tmp_path / "trace.csv").mkdir()
        (tmp_path / "trace.csv" / "kept").write_bytes(b"kept\n")
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cannot write output: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "trace.csv"]
        assert [p.name for p in (tmp_path / "trace.csv").iterdir()] == ["kept"]
        assert (tmp_path / "trace.csv" / "kept").read_bytes() == b"kept\n"

    @pytest.mark.parametrize("command", ["run", "table1"])
    def test_out_dir_is_a_file_is_1(self, command, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": {"t_end": 5.0}})
        out = tmp_path / "out"
        out.write_bytes(b"a file\n")
        argv = {"run": ["run", cfg], "table1": ["table1", "--chain", "n2"]}[command]
        assert main([*argv, "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cannot write output: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]
        assert out.read_bytes() == b"a file\n"

    def test_grid_override(self, tmp_path):
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        rc = main(["run", cfg, "--out-dir", str(tmp_path),
                   "--grid", "0:5:0.1"])
        assert rc == 0
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert len(rows) == 52  # header + 51 samples

    @pytest.mark.parametrize("grid, times", [
        ("0:1:0.6", ["0.0", "0.6"]), ("0:1:0.5", ["0.0", "0.5", "1.0"])])
    def test_no_time_past_t_end(self, grid, times, tmp_path):
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        assert main(["run", cfg, "--out-dir", str(tmp_path), "--grid", grid]) == 0
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == times

    def test_grid_override_echoed(self, tmp_path):
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": {"t_end": 9.0}})
        assert main(["run", cfg, "--out-dir", str(tmp_path), "--grid", "0:5:0.5"]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["provenance"]["config"]["grid"] == {
            "t_start": 0.0, "t_end": 5.0, "dt": 0.5}

    def test_out_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LOGSENS_OUT_DIR", str(tmp_path / "envout"))
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 5.0}})
        assert main(["run", cfg]) == 0
        assert (tmp_path / "envout" / "trace.csv").exists()

    def test_table1_command(self, tmp_path):
        rc = main(["table1", "--chain", "n2", "--out-dir", str(tmp_path)])
        assert rc == 0
        text = (tmp_path / "table1_n2.csv").read_text()
        assert text.startswith("fidelity,abs_logsens\n")

    def test_check_command(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 5.0}})
        assert main(["check", cfg, "--samples", "5"]) == 0
        assert "max_rel_deviation" in capsys.readouterr().out

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_check_samples_below_one_is_2(self, tmp_path, capsys, samples):
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 5.0}})
        assert main(["check", cfg, "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --samples: ")
        assert captured.out == ""

    def test_check_one_sample(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_start": 1.0, "t_end": 5.0}})
        assert main(["check", cfg, "--samples", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["worst_pair"] is not None

    @pytest.mark.parametrize("argv, err", [
        (["table1", "--chain", "n2", "--targets", "0.9", "-inf"],
         "logsens: unrecognized arguments: -inf"),
        (["frob"], "logsens: argument command: invalid choice: 'frob' "
                   "(choose from 'run', 'check', 'table1')"),
        (["run"], "logsens run: the following arguments are required: config"),
        (["check", "cfg.json", "--samples", "x"],
         "logsens check: argument --samples: invalid int value: 'x'"),
        (["table1", "--chain", "n4"],
         "logsens table1: argument --chain: invalid choice: 'n4' "
         "(choose from 'n2', 'n3')"),
    ], ids=["negative_target", "unknown_command", "run_without_config",
            "samples_not_int", "unknown_chain"])
    def test_usage_error_is_one_line(self, argv, err, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"config error: {err}\n")

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["run", "-h"])
        assert e.value.code == 0
        assert capsys.readouterr().out.startswith("usage: logsens run")


class TestOneLineFailures:
    """Failures the config fuzzer (``test_fuzz.py``) found printing more than
    one stderr line: each is now one line, with nothing written, or, for the
    non-finite inverse eigenbasis, a clean Inconclusive run."""

    write = TestMainExitCodes.write

    def run_and_check(self, tmp_path, capsys, doc, rc, check_rc):
        cfg = self.write(tmp_path, doc)
        out = tmp_path / "out"
        assert main(["run", cfg, "--out-dir", str(out)]) == rc
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not out.exists()
        assert main(["check", cfg, "--samples", "3"]) == check_rc
        return captured.err, capsys.readouterr()

    def test_pole_placement_message(self, tmp_path, capsys):
        # a triple pole misses the placement tolerance; numpy wraps the
        # arrays of the message unless told not to
        err, check = self.run_and_check(tmp_path, capsys, {
            "kind": "rlc", "parameters": {"poles": [-1, -1, -1]},
            "grid": {"t_end": 1.0}}, 2, 2)
        assert err.startswith("config error: parameters: pole placement failed: "
                              "requested [-1.+0.j -1.+0.j -1.+0.j], achieved [")
        assert check.err == err

    def test_overflow_building_the_scenario(self, tmp_path, capsys):
        err, check = self.run_and_check(tmp_path, capsys, {
            "kind": "two_qubit", "parameters": {"Delta": [0.0, 0.0],
                                                "gamma": [1e300, 1.0]},
            "grid": {"t_end": 1.0}}, 1, 1)
        assert err == "numerical failure: overflow encountered in matmul\n"
        assert check.err == err

    def test_non_finite_inverse_eigenbasis(self, tmp_path, capsys):
        # inv returns inf and NaN for this eigenbasis without raising;
        # Spectrum falls back to the finite pinv, so the oracle run is
        # Inconclusive, and the spot check and check compare the oracles alone
        cfg = self.write(tmp_path, {
            "kind": "custom", "parameters": {
                "A1": [[-1.0, 1e300], [0.0, -1.0]], "S": [[0.0, 0.0], [0.0, 0.0]],
                "c": [0.0, 0.0], "v": [0.0, 0.0], "xi0": 0.0},
            "grid": {"t_end": 1.0}, "method": "quadrature"})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "classification: Inconclusive" in captured.out
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["classification"]["kind"] == "Inconclusive"
        assert "cond_M = inf" in report["classification"]["diagnostic"]
        assert "cond_M = inf" in report["oracle_check"]["skipped"]["analytic"]
        assert main(["check", cfg, "--samples", "3"]) == 0
        check = capsys.readouterr()
        assert check.err == ""
        assert "cond_M = inf" in json.loads(check.out)["skipped"]["analytic"]


class TestRlcNote:
    """A report of an rlc loop with a complex pole pair notes its real pole."""

    write = TestMainExitCodes.write

    @pytest.mark.parametrize("poles, note", [
        ([[-2, 0.3], [-2, -0.3], -1], {"rlc_lambda3": -1.0}),
        ([[-2, 0.3], [-2, -0.3]], {"rlc_lambda3": -5.3}),
        ([-1, -2, -4], {}),
    ], ids=["given", "default", "all_real"])
    def test_real_pole_noted(self, poles, note, tmp_path):
        cfg = self.write(tmp_path, {"kind": "rlc", "parameters": {"poles": poles},
                                    "grid": {"t_end": 5}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["provenance"]["notes"] == note


class TestGridBudget:
    """Grids are bounded by ``MAX_GRID_ROWS`` before anything is allocated."""

    write = TestMainExitCodes.write

    @pytest.mark.parametrize("grid", [{"t_end": 1.0, "dt": 0.01},
                                      {"t_end": 0.99, "dt": 0.01}])
    def test_within_budget_runs(self, tmp_path, monkeypatch, grid):
        import logsens.cli as cli
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", 101)
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": grid})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0

    def test_over_budget_is_2(self, tmp_path, monkeypatch, capsys):
        import logsens.cli as cli
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", 100)
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 1.0, "dt": 0.01}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid: ") and "MAX_GRID_ROWS = 1e+02" in err
        assert not (tmp_path / "trace.csv").exists()
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": {"t_end": 5.0}})
        assert main(["run", cfg, "--grid", "0:1:0.001"]) == 2
        assert "row budget" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [{"dt": 5e-324}, {"dt": 1e-12},
                                      {"dt": float("nan")}, {"t_start": float("nan")},
                                      {"t_end": float("inf")}])
    def test_unallocatable_grids_are_2(self, tmp_path, capsys, grid):
        # refused before np.arange is reached: a non-finite bound or step by
        # its field, a step too fine by the default budget
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": grid})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 2
        bad = [k for k, x in grid.items() if not math.isfinite(x)]
        assert capsys.readouterr().err.startswith(
            f"config error: grid.{bad[0]}: must be a finite number" if bad
            else "config error: grid: ")

    @pytest.mark.parametrize("step", ["1e-9", "7"])
    def test_check_ignores_the_step(self, tmp_path, capsys, step):
        # check samples --samples times in [START, END] and never reads STEP
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        assert main(["check", cfg, "--grid", "0:50:0.01"]) == 0
        want = capsys.readouterr().out
        assert main(["check", cfg, "--grid", f"0:50:{step}"]) == 0
        assert capsys.readouterr().out == want

    def test_step_over_budget_refused_by_run_only(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": {"dt": 1e-9}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "config error: grid: 5e+10 rows exceed the row budget MAX_GRID_ROWS = 1e+07\n")
        assert not (tmp_path / "trace.csv").exists()
        assert main(["check", cfg]) == 0

    def test_check_samples_over_budget_is_2(self, tmp_path, monkeypatch, capsys):
        import logsens.cli as cli
        monkeypatch.setattr(cli, "MAX_GRID_ROWS", 100)
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 0.5, "dt": 0.01}})
        assert main(["check", cfg, "--samples", "100"]) == 0
        capsys.readouterr()
        assert main(["check", cfg, "--samples", "101"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --samples: ")
        assert "MAX_GRID_ROWS = 1e+02" in captured.err and captured.out == ""


# A non-finite number in each kind of field, keyed by the field's path.
NON_FINITE = {
    "parameters.v[0]": {"kind": "custom", "parameters": dict(CUSTOM, v=[math.inf, 0.0])},
    "parameters.A1[1][0]": {"kind": "custom", "parameters": dict(
        CUSTOM, A1=[[0.0, 1.0], [-math.inf, -2.0]])},
    "parameters.xi0": {"kind": "spring_mass", "parameters": {"xi0": math.nan}},
    "parameters.fit_window[0]": {"kind": "spring_mass",
                                 "parameters": {"fit_window": [math.nan, 50.0]}},
    "parameters.poles[0][1]": {"kind": "rlc", "parameters": {
        "poles": [[-2.0, math.nan], [-2.0, -0.3]]}},
    "parameters.rho0[2][3]": {"kind": "two_qubit", "parameters": {"rho0": [
        [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -math.inf], [0.0, 0.0, 0.0, 0.0]]}},
    "parameters.lambda": {"kind": "spin_chain", "parameters": {"lambda": math.inf}},
    "grid.t_start": {"kind": "spring_mass", "grid": {"t_start": math.nan}},
    "parameters.Delta[1]": {"kind": "two_qubit",
                            "parameters": {"Delta": [-0.1, 10 ** 400]}},
}


class TestNonFiniteNumbers:
    """``json.load`` reads NaN, Infinity and integers past the float range;
    the config refuses each before anything is built, naming its field."""

    write = TestMainExitCodes.write

    @pytest.mark.parametrize("field", sorted(NON_FINITE))
    def test_refused_by_field(self, field, tmp_path, capsys):
        with pytest.raises(ConfigError) as exc:
            validate_config(NON_FINITE[field])
        assert exc.value.path == field
        cfg = self.write(tmp_path, NON_FINITE[field])
        for argv in (["run", cfg, "--out-dir", str(tmp_path)], ["check", cfg]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: {field}: must be a finite number")
            assert captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_grid_override(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        assert main(["run", cfg, "--out-dir", str(tmp_path), "--grid", "0:inf:0.1"]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: grid.t_end: must be a finite number, got inf")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("targets, bad", [
        (["--targets", "0.9", "nan"], "nan"), (["--targets", "inf", "0.9"], "inf"),
        (["--targets=-inf"], "-inf")], ids=["nan", "inf", "-inf"])
    def test_table1_targets(self, targets, bad, tmp_path, capsys):
        # a NaN fidelity is not an unreachable one
        argv = ["table1", "--chain", "n2", "--out-dir", str(tmp_path)]
        assert main([*argv, *targets]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: --targets: a fidelity must be finite, "
                                f"got {bad}\n")
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []
        assert main([*argv, "--targets", "1.5"]) == 0  # finite, out of range
        assert "fidelity 1.5: |s| = unreachable" in capsys.readouterr().out


# A valid config of each kind holding every numeric field it takes.
NUMBER_BASES = {
    "spring_mass": {"kind": "spring_mass", "parameters": {
        "xi0": 4.0, "poles": [-2.0, [-5.0, 0.0]], "fit_window": [1.0, 5.0]}},
    "rlc": {"kind": "rlc", "parameters": {
        "xi0": 0.5, "poles": [[-2.0, 0.3], [-2.0, -0.3], -4.0], "fit_window": [1.0, 5.0]}},
    "two_qubit": {"kind": "two_qubit", "parameters": {
        "alpha": [1.0, 1.0], "Delta": [-0.1, 0.1], "gamma": [1.0, 1.0],
        "rho0": [[1.0 if i == j == 0 else 0.0 for j in range(4)] for i in range(4)],
        "fit_window": [1.0, 5.0]}},
    "spin_chain": {"kind": "spin_chain", "parameters": {
        "N": 3, "lambda": 0.6, "perturbed_coupling": 1, "excitation_site": 1,
        "fit_window": [1.0, 5.0]}},
    "custom": {"kind": "custom", "parameters": dict(CUSTOM, fit_window=[1.0, 5.0])},
}
for _base in NUMBER_BASES.values():
    _base.update(schema_version=1, seed=0, grid={"t_start": 0.0, "t_end": 5.0, "dt": 0.5})

# Each kind's numeric fields (the element paths of vectors, matrices and
# poles) and the type each takes; every kind reads the shared ones.
INT_FIELDS = {"schema_version", "seed", "parameters.N", "parameters.perturbed_coupling",
              "parameters.excitation_site"}
SHARED_FIELDS = ["schema_version", "seed", "grid.t_start", "grid.t_end", "grid.dt",
                 "parameters.fit_window[0]", "parameters.fit_window[1]"]
NUMBER_FIELDS = [(kind, field) for kind in NUMBER_BASES for field in SHARED_FIELDS] + [
    ("spring_mass", f) for f in ("parameters.xi0", "parameters.poles[0]",
                                 "parameters.poles[1][0]", "parameters.poles[1][1]")
] + [
    ("rlc", f) for f in ("parameters.xi0", "parameters.poles[0][0]",
                         "parameters.poles[1][1]", "parameters.poles[2]")
] + [
    ("two_qubit", f) for f in ("parameters.alpha[0]", "parameters.Delta[1]",
                               "parameters.gamma[0]", "parameters.rho0[0][0]",
                               "parameters.rho0[2][3]")
] + [
    ("spin_chain", f) for f in ("parameters.N", "parameters.lambda",
                                "parameters.perturbed_coupling", "parameters.excitation_site")
] + [
    ("custom", f) for f in ("parameters.A1[0][0]", "parameters.A1[1][0]",
                            "parameters.S[1][1]", "parameters.c[0]",
                            "parameters.v[1]", "parameters.xi0")
]

# Bad values by name; null is tried only inside lists, where it cannot mean
# "use the default".
BAD_NUMBERS = {"true": True, "NaN": math.nan, "Infinity": math.inf,
               "-Infinity": -math.inf, "10**400": 10 ** 400, "string": "1",
               "null": None}


def _put(doc, path, value):
    """Set the field at a dotted/indexed ``path`` of a config document."""
    keys = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    for key in keys[:-1]:
        doc = doc[key]
    doc[keys[-1]] = value


def _refusal(field, name):
    """The message ``field`` holding ``BAD_NUMBERS[name]`` is refused with."""
    types = "int" if field in INT_FIELDS else "int/float"
    scalar_pole = re.fullmatch(r"parameters\.poles\[\d\]", field)
    return {"true": f"expected {types}, got bool",
            "NaN": "must be a finite number, got nan",
            "Infinity": "must be a finite number, got inf",
            "-Infinity": "must be a finite number, got -inf",
            "10**400": "must be a finite number, got an integer past the float range",
            "string": ("pole must be a number or [re, im] pair" if scalar_pole
                       else f"expected {types}, got str"),
            "null": ("pole must be a number or [re, im] pair" if scalar_pole
                     else "required field missing")}[name]


class TestNumberReader:
    """Every numeric config field is read by one reader, which refuses
    bools, non-finite numbers, integers past the float range and
    non-numbers (and nulls inside lists), naming the field."""

    write = TestMainExitCodes.write

    @pytest.mark.parametrize("kind", sorted(NUMBER_BASES))
    def test_bases_are_valid(self, kind):
        validate_config(copy.deepcopy(NUMBER_BASES[kind]))

    @pytest.mark.parametrize("kind, field", NUMBER_FIELDS,
                             ids=[f"{k}-{f}" for k, f in NUMBER_FIELDS])
    def test_bad_value_refused_by_field(self, kind, field, tmp_path, capsys):
        out = tmp_path / "out"
        for name, value in BAD_NUMBERS.items():
            if value is None and "[" not in field:
                continue  # a null scalar reads as absent
            doc = copy.deepcopy(NUMBER_BASES[kind])
            _put(doc, field, value)
            cfg = self.write(tmp_path, doc)
            assert main(["run", cfg, "--out-dir", str(out)]) == 2, name
            captured = capsys.readouterr()
            assert captured.err == f"config error: {field}: {_refusal(field, name)}\n", name
            assert captured.out == ""
        assert not out.exists()


class TestChainBound:
    """Spin chains are bounded by ``MAX_CHAIN_SITES``; refusals build
    nothing, so a huge ``N`` is safe to ask for here."""

    write = TestMainExitCodes.write

    def test_bound_refused_in_config(self):
        from logsens.cli import MAX_CHAIN_SITES
        raw = {"kind": "spin_chain", "parameters": {"N": MAX_CHAIN_SITES}}
        assert validate_config(raw).parameters["N"] == MAX_CHAIN_SITES
        for N in (MAX_CHAIN_SITES + 1, 100000):
            with pytest.raises(ConfigError, match=f"MAX_CHAIN_SITES = {MAX_CHAIN_SITES}") as exc:
                validate_config({"kind": "spin_chain", "parameters": {"N": N}})
            assert exc.value.path == "parameters.N"

    def test_over_bound_is_2(self, tmp_path, monkeypatch, capsys):
        import logsens.cli as cli
        monkeypatch.setattr(cli, "MAX_CHAIN_SITES", 3)
        ok = self.write(tmp_path, {"kind": "spin_chain", "parameters": {"N": 3},
                                   "grid": {"t_end": 1.0}}, "ok.json")
        assert main(["run", ok, "--out-dir", str(tmp_path / "ok")]) == 0
        capsys.readouterr()
        for N in (4, 100000):
            cfg = self.write(tmp_path, {"kind": "spin_chain", "parameters": {"N": N}})
            for argv in (["run", cfg, "--out-dir", str(tmp_path / "out")], ["check", cfg]):
                assert main(argv) == 2
                captured = capsys.readouterr()
                assert captured.err.startswith(
                    f"config error: parameters.N: {N} sites exceed the chain bound "
                    "MAX_CHAIN_SITES = 3")
                assert captured.out == ""
        assert not (tmp_path / "out").exists()


class TestSubUlpSteps:
    """A grid step, or ``check --samples`` spacing, too small for the times
    to strictly increase is refused by its field: 1 ulp of the grid's end
    inside one binade, ``MIN_STEP_ULPS`` ulp across a binade edge."""

    write = TestMainExitCodes.write
    # ulp of the binade [2^20, 2^21); 2^20 - ULP / 2 is a double below it
    ULP = float(np.spacing(2.0 ** 20))
    INSIDE = {"t_start": 2.0 ** 20, "t_end": 2.0 ** 20 + 100 * ULP}
    ACROSS = {"t_start": 2.0 ** 20 - ULP / 2, "t_end": 2.0 ** 20 + 300 * ULP}

    def test_sub_ulp_grid_and_samples_are_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spin_chain", "grid": {
            "t_start": 1e6, "t_end": 1000000.000000001, "dt": 1e-10}})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: grid.dt: step 1e-10 is below 1 ulp of the grid's end")
        cfg = self.write(tmp_path, {"kind": "spin_chain", "grid": {
            "t_start": 1e6, "t_end": 1e6 + 1e-6, "dt": 1e-7}})
        assert main(["check", cfg, "--samples", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --samples: step ")
        assert "below 1 ulp" in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("window", ["INSIDE", "ACROSS"])
    def test_grid_step_bound(self, tmp_path, capsys, window):
        from logsens.cli import MIN_STEP_ULPS
        ulps = MIN_STEP_ULPS if window == "ACROSS" else 1
        edge, bound = getattr(self, window), ulps * self.ULP
        times = validate_config({"kind": "rlc", "grid": dict(edge, dt=bound)}).grid_times()
        assert len(times) > 100 and np.all(np.diff(times) > 0)
        below = dict(edge, dt=np.nextafter(bound, 0.0))
        with pytest.raises(ConfigError, match=f"below {ulps} ulp") as exc:
            validate_config({"kind": "rlc", "grid": below})
        assert exc.value.path == "grid.dt"
        cfg = self.write(tmp_path, {"kind": "rlc", "grid": dict(edge, dt=bound)})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "ok")]) == 0
        cfg = self.write(tmp_path, {"kind": "rlc", "grid": below})
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: grid.dt: ")
        assert not (tmp_path / "out").exists()

    def test_one_ulp_merges_across_a_binade_edge(self):
        # times 2^20 + 1.5 ulp and 2^20 + 2.5 ulp are ties that both round
        # to the even 2^20 + 2 ulp
        from logsens.cli import MIN_STEP_ULPS, ScenarioConfig
        t0, t1 = self.ACROSS["t_start"], 2.0 ** 20 + 3 * self.ULP
        grid = ScenarioConfig("rlc", {}, (t0, t1, self.ULP), "analytic", {}, 0)
        assert not np.all(np.diff(grid.grid_times()) > 0)
        with pytest.raises(ConfigError, match=f"below {MIN_STEP_ULPS} ulp"):
            validate_config({"kind": "rlc", "grid": {
                "t_start": t0, "t_end": t1, "dt": self.ULP}})

    def test_samples_bound(self, tmp_path, capsys):
        # 101 samples space the window 1 ulp apart, 102 just under
        cfg = self.write(tmp_path, {"kind": "rlc", "grid": dict(self.INSIDE, dt=1e-8)})
        assert main(["check", cfg, "--samples", "101"]) == 0
        capsys.readouterr()
        assert main(["check", cfg, "--samples", "102"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: --samples: ")
        assert captured.out == ""

    @settings(max_examples=200)
    @given(m=st.integers(-20, 45), start_halves=st.integers(-8, 8),
           end_ulps=st.integers(5, 64), stretch=st.sampled_from([1.0, 1.25, 1.5]))
    def test_accepted_grids_increase(self, m, start_halves, end_ulps, stretch):
        # windows around a binade edge 2^m, starting on the doubles of the
        # binade below it or on the edge's own: every step the config
        # accepts makes grid_times and linspace strictly increase
        from logsens.cli import MIN_STEP_ULPS
        edge, ulp = 2.0 ** m, float(np.spacing(2.0 ** m))
        t_start, t_end = edge + start_halves * ulp / 2, edge + end_ulps * ulp
        ulps = 1 if np.spacing(t_start) == ulp else MIN_STEP_ULPS
        dt = ulps * ulp * stretch
        cfg = validate_config({"kind": "rlc", "grid": {
            "t_start": t_start, "t_end": t_end, "dt": dt}})
        assert np.all(np.diff(cfg.grid_times()) > 0)
        rows = int((t_end - t_start) / dt) + 1
        if rows > 1 and (t_end - t_start) / (rows - 1) >= dt:
            assert np.all(np.diff(np.linspace(t_start, t_end, rows)) > 0)


# Refusals of ``validate_config`` that no other test reaches: each config,
# the path it is refused at, and the message.
CONFIG_REFUSALS = {
    "rows_not_lists": ({"kind": "custom", "parameters": dict(CUSTOM, A1=[1.0, 2.0])},
                       "parameters.A1", "expected a list of rows"),
    "row_count": ({"kind": "custom", "parameters": dict(CUSTOM, S=[[0.0, 0.0]])},
                  "parameters.S", "expected 2 rows, got 1"),
    "column_count": ({"kind": "custom", "parameters": dict(CUSTOM, S=[[0.0], [1.0]])},
                     "parameters.S", "expected 2 columns, got 1"),
    "not_a_list": ({"kind": "two_qubit", "parameters": {"alpha": 1.0}},
                   "parameters.alpha", "expected a list of numbers"),
    "window_not_increasing": ({"kind": "rlc", "parameters": {"fit_window": [5.0, 1.0]}},
                              "parameters.fit_window", "window must be increasing"),
    "perturbation": ({"kind": "two_qubit", "parameters": {"perturbation": "S5"}},
                     "parameters.perturbation", "must be one of S1, S2, S3, S4"),
    "one_site": ({"kind": "spin_chain", "parameters": {"N": 1}},
                 "parameters.N", "chain needs at least 2 sites"),
    "lambda_zero": ({"kind": "spin_chain", "parameters": {"lambda": 0.0}},
                    "parameters.lambda", "must be positive"),
    "coupling_range": ({"kind": "spin_chain", "parameters": {"N": 3, "perturbed_coupling": 3}},
                       "parameters.perturbed_coupling", "must be in 1..2"),
    "site_range": ({"kind": "spin_chain", "parameters": {"N": 3, "excitation_site": 4}},
                   "parameters.excitation_site", "must be in 1..3"),
    "A1_not_square": ({"kind": "custom", "parameters": dict(CUSTOM, A1=[[-1.0, 0.0]])},
                      "parameters.A1", "must be square"),
    "t_end_not_after_start": ({"kind": "rlc", "grid": {"t_start": 5.0, "t_end": 5.0}},
                              "grid", "need t_end > t_start >= 0"),
    "custom_b": ({"kind": "custom", "parameters": dict(CUSTOM, b=[0.0, 1.0])},
                 "parameters.b", "unknown key"),
}


class TestConfigRefusals:
    """Each refusal is exit 2 with one stderr line naming the path, and
    nothing written."""

    write = TestMainExitCodes.write

    @pytest.mark.parametrize("case", sorted(CONFIG_REFUSALS))
    def test_refused_by_path(self, case, tmp_path, capsys):
        doc, path, message = CONFIG_REFUSALS[case]
        cfg = self.write(tmp_path, doc)
        for argv in (["run", cfg, "--out-dir", str(tmp_path / "out")], ["check", cfg]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err == f"config error: {path}: {message}\n"
            assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_missing_config_file(self, tmp_path, capsys):
        cfg = str(tmp_path / "absent.json")
        assert main(["run", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"config error: {cfg}: cannot read config: ")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", [
        '{"kind": "rlc", "method": "\xe9"}'.encode("latin-1"),
        b'{"kind": "rlc", "seed": 1' + b"0" * 4300 + b"}",
        b"[" * 100_000,
    ], ids=["not_utf8", "int_over_4300_digits", "nested_1e5_deep"])
    def test_unreadable_json(self, raw, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(raw)
        for argv in (["run", str(cfg), "--out-dir", str(tmp_path / "out")],
                     ["check", str(cfg)]):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"config error: {cfg}: invalid JSON: ")
            assert captured.err.count("\n") == 1 and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "check"])
    def test_grid_override_needs_three_fields(self, command, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "rlc"})
        assert main([command, cfg, "--grid", "1:2"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "config error: --grid: expected start:end:step\n"
        assert captured.out == ""


# An undamped rotation whose error crosses zero every pi/3: with xi0 = 0,
# or with S = 0, |s| is exactly 0 at every sample not masked.
ZERO_LOGSENS = {
    "xi0_zero": ({"S": [[0.0, 0.0], [0.1, 0.0]], "xi0": 0.0},
                 "xi0 = 0: the log-sensitivity xi0 * (de/dxi) / e is identically "
                 "zero and does not diverge"),
    "S_zero": ({"S": [[0.0, 0.0], [0.0, 0.0]], "xi0": 1.0}, "all modes pruned"),
}


class TestZeroLogSensitivity:
    """A log-sensitivity that is exactly zero neither diverges nor spikes."""

    write = TestMainExitCodes.write

    @pytest.mark.parametrize("case", sorted(ZERO_LOGSENS))
    def test_no_divergence_and_no_spikes(self, case, tmp_path, capsys):
        params, diagnostic = ZERO_LOGSENS[case]
        cfg = self.write(tmp_path, {"kind": "custom", "grid": {
            "t_start": 0.0, "t_end": 10.0, "dt": 0.01}, "parameters": dict(
                params, A1=[[0.0, 3.0], [-3.0, 0.0]], c=[1.2, 0.0], v=[0.0, 1.0])})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "classification: Inconclusive", f"diagnostic: {diagnostic}"]
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["empirical"]["detected_spikes"] == []
        assert report["deviations"] == {}
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert len(rows) == 1001
        assert {row.split(",")[5] for row in rows if row.endswith(",0")} == {"0.0"}
        # the error still crosses zero: 9 candidates, none a spike
        e = np.array([float(row.split(",")[1]) for row in rows])
        assert np.count_nonzero(np.sign(e[:-1]) * np.sign(e[1:]) < 0) == 9

    @pytest.mark.parametrize("case", sorted(ZERO_LOGSENS))
    def test_fully_masked_trace_has_no_spikes(self, case, tmp_path, capsys):
        # e = 1e-320 exp(-t) is below the spike floor everywhere and
        # underflows to 0 at t = 9, a dip among masked rows
        params, diagnostic = ZERO_LOGSENS[case]
        cfg = self.write(tmp_path, {"kind": "custom", "grid": {
            "t_start": 0.0, "t_end": 12.0, "dt": 1.0}, "parameters": dict(
                params, A1=[[-1.0, 0.0], [0.0, -2.0]], c=[1e-160, 0.0], v=[1e-160, 0.0])})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines()[:2] == [
            "classification: Inconclusive", f"diagnostic: {diagnostic}"]
        rows = (tmp_path / "trace.csv").read_text().splitlines()[1:]
        assert {row[-1] for row in rows} == {"1"}
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["empirical"]["detected_spikes"] == []


class TestReportReasons:
    """A missing fit says why; a comparison on a floored scale says so."""

    write = TestMainExitCodes.write

    def test_fit_error_names_the_reason(self, tmp_path):
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "parameters": {"fit_window": [100, 200]}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        empirical = json.loads((tmp_path / "report.json").read_text())["empirical"]
        assert empirical["fitted_slope"] is None
        assert empirical["fit_error"] == "only 0 finite samples in window (100.0, 200.0)"

    def test_no_fit_error_on_a_fit(self, tmp_path):
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["empirical"]["fitted_slope"] is not None
        assert "fit_error" not in report["empirical"]
        assert "scale_floored" not in report["oracle_check"]

    def test_floored_check_flagged(self, tmp_path, capsys):
        # |de/dxi| is 0 at t = 0 and below 1e-44 at the other 19 samples,
        # 52.6 apart: the deviations are absolute ones
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        assert main(["check", cfg, "--grid", "0:1000:0.001"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["scale_floored"] is True and out["max_rel_deviation"] < 1e-30

    def test_unfloored_check_not_flagged(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        assert main(["check", cfg]) == 0
        out = json.loads(capsys.readouterr().out)
        assert "scale_floored" not in out and out["max_rel_deviation"] > 0

    def test_floored_spot_check_flagged(self, tmp_path):
        # five draws from [100, 150], where |de/dxi| ~ e^(-2t) < 1e-86
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": {
            "t_start": 100.0, "t_end": 150.0, "dt": 0.5}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 0
        spot = json.loads((tmp_path / "report.json").read_text())["oracle_check"]
        assert spot["scale_floored"] is True


def test_run_loads_no_scipy(tmp_path):
    # the numpy and scipy wheels each bundle an OpenBLAS with its own thread
    # pool, and the two pools contend for the CPUs: a run loads numpy's only
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "two_qubit",
                               "grid": {"t_end": 2000.0, "dt": 20.0}}))
    code = ("import sys\n"
            "import logsens.cli\n"
            "assert logsens.cli.main(sys.argv[1:]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code, "run", str(cfg),
                          "--out-dir", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "report.json",
                                                          "trace.csv"]
