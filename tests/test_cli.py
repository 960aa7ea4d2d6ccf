"""Tests for config validation, scenario runs, file outputs and exit codes."""

import json
import os
import tempfile

import numpy as np
import pytest
from conftest import peak_mib

from logsens.cli import (
    _CSV_BLOCK,
    TABLE1_DEFAULT_TARGETS,
    ConfigError,
    _atomic_write,
    _dumps,
    _json_value,
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
                "b": [0, 1],
                "c": [1, 0, 0],
                "S": [[0, 0, 0], [0, 0, 0], [1, 0, 0]],
                "v": [1, 0, 0],
            },
        }
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.path == "parameters.b"

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
        raw = {
            "kind": "custom",
            "parameters": {
                "A1": [[-0.5, 1.0, 0.0, 0.0], [-1.0, -0.5, 0.0, 0.0],
                       [0.0, 0.0, -0.5, w2], [0.0, 0.0, -w2, -0.5]],
                "S": [[0.0, 1.0, 0.0, 0.3], [1.0, 0.0, 0.2, 0.0],
                      [0.0, 0.2, 0.0, 1.0], [0.3, 0.0, 1.0, 0.0]],
                "c": [1.0, 0.2, 0.5, 0.1],
                "v": [1.0, 0.5, 1.0, 0.2],
                "xi0": 0.0,
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


class TestTraceCsvWriter:
    """The block writer reproduces the row formatter's bytes and keeps its
    memory to a block of rows."""

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

    def test_memory_does_not_grow_with_rows(self, tmp_path):
        # the row-at-a-time writer peaked at 45 MiB here, this one at 0.5 MiB
        tr = awkward_trace(200_000)
        assert peak_mib(lambda: write_trace_csv(tmp_path / "trace.csv", tr)) < 16

    def test_failed_stream_keeps_previous_file(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_bytes(b"previous\n")

        def blocks():
            yield "t,error\n"
            yield "0.0,1.0\n" * 100_000  # past the buffer, onto disk
            raise RuntimeError("block failed")

        with pytest.raises(RuntimeError, match="block failed"):
            _atomic_write(str(path), blocks())
        assert path.read_bytes() == b"previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.csv"]

    def test_fdopen_failure_closes_descriptor(self, tmp_path, monkeypatch):
        fds = []
        mkstemp = tempfile.mkstemp

        def recording_mkstemp(*args, **kwargs):
            fd, name = mkstemp(*args, **kwargs)
            fds.append(fd)
            return fd, name

        def failing_fdopen(*args, **kwargs):
            raise OSError("no stream")

        monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        with pytest.raises(OSError, match="no stream"):
            _atomic_write(str(tmp_path / "x.csv"), ["a\n"])
        monkeypatch.undo()
        with pytest.raises(OSError):
            os.fstat(fds[0])
        assert list(tmp_path.iterdir()) == []


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
        cfg = validate_config({"kind": "spring_mass", "grid": {"t_end": 5.0}})
        assert sorted(check_oracles(cfg, t_samples=3)) == [
            "max_rel_deviation", "pairs", "worst_pair"]
        spot = run_scenario(cfg, str(tmp_path))["oracle_check"]
        assert sorted(spot) == ["max_rel_deviation", "methods", "pairs",
                                "sample_times"]
        assert spot["methods"] == ["analytic", "blockaug", "fd"]


class TestOracleSpotCheck:
    def test_pairs_keep_fd_truncation_apart(self, tmp_path):
        # the five-time spot check of ``run``: fd's O(h^2) truncation (3.4e-8
        # here) sets the maximum, analytic vs blockaug agrees to 1.2e-12
        spot = run_scenario(validate_config({"kind": "two_qubit"}),
                            str(tmp_path))["oracle_check"]
        pairs = spot["pairs"]
        assert sorted(pairs) == ["analytic_vs_blockaug", "analytic_vs_fd",
                                 "blockaug_vs_fd"]
        assert spot["max_rel_deviation"] == max(pairs.values())
        assert pairs["analytic_vs_blockaug"] <= 1e-11
        assert max(pairs, key=pairs.get) in ("analytic_vs_fd", "blockaug_vs_fd")
        assert min(pairs["analytic_vs_fd"], pairs["blockaug_vs_fd"]) > 1e3 * pairs[
            "analytic_vs_blockaug"]


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


    def test_one_quadrature_per_distinct_step(self, monkeypatch):
        # each path is one trace over the sorted sample times: linspace(0,
        # 50, 20) has steps 0 and three roundings of 50/19
        import logsens.cli as cli
        import logsens.sensan as sensan
        steps = []
        orig = sensan.dderiv_oracle_quadrature

        def counted(A, S, t, **kwargs):
            steps.append(t)
            return orig(A, S, t, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("per-time derivative in check")

        monkeypatch.setattr(sensan, "dderiv_oracle_quadrature", counted)
        monkeypatch.setattr(sensan, "error_derivative", refuse)
        monkeypatch.setattr(cli, "error_derivative", refuse)
        check_oracles(validate_config({"kind": "spring_mass"}), t_samples=20)
        assert len(steps) == len(set(steps)) == 4

    @pytest.mark.parametrize("kind", ["two_qubit", "spring_mass"])
    def test_one_full_quadrature_per_check(self, kind, monkeypatch):
        # linspace(0, t_end, 20) spells t_end/19 up to six ways; one full
        # quadrature runs, every other call is 0 or a remainder of at most
        # 4 ulp(t_end)
        import logsens.sensan as sensan
        steps = []
        orig = sensan.dderiv_oracle_quadrature

        def counted(A, S, t, **kwargs):
            steps.append(t)
            return orig(A, S, t, **kwargs)

        monkeypatch.setattr(sensan, "dderiv_oracle_quadrature", counted)
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
        coarse = functools.partial(sensan.dderiv_oracle_quadrature, max_panels=1)
        monkeypatch.setattr(sensan, "dderiv_oracle_quadrature", coarse)
        cfg = validate_config({"kind": "rlc"})
        sys_ = build_system(cfg)[0]
        steps = np.diff(np.linspace(0.0, 50.0, 20), prepend=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            coarse(sys_.A0, sys_.S, np.min(steps[steps > 0]))
            achieved = caught.pop().message.achieved
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

    def test_unreachable_flagged(self):
        rows = table1_repro("n2", (1.5,))
        assert rows[0]["flag"] == "unreachable"
        assert rows[0]["abs_logsens"] is None

    def test_monotone_tradeoff(self):
        rows = table1_repro("n2", (0.9, 0.99, 0.999, 0.9999))
        vals = [r["abs_logsens"] for r in rows]
        assert vals == sorted(vals)


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

    def test_config_error_is_2(self, tmp_path, capsys):
        cfg = self.write(tmp_path, {"kind": "sprong_mass"})
        assert main(["run", cfg]) == 2
        assert "config error" in capsys.readouterr().err

    def test_invalid_json_is_2(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{nope")
        assert main(["run", str(p)]) == 2

    def test_numerical_failure_is_1(self, tmp_path, capsys):
        # schema-valid but dynamically unstable custom system
        cfg = self.write(tmp_path, {
            "kind": "custom",
            "parameters": {"A1": [[1.0]], "S": [[0.0]], "c": [1.0],
                           "v": [1.0], "xi0": 1.0},
        })
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["trace", "_csv_blocks"])
    def test_out_of_memory_is_1(self, where, tmp_path, capsys, monkeypatch):
        # raised by the trace, or by the CSV writer after its first block
        import logsens.cli as cli

        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        def exhausted_after_header(tr):
            yield "t,error\n"
            exhausted()

        monkeypatch.setattr(cli, where, {"trace": exhausted,
                                         "_csv_blocks": exhausted_after_header}[where])
        cfg = self.write(tmp_path, {"kind": "spring_mass",
                                    "grid": {"t_end": 5.0}})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("out of memory: Unable")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_grid_override(self, tmp_path):
        cfg = self.write(tmp_path, {"kind": "spring_mass"})
        rc = main(["run", cfg, "--out-dir", str(tmp_path),
                   "--grid", "0:5:0.1"])
        assert rc == 0
        rows = (tmp_path / "trace.csv").read_text().strip().split("\n")
        assert len(rows) == 52  # header + 51 samples

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
        for argv in (["run", cfg, "--out-dir", str(tmp_path)], ["check", cfg]):
            assert main(argv) == 2
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
        # the default budget refuses these before np.arange is reached
        cfg = self.write(tmp_path, {"kind": "spring_mass", "grid": grid})
        assert main(["run", cfg, "--out-dir", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("config error: grid: ")

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
