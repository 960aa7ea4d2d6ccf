"""Tests for trace evaluation, divergence classification and spike analysis."""

import math
from dataclasses import asdict

import numpy as np
import pytest
from conftest import (
    jordan_layouts,
    make_jordan_system,
    peak_mib,
    reference_dderiv_jordan,
)
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from logsens.matexp import (
    Couplings,
    Spectrum,
    _refuse_imaginary,
    _require_real,
    couplings,
    dderiv_jordan,
    dderiv_oracle_blockaug,
    dderiv_oracle_fd,
    dderiv_oracle_quadrature,
    eig_decompose,
)
from logsens.quantum import spin_chain_scenario
from logsens.sensan import (
    _BLOCK,
    _METHOD_ADVICE,
    DERIVATIVE_METHODS,
    DivergenceClassification,
    ErrorSystem,
    SensitivityTrace,
    _horner,
    _modal,
    classify,
    detect_spikes,
    error_derivative,
    error_signal,
    fit_polynomial_degree,
    fit_slope,
    log_sensitivity,
    spike_schedule,
    trace,
)

SPRING_A0 = np.array([[0.0, 1.0], [-10.0, -7.0]])
SPRING_S = np.array([[0.0, 0.0], [-1.0, 0.0]])


def spring_system():
    # closed-loop spring-mass, poles -2/-5, xi0 = 4, v = -k0 * A0^-1 b
    return ErrorSystem(A0=SPRING_A0, S=SPRING_S, c=[1.0, 0.0], v=[1.0, 0.0],
                       xi0=4.0)


class TestErrorSystem:
    def test_unstable_rejected(self):
        with pytest.raises(ValueError, match="stable"):
            ErrorSystem(A0=[[0.1, 0.0], [0.0, -1.0]], S=np.zeros((2, 2)),
                        c=[1.0, 0.0], v=[1.0, 0.0], xi0=1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            ErrorSystem(A0=SPRING_A0, S=np.zeros((3, 3)), c=[1.0, 0.0],
                        v=[1.0, 0.0], xi0=1.0)

    @pytest.mark.parametrize("field", ["S", "c", "v"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, field, bad):
        # refused by name at construction, whatever method would run later
        data = {"A0": SPRING_A0, "S": SPRING_S.copy(), "c": np.array([1.0, 0.0]),
                "v": np.array([1.0, 0.0])}
        data[field].flat[-1] = bad
        with pytest.raises(ValueError, match=f"^{field} contains non-finite entries"):
            ErrorSystem(xi0=4.0, **data)

    def test_tracking_error_at_zero(self):
        assert error_signal(spring_system(), 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_one_eigensolve(self, monkeypatch):
        # the stability check's eig pair is the spectrum's: same bits
        ref = eig_decompose(SPRING_A0)
        calls = []
        for name in ("eig", "eigvals"):
            orig = getattr(np.linalg, name)

            def counted(*args, _orig=orig, _name=name, **kwargs):
                calls.append(_name)
                return _orig(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        sys = spring_system()
        spec = sys.spectrum()
        trace(sys, np.linspace(0.0, 5.0, 11))
        assert calls == ["eig"] and sys.spectrum() is spec
        for field in ("eigenvalues", "M", "Minv"):
            np.testing.assert_array_equal(getattr(spec, field), getattr(ref, field))
        assert (spec.clusters, spec.cond_M) == (ref.clusters, ref.cond_M)


class TestErrorSignal:
    def test_spring_mass_modal_expansion(self):
        # e(t) = (5 exp(-2t) - 2 exp(-5t)) / 3 from the two-mode expansion
        got = error_signal(spring_system(), 1.0)
        expected = (5 * np.exp(-2.0) - 2 * np.exp(-5.0)) / 3.0
        assert got == pytest.approx(expected, abs=1e-12)
        assert got == pytest.approx(0.221067, abs=1e-6)

    def test_matches_expm_oracle(self):
        from scipy.linalg import expm
        sys = spring_system()
        for t in (0.3, 1.7, 6.0):
            ref = float(sys.c @ expm(sys.A0 * t) @ sys.v)
            assert error_signal(sys, t) == pytest.approx(ref, abs=1e-12)


class TestErrorDerivative:
    def test_one_list_of_methods(self):
        # the order fixes the pair names that `logsens check` prints; trace
        # and error_derivative accept exactly these methods
        assert DERIVATIVE_METHODS == ("analytic", "quadrature", "blockaug", "fd")
        sys = spring_system()
        for method in DERIVATIVE_METHODS:
            assert np.isfinite(trace(sys, [1.0], method).derror[0])
            assert np.isfinite(error_derivative(sys, 1.0, method=method))
        with pytest.raises(ValueError, match="unknown method 'oracle'"):
            trace(sys, [1.0], method="oracle")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            error_derivative(spring_system(), 1.0, method="magic")

    @pytest.mark.parametrize("method", DERIVATIVE_METHODS)
    def test_one_sample_trace(self, method):
        # error_derivative is trace's value, bit for bit, for every path;
        # error_signal and log_sensitivity are the analytic trace's
        sys, _ = cli_system("two_qubit")
        for t in (0.0, 3.0, 30.5):
            assert error_derivative(sys, t, method) == trace(sys, [t], method).derror[0]
            tr = trace(sys, [t])
            assert error_signal(sys, t) == tr.error[0]
            assert log_sensitivity(sys, t) == tr.logsens[0]

    def test_fd_without_cancellation(self):
        # fd through trace is the stepped deviation form, 6.6e-10 of |de/dxi|
        # from blockaug here; subtracting two full exponentials read 7.9e-9
        sys, _ = cli_system("two_qubit")
        ref = error_derivative(sys, 3.0, "blockaug")
        assert abs(error_derivative(sys, 3.0, "fd") - ref) <= 1e-9 * abs(ref)


class TestLogSensitivity:
    def test_zero_at_t0(self):
        assert log_sensitivity(spring_system(), 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_asymptotic_linear_growth(self):
        sys = spring_system()
        for t in (15.0, 30.0):
            s = log_sensitivity(sys, t)
            assert abs(abs(s) - (4.0 / 3.0) * t) < 1.0  # bounded remainder


class TestTrace:
    def test_empty_grid(self):
        tr = trace(spring_system(), [])
        assert len(tr) == 0

    def test_decreasing_grid_rejected(self):
        with pytest.raises(ValueError):
            trace(spring_system(), [0.0, 1.0, 0.5])

    def test_analytic_vs_fd(self):
        sys = spring_system()
        grid = np.arange(0.0, 50.0001, 0.5)
        tra = trace(sys, grid, method="analytic")
        trf = trace(sys, grid, method="fd")
        scale = np.max(np.abs(tra.derror))
        assert np.max(np.abs(tra.derror - trf.derror)) / scale < 1e-5

    def test_analytic_vs_blockaug_and_quadrature(self):
        sys = spring_system()
        grid = np.array([0.5, 2.0, 7.0])
        tra = trace(sys, grid, method="analytic")
        trb = trace(sys, grid, method="blockaug")
        trq = trace(sys, grid, method="quadrature")
        np.testing.assert_allclose(tra.derror, trb.derror, atol=1e-9)
        np.testing.assert_allclose(tra.derror, trq.derror, atol=1e-8)

    def test_logsens_identity(self):
        sys = spring_system()
        tr = trace(sys, np.linspace(0.1, 10, 57))
        ok = ~tr.spike_mask
        np.testing.assert_allclose(
            tr.logsens[ok], sys.xi0 * tr.derror[ok] / tr.error[ok], rtol=1e-12)

    def test_spike_mask_nan(self):
        sys = spring_system()
        tr = trace(sys, np.arange(0.0, 40.0, 0.05))
        assert np.all(np.isnan(tr.logsens[tr.spike_mask]))
        assert np.all(np.isfinite(tr.logsens[~tr.spike_mask]))

    def test_near_defective_advises_oracle(self):
        A = np.array([[-1.0, 1.0], [1e-28, -1.0]])
        sys = ErrorSystem(A0=A, S=np.eye(2), c=[1.0, 0.0], v=[0.0, 1.0], xi0=1.0)
        with pytest.raises(ValueError, match="blockaug"):
            trace(sys, [0.0, 1.0], method="analytic")
        with pytest.raises(ValueError, match="blockaug"):
            error_signal(sys, 1.0)
        tr = trace(sys, [0.0, 1.0], method="blockaug")
        assert np.all(np.isfinite(tr.derror))

    def test_near_defective_advice_names_cli_methods_first(self):
        # run/check configs cannot carry Jordan data; the CLI methods can run
        A = np.array([[-1.0, 1.0], [0.0, -1.0]])
        S = np.array([[0.0, 0.0], [1.0, 0.0]])
        sys = ErrorSystem(A0=A, S=S, c=[1.0, 0.0], v=[0.0, 1.0], xi0=0.0)
        with pytest.raises(ValueError) as exc:
            trace(sys, [0.0, 1.0])
        spec = sys.spectrum()
        diag = classify(spec, couplings(spec, S, sys.c, sys.v), 0.0).diagnostic
        for msg in (str(exc.value), diag):
            assert "--method quadrature|blockaug|fd" in msg
            assert msg.index("--method") < msg.index("from_jordan")


def blockaug_column(sys, grid):
    return np.array([sys.c @ dderiv_oracle_blockaug(sys.A0, sys.S, t) @ sys.v
                     for t in grid])


def random_stable_system(seed, n):
    """Random n-state system shifted to decay at a rate in [0.01, 0.5]."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    lam = np.linalg.eigvals(A)
    A -= (np.max(lam.real) + rng.uniform(0.01, 0.5)) * np.eye(n)
    return ErrorSystem(A0=A, S=rng.standard_normal((n, n)),
                       c=rng.standard_normal(n), v=rng.standard_normal(n), xi0=1.0)


def similar_system(seed, eigenvalues):
    """Random-basis system with the given real spectrum (plus one decaying pair)."""
    rng = np.random.default_rng(seed)
    n = len(eigenvalues) + 2
    B = np.zeros((n, n))
    B[:2, :2] = [[-0.5, 1.5], [-1.5, -0.5]]
    B[2:, 2:] = np.diag(eigenvalues)
    M = np.eye(n) + 0.3 * rng.standard_normal((n, n))
    return ErrorSystem(A0=M @ B @ np.linalg.inv(M), S=rng.standard_normal((n, n)),
                       c=rng.standard_normal(n), v=rng.standard_normal(n), xi0=1.0)


class TestModalEvaluator:
    """Analytic traces against per-time block-augmented expm."""

    def test_decayed_tail_matches_blockaug(self):
        sys = similar_system(3, [-1.0, -2.5, -4.0])
        grid = np.linspace(20.0, 70.0, 101)  # |de/dxi| falls by ~1e11 here
        ref = blockaug_column(sys, grid)
        got = trace(sys, grid).derror
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-10

    @pytest.mark.parametrize("gap", [6e-8, 2e-7, 1e-6])
    def test_gap_just_above_cluster_tol(self, gap):
        # cluster threshold is 1e-8 * (1 + max|lam|) ~ 4e-8: these stay apart
        sys = similar_system(11, [-1.0, -1.0 - gap, -3.0])
        assert len(sys.spectrum().clusters) == sys.n
        grid = np.linspace(0.0, 30.0, 61)
        ref = blockaug_column(sys, grid)
        got = trace(sys, grid).derror
        # (e_m - e_n) / gap cancels in every eigenbasis form: ~eps/gap is lost
        tol = 100 * np.finfo(float).eps / gap
        assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < tol

    def test_imaginary_residue_refused(self):
        # a spectrum that is not closed under conjugation leaves Im(de/dxi) != 0
        spec = Spectrum(eigenvalues=np.array([-1.0 + 1.0j, -2.0 + 0.0j]),
                        M=np.eye(2, dtype=complex), Minv=np.eye(2, dtype=complex),
                        clusters=((0,), (1,)))
        sys = ErrorSystem(A0=np.diag([-1.0, -2.0]), S=np.ones((2, 2)),
                          c=[1.0, 1.0], v=[1.0, 1.0], xi0=1.0)
        # the refusal names the trace's alternatives, not the matrix oracles
        with pytest.raises(ArithmeticError, match=r"imaginary residue.*\(use "
                           r"--method quadrature\|blockaug\|fd\)$"):
            trace(sys, np.linspace(0.0, 2.0, 5), spectrum=spec)
        with pytest.raises(ArithmeticError, match=r"\(use dderiv_oracle_blockaug "
                           r"or dderiv_oracle_quadrature\)$"):
            dderiv_jordan(spec, np.ones((2, 2)), 2.0)

    def test_kept_coefficients_follow_the_spectrum(self):
        sys = similar_system(5, [-1.0, -2.0])
        grid = np.linspace(0.0, 5.0, 11)
        first = trace(sys, grid).derror
        # a spectrum not closed under conjugation: its own coefficients
        # leave an imaginary residue, the kept ones would not
        bad = Spectrum(eigenvalues=np.array([-1.0 + 1.0j, -2.0, -3.0, -4.0]),
                       M=np.eye(4, dtype=complex), Minv=np.eye(4, dtype=complex),
                       clusters=((0,), (1,), (2,), (3,)))
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            trace(sys, grid, spectrum=bad)
        np.testing.assert_array_equal(trace(sys, grid).derror, first)


def reference_coefficients(sys, spec):
    """The per-mode coefficients of a diagonalizable spectrum before Jordan
    blocks were folded in: e = Re zw @ exp(lam_raw t), de/dxi = Re (a + b t)
    @ exp(lam t) at the cluster means lam."""
    coup = sys.couplings(spec)
    lam, same = spec.layout[:2]
    W = coup.Sbar * np.outer(coup.z, coup.w)
    R = np.where(same, 0.0, W / np.where(same, 1.0, lam[:, None] - lam[None, :]))
    a = R.sum(axis=1) - R.sum(axis=0)
    b = np.where(same, W, 0.0).sum(axis=1)
    return coup.z * coup.w, lam, a, b


def reference_modal(sys, spec, times):
    """The unblocked evaluator the blocked one replaced: n x T exponentials
    over the whole grid, a second set for the error, one residue check."""
    zw, lam, a, b = reference_coefficients(sys, spec)
    error = np.real(zw @ np.exp(np.outer(spec.eigenvalues, times)))
    E = np.exp(np.outer(lam, times))
    derror = _require_real(a @ E + (b @ E) * times, 1e-9, "analytic derivative")
    return error, derror


def reference_minima_timing(zw, omegas, omega0, samples: int = 8192):
    """The unblocked ``_numeric_minima_timing``: the modulus from one
    n x samples array."""
    T = 2 * np.pi / omega0
    ts = np.linspace(0.0, T, samples, endpoint=False)
    h = np.abs(np.sum(zw[:, None] * np.exp(1j * np.outer(omegas, ts)), axis=0))
    # local minima with periodic wraparound
    left = np.roll(h, 1)
    right = np.roll(h, -1)
    is_min = (h <= left) & (h <= right) & ((h < left) | (h < right))
    idx = np.nonzero(is_min)[0]
    if len(idx) == 0:
        return None
    depth = h[idx]
    keep = idx[depth <= depth.min() + 1e-6 * (h.max() - depth.min() + 1e-300)]
    # parabolic refinement of each kept minimum
    times = []
    for i in keep:
        y0, y1, y2 = h[(i - 1) % samples], h[i], h[(i + 1) % samples]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if abs(denom) > 0 else 0.0
        times.append((ts[i] + shift * (T / samples)) % T)
    times = np.sort(np.array(times))
    if len(times) > 1:
        gaps = np.diff(np.concatenate([times, [times[0] + T]]))
        if np.max(gaps) - np.min(gaps) > 1e-3 * T:
            return None
    spacing = T / len(times)
    t0 = times[0] if times[0] > 1e-9 * T else times[0] + spacing
    return t0, spacing


class TestBlockedModal:
    """Blocks of ``_BLOCK`` samples against the unblocked evaluator.

    A grid of at most one block is the reference's own call, bit for bit.
    Longer grids contract blocks with the same BLAS kernel on fewer
    columns, whose rounding depends on the column count: on spin_chain
    N >= 4 the error and de/dxi move by at most 5.6e-16 of the column
    maximum (the bound below is 1e-15); two_qubit and the classical
    systems come out identical.
    """

    DRIFT = 1e-15

    @pytest.mark.parametrize("length", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1,
                                        2 * _BLOCK + 5])
    @pytest.mark.parametrize("kind,params", [("two_qubit", {}),
                                             ("spin_chain", {"N": 10})],
                             ids=["two_qubit", "spin_chain_N10"])
    def test_matches_unblocked(self, kind, params, length):
        from logsens.cli import build_system, validate_config
        cfg = validate_config({"kind": kind, "parameters": params})
        sys = build_system(cfg)[0]
        spec = sys.spectrum()
        times = cfg.grid[2] * np.arange(length)
        for got, want in zip(_modal(sys, spec, times), reference_modal(sys, spec, times)):
            if length <= _BLOCK:
                np.testing.assert_array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= self.DRIFT * np.max(np.abs(want))

    def test_residue_judged_on_the_whole_trace(self):
        # an unpaired complex mode leaves Im(de/dxi) ~ 1e-8 t; a fast real
        # mode sets |de/dxi| ~ 3.7e3 in the first block and ~3e-8 in the
        # last, so only a per-block scale of max(1, ...) would refuse
        spec = Spectrum(eigenvalues=np.array([-1.0 + 0.0j, -1e-3 + 1.0j]),
                        M=np.eye(2, dtype=complex), Minv=np.eye(2, dtype=complex),
                        clusters=((0,), (1,)))
        sys = ErrorSystem(A0=np.diag([-1.0, -2.0]), S=np.diag([1e4, 1e-8]),
                          c=[1.0, 1.0], v=[1.0, 1.0], xi0=1.0)
        grid = np.linspace(0.0, 30.0, 2 * _BLOCK + 5)
        tr = trace(sys, grid, spectrum=spec)
        np.testing.assert_array_equal(tr.derror, reference_modal(sys, spec, grid)[1])
        with pytest.raises(ArithmeticError, match="imaginary residue"):
            trace(sys, grid[2 * _BLOCK:], spectrum=spec)

    def test_trace_memory(self):
        # unblocked: 61 MiB (n x T complex exponentials, twice)
        _, sys = spin_chain_scenario(10)
        sys.spectrum()
        grid = 0.01 * np.arange(20_000)
        assert peak_mib(lambda: trace(sys, grid)) < 16


class TestBlockedMinimaScan:
    @pytest.mark.parametrize("N", range(3, 11))
    def test_classify_matches_unblocked(self, N, monkeypatch):
        import logsens.sensan as sensan
        calls = []

        def unblocked(*args):
            calls.append(args)
            return reference_minima_timing(*args)

        for pc in range(1, N):
            _, sys = spin_chain_scenario(N, perturbed_coupling=pc)
            spec = sys.spectrum()
            coup = couplings(spec, sys.S, sys.c, sys.v)
            blocked = asdict(classify(spec, coup, sys.xi0))
            monkeypatch.setattr(sensan, "_numeric_minima_timing", unblocked)
            assert asdict(classify(spec, coup, sys.xi0)) == blocked
            monkeypatch.undo()
        assert len(calls) == N - 1

    def test_classify_memory(self):
        # unblocked: 24.2 MiB (three 100 x 8192 complex arrays)
        _, sys = spin_chain_scenario(10)
        spec = sys.spectrum()
        coup = couplings(spec, sys.S, sys.c, sys.v)
        assert peak_mib(lambda: classify(spec, coup, sys.xi0)) < 8


def blocked_reference_modal(sys, spec, times):
    """The blocked ``_modal`` before its exponent plan: one exp per mode at
    the cluster means for de/dxi, and a second exp, for the error, on every
    mode whose cluster mean is not its own eigenvalue."""
    coup, p = sys.couplings(spec), np.arange(spec.n)
    lam, same = spec.layout[:2]
    d = np.where(same, 1.0, lam[:, None] - lam[None, :])
    head, end = p.copy(), p + 1
    for s, size in spec.jordan_blocks:
        head[s:s + size], end[s:s + size] = s, s + size
    L = int(np.max(end - head))
    zs = [np.where(p - i >= head, np.roll(coup.z, i), 0) for i in range(L)]
    ws = [np.where(p + j < end, np.roll(coup.w, -j), 0) for j in range(L)]
    C = np.zeros((2 * L, spec.n), np.result_type(coup.Sbar, lam))
    for i, j in np.ndindex(L, L):
        W = coup.Sbar * np.outer(zs[i], ws[j])
        C[i + j + 1] += np.where(same, W, 0.0).sum(axis=1) / math.factorial(i + j + 1)
        R = np.where(same, 0.0, W)
        for r in range(i + j, -1, -1):
            R, f = R / d, math.factorial(r)
            if r <= i:
                C[r] += (-1) ** (i - r) * math.comb(i + j - r, j) / f * R.sum(axis=1)
            if r <= j:
                C[r] -= (-1) ** i * math.comb(i + j - r, i) / f * R.sum(axis=0)
    Ce = np.array([zs[i] * coup.w / math.factorial(i) for i in range(L)])
    moved = np.flatnonzero(lam != spec.eigenvalues)
    error, derror = np.empty(len(times)), np.empty(len(times))
    resid = absmax = 0.0
    for lo in range(0, len(times), _BLOCK):
        tb = times[lo:lo + _BLOCK]
        E = np.exp(np.outer(lam, tb))
        Er = E
        if len(moved):
            Er = E.copy()
            Er[moved] = np.exp(np.outer(spec.eigenvalues[moved], tb))
        error[lo:lo + _BLOCK] = np.real(_horner(Ce, Er, tb))
        X = _horner(C, E, tb)
        derror[lo:lo + _BLOCK] = X.real
        resid = max(resid, float(np.max(np.abs(X.imag))))
        absmax = max(absmax, float(np.max(np.abs(X))))
    _refuse_imaginary(resid, absmax, 1e-9, "analytic derivative", _METHOD_ADVICE)
    return error, derror


PLAN_LENGTHS = (1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 5)
RLC_COMPLEX_POLES = [[-2.0, math.pi / 10], [-2.0, -math.pi / 10]]


def config_system(kind, params=None):
    """A CLI scenario's system and its grid's (t_start, dt)."""
    from logsens.cli import build_system, validate_config
    cfg = validate_config({"kind": kind, "parameters": params or {}})
    return build_system(cfg)[0], cfg.grid[0], cfg.grid[2]


class TestExponentPlan:
    """``_modal`` exponentiates each distinct exponent once, up to
    conjugation, and returns the bytes of one exp per row."""

    @staticmethod
    def assert_same_bytes(sys, spec, t0, dt):
        for length in PLAN_LENGTHS:
            times = t0 + dt * np.arange(length)
            want = blocked_reference_modal(sys, spec, times)
            for got, ref in zip(_modal(sys, spec, times), want):
                assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("N", range(2, 11))
    def test_spin_chains_bitwise(self, N):
        for pc in range(1, N):
            sys, t0, dt = config_system("spin_chain", {"N": N, "perturbed_coupling": pc})
            self.assert_same_bytes(sys, sys.spectrum(), t0, dt)

    @pytest.mark.parametrize("kind,params", [
        ("two_qubit", {"perturbation": "S1"}), ("two_qubit", {"perturbation": "S2"}),
        ("two_qubit", {"perturbation": "S3"}), ("two_qubit", {"perturbation": "S4"}),
        ("spring_mass", {}), ("rlc", {}), ("rlc", {"poles": RLC_COMPLEX_POLES})],
        ids=["two_qubit_S1", "two_qubit_S2", "two_qubit_S3", "two_qubit_S4",
             "spring_mass", "rlc_real", "rlc_complex"])
    def test_shipped_systems_bitwise(self, kind, params):
        sys, t0, dt = config_system(kind, params)
        self.assert_same_bytes(sys, sys.spectrum(), t0, dt)

    @pytest.mark.parametrize("seed,sizes,n_extra,eigenvalues", [
        (3, [2, 1], 0, [-0.2 + 1.0j, -0.7]),  # a conjugate pair of size-2 blocks
        (5, [2, 2], 1, [-0.3 + 0.5j, -0.9 + 1.5j]),
        (1, [3], 2, None),
        (7, [2, 2], 1, None),  # two blocks at one eigenvalue
        (2, [3, 1], 1, [-0.4, -1.1 + 0.5j]),
    ])
    def test_jordan_layouts_bitwise(self, seed, sizes, n_extra, eigenvalues):
        sys, spec = jordan_case(seed, sizes, n_extra, eigenvalues=eigenvalues)
        self.assert_same_bytes(sys, spec, 0.0, 0.03)

    @pytest.mark.parametrize("kind,params,count", [
        ("spin_chain", {"N": 4}, 12), ("spin_chain", {"N": 10}, 60),
        ("two_qubit", {}, 13)])
    def test_exponentials_per_sample(self, kind, params, count):
        # one exp per mode at the means, and per moved mode again, before:
        # 30 on spin_chain N=4, 198 on N=10, 22 on two_qubit
        sys, _, _ = config_system(kind, params)
        _modal(sys, sys.spectrum(), np.zeros(1))
        assert len(sys._modal_coefficients[3][0]) == count


def same_mirror_bytes(z):
    return np.exp(np.conj(z)).tobytes() == np.conj(np.exp(z)).tobytes()


class TestMirrorIdentity:
    """``exp(conj z) == conj(exp z)`` bit for bit, which the exponent plan
    relies on; a libm without this symmetry fails here by name."""

    @pytest.mark.parametrize("kind,params", [
        ("spin_chain", {"N": 4}), ("spin_chain", {"N": 10}), ("two_qubit", {})],
        ids=["spin_chain_N4", "spin_chain_N10", "two_qubit"])
    def test_shipped_exponents(self, kind, params):
        from logsens.cli import build_system, validate_config
        cfg = validate_config({"kind": kind, "parameters": params})
        spec = build_system(cfg)[0].spectrum()
        times = cfg.grid_times()
        for lam in (spec.layout[0], spec.eigenvalues):
            assert same_mirror_bytes(np.outer(lam, times))

    def test_minima_scan_exponents(self, monkeypatch):
        import logsens.sensan as sensan
        scans = []
        scan = sensan._numeric_minima_timing

        def recorded(zw, omegas, omega0):
            scans.append((omegas, omega0))
            return scan(zw, omegas, omega0)

        monkeypatch.setattr(sensan, "_numeric_minima_timing", recorded)
        for N in range(3, 11):
            _, sys = spin_chain_scenario(N)
            spec = sys.spectrum()
            classify(spec, couplings(spec, sys.S, sys.c, sys.v), sys.xi0)
        assert len(scans) == 8
        for omegas, omega0 in scans:
            ts = np.linspace(0.0, 2 * np.pi / omega0, 8192, endpoint=False)
            assert same_mirror_bytes(1j * np.outer(omegas, ts))

    def test_random_exponents(self):
        rng = np.random.default_rng(20221)
        z = rng.uniform(-700.0, 700.0, 100_000) + 1j * rng.uniform(-1e4, 1e4, 100_000)
        assert same_mirror_bytes(z)


def reference_jordan_trace(sys, spec, times):
    """The per-sample loop the modal evaluator replaced on Jordan spectra:
    the closed-form ``reference_dderiv_jordan`` at every time (one dominant
    block only), and the error summed along each block at its leading
    eigenvalue."""
    coup = sys.couplings(spec)
    lam = spec.eigenvalues
    error, derror = np.empty(len(times)), np.empty(len(times))
    for i, t in enumerate(times):
        val = np.sum(coup.z * coup.w * np.exp(lam * t))
        for start, size in spec.jordan_blocks:
            for p in range(start, start + size - 1):
                for q in range(p + 1, start + size):
                    val += (coup.z[p] * coup.w[q] * np.exp(lam[start] * t)
                            * t ** (q - p) / math.factorial(q - p))
        error[i] = val.real
        derror[i] = float(sys.c @ reference_dderiv_jordan(spec, coup.Sbar, t) @ sys.v)
    return error, derror


def jordan_case(seed, sizes, n_extra=0, **kw):
    """(ErrorSystem, Spectrum) of a random real defective system."""
    rng = np.random.default_rng(seed)
    A, spec = make_jordan_system(rng, sizes, n_extra, **kw)
    n = spec.n
    sys = ErrorSystem(A0=A, S=rng.standard_normal((n, n)), c=rng.standard_normal(n),
                      v=rng.standard_normal(n), xi0=1.0)
    return sys, spec


def column_dev(got, want):
    """Largest deviation of each column pair, as a fraction of its maximum."""
    return max(np.max(np.abs(g - w)) / np.max(np.abs(w)) for g, w in zip(got, want))


class TestJordanModal:
    """Jordan spectra go through the same blocked evaluator as every other.

    The per-sample loop it replaced agrees to ~2e-14 of column max on
    single-dominant-block systems (300 cases).  Across clusters the partial
    fractions cancel like ~eps / gap^(2l-1): at gaps of 0.1 most layouts
    sit within ~3e-10 of blockaug, but two size-3 blocks 0.1 apart reach
    1.03e-9, and on a complex pair of such blocks the imaginary residue
    crosses the 1e-9 refusal (``test_size3_blocks_0p1_apart``).
    """

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_reference_loop(self, seed):
        rng = np.random.default_rng(1000 + seed)
        sys, spec = jordan_case(seed, [int(rng.integers(2, 4))], int(rng.integers(1, 3)),
                                lam1=-float(rng.uniform(0.05, 0.5)),
                                spread=float(rng.uniform(0.4, 1.5)))
        grid = np.linspace(0.0, 40.0, 161)
        tr = trace(sys, grid, spectrum=spec)
        assert column_dev((tr.error, tr.derror),
                          reference_jordan_trace(sys, spec, grid)) <= 1e-12

    @given(jordan_layouts(), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60)
    # an exact size-2 block whose eigenvectors numpy returns exactly parallel:
    # the ErrorSystem's own spectrum is near-defective, not a singular matrix
    @example(layout=([2], [-0.4 + 0j]), seed=123595)
    def test_matches_blockaug(self, layout, seed):
        sizes, eigenvalues = layout
        sys, spec = jordan_case(seed, sizes, eigenvalues=eigenvalues)
        grid = np.linspace(0.0, 30.0, 121)
        tr = trace(sys, grid, spectrum=spec)
        ref = trace(sys, grid, method="blockaug")
        assert column_dev((tr.error, tr.derror), (ref.error, ref.derror)) <= 1e-9

    @pytest.mark.parametrize("steps, imag, seed", [
        pytest.param((19, 20, 11), (0.0, 0.0, 0.0), 0, marks=pytest.mark.xfail(
            strict=True, raises=AssertionError,
            reason="partial-fraction cancellation: 1.03e-9 of column max "
                   "from blockaug, above the 1e-9 bound")),
        pytest.param((19, 20, 1), (0.5, 0.5, 0.0), 299, marks=pytest.mark.xfail(
            strict=True, raises=ArithmeticError,
            reason="partial-fraction cancellation: _modal refuses an "
                   "imaginary residue of 3.26e-9 against 1e-9")),
    ], ids=["real", "complex_pair"])
    def test_size3_blocks_0p1_apart(self, steps, imag, seed):
        # two layouts jordan_layouts() draws, found by Hypothesis: blocks of
        # sizes 3, 3, 1 at -0.1 * steps (+ imag i)
        eigenvalues = [complex(-0.1 * s, w) for s, w in zip(steps, imag)]
        sys, spec = jordan_case(seed, [3, 3, 1], eigenvalues=eigenvalues)
        grid = np.linspace(0.0, 30.0, 121)
        tr = trace(sys, grid, spectrum=spec)
        ref = trace(sys, grid, method="blockaug")
        assert column_dev((tr.error, tr.derror), (ref.error, ref.derror)) <= 1e-9

    def test_conjugate_pair_of_blocks(self):
        sys, spec = jordan_case(3, [2, 1], eigenvalues=[-0.2 + 1.0j, -0.7])
        assert spec.jordan_blocks == ((0, 2), (2, 2), (4, 1))
        grid = np.linspace(0.0, 30.0, 121)
        tr = trace(sys, grid, spectrum=spec)
        ref = trace(sys, grid, method="blockaug")
        assert column_dev((tr.error, tr.derror), (ref.error, ref.derror)) <= 1e-9

    @pytest.mark.parametrize("sizes", [[2, 2], [2, 1], [3, 2, 1]])
    def test_blocks_at_one_eigenvalue(self, sizes):
        # each declared block used to be its own cluster: 0 / 0 across them
        sys, spec = jordan_case(7, sizes, n_extra=1)
        assert tuple(range(sum(sizes))) in spec.clusters
        grid = np.linspace(0.0, 30.0, 121)
        tr = trace(sys, grid, spectrum=spec)
        ref = trace(sys, grid, method="blockaug")
        assert column_dev((tr.error, tr.derror), (ref.error, ref.derror)) <= 1e-9

    @pytest.mark.parametrize("sizes, n_extra, eigenvalues", [
        ([3], 2, None), ([2, 2], 1, None), ([1, 3], 1, [-0.2, -0.6]),
        ([2, 1], 0, [-0.2 + 1.0j, -0.7]),
    ], ids=["leading_block", "two_blocks_one_eigenvalue", "block_at_index_1",
            "conjugate_pair"])
    def test_matrix_kernel_contracts_to_trace(self, sizes, n_extra, eigenvalues):
        # dderiv_jordan and _modal are two contractions of one kernel
        sys, spec = jordan_case(4, sizes, n_extra, eigenvalues=eigenvalues)
        grid = np.linspace(0.0, 30.0, 61)
        derror = trace(sys, grid, spectrum=spec).derror
        Sbar = sys.couplings(spec).Sbar
        got = [sys.c @ dderiv_jordan(spec, Sbar, t) @ sys.v for t in grid]
        assert np.max(np.abs(got - derror)) <= 1e-12 * np.max(np.abs(derror))

    def test_never_calls_dderiv_jordan(self, monkeypatch):
        import logsens.matexp as matexp
        import logsens.sensan as sensan

        def refuse(*args):
            raise AssertionError("dderiv_jordan called")

        monkeypatch.setattr(matexp, "dderiv_jordan", refuse)
        assert not hasattr(sensan, "dderiv_jordan")
        sys, spec = jordan_case(1, [3], n_extra=2)
        tr = trace(sys, np.linspace(0.0, 20.0, 81), spectrum=spec)
        assert np.all(np.isfinite(tr.derror))

    def test_memory(self):
        # the per-sample loop held only O(T) too, but took ~0.1 ms a sample
        sys, spec = jordan_case(2, [3], n_extra=2)
        grid = 1e-3 * np.arange(100_000)
        assert peak_mib(lambda: trace(sys, grid, spectrum=spec)) < 16

    @pytest.mark.parametrize("kind,params", [
        ("spring_mass", {}), ("rlc", {}), ("two_qubit", {}),
        ("spin_chain", {"N": 4}), ("spin_chain", {"N": 10})])
    def test_diagonalizable_coefficients_unchanged(self, kind, params):
        from logsens.cli import build_system, validate_config
        sys = build_system(validate_config({"kind": kind, "parameters": params}))[0]
        spec = sys.spectrum()
        _modal(sys, spec, np.zeros(1))
        _, Ce, C, (w, parts) = sys._modal_coefficients
        zw, lam_ref, a, b = reference_coefficients(sys, spec)
        assert Ce.shape == (1, spec.n) and C.shape == (2, spec.n)
        # the plan's rows: the cluster means, then the raw eigenvalues
        lam, lam_raw = (np.where(m[:, 0], np.conj(w[g]), w[g]) for g, m in parts)
        for got, want in zip((Ce[0], lam, lam_raw, C[0], C[1]),
                             (zw, lam_ref, spec.eigenvalues, a, b)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)


def cli_system(kind):
    from logsens.cli import build_system, validate_config
    cfg = validate_config({"kind": kind})
    return build_system(cfg)[0], cfg.grid_times()


def sampled_rows(times, k=12, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(np.r_[0, len(times) - 1, rng.integers(0, len(times), k)])


def matmul_stepped(step, x0, R, times):
    """``sensan._stepped`` with ``@`` for its per-sample products: the
    reference its ``ndarray.dot`` products must match bit for bit."""
    from logsens.sensan import _step_groups
    uniq, keys, base = _step_groups(times)
    last, drop = {}, [()] * len(keys)
    for i, k in enumerate(keys):
        last[k] = last[base[k]] = i
    for k, i in last.items():
        drop[i] += (k,)
    out, ops, x = np.empty((len(times), len(R))), {}, x0
    for i, k in enumerate(keys):
        P = ops.get(k)
        if P is None:
            b = base[k]
            if b not in ops:
                ops[b] = step(uniq[b])
            P = ops[k] = ops[b] if b == k else step(uniq[k] - uniq[b]) @ ops[b]
        x = P @ x
        out[i] = R @ x
        for j in drop[i]:
            del ops[j]
    return out.T


class TestOracleTraces:
    """Stepped oracle traces against per-time expm and oracle calls.

    Stepping accumulates rounding along the grid; measured at sampled rows
    of 5001-row grids: error <= 2e-13 and blockaug de/dxi <= 3e-12 of the
    column maximum.  The fd quotient is stepped without cancellation, so it
    lands no farther from blockaug than the per-time fd does.
    """

    @staticmethod
    def check(sys, times, methods=("blockaug", "fd")):
        rows = sampled_rows(times)
        ts = times[rows]
        e = np.array([sys.c @ expm(sys.A0 * t) @ sys.v for t in ts])
        ba = blockaug_column(sys, ts)
        fd = np.array([sys.c @ dderiv_oracle_fd(sys.A0, sys.S, t) @ sys.v
                       for t in ts])
        escale, dscale = np.max(np.abs(e)), np.max(np.abs(ba))
        for method in methods:
            tr = trace(sys, times, method=method)
            assert len(tr) == len(times)
            assert np.max(np.abs(tr.error[rows] - e)) <= 1e-11 * escale, method
            dev = np.max(np.abs(tr.derror[rows] - ba))
            if method == "blockaug":
                assert dev <= 1e-11 * dscale
            else:
                assert dev <= np.max(np.abs(fd - ba)) + 1e-10 * dscale

    @pytest.mark.parametrize("kind", ["spring_mass", "rlc", "two_qubit",
                                      "spin_chain"])
    def test_default_grids(self, kind):
        self.check(*cli_system(kind))

    @pytest.mark.parametrize("kind", ["spring_mass", "rlc", "two_qubit",
                                      "spin_chain"])
    def test_fd_oracle_is_the_one_sample_fd_trace(self, kind):
        # both exponentiate matexp._fd_generator, so they agree to rounding;
        # a quotient of two subtracted exponentials misses by 1e-11 to 5e-8
        sys, times = cli_system(kind)
        ts = times[sampled_rows(times)]
        oracle = np.array([sys.c @ dderiv_oracle_fd(sys.A0, sys.S, t) @ sys.v
                           for t in ts])
        stepped = np.array([error_derivative(sys, t, "fd") for t in ts])
        assert np.max(np.abs(oracle - stepped)) <= 1e-12 * np.max(np.abs(stepped))

    @pytest.mark.parametrize("grid", [
        0.3 * 50.0 + 0.01 * np.arange(2001),             # t0 > 0
        np.cumsum(np.random.default_rng(4).uniform(0.02, 0.18, 300)),
        np.array([17.3]),                                 # one sample
    ], ids=["t0_positive", "non_uniform", "one_sample"])
    def test_other_grids(self, grid):
        self.check(cli_system("spin_chain")[0], grid)
        self.check(cli_system("rlc")[0], grid)

    def test_quadrature_stepped_once_per_distinct_step(self, monkeypatch):
        # one full quadrature per step value: 0.4 is spelled three ways and
        # 1.1 two, and each spelling past the smallest is a remainder
        # quadrature of at most 4 ulp(max t) composed with it
        import logsens.sensan as sensan
        calls = []
        orig = sensan._quadrature

        def counted(*args, **kwargs):
            calls.append(args[2])
            return orig(*args, **kwargs)

        monkeypatch.setattr(sensan, "_quadrature", counted)
        sys, _ = cli_system("rlc")
        grid = np.array([0.0, 0.4, 1.5, 1.9, 7.0, 31.0, 31.4, 32.5, 32.9])
        tr = trace(sys, grid, method="quadrature")
        tol = 4 * np.spacing(grid[-1])
        full = sorted(d for d in calls if d > tol)
        np.testing.assert_allclose(full, [0.4, 1.1, 5.1, 24.0], rtol=1e-14)
        assert len(calls) == len(set(np.diff(grid, prepend=0.0))) == 8
        small = sorted(d for d in calls if d <= tol)
        assert small[0] == 0.0 and len(small) == 4 and small[1] > 0.0
        e = np.array([sys.c @ expm(sys.A0 * t) @ sys.v for t in grid])
        de = np.array([sys.c @ orig(sys.A0, sys.S, t)[0] @ sys.v for t in grid])
        assert np.max(np.abs(tr.error - e)) <= 1e-12 * np.max(np.abs(e))
        for ref in (de, blockaug_column(sys, grid)):
            assert np.max(np.abs(tr.derror - ref)) <= 1e-12 * np.max(np.abs(ref))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
           t0=st.sampled_from([0.0, 0.35, 12.0]),
           segments=st.lists(st.tuples(st.floats(0.05, 5.0), st.integers(1, 200)),
                             min_size=1, max_size=3))
    def test_stepped_quadrature_matches_blockaug(self, seed, n, t0, segments):
        # uniform runs of steps, as CLI grids have, so that steps repeat and
        # one quadrature step is propagated across many samples
        sys = random_stable_system(seed, n)
        grid, start = [], t0
        for step, count in segments:
            run = start + step * np.arange(1, count + 1)
            grid.append(run)
            start = run[-1]
        grid = np.concatenate(grid)
        grid = grid[grid <= 50.0]  # t0 + one step <= 17 keeps a sample
        quad = trace(sys, grid, method="quadrature").derror
        block = trace(sys, grid, method="blockaug").derror
        assert np.max(np.abs(quad - block)) <= 1e-11 * np.max(np.abs(block))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 4),
           T=st.floats(100.0, 5000.0), k=st.integers(3, 40))
    def test_spelled_uniform_grids(self, seed, n, T, k):
        # linspace(0, T, k) spells T/(k-1) several ways; all but the
        # smallest spelling step through a composed operator.  A0 is slowed
        # to decay over [0, T] as over [0, 20], so the samples stay above
        # the quadrature's absolute tolerance
        sys = random_stable_system(seed, n)
        sys = ErrorSystem(A0=sys.A0 * (20.0 / T), S=sys.S, c=sys.c, v=sys.v, xi0=1.0)
        grid = np.linspace(0.0, T, k)
        ref = blockaug_column(sys, grid)
        for method in ("quadrature", "blockaug"):
            de = trace(sys, grid, method=method).derror
            assert np.max(np.abs(de - ref)) <= 1e-11 * np.max(np.abs(ref)), method

    def test_base_dropped_after_its_group(self):
        # 0.1 is spelled several ways over samples 0..29, then 1.0 steps
        # follow: the operator of the smallest 0.1 lives exactly that long,
        # as seen from each sample's own state product
        import weakref

        import logsens.sensan as sensan
        A = np.array([[-0.5, 1.0], [-1.0, -0.5]])
        refs, alive = {}, []

        class Operator(np.ndarray):
            def dot(self, x, out=None):
                (base,) = [r for d, r in refs.items() if 0.05 < d < 0.5]
                alive.append(base() is not None)
                return super().dot(x, out=out)

        def step(d):
            P = expm(d * A).view(Operator)
            refs[d] = weakref.ref(P)
            return P

        times = np.r_[np.linspace(0.0, 3.0, 31)[1:], 3.0 + np.arange(1, 6)]
        assert len(np.unique(np.diff(times, prepend=0.0))) > 3
        sensan._stepped(step, np.ones(2), np.ones((1, 2)), times)
        assert alive == [True] * 30 + [False] * 5

    def test_stepped_memory_is_output_plus_one_block(self, monkeypatch):
        # from its first operator on, a 2e5-sample blockaug trace holds the
        # (T, 2) output, one pointer per sample in each of the step-key and
        # drop lists, and one block of states with a view of each; keeping
        # every state of the grid would add 8 len(x0) bytes per sample.  The
        # peak is reset at the first operator, after ``_step_groups`` has
        # freed its sort
        import tracemalloc

        import logsens.sensan as sensan
        stepped, seen = sensan._stepped, {}

        def measured(step, x0, R, times):
            def step_from_reset(d):
                if not seen:
                    tracemalloc.reset_peak()
                    seen["state"] = len(x0)
                return step(d)

            tracemalloc.start()
            try:
                out = stepped(step_from_reset, x0, R, times)
                seen["peak"] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return out

        monkeypatch.setattr(sensan, "_stepped", measured)
        sys, _ = cli_system("rlc")
        T = 200_000
        trace(sys, 0.01 * np.arange(T), method="blockaug")
        block = sensan._BLOCK * (4 * 8 * seen["state"] + 256)
        assert seen["peak"] <= T * 2 * 8 + 2 * T * 8 + block + 2**16

    # a 0.01-step grid spells its step several ways; an integer step is
    # exact.  1024 samples fill one readout block of ``sensan._BLOCK``, 1025
    # leave one sample in a second, and 2049 leave a partial third
    STEPPED_GRIDS = {
        "dt_0.01": 0.01 * np.arange(1001),
        "dt_0.01_1024": 0.01 * np.arange(1024),
        "dt_0.01_1025": 0.01 * np.arange(1025),
        "dt_0.01_2049": 0.01 * np.arange(2049),
        "random": np.unique(np.random.default_rng(5).uniform(0.0, 50.0, 5)),
        "integer_step": np.arange(0.0, 201.0),
    }

    @pytest.mark.parametrize("grid", sorted(STEPPED_GRIDS))
    @pytest.mark.parametrize("method", ["blockaug", "fd", "quadrature"])
    @pytest.mark.parametrize("kind", ["rlc", "spin_chain"])
    def test_stepped_equals_matmul_loop(self, monkeypatch, kind, method, grid):
        # ``ndarray.dot`` and ``@`` run the same dgemv, and so does each
        # state of the stacked ``matmul`` readout: the oracle traces keep
        # every bit of the ``@`` loop they replaced.  On spin_chain a
        # readout of all states by one ``X @ R.T`` moves the last bits
        import logsens.sensan as sensan
        sys, _ = cli_system(kind)
        times = self.STEPPED_GRIDS[grid]
        uniq, keys, base = sensan._step_groups(times)
        assert (len(uniq) > len(set(base))) == grid.startswith("dt_0.01")
        if len(times) > 2 * sensan._BLOCK:  # a spelling recurs in every block
            assert set.intersection(*(
                {k for k in keys[lo:lo + sensan._BLOCK] if base[k] != k}
                for lo in range(0, len(keys), sensan._BLOCK)))
        self.assert_stepped_bytes(monkeypatch, sys, times, method)

    def test_stepped_equals_matmul_loop_spin_chain_N10(self, monkeypatch):
        # state size 200, the largest the benchmark steps, over three blocks
        _, sys = spin_chain_scenario(10)
        assert len(sys.v) == 100
        times = self.STEPPED_GRIDS["dt_0.01_2049"]
        self.assert_stepped_bytes(monkeypatch, sys, times, "blockaug")

    @staticmethod
    def assert_stepped_bytes(monkeypatch, sys, times, method):
        import logsens.sensan as sensan
        got = trace(sys, times, method=method)
        monkeypatch.setattr(sensan, "_stepped", matmul_stepped)
        want = trace(sys, times, method=method)
        assert got.error.tobytes() == want.error.tobytes()
        assert got.derror.tobytes() == want.derror.tobytes()

    def test_one_quadrature_warning_per_trace(self, monkeypatch):
        import functools
        import warnings

        import logsens.sensan as sensan
        from logsens.matexp import QuadratureWarning, _quadrature
        coarse = functools.partial(_quadrature, max_panels=1)
        monkeypatch.setattr(sensan, "_quadrature", coarse)
        sys, _ = cli_system("rlc")
        grid = np.r_[0.25 * np.arange(1, 5), 1.0 + 3.0 * np.arange(1, 5),
                     13.0 + 7.0 * np.arange(1, 4)]
        steps = np.diff(grid, prepend=0.0)
        achieved = {}
        for d in np.unique(steps):
            miss = coarse(sys.A0, sys.S, d)[1]
            if miss is not None:
                achieved[d] = miss.achieved
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace(sys, grid, method="quadrature")
        assert [w.category for w in caught] == [RuntimeWarning]
        assert not isinstance(caught[0].message, QuadratureWarning)
        assert len(achieved) == 2  # steps 3 and 7 miss, 0.25 does not
        total = sum(achieved.get(d, 0.0) for d in steps)
        assert str(caught[0].message) == (
            f"quadrature tolerance not reached on 2 of 3 distinct steps: the "
            f"sum over samples of their steps' error estimates is {total:.3e} "
            "(before propagation)")

    @pytest.mark.parametrize("method", ["blockaug", "fd", "quadrature"])
    def test_one_exponential_per_distinct_step(self, method, monkeypatch):
        import logsens.sensan as sensan
        calls = []
        orig = sensan.expm

        def counted(M):
            calls.append(1)
            return orig(M)

        monkeypatch.setattr(sensan, "expm", counted)
        sys, times = cli_system("spring_mass")
        times = times[:400] if method == "quadrature" else times
        trace(sys, times, method=method)
        distinct = len(np.unique(np.diff(times, prepend=0.0)))
        assert 1 < distinct < 30 and len(calls) == distinct
        calls.clear()
        grid = np.cumsum(np.random.default_rng(1).uniform(0.5, 1.5, 50))
        trace(sys, grid, method=method)
        assert len(calls) == len(grid)

    def test_oracle_paths_never_eigendecompose(self, monkeypatch):
        import scipy.linalg

        import logsens.matexp as matexp
        import logsens.sensan as sensan
        sys, _ = cli_system("rlc")

        def refuse(*args, **kwargs):
            raise AssertionError("eigendecomposition on an oracle path")

        for mod, name in ((np.linalg, "eig"), (np.linalg, "eigvals"),
                          (scipy.linalg, "eig"), (matexp, "eig_decompose"),
                          (sensan, "eig_decompose")):
            monkeypatch.setattr(mod, name, refuse)
        grid = np.linspace(0.0, 10.0, 21)
        for method, oracle in (("quadrature", dderiv_oracle_quadrature),
                               ("blockaug", dderiv_oracle_blockaug),
                               ("fd", dderiv_oracle_fd)):
            trace(sys, grid, method=method)
            error_derivative(sys, 3.0, method=method)
            oracle(sys.A0, sys.S, 3.0)


class TestScaleAndSimilarity:
    def test_scale_covariance(self):
        # doubling xi0 while halving S leaves s(xi0, t) unchanged
        sys = spring_system()
        sys2 = ErrorSystem(A0=sys.A0, S=sys.S / 2.0, c=sys.c, v=sys.v,
                           xi0=2.0 * sys.xi0)
        grid = np.linspace(0.3, 20, 41)
        s1 = trace(sys, grid).logsens
        s2 = trace(sys2, grid).logsens
        np.testing.assert_allclose(s1, s2, rtol=1e-12)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(31)
        sys = spring_system()
        T = np.eye(2) + 0.3 * rng.standard_normal((2, 2))
        Ti = np.linalg.inv(T)
        sys_t = ErrorSystem(A0=T @ sys.A0 @ Ti, S=T @ sys.S @ Ti,
                            c=sys.c @ Ti, v=T @ sys.v, xi0=sys.xi0)
        grid = np.linspace(0.2, 15, 31)
        s1 = trace(sys, grid).logsens
        s2 = trace(sys_t, grid).logsens
        np.testing.assert_allclose(s1, s2, atol=1e-8, rtol=1e-8)


def classify_system(A0, S, c, v, xi0, vec=None):
    spec = eig_decompose(np.asarray(A0, dtype=float))
    coup = couplings(spec, S, c, v if vec is None else vec)
    return classify(spec, coup, xi0)


class TestClassify:
    def test_spring_real_linear(self):
        cls = classify_system(SPRING_A0, SPRING_S, [1.0, 0.0], [1.0, 0.0], 4.0)
        assert cls.kind == "LinearReal"
        assert cls.slope == pytest.approx(-4.0 / 3.0, abs=1e-10)
        assert cls.constants["sbar_dom"] == pytest.approx(-1.0 / 3.0, abs=1e-10)

    def test_repeated_diagonalizable_dominant(self):
        # dominant eigenvalue -1 with equal algebraic/geometric multiplicity 2
        rng = np.random.default_rng(41)
        M = np.eye(3) + 0.4 * rng.standard_normal((3, 3))
        A = M @ np.diag([-1.0, -1.0, -4.0]) @ np.linalg.inv(M)
        S = rng.standard_normal((3, 3))
        c = rng.standard_normal(3)
        v = rng.standard_normal(3)
        cls = classify_system(A, S, c, v, 1.5)
        assert cls.kind == "LinearRepeatedReal"
        # predicted slope must match the empirical asymptotic slope
        sys = ErrorSystem(A0=A, S=S, c=c, v=v, xi0=1.5)
        tr = trace(sys, np.arange(0.0, 26.0, 0.05))
        fitted = fit_slope(tr, (15.0, 26.0))
        assert fitted == pytest.approx(abs(cls.slope), rel=1e-2)

    def test_periodic_pair_formula(self):
        # spring-mass with poles -1 +- i pi/5; couplings built from beta
        q = 1 + np.pi ** 2 / 25
        A0 = np.array([[0.0, 1.0], [-q, -2.0]])
        beta = np.array([-1.0 / q, 0.0])
        cls = classify_system(A0, SPRING_S, [1.0, 0.0], beta, 4.0)
        assert cls.kind == "PeriodicComplex"
        assert cls.t0 == pytest.approx(4.107, abs=0.001)
        assert cls.period == pytest.approx(5.0, abs=1e-9)
        assert cls.omega == pytest.approx(np.pi / 5, abs=1e-12)
        assert cls.constants["re_z1w1z2w2"] == pytest.approx(-0.197, abs=5e-4)
        assert cls.constants["im_z1w1z2w2"] == pytest.approx(-0.409, abs=5e-4)
        # invariant: t0 = (pi + phi01) / (2 omega), period = pi / omega
        assert cls.t0 == pytest.approx((np.pi + cls.phi01) / (2 * cls.omega), rel=1e-12)
        assert cls.period == pytest.approx(np.pi / cls.omega, rel=1e-12)

    def test_xi0_zero_is_inconclusive(self):
        # s = xi0 * (de/dxi) / e is identically zero: nothing diverges
        jordan = Spectrum.from_jordan([-0.3, -0.3, -2.0],
                                      np.eye(3) + 0.1 * np.arange(9).reshape(3, 3),
                                      [(0, 2)])
        for spec, vecs in ((eig_decompose(SPRING_A0), ([1.0, 0.0], [1.0, 0.0])),
                           (jordan, ([1.0, 0.0, 1.0], [0.0, 1.0, 1.0]))):
            coup = couplings(spec, np.ones((spec.n, spec.n)), *vecs)
            assert classify(spec, coup, 1.0).kind != "Inconclusive"
            cls = classify(spec, coup, 0.0)
            assert cls.kind == "Inconclusive"
            assert cls.diagnostic.startswith("xi0 = 0: ")

    def test_jordan_dominant_polynomial(self):
        spec = Spectrum.from_jordan([-0.3, -0.3, -2.0],
                                    np.eye(3) + 0.1 * np.arange(9).reshape(3, 3),
                                    [(0, 2)])
        coup = couplings(spec, np.ones((3, 3)), [1.0, 0.0, 1.0], [0.0, 1.0, 1.0])
        cls = classify(spec, coup, 1.0)
        assert cls.kind == "PolynomialJordan"
        assert cls.degree == 2

    def test_complex_jordan_pair_inconclusive(self):
        # a dominant conjugate pair of size-2 blocks: the error oscillates
        # and |s| spikes about pi apart, so no polynomial law is predicted
        sys, spec = jordan_case(3, [2, 1], eigenvalues=[-0.2 + 1j, -1.5])
        cls = classify(spec, sys.couplings(spec), sys.xi0)
        assert cls.kind == "Inconclusive" and cls.degree is None
        assert cls.sigma == pytest.approx(0.2)
        assert "complex pair at -0.2 +- 1i" in cls.diagnostic
        assert "size 2" in cls.diagnostic
        assert "no spike schedule is predicted" in cls.diagnostic
        spikes = detect_spikes(trace(sys, np.arange(0.0, 120.0, 0.01), spectrum=spec))
        assert len(spikes) == 38
        assert np.median(np.diff(spikes)) == pytest.approx(np.pi, abs=0.01)

    def test_real_jordan_block_stays_polynomial(self):
        sys, spec = jordan_case(3, [2, 1], eigenvalues=[-0.2, -1.5])
        cls = classify(spec, sys.couplings(spec), sys.xi0)
        assert (cls.kind, cls.degree, cls.sigma) == ("PolynomialJordan", 2, 0.2)

    def test_incommensurate_inconclusive(self):
        w1, w2 = 1.0, np.sqrt(2.0)
        A = np.zeros((4, 4))
        A[0, 1], A[1, 0] = w1, -w1
        A[2, 3], A[3, 2] = w2, -w2
        A -= 0.5 * np.eye(4)
        rng = np.random.default_rng(5)
        cls = classify_system(A, rng.standard_normal((4, 4)),
                              rng.standard_normal(4), rng.standard_normal(4), 1.0)
        assert cls.kind == "Inconclusive"
        assert "incommensurate" in cls.diagnostic

    def test_all_pruned_inconclusive(self):
        cls = classify_system(SPRING_A0, np.zeros((2, 2)), [1.0, 0.0],
                              [1.0, 0.0], 4.0)
        assert cls.kind == "Inconclusive"

    def test_pruned_zero_coupling_mode(self):
        # readout annihilates the dominant mode: classification falls to mode 2
        A = np.diag([-0.1, -1.0])
        S = np.array([[0.5, 0.2], [0.1, 0.8]])
        c = np.array([0.0, 1.0])  # z = (0, 1)
        v = np.array([1.0, 1.0])
        cls = classify_system(A, S, c, v, 2.0)
        assert cls.kind == "LinearReal"
        assert 0 in cls.pruned_modes
        assert cls.slope == pytest.approx(2.0 * 0.8, abs=1e-12)

    def test_structurally_uncoupled_mode_dominates(self):
        # S touches only the fast mode; the slow one, still read out, sets
        # the error's decay
        cls = classify_system(np.diag([-0.1, -1.0]), [[0.0, 0.0], [0.0, 1.0]],
                              [1.0, 1.0], [1.0, 1.0], 1.0)
        assert (cls.kind, cls.pruned_modes, cls.sigma) == ("Inconclusive", (0,), 1.0)
        assert "structurally uncoupled mode dominates" in cls.diagnostic

    def test_vanishing_denominator_weight(self):
        # a repeated eigenvalue whose modal weights z * w = (1, -1) cancel
        cls = classify_system(-np.eye(2), [[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0],
                              [1.0, -1.0], 1.0)
        assert cls.kind == "Inconclusive"
        assert cls.diagnostic == "dominant cluster has vanishing denominator weight b0"

    def test_unevenly_spaced_minima(self):
        # a zero-frequency mode beside one pair on the dominant axis: the
        # modal sum is e^(-0.1 t) (0.5 + cos t), whose zeros 2 pi / 3 and
        # 4 pi / 3 split the period 1 : 2
        A = np.zeros((3, 3))
        A[0, 0], A[1:, 1:] = -0.1, [[-0.1, 1.0], [-1.0, -0.1]]
        cls = classify_system(A, np.ones((3, 3)), [0.5, 1.0, 0.0], [1.0, 1.0, 0.0], 1.0)
        assert (cls.kind, cls.sigma) == ("Inconclusive", pytest.approx(0.1))
        assert cls.diagnostic == "dominant oscillation has unevenly spaced minima"

    @pytest.mark.parametrize("zw_plus, phi01", [(1 + 1j, -np.pi / 2), (1 - 1j, np.pi / 2)],
                             ids=["im_positive", "im_negative"])
    def test_pair_phase_on_imaginary_axis(self, zw_plus, phi01):
        # P = zw_plus * conj(zw_minus) = zw_plus^2 = +-2i exactly: Re P = 0,
        # where the phase takes its Re P -> 0+ limit atan(-Im P / 0+)
        spec = Spectrum(eigenvalues=np.array([-0.1 + 1j, -0.1 - 1j]),
                        M=np.eye(2, dtype=complex), Minv=np.eye(2, dtype=complex),
                        clusters=((0,), (1,)))
        coup = Couplings(z=np.array([zw_plus, np.conj(zw_plus)]), w=np.ones(2),
                         Sbar=np.ones((2, 2)))
        cls = classify(spec, coup, 1.0)
        assert cls.kind == "PeriodicComplex"
        assert (cls.constants["re_z1w1z2w2"], cls.constants["im_z1w1z2w2"]) == (
            0.0, 2.0 * zw_plus.imag)
        assert cls.phi01 == phi01 == math.atan(-2.0 * zw_plus.imag / 1e-300)
        assert cls.t0 == (np.pi + phi01) / 2

    def test_constant_modulus_has_no_minima(self):
        # two equal pairs whose modal weights cancel: the dominant modal sum
        # e^(i t) + e^(-i t) - e^(i t) - e^(-i t) is exactly 0 at every t,
        # so no sample is a strict minimum and no schedule is predicted
        lam = np.array([-0.1 + 1j, -0.1 - 1j, -0.1 + 1j, -0.1 - 1j])
        spec = Spectrum(eigenvalues=lam, M=np.eye(4, dtype=complex),
                        Minv=np.eye(4, dtype=complex), clusters=((0, 2), (1, 3)))
        coup = Couplings(z=np.array([1.0, 1.0, -1.0, -1.0]), w=np.ones(4),
                         Sbar=np.ones((4, 4)))
        cls = classify(spec, coup, 1.0)
        assert cls.kind == "Inconclusive"
        assert cls.diagnostic == ("dominant oscillation has constant modulus (its "
                                  "modal weights cancel): no minima to time")

    def test_early_minimum_anchored_a_period_later(self):
        # e^(-0.1 t) (1 + cos(t + 0.8 pi)) dips to 0 once per period 2 pi,
        # first at t = 0.2 pi <= period / 4; t0 moves on to 2.2 pi so that
        # phi01 = 1.2 pi stays in (-pi/2, 3pi/2]
        phi = 0.8 * np.pi
        A = np.zeros((3, 3))
        A[0, 0], A[1:, 1:] = -0.1, [[-0.1, 1.0], [-1.0, -0.1]]
        cls = classify_system(A, np.ones((3, 3)), [1.0, 1.0, 0.0],
                              [1.0, np.cos(phi), -np.sin(phi)], 1.0)
        assert cls.kind == "PeriodicComplex"
        assert cls.period == pytest.approx(2 * np.pi, rel=1e-9)
        assert cls.t0 == pytest.approx(2.2 * np.pi, rel=1e-6)
        assert cls.phi01 == pytest.approx(1.2 * np.pi, rel=1e-6)
        assert cls.t0 == pytest.approx((np.pi + cls.phi01) / (2 * cls.omega), rel=1e-12)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            DivergenceClassification(kind="Wibble")

    def test_near_defective_names_cond(self):
        # an exact Jordan block eigendecomposes with cond_M ~ 9e15; without
        # Jordan data the law is undetermined, not a vanishing b0
        cls = classify_system([[-1.0, 1.0], [0.0, -1.0]], [[0.0, 0.0], [1.0, 0.0]],
                              [1.0, 0.0], [0.0, 1.0], 0.0)
        assert cls.kind == "Inconclusive"
        assert "near-defective" in cls.diagnostic
        assert "cond_M = 9" in cls.diagnostic


class TestSpikeSchedule:
    def test_wrong_kind(self):
        cls = DivergenceClassification(kind="LinearReal", slope=1.0)
        with pytest.raises(ValueError):
            spike_schedule(cls, 3)

    def test_schedule_arithmetic(self):
        cls = DivergenceClassification(kind="PeriodicComplex", t0=4.107,
                                       period=5.0, omega=np.pi / 5, phi01=0.1)
        np.testing.assert_allclose(spike_schedule(cls, 3), [4.107, 9.107, 14.107])


class TestScheduleConsistency:
    def test_detected_spikes_match_schedule(self):
        # spring-mass complex pair: detected spikes after the second line up
        # with the predicted schedule within one grid step
        q = 1 + np.pi ** 2 / 25
        A0 = np.array([[0.0, 1.0], [-q, -2.0]])
        beta = np.array([-1.0 / q, 0.0])
        sys = ErrorSystem(A0=A0, S=SPRING_S, c=[1.0, 0.0], v=[1.0, 0.0],
                          xi0=4.0)
        cls = classify_system(A0, SPRING_S, [1.0, 0.0], beta, 4.0)
        dt = 0.01
        tr = trace(sys, np.arange(0.0, 40.0, dt))
        detected = detect_spikes(tr)
        sched = spike_schedule(cls, len(detected))
        assert len(detected) >= 4
        np.testing.assert_allclose(detected[1:], sched[1:len(detected)],
                                   atol=dt)


class TestFitSlope:
    def test_exact_line(self):
        ts = np.linspace(0, 10, 200)
        tr = SensitivityTrace(ts, np.exp(-ts), ts, 2.0 * ts,
                              np.zeros(len(ts), bool))
        assert fit_slope(tr, (0, 10)) == pytest.approx(2.0, abs=1e-12)

    def test_too_few_samples(self):
        ts = np.linspace(0, 10, 200)
        tr = SensitivityTrace(ts, np.exp(-ts), ts, 2.0 * ts,
                              np.zeros(len(ts), bool))
        with pytest.raises(ValueError):
            fit_slope(tr, (9.99, 10.0))


class TestFitPolynomialDegree:
    def test_quadratic_synthetic(self):
        ts = np.linspace(1, 50, 500)
        tr = SensitivityTrace(ts, np.exp(-ts), ts, 3.0 * ts ** 2,
                              np.zeros(len(ts), bool))
        assert fit_polynomial_degree(tr, (5, 50)) == 2

    def test_linear_system_degree_one(self):
        sys = spring_system()
        tr = trace(sys, np.arange(0.0, 60.0, 0.05))
        assert fit_polynomial_degree(tr, (10.0, 60.0)) == 1

    def test_constant_degree_zero(self):
        ts = np.linspace(1, 50, 500)
        tr = SensitivityTrace(ts, np.exp(-ts), ts, np.full(len(ts), 2.5),
                              np.zeros(len(ts), bool))
        assert fit_polynomial_degree(tr, (5, 50)) == 0

    def test_too_few_samples(self):
        # zeros of |s| and t = 0 are not usable on log axes
        ts = np.linspace(0, 50, 501)
        tr = SensitivityTrace(ts, np.exp(-ts), ts, np.where(ts > 49.55, ts, 0.0),
                              np.zeros(len(ts), bool))
        with pytest.raises(ValueError, match=r"only 5 usable samples in window \(0, 50\)"):
            fit_polynomial_degree(tr, (0, 50))


class TestDetectSpikes:
    @staticmethod
    def crossing_trace(xi0, mask_frac):
        """e = cos(3 t), crossing zero every pi/3, with s = xi0 * de / e
        masked where |e| is below ``mask_frac``."""
        ts = np.arange(0.0, 10.0, 0.01)
        e, de = np.cos(3 * ts), 0.1 * ts * np.sin(3 * ts)
        mask = np.abs(e) <= mask_frac
        return SensitivityTrace(ts, e, de, np.where(mask, np.nan, xi0 * de / e), mask)

    def test_zero_logsens_is_no_spike(self):
        # xi0 = 0: every finite |s| is exactly 0, however the error crosses
        for mask_frac in (0.0, 0.02):
            tr = self.crossing_trace(0.0, mask_frac)
            assert np.any(tr.spike_mask) == (mask_frac > 0)
            assert len(detect_spikes(tr)) == 0

    def test_masked_neighbourhood_is_a_spike(self):
        # five masked samples around each crossing leave no finite neighbour
        tr = self.crossing_trace(1.0, 0.1)
        centre = np.flatnonzero(np.sign(tr.error[:-1]) * np.sign(tr.error[1:]) < 0)
        assert all(np.all(tr.spike_mask[k - 2:k + 3]) for k in centre)
        spikes = detect_spikes(tr)
        np.testing.assert_allclose(spikes, np.pi / 6 + np.pi / 3 * np.arange(10), atol=1e-4)

    def test_monotone_trace_empty(self):
        ts = np.linspace(0, 10, 1001)
        tr = SensitivityTrace(ts, np.exp(-ts), -ts * np.exp(-ts), 2.0 * ts,
                              np.zeros(len(ts), bool))
        assert len(detect_spikes(tr)) == 0

    def test_periodic_zero_crossings(self):
        # e = exp(-t) cos(t): spikes at pi/2 + n pi
        ts = np.arange(0.0, 20.0, 0.01)
        e = np.exp(-ts) * np.cos(ts)
        de = np.exp(-ts) * (1 + ts)
        mask = np.abs(e) <= 1e-12 * np.max(np.abs(e))
        s = np.where(mask, np.nan, de / e)
        tr = SensitivityTrace(ts, e, de, s, mask)
        spikes = detect_spikes(tr)
        expected = np.pi / 2 + np.pi * np.arange(6)
        assert len(spikes) >= 6
        np.testing.assert_allclose(spikes[:6], expected, atol=1e-3)

    def test_tangential_zero(self):
        # e = (1 + cos t)/2 touches zero at odd multiples of pi
        ts = np.arange(0.0, 20.0, 0.01)
        e = 0.5 * (1 + np.cos(ts))
        de = -ts * np.sin(ts)
        mask = np.abs(e) <= 1e-12 * np.max(np.abs(e))
        s = np.where(mask, np.nan, de / np.where(mask, 1.0, e))
        tr = SensitivityTrace(ts, e, de, s, mask)
        spikes = detect_spikes(tr)
        np.testing.assert_allclose(spikes, [np.pi, 3 * np.pi, 5 * np.pi],
                                   atol=2e-2)

    def test_tangential_zero_sampled_at_the_other_sign(self):
        # the touching sample rounds below zero: two flips share it, one spike
        ts = np.arange(0.0, 20.0, 0.01)
        e = 0.5 * (1 + np.cos(ts))
        touch = [int(np.argmin(np.abs(ts - k * np.pi))) for k in (1, 3, 5)]
        e[touch] = -3e-16
        de = -ts * np.sin(ts)
        mask = np.abs(e) <= 1e-12 * np.max(np.abs(e))
        s = np.where(mask, np.nan, de / np.where(mask, 1.0, e))
        spikes = detect_spikes(SensitivityTrace(ts, e, de, s, mask))
        np.testing.assert_allclose(spikes, [np.pi, 3 * np.pi, 5 * np.pi], atol=1e-2)

    def test_spin_chain_touching_zeros_counted_once(self):
        # e(t) touches zero at t = 5 + 10k; the sample at t = 25 reads
        # -3.3e-16 between positive neighbours
        from logsens.cli import build_system, validate_config
        cfg = validate_config({"kind": "spin_chain",
                               "parameters": {"N": 4, "perturbed_coupling": 1}})
        tr = trace(build_system(cfg)[0], cfg.grid_times())
        assert np.count_nonzero(tr.error < 0) > 0
        spikes = detect_spikes(tr)
        assert len(spikes) == 5
        np.testing.assert_allclose(spikes, 5.0 + 10.0 * np.arange(5), rtol=0, atol=1e-9)

    def test_rlc_complex_schedule_unchanged(self):
        # spikes at 10.49 + 10 k while exp(-2 t) is still a normal double
        from logsens.cli import build_system, validate_config
        cfg = validate_config({
            "kind": "rlc", "grid": {"t_end": 500.0, "dt": 5e-3},
            "parameters": {"poles": [[-2.0, np.pi / 10], [-2.0, -np.pi / 10]]}})
        spikes = detect_spikes(trace(build_system(cfg)[0], cfg.grid_times()))
        spikes = spikes[(spikes >= 5.0) & (spikes <= np.log(1e300) / 2)]
        np.testing.assert_allclose(spikes, 10.49 + 10.0 * np.arange(34), atol=0.05)


def reference_detect_spikes(tr):
    """``detect_spikes`` as it was with a per-dip rescan of the candidates,
    kept to pin the spikes the ``near`` array gives."""
    from logsens.sensan import SPIKE_DIP_FRAC, SPIKE_PROMINENCE_DECADES
    if len(tr) < 3:
        return np.array([])
    t, e = tr.times, tr.error
    n = len(t)
    abse = np.abs(e)
    win = max(5, int(round(0.02 * n)))
    candidates = []
    sign = np.sign(e)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    runs = np.split(flips, np.flatnonzero(np.diff(flips) > 1) + 1) if len(flips) else []
    for run in runs:
        tstar = t[run] - e[run] * (t[run + 1] - t[run]) / (e[run + 1] - e[run])
        span = np.arange(run[0], run[-1] + 2)
        candidates.append((int(span[np.argmin(abse[span])]), float(np.mean(tstar))))
    dip = np.nonzero(
        (abse[1:-1] <= abse[:-2]) & (abse[1:-1] <= abse[2:])
        & ((abse[1:-1] < abse[:-2]) | (abse[1:-1] < abse[2:]))
    )[0] + 1
    flip_idx = set(int(k) for k in flips) | set(int(k) + 1 for k in flips)
    for j in dip:
        if j in flip_idx or any(abs(j - k) <= 1 for k, _ in candidates):
            continue
        lo, hi = max(0, j - win), min(n, j + win + 1)
        if abse[j] > SPIKE_DIP_FRAC * np.max(abse[lo:hi]):
            continue
        y0, y1, y2 = abse[j - 1], abse[j], abse[j + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
        shift = min(1.0, max(-1.0, shift))
        candidates.append((j, float(t[j] + shift * (t[j + 1] - t[j]))))
    out = []
    logs = np.abs(tr.logsens)
    for j, tstar in sorted(candidates, key=lambda c: c[1]):
        lo, hi = max(0, j - win), min(n, j + win + 1)
        nearby = logs[max(0, j - 2):j + 3]
        nearby = nearby[np.isfinite(nearby) & (nearby > 0)]
        if len(nearby) == 0:
            out.append(tstar)
            continue
        peak = float(np.max(nearby))
        base = logs[lo:hi]
        base = base[np.isfinite(base) & (base > 0)]
        baseline = float(np.median(base)) if len(base) else 0.0
        if baseline <= 0 or np.log10(peak / baseline) >= SPIKE_PROMINENCE_DECADES:
            out.append(tstar)
    return np.array(out)


def random_spike_trace(rng, n):
    """A trace of ``n`` samples on an uneven grid: a few modes, some
    touching zero without crossing, single samples whose sign flips (flips
    in adjacent intervals), masked runs, and NaN/+-inf log-sensitivity."""
    t = np.cumsum(rng.uniform(0.005, 0.1, n))
    modes = rng.integers(1, 4)
    e = sum(rng.uniform(0.2, 1.0) * np.cos(rng.uniform(0.5, 30.0) * t + rng.uniform(0, 6))
            for _ in range(modes))
    if rng.random() < 0.4:
        e = np.abs(e)  # tangential zeros only
    if n:
        e[rng.integers(0, n, rng.integers(0, 1 + n // 10))] *= -1
        e[rng.integers(0, n, rng.integers(0, 1 + n // 20))] = 0.0
    de = rng.standard_normal(n)
    mask = np.abs(e) <= rng.choice([0.0, 1e-3, 0.05])
    for _ in range(rng.integers(0, 3)):
        lo = rng.integers(0, max(n, 1))
        mask[lo:lo + rng.integers(1, 20)] = True
    s = np.where(mask, np.nan, de / np.where(e == 0.0, 1.0, e))
    bad = rng.integers(0, max(n, 1), rng.integers(0, 1 + n // 15)) if n else []
    s[bad] = rng.choice([np.nan, np.inf, -np.inf], len(bad))
    return SensitivityTrace(t, e, de, s, mask)


class TestDetectSpikesReference:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_short_traces(self, n):
        tr = random_spike_trace(np.random.default_rng(n), n)
        np.testing.assert_array_equal(detect_spikes(tr), reference_detect_spikes(tr))

    def test_random_signals_match(self):
        rng = np.random.default_rng(16)
        spikes = 0
        for _ in range(400):
            tr = random_spike_trace(rng, int(rng.integers(3, 400)))
            got = detect_spikes(tr)
            np.testing.assert_array_equal(got, reference_detect_spikes(tr))
            spikes += len(got)
        assert spikes > 1000
