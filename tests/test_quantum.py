"""Tests for the Bloch embedding and the quantum scenario builders."""

import numpy as np
import pytest
from scipy.linalg import expm

from logsens.matexp import couplings
from logsens.quantum import (
    bloch_coherent,
    bloch_dissipator,
    bloch_state,
    gellmann_basis,
    spin_chain_scenario,
    steady_state,
    two_qubit_scenario,
)
from logsens.sensan import classify, trace


def random_hermitian(rng, n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (X + X.conj().T) / 2


def random_density(rng, n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = X @ X.conj().T
    return rho / np.trace(rho)


# Inputs of the wrong dimension, a chain site out of range and a traceless
# steady state, with the message each is refused with.
QUBIT = gellmann_basis(2)
REFUSALS = {
    "basis_dimension": (lambda: gellmann_basis(1), "basis dimension must be at least 2"),
    "H_not_square": (lambda: bloch_coherent(np.zeros((2, 3)), QUBIT), "H must be square"),
    "H_dimension": (lambda: bloch_coherent(np.eye(3), QUBIT),
                    "H dimension does not match basis"),
    "V_dimension": (lambda: bloch_dissipator(np.eye(3), QUBIT),
                    "V dimension does not match basis"),
    "rho_dimension": (lambda: bloch_state(np.eye(3) / 3, QUBIT),
                      "rho dimension does not match basis"),
    "excitation_site": (lambda: spin_chain_scenario(3, excitation_site=4),
                        r"excitation_site must be in 1\.\.3"),
    "steady_state_traceless": (lambda: steady_state(np.diag([0.0, -1.0, -1.0, -1.0])),
                               "nullspace vector has no identity component"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestGellmannBasis:
    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_complex_stack(self, N):
        basis = gellmann_basis(N)
        assert isinstance(basis, np.ndarray)
        assert basis.shape == (N * N, N, N) and basis.dtype == complex

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_orthonormal(self, N):
        sig = gellmann_basis(N)
        assert len(sig) == N * N
        G = np.array([[np.trace(a @ b).real for b in sig] for a in sig])
        np.testing.assert_allclose(G, np.eye(N * N), atol=1e-12)

    @pytest.mark.parametrize("N", [2, 4])
    def test_hermitian_traceless(self, N):
        sig = gellmann_basis(N)
        for m in sig:
            np.testing.assert_allclose(m, m.conj().T, atol=1e-14)
        for m in sig[:-1]:
            assert abs(np.trace(m)) < 1e-14
        np.testing.assert_allclose(sig[-1], np.eye(N) / np.sqrt(N), atol=1e-15)

    def test_n2_is_scaled_pauli(self):
        sig = gellmann_basis(2)
        s2 = np.sqrt(2)
        np.testing.assert_allclose(sig[0], np.array([[0, 1], [1, 0]]) / s2)
        np.testing.assert_allclose(sig[1], np.array([[0, -1j], [1j, 0]]) / s2)
        np.testing.assert_allclose(sig[2], np.array([[1, 0], [0, -1]]) / s2)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            gellmann_basis(1)


def trace_loop(f, basis):
    """Reference: [[Tr f(sig_m, sig_n)]], one trace per basis pair."""
    return np.array([[np.trace(f(sm, sn)).real for sn in basis]
                     for sm in basis])


class TestBlochCoherent:
    def test_matches_trace_loop(self):
        rng = np.random.default_rng(67)
        basis = gellmann_basis(3)
        H = random_hermitian(rng, 3)
        ref = trace_loop(lambda sm, sn: 1j * (H @ sm - sm @ H) @ sn, basis)
        np.testing.assert_allclose(bloch_coherent(H, basis), ref, atol=1e-14)

    def test_identity_commutes(self):
        basis = gellmann_basis(3)
        np.testing.assert_allclose(bloch_coherent(np.eye(3), basis), 0.0,
                                   atol=1e-13)

    def test_antisymmetric(self):
        rng = np.random.default_rng(71)
        basis = gellmann_basis(3)
        A = bloch_coherent(random_hermitian(rng, 3), basis)
        np.testing.assert_allclose(A + A.T, 0.0, atol=1e-12)

    def test_chain_generator_eigenvalues(self):
        basis = gellmann_basis(2)
        H = np.array([[0.0, np.pi / 10], [np.pi / 10, 0.0]], dtype=complex)
        A = bloch_coherent(H, basis)
        lam = np.sort_complex(np.linalg.eigvals(A))
        expected = np.sort_complex([0.0, 0.0, 1j * np.pi / 5, -1j * np.pi / 5])
        np.testing.assert_allclose(lam, expected, atol=1e-12)

    def test_linearity(self):
        rng = np.random.default_rng(73)
        basis = gellmann_basis(3)
        H1, H2 = random_hermitian(rng, 3), random_hermitian(rng, 3)
        got = bloch_coherent(H1 + 0.25 * H2, basis)
        np.testing.assert_allclose(
            got, bloch_coherent(H1, basis) + 0.25 * bloch_coherent(H2, basis),
            atol=1e-12)

    def test_non_hermitian_rejected(self):
        basis = gellmann_basis(2)
        with pytest.raises(ValueError, match="Hermitian"):
            bloch_coherent(np.array([[0.0, 1.0], [0.0, 0.0]]), basis)

    def test_evolution_matches_von_neumann(self):
        # rdot = A r must reproduce rho(t) = U rho U^+
        rng = np.random.default_rng(79)
        basis = gellmann_basis(3)
        H = random_hermitian(rng, 3)
        rho0 = random_density(rng, 3)
        A = bloch_coherent(H, basis)
        t = 0.8
        r_t = expm(A * t) @ bloch_state(rho0, basis)
        U = expm(-1j * H * t)
        np.testing.assert_allclose(r_t, bloch_state(U @ rho0 @ U.conj().T, basis),
                                   atol=1e-10)


class TestBlochDissipator:
    def test_matches_trace_loop(self):
        rng = np.random.default_rng(69)
        basis = gellmann_basis(3)
        V = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        Vh, W = V.conj().T, V.conj().T @ V
        ref = trace_loop(lambda sm, sn: Vh @ sm @ V @ sn
                         - 0.5 * W @ (sm @ sn + sn @ sm), basis)
        np.testing.assert_allclose(bloch_dissipator(V, basis), ref, atol=1e-13)

    def test_zero_operator(self):
        basis = gellmann_basis(3)
        np.testing.assert_allclose(bloch_dissipator(np.zeros((3, 3)), basis),
                                   0.0, atol=1e-14)

    def test_trace_preservation_row(self):
        rng = np.random.default_rng(83)
        basis = gellmann_basis(4)
        V = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        L = bloch_dissipator(V, basis)
        np.testing.assert_allclose(L[-1, :], 0.0, atol=1e-12)

    def test_evolution_matches_lindblad(self):
        rng = np.random.default_rng(89)
        basis = gellmann_basis(2)
        V = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho0 = random_density(rng, 2)
        L = bloch_dissipator(V, basis)
        t = 0.5
        r_t = expm(L * t) @ bloch_state(rho0, basis)
        # dense superoperator reference in column-stacking convention
        n = 2
        W = V.conj().T @ V
        I = np.eye(n)
        sup = (np.kron(V.conj(), V)
               - 0.5 * np.kron(I, W) - 0.5 * np.kron(W.T, I))
        rho_t = (expm(sup * t) @ rho0.reshape(-1, order="F")).reshape(n, n, order="F")
        np.testing.assert_allclose(
            r_t, [np.trace(s @ rho_t).real for s in basis], atol=1e-10)


class TestBlochState:
    def test_maximally_mixed(self):
        basis = gellmann_basis(3)
        r = bloch_state(np.eye(3) / 3, basis)
        np.testing.assert_allclose(r[:-1], 0.0, atol=1e-14)
        assert r[-1] == pytest.approx(1 / np.sqrt(3), abs=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(97)
        basis = gellmann_basis(3)
        rho = random_density(rng, 3)
        r = bloch_state(rho, basis)
        rec = sum(ri * s for ri, s in zip(r, basis))
        np.testing.assert_allclose(rec, rho, atol=1e-12)

    def test_pure_state_norm(self):
        basis = gellmann_basis(2)
        r = bloch_state(np.diag([1.0, 0.0]).astype(complex), basis)
        assert np.linalg.norm(r[:-1]) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_invalid_density_rejected(self):
        basis = gellmann_basis(2)
        with pytest.raises(ValueError, match="trace"):
            bloch_state(np.eye(2, dtype=complex), basis)
        with pytest.raises(ValueError, match="positive"):
            bloch_state(np.diag([1.5, -0.5]).astype(complex), basis)


class TestSteadyState:
    def test_two_qubit_unique_null_vector(self):
        model, _ = two_qubit_scenario()
        G = model.generator
        r_ss = model.r_ss
        assert np.linalg.norm(G @ r_ss) < 1e-10
        assert r_ss[-1] == pytest.approx(0.5, abs=1e-12)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="multiplicity"):
            steady_state(np.zeros((4, 4)))


class TestTwoQubitScenario:
    def test_dominant_eigenvalues(self):
        model, _ = two_qubit_scenario()
        lam = np.linalg.eigvals(model.generator)
        lam = lam[np.argsort(-lam.real)]
        assert abs(lam[0]) < 1e-10
        assert lam[1].real == pytest.approx(-0.0035, abs=1e-4)
        assert abs(lam[1].imag) < 1e-10

    def test_readout_identity_component(self):
        model, sys = two_qubit_scenario()
        assert model.c[-1] == pytest.approx(1.5, abs=1e-12)
        # error readout annihilates the pure steady state
        assert abs(model.c @ model.r_ss) < 1e-10

    @pytest.mark.parametrize("pert,xi0,slope", [
        ("S1", 1.0, 0.00344),
        ("S2", 1.0, 0.00344),
        ("S3", -0.1, 0.00351),
        ("S4", 0.1, 0.00351),
    ])
    def test_slopes_and_zero_mode(self, pert, xi0, slope):
        model, sys = two_qubit_scenario(perturbation=pert)
        assert sys.xi0 == pytest.approx(xi0)
        spec = sys.spectrum()
        coup = sys.couplings(spec)
        cls = classify(spec, coup, sys.xi0)
        assert cls.kind == "LinearReal"
        assert abs(cls.slope) == pytest.approx(slope, rel=0.02)
        assert abs(coup.Sbar[0, 0]) < 1e-10

    def test_unknown_perturbation(self):
        with pytest.raises(ValueError):
            two_qubit_scenario(perturbation="S9")

    def test_trace_preserved_under_evolution(self):
        model, sys = two_qubit_scenario()
        G = model.generator
        for t in (0.0, 5.0, 300.0, 2000.0):
            r_t = expm(G * t) @ model.r0
            assert r_t[-1] == pytest.approx(0.5, abs=1e-10)

    def test_purity_bounded_by_initial(self):
        model, _ = two_qubit_scenario()
        G = model.generator
        n0 = np.linalg.norm(model.r0)
        for t in (0.5, 5.0, 50.0, 500.0):
            assert np.linalg.norm(expm(G * t) @ model.r0) <= n0 + 1e-10


class TestSpinChainScenario:
    def test_couplings_n3(self):
        _, sys = spin_chain_scenario(3, perturbed_coupling=2)
        assert sys.xi0 == pytest.approx(np.sqrt(2) * np.pi / 10, abs=1e-14)

    def test_n2_closed_forms(self):
        _, sys = spin_chain_scenario(2)
        grid = np.arange(0.0, 30.0, 0.07)
        tr = trace(sys, grid)
        np.testing.assert_allclose(tr.error,
                                   0.5 * (1 + np.cos(np.pi * grid / 5)),
                                   atol=1e-10)
        np.testing.assert_allclose(tr.derror, -grid * np.sin(np.pi * grid / 5),
                                   atol=1e-8)

    def test_n3_closed_forms(self):
        _, sys = spin_chain_scenario(3, perturbed_coupling=2)
        grid = np.arange(0.0, 30.0, 0.07)
        tr = trace(sys, grid)
        th = np.pi * grid / 5
        e_ref = 5.0 / 8.0 + 0.5 * np.cos(th) - np.cos(2 * th) / 8.0
        de_ref = (-np.sqrt(2) / 4 * grid * np.sin(th)
                  + np.sqrt(2) / 8 * grid * np.sin(2 * th))
        np.testing.assert_allclose(tr.error, e_ref, atol=1e-10)
        np.testing.assert_allclose(tr.derror, de_ref, atol=1e-8)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_perfect_transfer(self, N):
        model, sys = spin_chain_scenario(N)
        T = np.pi / (np.pi / 5)
        e_T = float(sys.c @ expm(model.A * T) @ sys.v)
        assert abs(e_T) < 1e-10

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_generator_normal(self, N):
        model, _ = spin_chain_scenario(N)
        A = model.A
        np.testing.assert_allclose(A @ A.T, A.T @ A, atol=1e-12)

    def test_unitary_norm_preserved(self):
        model, _ = spin_chain_scenario(3)
        for t in (1.0, 7.7, 40.0):
            r_t = expm(model.A * t) @ model.r0
            assert np.linalg.norm(r_t) == pytest.approx(
                np.linalg.norm(model.r0), abs=1e-10)
            assert r_t[-1] == pytest.approx(1 / np.sqrt(3), abs=1e-10)

    def test_sensitivity_vanishes_at_transfer_times(self):
        _, sys = spin_chain_scenario(2)
        grid = np.arange(0.0, 40.0, 0.01)
        tr = trace(sys, grid)
        for tn in (5.0, 15.0, 25.0, 35.0):
            i = int(round(tn / 0.01))
            assert abs(tr.derror[i]) < 1e-6
            # nearest finite log-sensitivity sample exceeds 1e3
            j = i + 1 if np.isnan(tr.logsens[i]) else i
            assert abs(tr.logsens[j]) > 1e3

    @pytest.mark.parametrize("N,pc", [(2, 1), (3, 2)])
    def test_classification_spike_schedule(self, N, pc):
        # transfer times 5, 15, 25... => period 10, with the reported omega
        # and phi01 consistent with t0 = (pi + phi01) / (2 omega)
        _, sys = spin_chain_scenario(N, perturbed_coupling=pc)
        spec = sys.spectrum()
        cls = classify(spec, sys.couplings(spec), sys.xi0)
        assert cls.kind == "PeriodicComplex"
        assert cls.t0 == pytest.approx(5.0, abs=1e-3)
        assert cls.period == pytest.approx(10.0, abs=1e-3)
        assert cls.period == pytest.approx(np.pi / cls.omega, rel=1e-12)
        assert cls.t0 == pytest.approx((np.pi + cls.phi01) / (2 * cls.omega),
                                       rel=1e-9)
        assert cls.constants["omega_modal"] == pytest.approx(np.pi / 5,
                                                             abs=1e-9)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            spin_chain_scenario(1)
        with pytest.raises(ValueError):
            spin_chain_scenario(3, perturbed_coupling=3)
        with pytest.raises(ValueError):
            spin_chain_scenario(3, lam=-1.0)
