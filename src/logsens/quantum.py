"""Bloch-space embedding of quantum dynamics and the two quantum scenarios.

Density-matrix dynamics are mapped onto a real linear system by expanding in
an orthonormal Hermitian basis (generalized Gell-Mann matrices plus the
scaled identity).  A Hermitian generator H contributes

    A[m, n] = Tr(1j * H @ [sigma_m, sigma_n])

(real, antisymmetric) and a dissipation operator V contributes

    L[m, n] = Tr(V^+ sigma_m V sigma_n - 0.5 * V^+ V {sigma_m, sigma_n})

so that the Bloch vector r(t), r_m = Tr(sigma_m rho), obeys
``rdot = (A + L) r``.  Trace preservation pins the identity component at
1/sqrt(N) for all time; the overlap error against a target state becomes a
plain linear readout, which drops these systems into the same log-sensitivity
machinery as the classical trackers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensan import ErrorSystem

__all__ = [
    "BlochModel",
    "gellmann_basis",
    "bloch_coherent",
    "bloch_dissipator",
    "bloch_state",
    "steady_state",
    "overlap_readout",
    "two_qubit_scenario",
    "spin_chain_scenario",
    "TWO_QUBIT_PERTURBATIONS",
]


def gellmann_basis(N: int) -> np.ndarray:
    """Generalized Gell-Mann basis of the N x N Hermitian matrices.

    An (N^2, N, N) complex stack, orthonormal: Tr(sigma_m sigma_n) = delta_mn.
    The first N^2 - 1 elements are traceless; the last is I/sqrt(N).
    Ordering: symmetric off-diagonal pairs row-major, then antisymmetric in
    the same order, then the diagonal family, then the identity.
    """
    if N < 2:
        raise ValueError("basis dimension must be at least 2")
    mats = []
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = m[k, j] = 1.0
            mats.append(m / np.sqrt(2.0))
    for j in range(N):
        for k in range(j + 1, N):
            m = np.zeros((N, N), dtype=complex)
            m[j, k] = -1.0j
            m[k, j] = 1.0j
            mats.append(m / np.sqrt(2.0))
    for l in range(1, N):
        d = np.zeros(N)
        d[:l] = 1.0
        d[l] = -float(l)
        mats.append(np.diag(d).astype(complex) / np.sqrt(l * (l + 1.0)))
    mats.append(np.eye(N, dtype=complex) / np.sqrt(N))
    return np.stack(mats)


def _check_hermitian(H, tol, name):
    H = np.asarray(H, dtype=complex)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"{name} must be square")
    if np.max(np.abs(H - H.conj().T)) > tol * (1 + np.max(np.abs(H))):
        raise ValueError(f"{name} is not Hermitian within tolerance")
    return H


def bloch_coherent(H, basis: np.ndarray) -> np.ndarray:
    """Real antisymmetric Bloch generator of -1j*[H, .]."""
    H = _check_hermitian(H, 1e-12, "H")
    if H.shape[0] != basis.shape[1]:
        raise ValueError("H dimension does not match basis")
    # A[m, n] = 1j * Tr(H [sig_m, sig_n]) = 1j * Tr([H, sig_m] sig_n)
    A = 1j * np.einsum("mij,nji->mn", H @ basis - basis @ H, basis)
    return np.ascontiguousarray(A.real)


def bloch_dissipator(V, basis: np.ndarray) -> np.ndarray:
    """Real Bloch generator of the dissipator of a single jump operator V."""
    V = np.asarray(V, dtype=complex)
    if V.shape != basis.shape[1:]:
        raise ValueError("V dimension does not match basis")
    # Tr(W sig_m sig_n) = X[m, n] and Tr(W sig_n sig_m) = X[n, m]
    Vh = V.conj().T
    jump = np.einsum("mij,nji->mn", Vh @ basis @ V, basis)
    X = np.einsum("mij,nji->mn", (Vh @ V) @ basis, basis)
    return np.ascontiguousarray((jump - 0.5 * (X + X.T)).real)


def bloch_state(rho, basis: np.ndarray) -> np.ndarray:
    """Bloch vector of a density matrix: r_m = Tr(sigma_m rho)."""
    rho = _check_hermitian(rho, 1e-10, "rho")
    if rho.shape[0] != basis.shape[1]:
        raise ValueError("rho dimension does not match basis")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("rho must have unit trace")
    if np.min(np.linalg.eigvalsh(rho)) < -1e-10:
        raise ValueError("rho must be positive semidefinite")
    return np.array([np.trace(s @ rho).real for s in basis])


def steady_state(G) -> np.ndarray:
    """Nullspace Bloch vector of A + L, normalized to a unit-trace state.

    Requires the zero eigenvalue to be simple (within 1e-10 of the largest
    singular value); otherwise raises with the computed multiplicity.
    """
    G = np.asarray(G, dtype=float)
    n2 = G.shape[0]
    N = int(round(np.sqrt(n2)))
    _, sv, Vt = np.linalg.svd(G)
    null_mask = sv <= 1e-10 * sv[0]
    multiplicity = int(np.sum(null_mask))
    if multiplicity != 1:
        raise ValueError(
            f"zero eigenvalue of A+L has multiplicity {multiplicity}, need 1"
        )
    r = Vt[-1]
    if abs(r[-1]) < 1e-12:
        raise ValueError("nullspace vector has no identity component")
    return r / (r[-1] * np.sqrt(N))


def overlap_readout(r_target, N: int) -> np.ndarray:
    """Row c with c @ r(t) = 1 - r_target @ r(t) given trace preservation.

    c_n = -r_target_n for the traceless components and (N-1)/sqrt(N) on the
    identity slot.
    """
    c = -np.asarray(r_target, dtype=float).copy()
    c[-1] = (N - 1) / np.sqrt(N)
    return c


@dataclass(frozen=True)
class BlochModel:
    """Bloch-space model: generator A + L, readout, structure and state data."""

    basis: np.ndarray
    A: np.ndarray
    L: np.ndarray
    r0: np.ndarray
    r_ss: np.ndarray | None
    c: np.ndarray
    Sb: np.ndarray
    xi0: float

    @property
    def generator(self) -> np.ndarray:
        return self.A + self.L

    def error_system(self) -> ErrorSystem:
        return ErrorSystem(A0=self.generator, S=self.Sb, c=self.c, v=self.r0,
                           xi0=self.xi0)


def _delta(m, n, N=4):
    d = np.zeros((N, N), dtype=complex)
    d[m - 1, n - 1] = 1.0
    return d


# Structure matrices for the two-qubit system, keyed by which physical
# parameter is perturbed, with the nominal value the perturbation rides on.
TWO_QUBIT_PERTURBATIONS = {
    "S1": ("alpha1", _delta(1, 3) + _delta(3, 1) + _delta(2, 4) + _delta(4, 2)),
    "S2": ("alpha2", _delta(1, 2) + _delta(2, 1) + _delta(3, 4) + _delta(4, 3)),
    "S3": ("Delta1", _delta(3, 3) + _delta(4, 4)),
    "S4": ("Delta2", _delta(2, 2) + _delta(4, 4)),
}


def two_qubit_scenario(alpha=(1.0, 1.0), Delta=(-0.1, 0.1), gamma=(1.0, 1.0),
                       perturbation: str = "S1", rho0=None):
    """Two qubits coupled through a lossy cavity, after adiabatic elimination.

    Builds the 16-dimensional Bloch model of the Hamiltonian (driving fields
    alpha, detunings Delta) and the collective decay operator (strengths
    gamma), with the overlap-against-steady-state error readout.  The chosen
    perturbation structure is mapped through the coherent Bloch map; xi0 is
    the nominal value of the perturbed parameter.

    rho0 defaults to the excitationless state |1><1|.  Returns
    (BlochModel, ErrorSystem).
    """
    if perturbation not in TWO_QUBIT_PERTURBATIONS:
        raise ValueError(f"perturbation must be one of {sorted(TWO_QUBIT_PERTURBATIONS)}")
    a1, a2 = complex(alpha[0]), complex(alpha[1])
    d1, d2 = float(Delta[0]), float(Delta[1])
    g1, g2 = float(gamma[0]), float(gamma[1])
    H = np.array([
        [0.0, a2, a1, 0.0],
        [np.conj(a2), d2, 0.0, a1],
        [np.conj(a1), 0.0, d1, a2],
        [0.0, np.conj(a1), np.conj(a2), d1 + d2],
    ], dtype=complex)
    V = np.array([
        [0.0, g2, g1, 0.0],
        [0.0, 0.0, 0.0, g1],
        [0.0, 0.0, 0.0, g2],
        [0.0, 0.0, 0.0, 0.0],
    ], dtype=complex)
    basis = gellmann_basis(4)
    A = bloch_coherent(H, basis)
    L = bloch_dissipator(V, basis)
    r_ss = steady_state(A + L)
    c = overlap_readout(r_ss, 4)
    param, Sk = TWO_QUBIT_PERTURBATIONS[perturbation]
    Sb = bloch_coherent(Sk, basis)
    xi0 = {"alpha1": a1.real, "alpha2": a2.real, "Delta1": d1, "Delta2": d2}[param]
    if rho0 is None:
        rho0 = _delta(1, 1)
    r0 = bloch_state(rho0, basis)
    model = BlochModel(basis=basis, A=A, L=L, r0=r0, r_ss=r_ss, c=c, Sb=Sb,
                       xi0=xi0)
    return model, model.error_system()


def chain_couplings(N: int, lam: float) -> np.ndarray:
    """Nearest-neighbor couplings J_n = (lam/2) sqrt(n (N - n)) delivering
    perfect transfer of a single excitation at T = pi/lam."""
    n = np.arange(1, N)
    return 0.5 * lam * np.sqrt(n * (N - n))


def spin_chain_scenario(N: int, lam: float = np.pi / 5,
                        perturbed_coupling: int = 1, excitation_site: int = 1):
    """Perfect-state-transfer spin chain in the single-excitation subspace.

    The N x N Hamiltonian carries the engineered couplings on its super- and
    sub-diagonal; the Bloch generator is normal with purely imaginary or zero
    eigenvalues.  The error reads the overlap against the excitation fully
    transferred to site N; the perturbation rides on coupling
    ``perturbed_coupling`` (1-based), with xi0 its nominal value.  Returns
    (BlochModel, ErrorSystem).
    """
    if N < 2:
        raise ValueError("chain needs at least two sites")
    if lam <= 0:
        raise ValueError("transfer speed must be positive")
    if not 1 <= perturbed_coupling <= N - 1:
        raise ValueError(f"perturbed_coupling must be in 1..{N - 1}")
    if not 1 <= excitation_site <= N:
        raise ValueError(f"excitation_site must be in 1..{N}")
    J = chain_couplings(N, lam)
    H = np.zeros((N, N), dtype=complex)
    for i, j in enumerate(J):
        H[i, i + 1] = H[i + 1, i] = j
    basis = gellmann_basis(N)
    A = bloch_coherent(H, basis)
    k = perturbed_coupling
    Sb = bloch_coherent(_delta(k, k + 1, N) + _delta(k + 1, k, N), basis)
    r0 = bloch_state(_delta(excitation_site, excitation_site, N), basis)
    r_out = bloch_state(_delta(N, N, N), basis)
    c = overlap_readout(r_out, N)
    model = BlochModel(basis=basis, A=A, L=np.zeros_like(A), r0=r0, r_ss=None,
                       c=c, Sb=Sb, xi0=float(J[k - 1]))
    return model, model.error_system()
