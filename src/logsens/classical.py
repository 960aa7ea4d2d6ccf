"""Step-tracking closed loops: pole placement and the two circuit scenarios.

A plant ``xdot = (A1 + S*xi) x + b u``, ``y = c x`` is closed with state
feedback ``u = -k x + k0 r`` so the poles land where requested and a unit
step is tracked with zero steady-state error (``-k0 c A0^{-1} b = 1``).  The
resulting error signal ``e(t) = -k0 c expm(A0 t) A0^{-1} b`` has ``e(0) = 1``
by construction.

Sign bookkeeping: builders store the drift ``A1`` without the nominal
parameter, and ``S`` is the exact derivative of the dynamics with respect to
the parameter, so ``A1 + S*xi0`` reproduces the published system matrices
entrywise.  For the spring-mass system that puts -1 in the (2, 1) slot of S.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sensan import ErrorSystem

__all__ = [
    "OpenLoopPlant",
    "ClosedLoop",
    "place_poles",
    "close_loop",
    "spring_mass_scenario",
    "rlc_scenario",
    "RLC_LAMBDA3_DEFAULT",
]

# Third closed-loop pole for the oscillatory circuit scenario.  The source
# analysis states only the dominant pair -2 +- i*pi/10; this value makes the
# predicted first asymptotic spike (10.46 s) and the first transient spike
# (0.349 s) land on the published 10.49 s / 0.350 s within their tolerances.
RLC_LAMBDA3_DEFAULT = -5.3

POLE_MATCH_TOL = 1e-8


def _ctrb(A, b):
    n = A.shape[0]
    cols = [b]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
    return np.column_stack(cols)


@dataclass(frozen=True)
class OpenLoopPlant:
    """Open-loop data with the uncertain parameter split out of the drift."""

    A1: np.ndarray
    b: np.ndarray
    c: np.ndarray
    S: np.ndarray
    xi0: float

    def __post_init__(self):
        A1 = np.asarray(self.A1, dtype=float)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        S = np.asarray(self.S, dtype=float)
        n = A1.shape[0]
        if A1.shape != (n, n) or S.shape != (n, n) or b.size != n or c.size != n:
            raise ValueError("inconsistent plant dimensions")
        object.__setattr__(self, "A1", A1)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "S", S)
        object.__setattr__(self, "xi0", float(self.xi0))
        C = _ctrb(self.nominal_A(), b)
        if np.linalg.matrix_rank(C) < n:
            raise ValueError("(A1 + S*xi0, b) is not controllable")

    def nominal_A(self) -> np.ndarray:
        return self.A1 + self.xi0 * self.S


@dataclass(frozen=True)
class ClosedLoop:
    """State feedback k, reference gain k0, and the closed nominal generator."""

    plant: OpenLoopPlant
    k: np.ndarray
    k0: float
    A0: np.ndarray
    beta: np.ndarray


def _check_pole_set(poles):
    poles = np.asarray(poles, dtype=complex)
    if np.max(poles.real) > 1e-12:
        raise ValueError("requested poles must satisfy Re <= 0")
    sorted_p = sorted(poles, key=lambda z: (z.real, z.imag))
    sorted_c = sorted(np.conj(poles), key=lambda z: (z.real, z.imag))
    if not np.allclose(sorted_p, sorted_c, atol=1e-12):
        raise ValueError("pole set must be closed under conjugation")
    return poles


def place_poles(A, b, poles) -> np.ndarray:
    """Single-input pole placement by characteristic-polynomial matching.

    Ackermann's formula: k = e_n^T C^{-1} phi(A) with C the controllability
    matrix and phi the desired characteristic polynomial.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float).reshape(-1)
    n = A.shape[0]
    poles = _check_pole_set(poles)
    if len(poles) != n:
        raise ValueError(f"need exactly {n} poles, got {len(poles)}")
    C = _ctrb(A, b)
    if np.linalg.matrix_rank(C) < n:
        raise ValueError("(A, b) is not controllable")
    coeffs = np.real(np.poly(poles))
    phiA = np.zeros_like(A)
    for i, a in enumerate(coeffs):
        phiA += a * np.linalg.matrix_power(A, n - i)
    k = np.linalg.solve(C, phiA)[-1]  # e_n^T C^{-1} phi(A)
    achieved = np.sort_complex(np.linalg.eigvals(A - np.outer(b, k)))
    target = np.sort_complex(poles)
    scale = 1.0 + np.max(np.abs(target))
    if np.max(np.abs(achieved - target)) > POLE_MATCH_TOL * scale:
        with np.printoptions(linewidth=10 ** 9):  # a one-line message
            raise ValueError(f"pole placement failed: requested {target}, achieved {achieved}")
    return k


def close_loop(plant: OpenLoopPlant, poles):
    """Close the loop and derive the tracking error system.

    Returns (ClosedLoop, ErrorSystem) with k0 = -(c A0^{-1} b)^{-1} and the
    error vector v = -k0 * A0^{-1} b, so e(0) = 1 exactly.
    """
    k = place_poles(plant.nominal_A(), plant.b, poles)
    A0 = plant.nominal_A() - np.outer(plant.b, k)
    lam = np.linalg.eigvals(A0)
    if np.min(np.abs(lam)) < 1e-12 * (1 + np.max(np.abs(lam))):
        raise ValueError("closed-loop pole at the origin: step tracking undefined")
    beta = np.linalg.solve(A0, plant.b)
    dc = float(plant.c @ beta)
    if abs(dc) < 1e-14:
        raise ValueError("c @ A0^{-1} @ b = 0: reference direction unreachable at DC")
    k0 = -1.0 / dc
    loop = ClosedLoop(plant=plant, k=k, k0=k0, A0=A0, beta=beta)
    sys = ErrorSystem(A0=A0, S=plant.S, c=plant.c, v=-k0 * beta, xi0=plant.xi0)
    return loop, sys


def spring_mass_scenario(xi0: float = 4.0) -> OpenLoopPlant:
    """Undamped spring-mass positioner with the spring constant uncertain.

    States are position and velocity; the output is position; the actuating
    force is the input.  The spring constant xi enters the (2, 1) entry as
    -xi, so S carries -1 there.
    """
    if xi0 <= 0:
        raise ValueError("spring constant must be positive")
    A1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    S = np.array([[0.0, 0.0], [-1.0, 0.0]])
    return OpenLoopPlant(A1=A1, b=np.array([0.0, 1.0]), c=np.array([1.0, 0.0]),
                         S=S, xi0=xi0)


def rlc_scenario(xi0: float = 0.5) -> OpenLoopPlant:
    """Third-order RLC voltage tracker with uncertain inverse inductance.

    States: output capacitor voltage, second capacitor voltage, inductor
    current.  The inverse inductance xi scales the third row.
    """
    if xi0 <= 0:
        raise ValueError("inverse inductance must be positive")
    A1 = np.array([[-1.0, 1.0, -1.0], [1.0, -2.0, 0.0], [0.0, 0.0, 0.0]])
    S = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]])
    return OpenLoopPlant(A1=A1, b=np.array([0.0, 1.0, 0.0]),
                         c=np.array([1.0, 0.0, 0.0]), S=S, xi0=xi0)
