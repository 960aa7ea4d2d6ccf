"""Shared test settings and helpers.

Property tests run under one Hypothesis profile: no per-example deadline
(a case can spend tens of milliseconds in ``expm``) and a printed
reproducer blob for any failing case, so it can be replayed with
``@reproduce_failure``.
"""

import math
import tracemalloc

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from logsens.matexp import Spectrum, _require_real

settings.register_profile("logsens", deadline=None, print_blob=True)
settings.load_profile("logsens")


def peak_mib(fn) -> float:
    """Peak Python-heap allocation (tracemalloc, numpy buffers included)
    while ``fn()`` runs, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def make_jordan_system(rng, sizes, n_extra=0, lam1=-0.3, spread=1.0,
                       eigenvalues=None):
    """Real defective ``A = M J M^-1`` and its ``Spectrum.from_jordan``.

    Block k has size ``sizes[k]`` at ``eigenvalues[k]`` (every block at
    ``lam1`` by default); a block at an eigenvalue with positive imaginary
    part is followed by its conjugate block, and their chains in ``M`` are
    ``X + iY`` and ``X - iY``, so A is real.  ``n_extra`` simple real
    eigenvalues follow, about ``spread`` apart below ``lam1``.  The real
    basis behind M is ``I + 0.4 N`` with N standard normal, drawn until its
    condition number is below 50.
    """
    if eigenvalues is None:
        eigenvalues = [lam1] * len(sizes)
    lam_rest = lam1 - spread * (1.0 + np.arange(n_extra)) - rng.uniform(0, 0.3, n_extra)
    eigs, blocks, pairs = [], [], []
    for lam, size in zip(eigenvalues, sizes):
        if np.imag(lam) > 0:
            pairs.append((len(eigs), len(eigs) + size, size))
        for mu in ([lam, np.conj(lam)] if np.imag(lam) > 0 else [lam]):
            blocks.append((len(eigs), size))
            eigs += [mu] * size
    eigs = np.concatenate([np.array(eigs), lam_rest])
    n = len(eigs)
    J = np.diag(eigs)
    for start, size in blocks:
        J[range(start, start + size - 1), range(start + 1, start + size)] = 1.0
    while True:
        M = np.eye(n) + 0.4 * rng.standard_normal((n, n))
        if np.linalg.cond(M) < 50:
            break
    if pairs:
        M = M.astype(complex)
        for a, b, size in pairs:
            X, Y = M[:, a:a + size].copy(), M[:, b:b + size].copy()
            M[:, a:a + size], M[:, b:b + size] = X + 1j * Y, X - 1j * Y
    A = (M @ J @ np.linalg.inv(M)).real
    return A, Spectrum.from_jordan(eigs, M, blocks)


@st.composite
def jordan_layouts(draw):
    """Up to 3 blocks of sizes 1-3 at distinct real parts on a 0.1 grid, so
    at least 0.1 apart; a block may sit on a complex eigenvalue, followed by
    its conjugate block."""
    k = draw(st.integers(1, 3))
    sizes = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    steps = draw(st.lists(st.integers(1, 20), min_size=k, max_size=k, unique=True))
    imag = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5]), min_size=k, max_size=k))
    return sizes, [complex(-0.1 * s, w) for s, w in zip(steps, imag)]


def reference_phi_matrix(spec, t):
    """The divided-difference kernel as ``phi_matrix`` wrote it before the
    shared modal kernel: ``(e_m - e_n) / (lam_m - lam_n)`` across clusters,
    ``t e_m`` within one, at the cluster means, symmetrized."""
    lam, same = spec.layout[:2]
    e = np.exp(lam * t)
    den = np.where(same, 1.0, lam[:, None] - lam[None, :])
    phi = np.where(same, t * e[:, None], (e[:, None] - e[None, :]) / den)
    return np.where(same, (phi + phi.T) / 2.0, phi)


def reference_dderiv_diag(spec, coup, t):
    """The eigenbasis Hadamard product ``M (Sbar * phi) Minv`` that
    ``dderiv_diag`` evaluated before the shared modal kernel."""
    D = spec.M @ (coup.Sbar * reference_phi_matrix(spec, t)) @ spec.Minv
    return _require_real(D, 1e-9, "reference_dderiv_diag")


def _int_tail(lam1, lam_m, k, t):
    """exp(lam_m t)/k! * integral_0^t exp((lam1-lam_m) tau) tau^k dtau, lam_m != lam1."""
    a = lam1 - lam_m
    acc = 0.0 + 0.0j
    for i in range(k + 1):
        acc += (-1.0) ** i * t ** (k - i) / (math.factorial(k - i) * a ** (i + 1))
    return np.exp(lam1 * t) * acc + (-1.0) ** (k + 1) * np.exp(lam_m * t) / a ** (k + 1)


def reference_dderiv_jordan(spec, Sbar, t):
    """The closed-form sums ``dderiv_jordan`` evaluated before the shared
    modal kernel, for one Jordan block of size ell >= 2 in the leading
    positions with every other eigenvalue simple: the diagonal family plus
    three families from the polynomial-in-t structure of ``expm(t*J)``."""
    (start, ell), = [b for b in spec.jordan_blocks if b[1] > 1]
    assert start == 0
    n, lam = spec.n, spec.eigenvalues
    lam1 = lam[0]
    Sbar = np.asarray(Sbar, dtype=complex)
    e1t = np.exp(lam1 * t)

    def I_factor(m, k):
        # exp(lam_m t)/k! * integral of exp((lam1-lam_m) tau) tau^k
        if m < ell or abs(lam[m] - lam1) == 0.0:
            return e1t * t ** (k + 1) / math.factorial(k + 1)
        return _int_tail(lam1, lam[m], k, t)

    X = Sbar * reference_phi_matrix(spec, t)
    # exp(J) diagonal on the left, block superdiagonal on the right
    for r in range(ell - 1):
        for nn in range(r + 1, ell):
            for m in range(n):
                X[m, nn] += Sbar[m, r] * I_factor(m, nn - r)
    # block superdiagonal on the left, exp(J) diagonal on the right
    for p in range(ell - 1):
        for q in range(p + 1, ell):
            for m in range(n):
                X[p, m] += Sbar[q, m] * I_factor(m, q - p)
    # superdiagonal on both sides (Beta integral)
    for p in range(ell - 1):
        for q in range(p + 1, ell):
            for r in range(ell - 1):
                for nn in range(r + 1, ell):
                    k = (q - p) + (nn - r) + 1
                    X[p, nn] += Sbar[q, r] * e1t * t ** k / math.factorial(k)
    return _require_real(spec.M @ X @ spec.Minv, 1e-9, "reference_dderiv_jordan")
