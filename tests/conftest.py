"""Shared test settings and helpers.

Property tests run under one Hypothesis profile: no per-example deadline
(a case can spend tens of milliseconds in ``expm``) and a printed
reproducer blob for any failing case, so it can be replayed with
``@reproduce_failure``.
"""

import tracemalloc

import numpy as np
from hypothesis import settings

from logsens.matexp import Spectrum

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
