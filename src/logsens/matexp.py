"""Spectral decomposition and directional derivatives of the matrix exponential.

The central object is the directional derivative of ``exp(t*A)`` along a
structure matrix ``S``,

    D_S(t, A) = integral_0^t exp((t-tau)*A) S exp(tau*A) dtau,

which this module evaluates four independent ways:

* ``dderiv_diag``   -- eigenbasis Hadamard-product formula (diagonalizable A)
* ``dderiv_jordan`` -- closed-form sums for a single dominant Jordan block
* ``dderiv_oracle_quadrature`` -- adaptive Gauss-Legendre quadrature of the
  defining integral
* ``dderiv_oracle_blockaug``   -- upper-right block of ``expm(t*[[A,S],[0,A]])``

plus a central finite-difference cross-check (``dderiv_oracle_fd``).  The
analytic paths require an eigendecomposition with deterministic ordering,
provided by ``eig_decompose``; hand-built defective systems supply their
Jordan data through ``Spectrum.from_jordan``.

All functions are pure; no global state is mutated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

__all__ = [
    "Spectrum",
    "Couplings",
    "eig_decompose",
    "couplings",
    "phi_matrix",
    "dderiv_diag",
    "dderiv_jordan",
    "dderiv_oracle_quadrature",
    "dderiv_oracle_blockaug",
    "dderiv_oracle_fd",
    "QuadratureWarning",
]

DEFAULT_CLUSTER_TOL = 1e-8
NEAR_DEFECTIVE_COND = 1e12


def _as_square(A, name="A"):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _refuse_imaginary(resid, absmax, tol, context):
    """Raise unless the largest |Im| of a result, ``resid``, is at most
    ``tol * max(1, absmax)`` with ``absmax`` its largest modulus."""
    if resid > tol * max(1.0, absmax):
        raise ArithmeticError(
            f"{context}: imaginary residue {resid:.3e} exceeds {tol:.1e}*scale; "
            "matrix may be too ill-conditioned for the analytic path "
            "(use dderiv_oracle_blockaug or dderiv_oracle_quadrature)"
        )


def _require_real(X, tol, context):
    """Strip an imaginary residue after checking it is numerically negligible."""
    _refuse_imaginary(float(np.max(np.abs(X.imag))), float(np.max(np.abs(X))),
                      tol, context)
    return np.ascontiguousarray(X.real)


@dataclass(frozen=True)
class Spectrum:
    """Ordered eigendecomposition of a real square matrix.

    Eigenvalues are sorted by descending real part, ties broken by ascending
    magnitude of the imaginary part and then positive-imaginary first, so
    conjugate pairs sit adjacent with the +i member leading.  ``clusters``
    partitions indices into groups that are numerically equal; ``jordan_blocks``
    is nonempty only for spectra built via :meth:`from_jordan`.
    """

    eigenvalues: np.ndarray
    M: np.ndarray
    Minv: np.ndarray
    clusters: tuple = ()
    jordan_blocks: tuple = ()
    cond_M: float = 1.0

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def near_defective(self) -> bool:
        return self.cond_M > NEAR_DEFECTIVE_COND

    @property
    def is_defective(self) -> bool:
        return any(size > 1 for _, size in self.jordan_blocks)

    def cluster_means(self) -> np.ndarray:
        """Eigenvalues with each entry replaced by its cluster mean."""
        lam = self.eigenvalues.copy()
        for grp in self.clusters:
            if len(grp) > 1:
                lam[list(grp)] = np.mean(self.eigenvalues[list(grp)])
        return lam

    def same_cluster_mask(self) -> np.ndarray:
        n = self.n
        mask = np.eye(n, dtype=bool)
        for grp in self.clusters:
            idx = list(grp)
            mask[np.ix_(idx, idx)] = True
        return mask

    @classmethod
    def from_jordan(cls, eigenvalues, M, blocks):
        """Build a spectrum from known Jordan data.

        ``eigenvalues`` lists every eigenvalue (repeats included) in the
        descending-real-part order, ``M`` holds the (generalized) eigenvector
        chains as columns in the same order, and ``blocks`` is a sequence of
        ``(start_index, size)`` pairs for the nontrivial blocks.  Numerical
        Jordan detection is ill-posed, so the structure is always supplied by
        the caller.  Each block must have size >= 1, lie inside the
        eigenvalue list, overlap no other block and hold equal eigenvalues
        (within ``DEFAULT_CLUSTER_TOL``); a ``ValueError`` names any that
        does not.
        """
        lam = np.asarray(eigenvalues, dtype=complex)
        M = np.asarray(M, dtype=complex)
        n = len(lam)
        if M.shape != (n, n):
            raise ValueError("M shape inconsistent with eigenvalue count")
        blocks = [(int(s), int(z)) for s, z in blocks]
        tol = DEFAULT_CLUSTER_TOL * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
        taken = set()
        for s, z in blocks:
            block = f"Jordan block (start {s}, size {z})"
            if z < 1:
                raise ValueError(f"{block}: size must be at least 1")
            if s < 0 or s + z > n:
                raise ValueError(f"{block} lies outside indices 0..{n - 1}")
            if taken & set(range(s, s + z)):
                raise ValueError(f"{block} overlaps another block")
            taken.update(range(s, s + z))
            if np.max(np.abs(lam[s:s + z] - lam[s])) > tol:
                raise ValueError(f"{block} spans unequal eigenvalues "
                                 f"{lam[s:s + z].tolist()}")
        Minv = np.linalg.inv(M)
        # each block clusters as one unit, at its leading eigenvalue, with
        # the blocks and simple eigenvalues that equal it
        size, inner = dict(blocks), {i for s, z in blocks for i in range(s + 1, s + z)}
        units = [range(i, i + size.get(i, 1)) for i in range(len(lam)) if i not in inner]
        clusters = [tuple(k for u in grp for k in units[u]) for grp in _cluster_indices(
            lam[[u[0] for u in units]], DEFAULT_CLUSTER_TOL)]
        cond = float(np.linalg.cond(M))
        return cls(
            eigenvalues=lam,
            M=M,
            Minv=Minv,
            clusters=tuple(sorted(clusters)),
            jordan_blocks=tuple(blocks),
            cond_M=cond,
        )


@dataclass(frozen=True)
class Couplings:
    """Modal couplings of a readout/forcing pair to a spectrum.

    ``z[k]`` is the inner product of the readout row with the k-th
    eigenvector, ``w[k]`` the product of the k-th row of ``Minv`` with the
    forcing/initial vector, and ``Sbar = Minv @ S @ M``.
    """

    z: np.ndarray
    w: np.ndarray
    Sbar: np.ndarray


def _sort_key(lam):
    return (-lam.real, abs(lam.imag), -np.sign(lam.imag))


def _cluster_indices(lam, tol):
    """Union-find grouping of eigenvalues within an absolute tolerance."""
    n = len(lam)
    if n == 0:
        return []
    scale = 1.0 + float(np.max(np.abs(lam)))
    thresh = tol * scale
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            if abs(lam[i] - lam[j]) <= thresh:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [tuple(g) for g in sorted(groups.values())]


def _phase_normalize(M):
    """Scale each eigenvector to unit norm with its largest entry real positive."""
    M = M.copy()
    for k in range(M.shape[1]):
        col = M[:, k]
        nrm = np.linalg.norm(col)
        if nrm > 0:
            col = col / nrm
        i = int(np.argmax(np.abs(col)))
        piv = col[i]
        if abs(piv) > 0:
            col = col * (abs(piv) / piv)
        M[:, k] = col
    return M


def eig_decompose(A, cluster_tol: float = DEFAULT_CLUSTER_TOL,
                  eig=None) -> Spectrum:
    """Eigendecompose a real square matrix with deterministic ordering.

    ``eig`` passes the ``np.linalg.eig(A)`` pair when the caller already
    has it, so the solver runs once.  Raises ``np.linalg.LinAlgError`` on
    solver failure.  A condition number of the eigenvector matrix above 1e12
    flags the spectrum as near-defective; analytic derivative paths then
    refuse and defer to the oracles.
    """
    A = _as_square(A)
    lam, M = np.linalg.eig(A) if eig is None else eig
    order = sorted(range(len(lam)), key=lambda i: _sort_key(lam[i]))
    lam = lam[order]
    M = _phase_normalize(M[:, order])
    cond = float(np.linalg.cond(M))
    Minv = np.linalg.inv(M)
    clusters = _cluster_indices(lam, cluster_tol)
    return Spectrum(
        eigenvalues=lam,
        M=M,
        Minv=Minv,
        clusters=tuple(clusters),
        jordan_blocks=(),
        cond_M=cond,
    )


def couplings(spec: Spectrum, S, c, vec) -> Couplings:
    """Project a structure matrix, readout row and forcing vector onto modes."""
    S = _as_square(S, "S")
    c = np.asarray(c, dtype=float).reshape(-1)
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if S.shape[0] != spec.n or c.size != spec.n or vec.size != spec.n:
        raise ValueError("dimension mismatch between spectrum and couplings input")
    return Couplings(z=c @ spec.M, w=spec.Minv @ vec, Sbar=spec.Minv @ S @ spec.M)


def phi_matrix(spec: Spectrum, t: float) -> np.ndarray:
    """Divided-difference kernel of the exponential on the spectrum.

    Entry (m, n) is ``(exp(lam_m t) - exp(lam_n t)) / (lam_m - lam_n)`` for
    distinct eigenvalues and ``t * exp(lam_m t)`` on clusters (cluster members
    are averaged first, which avoids catastrophic cancellation at the branch
    switch).  Symmetric by construction.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    lam = spec.cluster_means()
    e = np.exp(lam * t)
    same = spec.same_cluster_mask()
    num = e[:, None] - e[None, :]
    den = lam[:, None] - lam[None, :]
    den = np.where(same, 1.0, den)
    phi = np.where(same, t * e[:, None], num / den)
    # enforce exact symmetry on the repeated branch
    return np.where(same, (phi + phi.T) / 2.0, phi)


def dderiv_diag(spec: Spectrum, coup: Couplings, t: float) -> np.ndarray:
    """Directional derivative of expm via the eigenbasis Hadamard product.

    Requires a diagonalizable spectrum; repeated eigenvalues are fine as long
    as the eigenvector matrix is well conditioned.
    """
    if spec.is_defective:
        raise ValueError("spectrum has nontrivial Jordan blocks: use dderiv_jordan")
    if spec.near_defective:
        raise ValueError(
            f"eigenvector matrix condition {spec.cond_M:.2e} exceeds "
            f"{NEAR_DEFECTIVE_COND:.0e}; use dderiv_oracle_blockaug/quadrature"
        )
    X = coup.Sbar * phi_matrix(spec, t)
    D = spec.M @ X @ spec.Minv
    return _require_real(D, 1e-9, "dderiv_diag")


def _int_tail(lam1, lam_m, k, t):
    """exp(lam_m t)/k! * integral_0^t exp((lam1-lam_m) tau) tau^k dtau, lam_m != lam1."""
    a = lam1 - lam_m
    acc = 0.0 + 0.0j
    for i in range(k + 1):
        acc += (-1.0) ** i * t ** (k - i) / (math.factorial(k - i) * a ** (i + 1))
    return np.exp(lam1 * t) * acc + (-1.0) ** (k + 1) * np.exp(lam_m * t) / a ** (k + 1)


def dderiv_jordan(spec: Spectrum, Sbar, t: float) -> np.ndarray:
    """Directional derivative for one dominant Jordan block of size ell >= 2.

    The block must occupy the leading ``ell`` positions (dominant eigenvalue,
    geometric multiplicity one) with the remaining eigenvalues simple; ``M``
    carries the generalized eigenvector chain in its first ``ell`` columns.
    The result sums the four closed-form integral families arising from the
    polynomial-in-t structure of ``expm(t*J)``.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    blocks = [b for b in spec.jordan_blocks if b[1] > 1]
    if not blocks:
        raise ValueError("spectrum carries no nontrivial Jordan block: use dderiv_diag")
    if len(blocks) > 1:
        raise ValueError("multiple nontrivial Jordan blocks are unsupported")
    start, ell = blocks[0]
    if start != 0:
        raise ValueError("the Jordan block must be attached to the dominant eigenvalue")
    n = spec.n
    lam = spec.eigenvalues
    lam1 = lam[0]
    Sbar = np.asarray(Sbar, dtype=complex)
    e1t = np.exp(lam1 * t)

    def I_factor(m, k):
        # exp(lam_m t)/k! * integral of exp((lam1-lam_m) tau) tau^k
        if m < ell or abs(lam[m] - lam1) == 0.0:
            return e1t * t ** (k + 1) / math.factorial(k + 1)
        return _int_tail(lam1, lam[m], k, t)

    # X1: diagonal-family term, identical to the diagonalizable formula
    X = Sbar * phi_matrix(spec, t)

    # X2: exp(J) diagonal on the left, block superdiagonal on the right
    for r in range(ell - 1):
        for nn in range(r + 1, ell):
            k = nn - r
            for m in range(n):
                X[m, nn] += Sbar[m, r] * I_factor(m, k)

    # X3: block superdiagonal on the left, exp(J) diagonal on the right
    for p in range(ell - 1):
        for q in range(p + 1, ell):
            k = q - p
            for m in range(n):
                X[p, m] += Sbar[q, m] * I_factor(m, k)

    # X4: superdiagonal on both sides (Beta integral)
    for p in range(ell - 1):
        for q in range(p + 1, ell):
            for r in range(ell - 1):
                for nn in range(r + 1, ell):
                    k = (q - p) + (nn - r) + 1
                    X[p, nn] += Sbar[q, r] * e1t * t ** k / math.factorial(k)

    D = spec.M @ X @ spec.Minv
    return _require_real(D, 1e-9, "dderiv_jordan")


class QuadratureWarning(RuntimeWarning):
    """The quadrature oracle missed ``abs_tol``; ``achieved`` is its error
    estimate."""

    def __init__(self, message, achieved):
        super().__init__(message)
        self.achieved = achieved


# Gauss-Legendre node/weight pairs on [-1, 1]; the 7/15 pair gives an
# embedded error estimate without sharing nodes.  numpy makes each node set
# exactly antisymmetric, so ``_GL_MIRROR`` maps node x to node -x.
_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)
_GL_NODES = np.concatenate([_GL7[0], _GL15[0]])
_GL_MIRROR = np.r_[6:-1:-1, 21:6:-1]


def dderiv_oracle_quadrature(A, S, t: float, abs_tol: float = 1e-10,
                             max_panels: int = 2 ** 16) -> np.ndarray:
    """Brute-force evaluation of the defining integral of D_S(t, A).

    Adaptive interval-halving with an embedded 7/15-point Gauss-Legendre
    error estimate per panel.  A panel is accepted once its error estimate
    falls below its share of ``abs_tol`` or below the machine-accuracy floor
    of the integrand on that panel (halving cannot improve past double
    precision).  Deterministic for fixed inputs.  If the requested tolerance
    was not reached, the achieved error estimate is reported via a
    ``QuadratureWarning``.

    Panels are dyadic, ``[a, b] = [i, i + 1] t / 2**depth``.  A node
    ``tau = a + h (1 + x)`` splits ``exp(tau A) = exp(a A) exp(h (1 + x) A)``
    (and ``t - tau`` alike from b): offsets are exponentiated once per depth.
    """
    A = _as_square(A)
    S = _as_square(S, "S")
    if A.shape != S.shape:
        raise ValueError("A and S must have matching shapes")
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = A.shape[0]
    if t == 0.0 or not np.any(S):
        return np.zeros((n, n))

    eps = np.finfo(float).eps
    inner = {}  # depth -> exp(h (1 - x_j) A) @ S @ exp(h (1 + x_j) A)
    total = np.zeros((n, n))
    achieved = 0.0
    panels_used = 0
    stack = [(0, 0)]
    tol_met = True
    while stack:
        i, depth = stack.pop()
        width = t / 2 ** depth
        a, b, half = i * width, (i + 1) * width, 0.5 * width
        if depth not in inner:
            E = expm((half * (1.0 + _GL_NODES))[:, None, None] * A[None])
            inner[depth] = E[_GL_MIRROR] @ S @ E
        left, right = expm(np.stack([(t - b) * A, a * A]))
        F = left @ inner[depth] @ right
        coarse = half * np.einsum("i,ijk->jk", _GL7[1], F[:7])
        fine = half * np.einsum("i,ijk->jk", _GL15[1], F[7:])
        err = float(np.max(np.abs(fine - coarse)))
        panels_used += 1
        share = abs_tol / 2 ** depth
        floor = 16.0 * eps * float(np.max(np.abs(F))) * width
        if err <= max(share, floor) or panels_used >= max_panels:
            total += fine
            achieved += err
            tol_met = tol_met and err <= max(share, floor)
        else:
            stack.append((2 * i + 1, depth + 1))
            stack.append((2 * i, depth + 1))
    if not tol_met or achieved > abs_tol:
        warnings.warn(QuadratureWarning(
            f"quadrature tolerance {abs_tol:.1e} not reached "
            f"({panels_used} panels): achieved error estimate {achieved:.3e}",
            achieved))
    return total


def dderiv_oracle_blockaug(A, S, t: float) -> np.ndarray:
    """D_S(t, A) via the block-augmented exponential identity.

    The upper-right block of ``expm(t*[[A, S], [0, A]])`` equals the defining
    integral; scipy's scaling-and-squaring expm does the work.
    """
    A = _as_square(A)
    S = _as_square(S, "S")
    if A.shape != S.shape:
        raise ValueError("A and S must have matching shapes")
    if t < 0:
        raise ValueError("t must be nonnegative")
    n = A.shape[0]
    C = np.zeros((2 * n, 2 * n))
    C[:n, :n] = A
    C[n:, n:] = A
    C[:n, n:] = S
    return expm(t * C)[:n, n:]


def _fd_step(S) -> float:
    """Default central-difference step along ``S``."""
    return 1e-6 * (1.0 + float(np.linalg.norm(S, 2)))


def dderiv_oracle_fd(A, S, t: float, h: float | None = None) -> np.ndarray:
    """Central finite-difference cross-check of D_S(t, A)."""
    A = _as_square(A)
    S = _as_square(S, "S")
    if t < 0:
        raise ValueError("t must be nonnegative")
    if h is None:
        h = _fd_step(S)
    return (expm(t * (A + h * S)) - expm(t * (A - h * S))) / (2.0 * h)
