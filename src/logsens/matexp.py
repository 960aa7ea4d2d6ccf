"""Spectral decomposition and directional derivatives of the matrix exponential.

The central object is the directional derivative of ``exp(t*A)`` along a
structure matrix ``S``,

    D_S(t, A) = integral_0^t exp((t-tau)*A) S exp(tau*A) dtau,

which this module evaluates three independent ways:

* ``dderiv_diag`` / ``dderiv_jordan`` -- the modal form, one evaluator
  (``_dderiv``) with two signatures, for any Jordan layout or none
* ``dderiv_oracle_quadrature`` -- adaptive Gauss-Legendre quadrature of the
  defining integral
* ``dderiv_oracle_blockaug``   -- upper-right block of ``expm(t*[[A,S],[0,A]])``

plus a central finite-difference cross-check (``dderiv_oracle_fd``) in the
deviation form ``_fd_generator``, which does not cancel and which
``sensan.trace`` steps too.  The analytic paths run on a ``Spectrum``,
``eig_decompose``'s (ordered) or Jordan data from ``Spectrum.from_jordan``;
``Spectrum.analytic_refusal`` alone decides whether they may, and refuses
the computed eigenbasis of a defective matrix.  The oracles' matrix
exponentials come from ``expm``, a numpy-only scaling and squaring over a
stack of matrices, so the program loads one BLAS (numpy's) and one thread
pool; the tests check it against ``scipy.linalg.expm``.

The matrix-valued ``dderiv_*`` functions are the reference API, checked
against each other at single times by the acceptance suite.  Every value
``run`` and ``check`` evaluate runs through ``sensan.trace``, which samples
``c @ D_S(t, A) @ v`` on a grid; ``table1`` calls its modal path,
``sensan._modal``, directly.  That path contracts the same partial fractions
(``_fractions``); of the oracles ``trace`` calls only the quadrature, per
step, as ``_quadrature``, which returns a missed tolerance instead of
warning it.

All functions are pure; no global state is mutated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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
    "expm",
]

DEFAULT_CLUSTER_TOL = 1e-8
NEAR_DEFECTIVE_COND = 1e6
# The alternative the analytic ``dderiv_*`` name where they refuse.
_ORACLE_ADVICE = "dderiv_oracle_blockaug or dderiv_oracle_quadrature"


def _as_square(A, name="A"):
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"{name} must be a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError(f"{name} contains non-finite entries")
    return A


def _oracle_input(A, S, t):
    """An oracle's ``(A, S)``: finite square matrices of one shape, t >= 0."""
    A = _as_square(A)
    S = _as_square(S, "S")
    if A.shape != S.shape:
        raise ValueError("A and S must have matching shapes")
    if t < 0:
        raise ValueError("t must be nonnegative")
    return A, S


def _refuse_imaginary(resid, absmax, tol, context, use):
    """Raise unless the largest |Im| of a result, ``resid``, is at most
    ``tol * max(1, absmax)`` with ``absmax`` its largest modulus; the
    message names ``use``, the caller's alternative to the analytic path."""
    if resid > tol * max(1.0, absmax):
        raise ArithmeticError(
            f"{context}: imaginary residue {resid:.3e} exceeds {tol:.1e}*scale; "
            f"matrix may be too ill-conditioned for the analytic path (use {use})")


def _require_real(X, tol, context):
    """Strip an imaginary residue after checking it is numerically negligible."""
    _refuse_imaginary(float(np.max(np.abs(X.imag))), float(np.max(np.abs(X))),
                      tol, context, _ORACLE_ADVICE)
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

    @property
    def analytic_refusal(self) -> str:
        """Why every analytic path (``_modal``, ``_dderiv``, ``classify``)
        refuses this spectrum, or "": near-defective without Jordan data."""
        return (f"spectrum is near-defective (cond_M = {self.cond_M:.2e})"
                if self.near_defective and not self.is_defective else "")

    @cached_property
    def layout(self):
        """The modal layout, built once: the cluster means ``lam``, the
        same-cluster mask, the gaps ``d = lam_p - lam_q`` (1 within a cluster),
        the Jordan chain bounds ``head[p] <= p < end[p]`` and the longest ``L``."""
        lam, same = self.eigenvalues.copy(), np.eye(self.n, dtype=bool)
        for grp in self.clusters:
            if len(grp) > 1:  # np.mean would turn a lone -0.0 part into +0.0
                lam[list(grp)] = np.mean(self.eigenvalues[list(grp)])
            same[np.ix_(grp, grp)] = True
        p = np.arange(self.n)
        head, end = p.copy(), p + 1
        for s, size in self.jordan_blocks:
            head[s:s + size], end[s:s + size] = s, s + size
        d = np.where(same, 1.0, lam[:, None] - lam[None, :])
        return lam, same, d, head, end, int(np.max(end - head))

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
        return cls._build(lam, M, blocks)

    @classmethod
    def _build(cls, lam, M, blocks=()):
        """The spectrum of ordered ``lam`` and ``M`` with Jordan ``blocks``.
        Each block clusters as one unit at its leading eigenvalue (``lead``),
        with the blocks and simple eigenvalues that equal it."""
        lead = np.arange(len(lam))
        for s, z in blocks:
            lead[s:s + z] = s
        try:
            Minv = np.linalg.inv(M)
        except np.linalg.LinAlgError:  # exactly parallel columns: cond_M ~ 1/eps
            Minv = None
        if Minv is None or not np.isfinite(Minv).all():  # or a subnormal pivot
            Minv = np.linalg.pinv(M)
        return cls(lam, M, Minv, tuple(_cluster_indices(lam[lead])),
                   tuple(blocks), float(np.linalg.cond(M)))


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


def _cluster_indices(lam):
    """Groups of the indices of ``lam`` joined by chains of eigenvalues within
    ``DEFAULT_CLUSTER_TOL * (1 + max |lam|)`` of each other, each ascending,
    ordered by first index: every index takes the least label among its near
    neighbours until no label changes."""
    n = len(lam)
    thresh = DEFAULT_CLUSTER_TOL * (1.0 + float(np.max(np.abs(lam), initial=0.0)))
    # np.hypot rounds as a complex scalar's abs; np.abs on a complex array may not
    near = np.hypot(lam.real[:, None] - lam.real, lam.imag[:, None] - lam.imag) <= thresh
    label, prev = np.arange(n), None
    while not np.array_equal(label, prev):
        label, prev = np.min(np.where(near, label, n), axis=1, initial=n), label
    return [tuple(np.flatnonzero(label == k).tolist()) for k in np.unique(label)]


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


def eig_decompose(A) -> Spectrum:
    """Eigendecompose a real square matrix with deterministic ordering.

    Eigenvalues within ``DEFAULT_CLUSTER_TOL * (1 + max |lam|)`` of each
    other share a cluster.  Raises ``np.linalg.LinAlgError`` if ``eig`` fails.
    Eigenvectors with cond_M above ``NEAR_DEFECTIVE_COND`` (1e6) make the
    spectrum near-defective, which the analytic paths refuse: rounding splits
    a size-k Jordan block ~eps^(1/k) apart, at cond_M >~ eps^(-1/2) ~ 7e7.
    """
    lam, M = np.linalg.eig(_as_square(A))
    order = np.lexsort((-np.sign(lam.imag), np.abs(lam.imag), -lam.real))
    return Spectrum._build(lam[order], _phase_normalize(M[:, order]))


def couplings(spec: Spectrum, S, c, vec) -> Couplings:
    """Project a structure matrix, readout row and forcing vector onto modes."""
    S = _as_square(S, "S")
    c = np.asarray(c, dtype=float).reshape(-1)
    vec = np.asarray(vec, dtype=float).reshape(-1)
    if S.shape[0] != spec.n or c.size != spec.n or vec.size != spec.n:
        raise ValueError("dimension mismatch between spectrum and couplings input")
    return Couplings(z=c @ spec.M, w=spec.Minv @ vec, Sbar=spec.Minv @ S @ spec.M)


def _fractions(W, d, i, j):
    """Partial fractions of the integral of e^{lam_p (t-tau)} (t-tau)^i/i!
    e^{lam_q tau} tau^j/j! across clusters, weighted by ``W``: for r = i+j
    down to 0, ``(r, a, b, R)`` with ``R = W / d^(i+j+1-r)``, so that the
    integral is sum_r t^r (a R e^{lam_p t} [r <= i] - b R e^{lam_q t} [r <= j])."""
    R = W
    for r in range(i + j, -1, -1):
        R, f = R / d, math.factorial(r)
        yield (r, (-1) ** (i - r) * math.comb(i + j - r, j) / f,
               (-1) ** i * math.comb(i + j - r, i) / f, R)


def _kernel(lam, same, d, W, t, i, j):
    """``K^{ij}(t) * W``: the (i, j) coupling integral of ``_fractions``
    across clusters, t^(i+j+1)/(i+j+1)! e^{lam_p t} within one."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    e = np.exp(lam * t)
    K = np.where(same, W, 0.0) * e[:, None] * (t ** (i + j + 1) / math.factorial(i + j + 1))
    for r, a, b, R in _fractions(np.where(same, 0.0, W), d, i, j):
        if r <= i:
            K = K + a * t ** r * R * e[:, None]
        if r <= j:
            K = K - b * t ** r * R * e
    return K


def _dderiv(spec: Spectrum, Sbar, t, context):
    """D_S(t, A) = M X Minv with X = sum_{i,j} N^i (K^{ij}(t) * Sbar) N^j,
    N the shift along each Jordan chain: X[a, b] += Y[a+i, b-j] where both
    stay on their chains.  ``Sbar`` must be a finite ``(n, n)`` matrix."""
    if spec.analytic_refusal:
        raise ValueError(f"{spec.analytic_refusal}; use {_ORACLE_ADVICE}")
    Sbar = _as_square(Sbar, "Sbar")
    if Sbar.shape != (spec.n, spec.n):
        raise ValueError(f"Sbar must have shape {(spec.n, spec.n)}, got {Sbar.shape}")
    lam, same, d, head, end, L = spec.layout
    p = np.arange(spec.n)
    X = np.zeros((spec.n, spec.n), np.result_type(Sbar, lam))
    for i, j in np.ndindex(L, L):
        rows, cols = p[p + i < end], p[p - j >= head]
        Y = _kernel(lam, same, d, Sbar, t, i, j)
        X[np.ix_(rows, cols)] += Y[np.ix_(rows + i, cols - j)]
    return _require_real(spec.M @ X @ spec.Minv, 1e-9, context)


def phi_matrix(spec: Spectrum, t: float) -> np.ndarray:
    """Divided-difference kernel of the exponential on the spectrum, the
    (0, 0) ``_kernel`` on ``W = 1``: entry (m, n) is ``(exp(lam_m t) -
    exp(lam_n t)) / (lam_m - lam_n)`` across clusters and ``t exp(lam_m t)``
    within one (at the cluster means, so no cancellation at the switch)."""
    return _kernel(*spec.layout[:3], np.ones((spec.n, spec.n)), t, 0, 0)


def dderiv_diag(spec: Spectrum, coup: Couplings, t: float) -> np.ndarray:
    """Directional derivative of expm in the modal form (``_dderiv``), from
    the couplings' ``Sbar``: on a spectrum without Jordan blocks, the
    eigenbasis Hadamard product ``M (Sbar * phi_matrix) Minv``."""
    return _dderiv(spec, coup.Sbar, t, "dderiv_diag")


def dderiv_jordan(spec: Spectrum, Sbar, t: float) -> np.ndarray:
    """``dderiv_diag``, bit for bit, from ``Sbar = Minv S M`` given as a
    finite ``(n, n)`` matrix: any layout ``Spectrum.from_jordan`` accepts."""
    return _dderiv(spec, Sbar, t, "dderiv_jordan")


def _pade_table():
    """Higham (2005), Table 2.3: per degree m = 3, 5, 7, 9, 13, the largest
    1-norm ``theta_m`` at which the [m/m] Pade approximant of exp has
    backward error below unit roundoff, and the coefficient rows that give
    its numerator's parts from the powers ``I, A^2, A^4, ...``: for m <= 9,
    the odd part over A and the even part; for m = 13, the two parts as
    ``A6 @ row0 + row1`` (odd, over A) and ``A6 @ row2 + row3`` (even)."""
    b = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0,
         670442572800.0, 33522128640.0, 1323241920.0, 40840800.0, 960960.0,
         16380.0, 182.0, 1.0)
    low = ((1.495585217958292e-2, (120.0, 60.0, 12.0, 1.0)),
           (2.539398330063230e-1, (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0)),
           (9.504178996162932e-1, (17297280.0, 8648640.0, 1995840.0, 277200.0,
                                   25200.0, 1512.0, 56.0, 1.0)),
           (2.097847961257068e0, (17643225600.0, 8821612800.0, 2075673600.0,
                                  302702400.0, 30270240.0, 2162160.0, 110880.0,
                                  3960.0, 90.0, 1.0)))
    table = [(theta, np.array([c[1::2], c[::2]])) for theta, c in low]
    return table + [(5.371920351148152e0, np.array(
        [(0.0,) + b[9::2], b[1:9:2], (0.0,) + b[8::2], b[0:8:2]]))]


_PADE = _pade_table()


def _halvings(x):
    """The least s >= 0 with x / 2**s <= 1; 0 for a non-finite x."""
    frac, s = math.frexp(x)
    return max(s - (frac == 0.5), 0)


def expm(A):
    """Matrix exponential of each real matrix of a ``(..., n, n)`` stack.

    Scaling and squaring with a diagonal Pade approximant (Higham, *SIAM J.
    Matrix Anal. Appl.* 26(4), 2005).  Each matrix is scaled by its own
    ``2**-s``, the least with 1-norm ``/ 2**s <= theta_13``; one degree m
    serves the whole call, the least whose ``theta_m`` holds the largest
    scaled norm, so a stack of small norms costs few products.  The stack
    is evaluated at once by batched ``@`` and ``np.linalg.solve``, and each
    squaring takes only the matrices whose ``s`` is not used up, so a matrix
    in a stack comes out bit for bit as alone whenever it alone picks the
    same degree.  Overflow gives inf or NaN entries without a warning; a
    matrix with a non-finite 1-norm gives NaN.
    """
    A = np.asarray(A, dtype=float)
    shape = A.shape
    if A.ndim < 2 or shape[-2] != shape[-1]:
        raise ValueError(f"expm needs a stack of square matrices, got shape {shape}")
    if A.size == 0:
        return A.copy()
    n = shape[-1]
    A = A.reshape(-1, n, n)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.abs(A).sum(axis=1).max(axis=1).tolist()
        s = [_halvings(x / _PADE[-1][0]) for x in norm]
        if any(s):
            A = np.ldexp(A, -np.array(s)[:, None, None])
        top = max(math.ldexp(x, -k) for x, k in zip(norm, s))
        C = next((C for theta, C in _PADE if top <= theta), _PADE[-1][1])
        P = np.empty((len(A), C.shape[1], n, n))
        P[:, 0] = np.eye(n)
        P[:, 1] = A @ A
        for j in range(2, C.shape[1]):
            P[:, j] = P[:, j - 1] @ P[:, 1]
        W = (C @ P.reshape(len(A), C.shape[1], n * n)).reshape(len(A), -1, n, n)
        if len(C) == 2:
            U, V = A @ W[:, 0], W[:, 1]
        else:
            U = A @ (P[:, 3] @ W[:, 0] + W[:, 1])
            V = P[:, 3] @ W[:, 2] + W[:, 3]
        R = np.linalg.solve(V - U, V + U)
        for k in range(max(s)):
            if k < min(s):
                R = R @ R
            else:
                sq = np.array(s) > k
                R[sq] = R[sq] @ R[sq]
    if not all(map(math.isfinite, norm)):
        R[~np.isfinite(norm)] = np.nan
    return R.reshape(shape)


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
    ``QuadratureWarning``; a non-finite estimate (an overflow) gives NaN.

    Panels are dyadic, ``[a, b] = [i, i + 1] t / 2**depth``.  A node
    ``tau = a + h (1 + x)`` splits ``exp(tau A) = exp(a A) exp(h (1 + x) A)``
    (and ``t - tau`` alike from b): offsets are exponentiated once per depth.
    A panel carries its ends ``exp((t - b) A)`` and ``exp(a A)``; halving it
    exponentiates only the midpoint's pair, and each half keeps one end.
    """
    A, S = _oracle_input(A, S, t)
    Q, miss = _quadrature(A, S, t, abs_tol, max_panels)
    if miss is not None:
        warnings.warn(miss)
    return Q


def _quadrature(A, S, t, abs_tol=1e-10, max_panels=2 ** 16):
    """``dderiv_oracle_quadrature`` on checked input, as ``(Q, miss)``:
    ``miss`` is the ``QuadratureWarning`` it warns, or None."""
    n = A.shape[0]
    if t == 0.0 or not np.any(S):
        return np.zeros((n, n)), None

    eps = np.finfo(float).eps
    inner = {}  # depth -> exp(h (1 - x_j) A) @ S @ exp(h (1 + x_j) A)
    total = np.zeros((n, n))
    achieved = 0.0
    panels_used = 0
    stack = [(0, 0, np.eye(n), np.eye(n))]  # (i, depth, left, right)
    tol_met = True
    while stack:
        i, depth, left, right = stack.pop()
        width = t / 2 ** depth
        half = 0.5 * width
        if depth not in inner:
            E = expm((half * (1.0 + _GL_NODES))[:, None, None] * A[None])
            inner[depth] = E[_GL_MIRROR] @ S @ E
        F = left @ inner[depth] @ right
        coarse = half * np.einsum("i,ijk->jk", _GL7[1], F[:7])
        fine = half * np.einsum("i,ijk->jk", _GL15[1], F[7:])
        err = float(np.max(np.abs(fine - coarse)))
        if not math.isfinite(err):  # an overflow, which halving cannot mend
            return np.full((n, n), np.nan), None
        panels_used += 1
        share = abs_tol / 2 ** depth
        floor = 16.0 * eps * float(np.max(np.abs(F))) * width
        if err <= max(share, floor) or panels_used >= max_panels:
            total += fine
            achieved += err
            tol_met = tol_met and err <= max(share, floor)
        else:
            mid = (2 * i + 1) * (t / 2 ** (depth + 1))
            to_end, to_mid = expm(np.stack([(t - mid) * A, mid * A]))
            stack.append((2 * i + 1, depth + 1, left, to_mid))
            stack.append((2 * i, depth + 1, to_end, right))
    if not tol_met or achieved > abs_tol:
        return total, QuadratureWarning(
            f"quadrature tolerance {abs_tol:.1e} not reached "
            f"({panels_used} panels): achieved error estimate {achieved:.3e}",
            achieved)
    return total, None


def dderiv_oracle_blockaug(A, S, t: float) -> np.ndarray:
    """D_S(t, A) via the block-augmented exponential identity.

    The upper-right block of ``expm(t*[[A, S], [0, A]])`` equals the defining
    integral; ``expm`` is this module's scaling and squaring.
    """
    A, S = _oracle_input(A, S, t)
    n = A.shape[0]
    C = np.block([[A, S], [np.zeros_like(A), A]])
    return expm(t * C)[:n, n:]


def _fd_step(S) -> float:
    """Default central-difference step along ``S``."""
    return 1e-6 * (1.0 + float(np.linalg.norm(S, 2)))


def _fd_generator(A, S, h):
    """``[[A + hS, 0, hS], [0, A - hS, hS], [0, 0, A]]``, whose exponential's
    last block column holds ``exp(t(A +- hS)) - exp(tA)``, the second negated:
    their sum is a central difference that subtracts no two exponentials."""
    Z = np.zeros_like(A)
    return np.block([[A + h * S, Z, h * S], [Z, A - h * S, h * S], [Z, Z, A]])


def dderiv_oracle_fd(A, S, t: float, h: float | None = None) -> np.ndarray:
    """Central finite-difference cross-check of D_S(t, A) (``_fd_generator``)."""
    A, S = _oracle_input(A, S, t)
    if h is None:
        h = _fd_step(S)
    P, n = expm(t * _fd_generator(A, S, h)), len(A)
    return (P[:n, 2 * n:] + P[n:2 * n, 2 * n:]) / (2.0 * h)
