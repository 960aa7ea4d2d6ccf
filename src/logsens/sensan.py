"""Error-signal traces, log-sensitivity, and asymptotic divergence analysis.

Given an error signal ``e(t) = c @ expm(A0*t) @ v`` with the uncertain
parameter entering as ``A0 + (xi - xi0)*S``, the log-sensitivity is

    s(xi0, t) = xi0 * (c @ D_S(t, A0) @ v) / e(t).

``classify`` predicts how ``|s|`` diverges as the error decays, from the
modal data alone: linearly (simple or repeated-diagonalizable dominant real
eigenvalue), with periodic unbounded local maxima (dominant complex pair,
possibly sharing the axis with further commensurate modes), or polynomially
(dominant nontrivial Jordan block).  Empirical validation of those
predictions lives in ``fit_slope`` / ``detect_spikes`` /
``fit_polynomial_degree`` and never feeds back into the prediction.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .matexp import (
    DEFAULT_CLUSTER_TOL,
    Couplings,
    Spectrum,
    _blocks,
    _fd_generator,
    _fd_step,
    _fractions,
    _quadrature,
    _refuse_imaginary,
    couplings,
    eig_decompose,
    expm,
)

__all__ = [
    "ErrorSystem",
    "SensitivityTrace",
    "DivergenceClassification",
    "error_signal",
    "error_derivative",
    "log_sensitivity",
    "trace",
    "classify",
    "spike_schedule",
    "fit_slope",
    "detect_spikes",
    "fit_polynomial_degree",
]

SPIKE_FLOOR_REL = 1e-12
STABILITY_TOL = 1e-9
PRUNE_TOL = 1e-10  # classify: negligible modal weight, relative
SPIKE_DIP_FRAC = 0.05  # detect_spikes: a dip of |e| against its local scale
SPIKE_PROMINENCE_DECADES = 0.5  # detect_spikes: a spike over its neighbours
_FUNDAMENTAL_MAX_DEN = 64  # _rational_fundamental: frequency ratios
_FUNDAMENTAL_RTOL = 1e-9
_MINIMA_SAMPLES = 8192  # _numeric_minima_timing: samples per period
# Samples per block of the modal evaluator and the minima scan: their
# working memory is O(n * _BLOCK) whatever the grid length.
_BLOCK = 1024
# The derivative paths of ``trace``; the order fixes the pair names of
# ``logsens check``.
DERIVATIVE_METHODS = ("analytic", "quadrature", "blockaug", "fd")
# The CLI's alternative where the analytic path refuses a spectrum.
_METHOD_ADVICE = "--method " + "|".join(m for m in DERIVATIVE_METHODS if m != "analytic")


@dataclass(frozen=True)
class ErrorSystem:
    """Error signal data: e(t) = c @ expm(A0*t) @ v, parameter direction S.

    ``v`` already folds any reference gain (tracking: v = -k0*beta) or is the
    initial state (free response).  ``xi0`` is the nominal parameter value.
    ``A0``, ``S``, ``c`` and ``v`` must be finite, and all eigenvalues of
    ``A0`` must satisfy Re <= 0 (marginal stability).
    """

    A0: np.ndarray
    S: np.ndarray
    c: np.ndarray
    v: np.ndarray
    xi0: float

    def __post_init__(self):
        A0 = np.asarray(self.A0, dtype=float)
        S = np.asarray(self.S, dtype=float)
        c = np.asarray(self.c, dtype=float).reshape(-1)
        v = np.asarray(self.v, dtype=float).reshape(-1)
        n = A0.shape[0]
        if A0.shape != (n, n) or S.shape != (n, n) or c.size != n or v.size != n:
            raise ValueError("inconsistent dimensions in ErrorSystem")
        for name, x in (("S", S), ("c", c), ("v", v)):
            if not np.all(np.isfinite(x)):
                raise ValueError(f"{name} contains non-finite entries")
        spec = eig_decompose(A0)
        lam = spec.eigenvalues
        rad = 1.0 + float(np.max(np.abs(lam)))
        if np.max(lam.real) > STABILITY_TOL * rad:
            raise ValueError(
                f"A0 must be marginally stable (max Re eig = {np.max(lam.real):.3e})"
            )
        for name, x in (("_spectrum", spec), ("A0", A0), ("S", S), ("c", c), ("v", v),
                        ("xi0", float(self.xi0))):
            object.__setattr__(self, name, x)

    @property
    def n(self) -> int:
        return self.A0.shape[0]

    def spectrum(self) -> Spectrum:
        """Eigendecomposition of ``A0``, built once, at construction."""
        return self._spectrum

    def couplings(self, spec: Spectrum) -> Couplings:
        """Modal couplings of ``c`` and ``v`` (free response convention)."""
        return couplings(spec, self.S, self.c, self.v)


@dataclass(frozen=True)
class SensitivityTrace:
    """Sampled error, parametric derivative and log-sensitivity on a grid.

    ``spike_mask[i]`` is True where ``|error[i]|`` sits below the spike floor
    (1e-12 of the max); there ``logsens[i]`` is NaN rather than +-inf.
    """

    times: np.ndarray
    error: np.ndarray
    derror: np.ndarray
    logsens: np.ndarray
    spike_mask: np.ndarray

    def __len__(self):
        return len(self.times)


@dataclass(frozen=True)
class DivergenceClassification:
    """Predicted asymptotic behavior of |s(xi0, t)|.

    ``kind`` names the asymptotic law.  For the periodic kind the fields
    satisfy period = pi/omega and t0 = (pi + phi01)/(2*omega); when extra
    modes share the dominant axis (spin chains) the reported omega is the
    spike frequency pi/period rather than the modal frequency, which is kept
    in ``constants["omega_modal"]``.
    """

    kind: str
    slope: float | None = None
    sigma: float | None = None
    omega: float | None = None
    phi01: float | None = None
    t0: float | None = None
    period: float | None = None
    degree: int | None = None
    pruned_modes: tuple = ()
    constants: dict = field(default_factory=dict)
    diagnostic: str = ""

    KINDS = ("LinearReal", "LinearRepeatedReal", "PeriodicComplex",
             "PolynomialJordan", "Inconclusive")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown classification kind {self.kind!r}")


def _modal(sys: ErrorSystem, spec: Spectrum, times: np.ndarray):
    """e(t) and de/dxi(t) on a grid, from any spectrum with its Jordan data.

    In the Jordan basis (``Spectrum.layout``), couplings shift along blocks,
    z^(i)_p = z_{p-i} and w^(j)_q = w_{q+j} (0 off the block), and each
    (i, j) weights W = Sbar * outer(z^(i), w^(j)) by the integral that
    ``matexp._kernel`` takes at the cluster means lam: t^(i+j+1)/(i+j+1)!
    e^{lam_p t} within a cluster, ``matexp._fractions`` across.  So de/dxi
    = Re sum_k t^k C_k @ e^{lam t} and e = Re sum_i t^i (z^(i) w / i!) @
    e^{lam_raw t}, with the coefficients kept on ``sys`` for its last spectrum.

    The grid is evaluated in blocks of ``_BLOCK`` samples, by Horner's rule
    in t, so the working memory is O(n B + T) besides the two output
    columns.  One ``_exponent_plan``, kept with the coefficients, gives the
    rows e^{lam t} and e^{lam_raw t}.  The imaginary residue of de/dxi is
    judged once, against the whole trace's largest modulus.
    """
    if spec.analytic_refusal:
        raise ValueError(f"{spec.analytic_refusal}; use {_METHOD_ADVICE}, "
                         "or Spectrum.from_jordan data")
    kept = sys.__dict__.get("_modal_coefficients")
    if kept is None or kept[0] is not spec:
        coup, p = sys.couplings(spec), np.arange(spec.n)
        lam, same, d, head, end, L = spec.layout
        zs = [np.where(p - i >= head, np.roll(coup.z, i), 0) for i in range(L)]
        ws = [np.where(p + j < end, np.roll(coup.w, -j), 0) for j in range(L)]
        C = np.zeros((2 * L, spec.n), np.result_type(coup.Sbar, lam))
        for i, j in np.ndindex(L, L):
            W = coup.Sbar * np.outer(zs[i], ws[j])
            C[i + j + 1] += np.where(same, W, 0.0).sum(axis=1) / math.factorial(i + j + 1)
            for r, a, b, R in _fractions(np.where(same, 0.0, W), d, i, j):
                if r <= i:
                    C[r] += a * R.sum(axis=1)
                if r <= j:
                    C[r] -= b * R.sum(axis=0)
        Ce = np.array([zs[i] * coup.w / math.factorial(i) for i in range(L)])
        kept = (spec, Ce, C, _exponent_plan(lam, spec.eigenvalues))
        object.__setattr__(sys, "_modal_coefficients", kept)
    _, Ce, C, plan = kept
    error, derror = np.empty(len(times)), np.empty(len(times))
    resid = absmax = 0.0
    for lo in range(0, len(times), _BLOCK):
        tb = times[lo:lo + _BLOCK]
        E, Er = _exponentials(plan, tb)
        error[lo:lo + _BLOCK] = np.real(_horner(Ce, Er, tb))
        X = _horner(C, E, tb)
        derror[lo:lo + _BLOCK] = X.real
        resid = max(resid, float(np.max(np.abs(X.imag))))
        absmax = max(absmax, float(np.max(np.abs(X))))
        del E, Er  # one block's rows at a time
    _refuse_imaginary(resid, absmax, 1e-9, "analytic derivative", _METHOD_ADVICE)
    return error, derror


def _exponent_plan(*zs):
    """Distinct exponents w of the lists zs and, per list z, an index g and a
    mask with exp(outer(z, t)) = exp(outer(w, t))[g], conjugated on rows with
    Im < 0 and their conjugate listed: equal exponents give equal rows and
    exp(conj z) == conj(exp z) bit for bit (a zero may flip sign at t = 0)."""
    z = np.concatenate(zs)
    mirror = (z.imag < 0) & np.isin(np.conj(z), z)
    w, g = np.unique(np.where(mirror, np.conj(z), z), return_inverse=True)
    cut = np.cumsum([len(x) for x in zs[:-1]])
    return w, list(zip(np.split(g, cut), np.split(mirror[:, None], cut)))


def _exponentials(plan, tb):
    """Per list z of an ``_exponent_plan``, the rows ``exp(outer(z, tb))``."""
    X = np.exp(np.outer(plan[0], tb))
    return [np.conjugate(F, out=F, where=m) for g, m in plan[1] for F in [X[g]]]


def _horner(C, E, tb):
    """sum_k tb^k (C[k] @ E), by Horner's rule from the last row of C."""
    X = C[-1] @ E
    for Ck in C[-2::-1]:
        X = X * tb + Ck @ E
    return X


def error_signal(sys: ErrorSystem, t: float) -> float:
    """Error at a single time: a one-sample analytic ``trace``."""
    return float(trace(sys, [t]).error[0])


def error_derivative(sys: ErrorSystem, t: float, method: str = "analytic") -> float:
    """de/dxi at the nominal parameter: a one-sample ``trace`` by ``method``."""
    return float(trace(sys, [t], method).derror[0])


def log_sensitivity(sys: ErrorSystem, t: float) -> float:
    """xi0 * (de/dxi) / e at time t: a one-sample analytic ``trace``, so
    NaN where e is zero."""
    return float(trace(sys, [t]).logsens[0])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def trace(sys: ErrorSystem, grid, method: str = "analytic",
          spectrum: Spectrum | None = None) -> SensitivityTrace:
    """Sample e, de/dxi and s(xi0, t) on a time grid.

    ``error_signal``, ``error_derivative`` and ``log_sensitivity`` are
    one-sample traces.  ``method`` selects the derivative path.  The analytic
    path is one ``_modal`` call on the system's spectrum, or on ``spectrum``
    when given: a ``Spectrum.from_jordan`` result, any block layout, drives
    it on a known-defective generator.  Oracle methods step a state
    (``_stepped``), never eigendecomposing: blockaug ``[[A0, S], [0, A0]]``
    on ``[0; v]``; fd ``A0 +- hS`` as ``y+- = y0 +- d+-`` so that ``(d+ +
    d-) / 2h`` does not cancel; quadrature ``[y; x]`` by the semigroup
    property, ``y <- expm(d A0) y + Q(d) x``, ``x <- expm(d A0) x`` with
    ``Q(d)`` the quadrature of the defining integral over one step
    (``_quadrature``).  Each path builds one full operator per step value;
    the other rounding spellings of that step compose it with the same
    oracle's operator over the exact, near-zero remainder.  ``_quadrature``
    returns a missed tolerance as a value; the misses are reported in one
    ``RuntimeWarning`` per trace, each sample charged with the error
    estimates of every quadrature it was stepped through.  An overflow
    comes out as inf or NaN values, without a floating-point warning.
    """
    times = np.asarray(grid, dtype=float).reshape(-1)
    if len(times) == 0:
        z = np.zeros(0)
        return SensitivityTrace(times, z, z.copy(), z.copy(), np.zeros(0, dtype=bool))
    if np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise ValueError("grid must be strictly increasing and nonnegative")
    if method not in DERIVATIVE_METHODS:
        raise ValueError(f"unknown method {method!r}: must be one of {DERIVATIVE_METHODS}")

    if method == "analytic":
        error, derror = _modal(sys, spectrum or sys.spectrum(), times)
    else:
        c, v, A0, S = sys.c, sys.v, sys.A0, sys.S
        z, Z = np.zeros_like(v), np.zeros_like(A0)
        readout = _blocks([[z, c], [c, z]])  # e from the lower half, de/dxi upper
    if method == "blockaug":
        G = _blocks([[A0, S], [Z, A0]])
        error, derror = _stepped(lambda d: expm(d * G), np.r_[z, v], readout, times)
    elif method == "fd":
        h = _fd_step(S)
        G = _fd_generator(A0, S, h)
        error, diff = _stepped(lambda d: expm(d * G), np.r_[z, z, v],
                               _blocks([[z, z, c], [c, c, z]]), times)
        derror = diff / (2.0 * h)
    elif method == "quadrature":
        missed = {}

        def step(d):
            Q, miss = _quadrature(A0, S, d)
            if miss is not None:
                missed[d] = miss.achieved
            P = expm(d * A0)
            return _blocks([[P, Q], [Z, P]])

        error, derror = _stepped(step, np.r_[z, v], readout, times)
        if missed:
            # a spelling's samples went through its base's quadrature too
            uniq, keys, base = _step_groups(times)
            charge = [missed.get(uniq[b], 0.0)
                      + (missed.get(d - uniq[b], 0.0) if b != k else 0.0)
                      for k, (d, b) in enumerate(zip(uniq, base))]
            total = float(np.bincount(keys, minlength=len(uniq)) @ charge)
            warnings.warn(
                f"quadrature tolerance not reached on {len(missed)} of "
                f"{len(uniq)} distinct steps: the sum over samples "
                f"of their steps' error estimates is {total:.3e} (before "
                "propagation)", RuntimeWarning)

    floor = SPIKE_FLOOR_REL * max(np.max(np.abs(error)), 1e-300)
    mask = np.abs(error) <= floor
    logsens = np.full(len(times), np.nan)
    np.divide(sys.xi0 * derror, error, out=logsens, where=~mask)
    return SensitivityTrace(times, error, derror, logsens, mask)


def _step_groups(times):
    """The distinct steps of a grid (sorted), each sample's index into them,
    and each step's group base.  A step at most ``4 ulp(max t)`` above the
    smallest step of its group is a rounding spelling of that step: grid
    times ``t0 + k h`` sit within 1 ulp of their real values, so two
    spellings of one difference sit within 4 ulp."""
    uniq, idx = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    tol, base = 4.0 * np.spacing(times[-1]), [0]
    for k in range(1, len(uniq)):
        base.append(base[-1] if uniq[k] - uniq[base[-1]] <= tol else k)
    return uniq, idx.tolist(), base


def _stepped(step, x0, R, times):
    """Rows of ``R @ x(t)`` on an increasing grid, with ``x(0) = x0`` and
    ``x(t + d) = step(d) @ x(t)``: one full step operator per step value (2 on
    the default CLI grids, one per sample at worst).  Every other spelling
    ``d`` of a value ``b`` (``_step_groups``) steps by ``step(d - b) @
    step(b)``, exact by the semigroup property; the remainder ``d - b`` is
    exact (Sterbenz) and near zero.  A reused buffer of ``_BLOCK`` states is
    read out by one stacked ``matmul``, an ``R @ x`` dgemv per state (a gemm
    ``X @ R.T`` moves bits).  Operators are dropped after their last use, a
    base after its group's: memory O(T + _BLOCK len(x0) + n^2 per live
    operator).  Rounding: ~2e-12 of column max in 5e3 steps, 2e-11 in 5e5."""
    uniq, keys, base = _step_groups(times)
    last, drop = {}, [()] * len(keys)
    for i, k in enumerate(keys):
        last[k] = last[base[k]] = i
    for k, i in last.items():
        drop[i] += (k,)
    out, ops, x = np.empty((len(times), len(R))), {}, x0
    X = np.empty((min(len(out), _BLOCK), len(x0)))  # one block of states
    rows = list(X)  # its row views, cheaper to pass than ``X[i - lo]``
    for lo in range(0, len(out), _BLOCK):
        for i, k, row in zip(range(lo, len(out)), keys[lo:lo + _BLOCK], rows):
            P = ops.get(k)
            if P is None:
                b = base[k]
                if b not in ops:
                    ops[b] = step(uniq[b])
                P = ops[k] = ops[b] if b == k else step(uniq[k] - uniq[b]) @ ops[b]
            x = P.dot(x, out=row)  # the dgemv of ``@`` at half its dispatch cost
            for j in drop[i]:
                del ops[j]
        np.matmul(R, X[:i + 1 - lo, :, None], out=out[lo:i + 1, :, None])
    return out.T


def _rational_fundamental(freqs):
    """Fundamental omega0 with every frequency an integer multiple, or None.

    Each ratio to the smallest frequency is replaced by a continued-fraction
    rational approximation with denominator <= ``_FUNDAMENTAL_MAX_DEN``;
    incommensurate sets (no approximation within ``_FUNDAMENTAL_RTOL``)
    return None.
    """
    from fractions import Fraction

    base = min(freqs)
    fracs = []
    for f in freqs:
        r = f / base
        frac = Fraction(r).limit_denominator(_FUNDAMENTAL_MAX_DEN)
        if frac.numerator == 0 or abs(float(frac) - r) > _FUNDAMENTAL_RTOL * r:
            return None
        fracs.append(frac)
    L = math.lcm(*(f.denominator for f in fracs))
    # omega0 = base / L * gcd of the integer multipliers
    mult = [f.numerator * (L // f.denominator) for f in fracs]
    return base * math.gcd(*mult) / L


def _dominant_pair_timing(z1w1, z2w2, omega):
    """First asymptotic |D| minimum and spacing for a lone dominant pair.

    The quadrant convention: phi = arctan(-Im P / Re P) in the first or
    fourth quadrant, shifted by pi when Re P < 0, with P = z1w1 * conj(z2w2)
    and the +i*omega member of the pair listed first.
    """
    P = z1w1 * np.conj(z2w2)
    if P.real > 0:
        phi01 = math.atan(-P.imag / P.real)
    elif P.real < 0:
        phi01 = math.atan(-P.imag / P.real) + np.pi
    else:
        phi01 = np.pi / 2 if -P.imag >= 0 else -np.pi / 2
    t0 = (np.pi + phi01) / (2 * omega)
    return t0, np.pi / omega, phi01, P


def _numeric_minima_timing(zw, omegas, omega0):
    """Recurring deepest minima of |sum zw_m exp(i*omega_m*t)| over one period.

    Used when zero-frequency modes or several commensurate pairs share the
    dominant axis, where the single-pair phase formula does not apply.
    The modulus is sampled in blocks of ``_BLOCK`` columns (O(n B) working
    memory); the column sums add the modes in order, as one n x samples
    array would; one exp per frequency up to sign (``_exponent_plan``).
    Returns (t0, spacing), or why the minima cannot be timed: there are
    none (a constant modulus), or they do not recur evenly.
    """
    T = 2 * np.pi / omega0
    ts = np.linspace(0.0, T, _MINIMA_SAMPLES, endpoint=False)
    h = np.empty(_MINIMA_SAMPLES)
    plan = _exponent_plan(1j * omegas)
    for lo in range(0, _MINIMA_SAMPLES, _BLOCK):
        tb = ts[lo:lo + _BLOCK]
        h[lo:lo + _BLOCK] = np.abs(
            np.sum(zw[:, None] * _exponentials(plan, tb)[0], axis=0))
    # local minima with periodic wraparound
    left = np.roll(h, 1)
    right = np.roll(h, -1)
    is_min = (h <= left) & (h <= right) & ((h < left) | (h < right))
    idx = np.nonzero(is_min)[0]
    if len(idx) == 0:
        return ("dominant oscillation has constant modulus (its modal weights "
                "cancel): no minima to time")
    depth = h[idx]
    keep = idx[depth <= depth.min() + 1e-6 * (h.max() - depth.min() + 1e-300)]
    # parabolic refinement of each kept minimum
    times = []
    for i in keep:
        y0, y1, y2 = h[(i - 1) % _MINIMA_SAMPLES], h[i], h[(i + 1) % _MINIMA_SAMPLES]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if abs(denom) > 0 else 0.0
        times.append((ts[i] + shift * (T / _MINIMA_SAMPLES)) % T)
    times = np.sort(np.array(times))
    if len(times) > 1:
        gaps = np.diff(np.concatenate([times, [times[0] + T]]))
        if np.max(gaps) - np.min(gaps) > 1e-3 * T:
            return "dominant oscillation has unevenly spaced minima"
    spacing = T / len(times)
    t0 = times[0] if times[0] > 1e-9 * T else times[0] + spacing
    return t0, spacing


def classify(spec: Spectrum, coup: Couplings, xi0: float) -> DivergenceClassification:
    """Predict the divergence mode of the log-sensitivity from modal data.

    Modes whose structure couplings all vanish, or whose z_m*w_m product is
    negligible (readout or initial state annihilates them, as for the
    steady-state mode of the open two-qubit system), are pruned before the
    dominant eigenvalue is identified.  A near-defective spectrum without
    Jordan data, and ``xi0 == 0``, where s is identically zero, are
    Inconclusive.
    """
    if spec.analytic_refusal:
        return DivergenceClassification(
            kind="Inconclusive",
            diagnostic=f"{spec.analytic_refusal} and carries no Jordan data: "
                       f"{_METHOD_ADVICE} still samples it, Spectrum.from_jordan "
                       "supplies the data",
        )
    if xi0 == 0:
        return DivergenceClassification(
            kind="Inconclusive",
            diagnostic="xi0 = 0: the log-sensitivity xi0 * (de/dxi) / e is "
                       "identically zero and does not diverge",
        )
    lam, size = spec.eigenvalues, int(spec.layout[4][0])  # the chain at index 0
    tol_dom = DEFAULT_CLUSTER_TOL * (1.0 + float(np.max(np.abs(lam))))
    if size > 1:
        sigma = float(max(0.0, -lam[0].real))
        if abs(lam[0].imag) > tol_dom:
            return DivergenceClassification(
                kind="Inconclusive", sigma=sigma,
                diagnostic=f"the dominant Jordan blocks (size {size}) form a complex "
                           f"pair at {lam[0].real:.6g} +- {abs(lam[0].imag):.6g}i: the "
                           "error oscillates, and no spike schedule is predicted for "
                           "a complex Jordan pair (detection still applies)",
            )
        return DivergenceClassification(kind="PolynomialJordan", degree=size, sigma=sigma)

    zw = coup.z * coup.w
    absS = np.abs(coup.Sbar)
    zw_scale = float(np.max(np.abs(zw)))
    weak = np.abs(zw) <= PRUNE_TOL * zw_scale
    prune = weak | (np.maximum(absS.max(1), absS.max(0)) <= PRUNE_TOL * np.max(absS))
    pruned, kept = np.flatnonzero(prune).tolist(), np.flatnonzero(~prune).tolist()
    # the verdicts from here on share the pruned modes, and those past
    # ``not kept`` the decay rate sigma (a vanishing b0 reports none)
    verdict = functools.partial(DivergenceClassification, pruned_modes=tuple(pruned))
    if not kept:
        return verdict(kind="Inconclusive", diagnostic="all modes pruned")

    re_max = max(lam[m].real for m in kept)
    dom = [m for m in kept if lam[m].real >= re_max - tol_dom]
    verdict = functools.partial(verdict, sigma=float(max(0.0, -re_max)))

    # Modes the readout/state still weight (zw above tolerance) shape the
    # denominator even when their structure couplings vanish.  One strictly
    # above the kept dominant axis means the error outlives the numerator
    # growth and the log-sensitivity can stay bounded.
    zw_active = np.flatnonzero(~weak).tolist()
    if any(lam[m].real > re_max + tol_dom for m in zw_active):
        return verdict(kind="Inconclusive",
                       diagnostic="a structurally uncoupled mode dominates the error "
                                  "decay; log-sensitivity need not diverge")
    axis = [m for m in zw_active if lam[m].real >= re_max - tol_dom]
    axis_freqs = sorted({abs(lam[m].imag) for m in axis if abs(lam[m].imag) > tol_dom})

    if not axis_freqs:
        # dominant modes are one (possibly repeated, diagonalizable) real eigenvalue
        if len(dom) == 1:
            m = dom[0]
            s11 = complex(coup.Sbar[m, m])
            g0 = complex(0.0)
            for k in kept:
                if k == m:
                    continue
                g0 += coup.z[m] * coup.w[k] * coup.Sbar[m, k] / (lam[m] - lam[k])
                g0 -= coup.z[k] * coup.w[m] * coup.Sbar[k, m] / (lam[k] - lam[m])
            return verdict(kind="LinearReal", slope=float(xi0 * s11.real),
                           constants={"sbar_dom": s11.real, "g0": g0,
                                      "offset": xi0 * g0 / zw[m]})
        a0 = complex(0.0)
        b0 = complex(0.0)
        for m_i in dom:
            b0 += zw[m_i]
            for n_i in dom:
                a0 += coup.z[m_i] * coup.w[n_i] * coup.Sbar[m_i, n_i]
        if abs(b0) <= PRUNE_TOL * max(zw_scale, 1e-300):
            return verdict(kind="Inconclusive", sigma=None,
                           diagnostic="dominant cluster has vanishing denominator weight b0")
        return verdict(kind="LinearRepeatedReal", slope=float(xi0 * (a0 / b0).real),
                       constants={"a0": a0, "b0": b0})

    omega0 = axis_freqs[0] if len(axis_freqs) == 1 else _rational_fundamental(axis_freqs)
    if omega0 is None:
        return verdict(kind="Inconclusive",
                       diagnostic="incommensurate dominant frequencies: spike schedule "
                                  "prediction unsupported (detection still applies)")

    axis_zero = [m for m in axis if abs(lam[m].imag) <= tol_dom]
    constants = {"omega_modal": float(omega0)}
    if len(axis) == 2 and not axis_zero and len(axis_freqs) == 1:
        plus = [m for m in axis if lam[m].imag > 0][0]
        minus = [m for m in axis if lam[m].imag < 0][0]
        t0, period, phi01, P = _dominant_pair_timing(zw[plus], zw[minus], omega0)
        constants["re_z1w1z2w2"] = float(P.real)
        constants["im_z1w1z2w2"] = float(P.imag)
    else:
        omegas = np.array([lam[m].imag for m in axis])
        timing = _numeric_minima_timing(np.array([zw[m] for m in axis]), omegas, omega0)
        if isinstance(timing, str):
            return verdict(kind="Inconclusive", diagnostic=timing)
        t0, period = timing
        # anchor t0 in (period/4, 5*period/4] so phi01 lands in its
        # (-pi/2, 3*pi/2] range without breaking t0 = (pi+phi01)/(2*omega)
        while t0 <= period / 4:
            t0 += period
        phi01 = 2 * (np.pi / period) * t0 - np.pi
    return verdict(kind="PeriodicComplex", omega=float(np.pi / period), phi01=float(phi01),
                   t0=float(t0), period=float(period), constants=constants)


def spike_schedule(cls: DivergenceClassification, n_max: int) -> np.ndarray:
    """Predicted spike times t0, t0 + period, ... (PeriodicComplex only)."""
    if cls.kind != "PeriodicComplex":
        raise ValueError(f"spike schedule undefined for kind {cls.kind!r}")
    return cls.t0 + cls.period * np.arange(n_max)


def _finite_window(tr: SensitivityTrace, window):
    t0, t1 = window
    sel = (tr.times >= t0) & (tr.times <= t1) & np.isfinite(tr.logsens)
    return tr.times[sel], tr.logsens[sel]


def fit_slope(tr: SensitivityTrace, window) -> float:
    """Least-squares slope of |logsens| against t over a window."""
    t, s = _finite_window(tr, window)
    if len(t) < 10:
        raise ValueError(f"only {len(t)} finite samples in window {window}")
    slope, _ = np.polyfit(t, np.abs(s), 1)
    return float(slope)


def fit_polynomial_degree(tr: SensitivityTrace, window) -> int:
    """Nearest-integer log-log slope of |logsens| against t over a window."""
    t, s = _finite_window(tr, window)
    good = (np.abs(s) > 0) & (t > 0)
    t, s = t[good], s[good]
    if len(t) < 10:
        raise ValueError(f"only {len(t)} usable samples in window {window}")
    slope, _ = np.polyfit(np.log(t), np.log(np.abs(s)), 1)
    return max(0, int(round(slope)))


def detect_spikes(tr: SensitivityTrace) -> np.ndarray:
    """Times of local maxima of |logsens| driven by near-zeros of the error.

    Spikes of the log-sensitivity live where the error dips toward zero, so
    candidates come from the error channel: sign changes (a run of flips in
    adjacent intervals is one, at the mean of their times) and tangential
    local minima of |error| below ``SPIKE_DIP_FRAC`` of its local scale.  Each
    candidate is then required to tower over the nearby finite |logsens|
    samples by ``SPIKE_PROMINENCE_DECADES`` (automatically satisfied where
    every nearby sample is spike-masked, including exponentially decayed
    tails where every sample sits below the spike floor; never where the
    finite ones are all exactly 0).  Returned times are interpolated:
    linearly at sign changes, parabolically at tangential minima.
    """
    if len(tr) < 3:
        return np.array([])
    t, e = tr.times, tr.error
    n = len(t)
    abse = np.abs(e)
    win = max(5, int(round(0.02 * n)))

    candidates = []
    sign = np.sign(e)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0)[0]
    # samples a tangential dip may not sit on: the flips' own, and those
    # within one of a candidate
    near = np.zeros(n, dtype=bool)
    near[flips] = near[flips + 1] = True
    # flips in adjacent intervals share a sample: a tangential zero whose
    # sample rounded to the other sign is one candidate, not two
    runs = np.split(flips, np.flatnonzero(np.diff(flips) > 1) + 1) if len(flips) else []
    for run in runs:
        tstar = t[run] - e[run] * (t[run + 1] - t[run]) / (e[run + 1] - e[run])
        span = np.arange(run[0], run[-1] + 2)
        k = int(span[np.argmin(abse[span])])
        near[max(0, k - 1):k + 2] = True
        candidates.append((k, float(np.mean(tstar))))
    # tangential dips (covers masked samples, which are near-zeros of |e|)
    dip = np.nonzero(
        (abse[1:-1] <= abse[:-2]) & (abse[1:-1] <= abse[2:])
        & ((abse[1:-1] < abse[:-2]) | (abse[1:-1] < abse[2:]))
    )[0] + 1
    for j in dip:
        if near[j]:
            continue
        lo, hi = max(0, j - win), min(n, j + win + 1)
        if abse[j] > SPIKE_DIP_FRAC * np.max(abse[lo:hi]):
            continue
        y0, y1, y2 = abse[j - 1], abse[j], abse[j + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom > 0 else 0.0
        shift = min(1.0, max(-1.0, shift))
        candidates.append((j, float(t[j] + shift * (t[j + 1] - t[j]))))
        near[j + 1] = True  # dips come in increasing order: j - 1 is past

    out = []
    logs = np.abs(tr.logsens)
    for j, tstar in sorted(candidates, key=lambda c: c[1]):
        lo, hi = max(0, j - win), min(n, j + win + 1)
        nearby = logs[max(0, j - 2):j + 3]
        nearby = nearby[np.isfinite(nearby)]
        if len(nearby) == 0:
            out.append(tstar)  # spike-masked neighborhood
            continue
        peak = float(np.max(nearby))
        if peak == 0:
            continue
        base = logs[lo:hi]
        base = base[np.isfinite(base) & (base > 0)]
        baseline = float(np.median(base)) if len(base) else 0.0
        if baseline <= 0 or np.log10(peak / baseline) >= SPIKE_PROMINENCE_DECADES:
            out.append(tstar)
    return np.array(out)
