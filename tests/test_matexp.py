"""Tests for the matrix-exponential directional derivative machinery.

The quadrature and block-augmented evaluations of the defining integral act
as independent oracles for the analytic (eigenbasis / Jordan) paths.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from conftest import make_jordan_system
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from logsens import matexp
from logsens.matexp import (
    QuadratureWarning,
    Spectrum,
    _quadrature,
    couplings,
    dderiv_diag,
    dderiv_jordan,
    dderiv_oracle_blockaug,
    dderiv_oracle_fd,
    dderiv_oracle_quadrature,
    eig_decompose,
    phi_matrix,
)


def rel_dev(X, Y):
    scale = max(np.linalg.norm(X), np.linalg.norm(Y), 1e-300)
    return np.linalg.norm(X - Y) / scale


def random_stable(rng, n, re_max=-0.05):
    """Random real matrix shifted to have max Re(eig) near re_max."""
    while True:
        A = rng.standard_normal((n, n))
        lam = np.linalg.eigvals(A)
        A = A - (np.max(lam.real) - re_max) * np.eye(n)
        spec = eig_decompose(A)
        gaps = np.abs(spec.eigenvalues[:, None] - spec.eigenvalues[None, :])
        gaps += np.eye(n)
        if spec.cond_M < 1e4 and gaps.min() > 1e-3:
            return A


SPRING_A0 = np.array([[0.0, 1.0], [-10.0, -7.0]])
SPRING_S = np.array([[0.0, 0.0], [-1.0, 0.0]])


class TestEigDecompose:
    def test_spring_mass_eigenvalues(self):
        spec = eig_decompose(SPRING_A0)
        np.testing.assert_allclose(spec.eigenvalues, [-2.0, -5.0], atol=1e-12)

    def test_identity_single_cluster(self):
        spec = eig_decompose(np.eye(3))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-12)
        assert spec.clusters == ((0, 1, 2),)

    def test_reconstruction_random_stable(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            A = random_stable(rng, 5)
            spec = eig_decompose(A)
            R = spec.M @ np.diag(spec.eigenvalues) @ spec.Minv
            assert np.linalg.norm(R - A) / np.linalg.norm(A) < 1e-10
            assert np.max(np.abs(spec.M @ spec.Minv - np.eye(5))) < 1e-10

    def test_ordering_conjugates_adjacent_positive_first(self):
        A = np.array([[-1.0, 2.0, 0.0], [-2.0, -1.0, 0.0], [0.0, 0.0, -3.0]])
        spec = eig_decompose(A)
        lam = spec.eigenvalues
        assert lam[0].imag > 0 and np.isclose(lam[1], np.conj(lam[0]))
        assert np.isclose(lam[2], -3.0)

    def test_ordering_deterministic(self):
        rng = np.random.default_rng(3)
        A = random_stable(rng, 6)
        s1, s2 = eig_decompose(A), eig_decompose(A)
        np.testing.assert_array_equal(s1.eigenvalues, s2.eigenvalues)
        np.testing.assert_array_equal(s1.M, s2.M)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            eig_decompose(np.ones((2, 3)))

    def test_near_defective_flagged(self):
        # one Jordan block perturbed by eps: eigenvector matrix blows up
        A = np.array([[-1.0, 1.0], [1e-28, -1.0]])
        spec = eig_decompose(A)
        assert spec.near_defective


class TestCouplings:
    def test_conjugate_pairs(self):
        # real data and a conjugate-closed spectrum give conjugate couplings
        A = np.array([[0.0, 1.0], [-(1 + np.pi ** 2 / 25), -2.0]])
        spec = eig_decompose(A)
        assert np.isclose(spec.eigenvalues[1], np.conj(spec.eigenvalues[0]))
        coup = couplings(spec, SPRING_S, [1.0, 0.0], [1.0, 0.5])
        assert np.isclose(coup.z[1], np.conj(coup.z[0]))
        assert np.isclose(coup.w[1], np.conj(coup.w[0]))

    def test_dimension_mismatch(self):
        spec = eig_decompose(SPRING_A0)
        with pytest.raises(ValueError):
            couplings(spec, np.zeros((3, 3)), [1.0, 0.0], [1.0, 0.0])


class TestPhiMatrix:
    def test_repeated_zero_eigenvalue(self):
        spec = eig_decompose(np.zeros((2, 2)))
        phi = phi_matrix(spec, 3.0)
        np.testing.assert_allclose(phi, 3.0 * np.ones((2, 2)), atol=1e-14)

    def test_distinct_pair_divided_difference(self):
        spec = eig_decompose(SPRING_A0)
        phi = phi_matrix(spec, 1.0)
        expected = (np.exp(-2.0) - np.exp(-5.0)) / 3.0
        assert abs(phi[0, 1] - expected) < 1e-12
        assert abs(phi[0, 1] - 0.0428657) < 1e-6

    def test_zero_time_vanishes(self):
        rng = np.random.default_rng(5)
        spec = eig_decompose(random_stable(rng, 4))
        np.testing.assert_allclose(phi_matrix(spec, 0.0), 0.0, atol=1e-15)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        spec = eig_decompose(random_stable(rng, 5))
        phi = phi_matrix(spec, 2.3)
        np.testing.assert_allclose(phi, phi.T, atol=1e-13)


class TestOracles:
    def test_quadrature_zero_structure(self):
        np.testing.assert_array_equal(
            dderiv_oracle_quadrature(SPRING_A0, np.zeros((2, 2)), 2.0), 0.0
        )

    def test_quadrature_zero_generator(self):
        S = np.array([[1.0, 2.0], [3.0, 4.0]])
        got = dderiv_oracle_quadrature(np.zeros((2, 2)), S, 1.7)
        np.testing.assert_allclose(got, 1.7 * S, atol=1e-12)

    def test_blockaug_zero_generator(self):
        S = np.array([[1.0, -2.0], [0.5, 4.0]])
        np.testing.assert_allclose(
            dderiv_oracle_blockaug(np.zeros((2, 2)), S, 2.5), 2.5 * S, atol=1e-12
        )

    def test_cross_oracle_spring_mass(self):
        q = dderiv_oracle_quadrature(SPRING_A0, SPRING_S, 2.0, abs_tol=1e-12)
        ba = dderiv_oracle_blockaug(SPRING_A0, SPRING_S, 2.0)
        assert np.max(np.abs(q - ba)) < 1e-9

    def test_blockaug_vs_fd_random(self):
        rng = np.random.default_rng(21)
        A = random_stable(rng, 4)
        S = rng.standard_normal((4, 4))
        ba = dderiv_oracle_blockaug(A, S, 1.3)
        fd = dderiv_oracle_fd(A, S, 1.3, h=1e-6)
        assert rel_dev(ba, fd) < 1e-6

    def test_quadrature_budget_warns(self):
        with pytest.warns(RuntimeWarning):
            dderiv_oracle_quadrature(SPRING_A0, SPRING_S, 5.0, abs_tol=1e-16,
                                     max_panels=2)

    @pytest.mark.parametrize("kwargs", [{}, {"abs_tol": 1e-16, "max_panels": 2}],
                             ids=["met", "missed"])
    def test_quadrature_wraps_the_private_one(self, kwargs):
        # the public oracle returns the private quadrature's array bit for
        # bit and warns its miss, once, with the same estimate
        import warnings
        Q, miss = _quadrature(SPRING_A0, SPRING_S, 5.0, **kwargs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = dderiv_oracle_quadrature(SPRING_A0, SPRING_S, 5.0, **kwargs)
        np.testing.assert_array_equal(got, Q)
        assert [w.category for w in caught] == ([QuadratureWarning] if miss else [])
        if miss is not None:
            assert caught[0].message.achieved == miss.achieved > 1e-16
            assert str(caught[0].message) == str(miss)


class TestDderivDiag:
    def test_zero_structure(self):
        spec = eig_decompose(SPRING_A0)
        coup = couplings(spec, np.zeros((2, 2)), [1.0, 0.0], [1.0, 0.0])
        np.testing.assert_allclose(dderiv_diag(spec, coup, 1.0), 0.0, atol=1e-14)

    def test_commuting_diagonal_case(self):
        A = np.diag([-1.0, -3.0])
        S = np.diag([2.0, 5.0])
        spec = eig_decompose(A)
        coup = couplings(spec, S, [1.0, 1.0], [1.0, 1.0])
        got = dderiv_diag(spec, coup, 0.7)
        np.testing.assert_allclose(got, 0.7 * S @ expm(0.7 * A), atol=1e-12)

    def test_spring_mass_vs_quadrature(self):
        spec = eig_decompose(SPRING_A0)
        coup = couplings(spec, SPRING_S, [1.0, 0.0], [1.0, 0.0])
        got = dderiv_diag(spec, coup, 1.0)
        ref = dderiv_oracle_quadrature(SPRING_A0, SPRING_S, 1.0, abs_tol=1e-12)
        assert np.max(np.abs(got - ref)) < 1e-8

    def test_refuses_defective(self):
        spec = Spectrum.from_jordan([-1.0, -1.0], np.eye(2), [(0, 2)])
        coup = couplings(spec, np.eye(2), [1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="Jordan"):
            dderiv_diag(spec, coup, 1.0)

    def test_repeated_diagonalizable_eigenvalue(self):
        # lam = -1 twice (diagonalizable), -4 simple
        M = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
        A = M @ np.diag([-1.0, -1.0, -4.0]) @ np.linalg.inv(M)
        rng = np.random.default_rng(2)
        S = rng.standard_normal((3, 3))
        spec = eig_decompose(A)
        assert any(len(g) == 2 for g in spec.clusters)
        coup = couplings(spec, S, [1.0, 0.0, 0.0], [0.0, 0.0, 1.0])
        got = dderiv_diag(spec, coup, 1.5)
        ref = dderiv_oracle_blockaug(A, S, 1.5)
        assert rel_dev(got, ref) < 1e-9


class TestDderivJordan:
    def test_hand_worked_block(self):
        # A = [[-1,1],[0,-1]], S = [[0,0],[1,0]]: closed form known
        spec = Spectrum.from_jordan([-1.0, -1.0], np.eye(2), [(0, 2)])
        S = np.array([[0.0, 0.0], [1.0, 0.0]])
        t = 1.0
        got = dderiv_jordan(spec, S, t)
        e = np.exp(-t)
        expected = e * np.array([[t**2 / 2, t**3 / 6], [t, t**2 / 2]])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_vs_quadrature_l2(self):
        rng = np.random.default_rng(4)
        A, spec = make_jordan_system(rng, [2], n_extra=2)
        S = rng.standard_normal((4, 4))
        Sbar = spec.Minv @ S @ spec.M
        for t in (0.5, 2.0, 7.0):
            got = dderiv_jordan(spec, Sbar, t)
            ref = dderiv_oracle_quadrature(A, S, t, abs_tol=1e-13)
            assert rel_dev(got, ref) < 1e-8

    def test_vs_quadrature_l3(self):
        rng = np.random.default_rng(9)
        A, spec = make_jordan_system(rng, [3], n_extra=1)
        S = rng.standard_normal((4, 4))
        Sbar = spec.Minv @ S @ spec.M
        for t in (0.7, 3.0):
            got = dderiv_jordan(spec, Sbar, t)
            ref = dderiv_oracle_quadrature(A, S, t, abs_tol=1e-13)
            assert rel_dev(got, ref) < 1e-8

    def test_zero_time(self):
        spec = Spectrum.from_jordan([-1.0, -1.0], np.eye(2), [(0, 2)])
        got = dderiv_jordan(spec, np.ones((2, 2)), 0.0)
        np.testing.assert_allclose(got, 0.0, atol=1e-15)

    def test_zero_structure(self):
        spec = Spectrum.from_jordan([-1.0, -1.0], np.eye(2), [(0, 2)])
        np.testing.assert_allclose(dderiv_jordan(spec, np.zeros((2, 2)), 2.0),
                                   0.0, atol=1e-15)

    def test_trivial_block_refused(self):
        spec = eig_decompose(SPRING_A0)
        with pytest.raises(ValueError, match="dderiv_diag"):
            dderiv_jordan(spec, np.eye(2), 1.0)


class TestFromJordanValidation:
    """``Spectrum.from_jordan`` refuses a block layout it cannot honour,
    naming the block, instead of failing later in ``trace``."""

    @pytest.mark.parametrize("eigenvalues, blocks, message", [
        ([-1.0, -1.0], [(0, 0)], r"\(start 0, size 0\): size must be at least 1"),
        ([-1.0, -1.0], [(1, 2)], r"\(start 1, size 2\) lies outside indices 0\.\.1"),
        ([-1.0, -1.0], [(-1, 2)], r"\(start -1, size 2\) lies outside"),
        ([-1.0, -1.0, -1.0], [(0, 2), (1, 2)], r"\(start 1, size 2\) overlaps"),
        ([-1.0, -2.0], [(0, 2)], r"\(start 0, size 2\) spans unequal eigenvalues"),
    ], ids=["size_zero", "past_the_end", "negative_start", "overlap", "unequal"])
    def test_refused(self, eigenvalues, blocks, message):
        n = len(eigenvalues)
        with pytest.raises(ValueError, match=message):
            Spectrum.from_jordan(eigenvalues, np.eye(n), blocks)

    def test_equal_within_cluster_tol(self):
        spec = Spectrum.from_jordan([-1.0, -1.0 + 1e-12, -2.0], np.eye(3),
                                    [(0, 2), (2, 1)])
        assert spec.jordan_blocks == ((0, 2), (2, 1))
        assert spec.clusters == ((0, 1), (2,))


def reference_cluster_indices(lam):
    """The union-find that ``_cluster_indices`` replaced, kept as its
    reference: eigenvalues within ``DEFAULT_CLUSTER_TOL * (1 + max |lam|)``
    of each other share a group."""
    n = len(lam)
    if n == 0:
        return []
    thresh = matexp.DEFAULT_CLUSTER_TOL * (1.0 + float(np.max(np.abs(lam))))
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


def reference_eig_decompose(A):
    """``eig_decompose`` as it built its spectrum before ``Spectrum._build``."""
    lam, M = np.linalg.eig(A)
    key = lambda i: (-lam[i].real, abs(lam[i].imag), -np.sign(lam[i].imag))  # noqa: E731
    order = sorted(range(len(lam)), key=key)
    lam = lam[order]
    M = matexp._phase_normalize(M[:, order])
    cond = float(np.linalg.cond(M))
    return Spectrum(eigenvalues=lam, M=M, Minv=np.linalg.inv(M),
                    clusters=tuple(reference_cluster_indices(lam)), cond_M=cond)


def reference_from_jordan(eigenvalues, M, blocks):
    """``Spectrum.from_jordan``'s construction before ``Spectrum._build``,
    for a valid layout."""
    lam = np.asarray(eigenvalues, dtype=complex)
    M = np.asarray(M, dtype=complex)
    blocks = [(int(s), int(z)) for s, z in blocks]
    Minv = np.linalg.inv(M)
    size, inner = dict(blocks), {i for s, z in blocks for i in range(s + 1, s + z)}
    units = [range(i, i + size.get(i, 1)) for i in range(len(lam)) if i not in inner]
    leads = reference_cluster_indices(lam[[u[0] for u in units]])
    clusters = [tuple(k for u in grp for k in units[u]) for grp in leads]
    return Spectrum(eigenvalues=lam, M=M, Minv=Minv, clusters=tuple(sorted(clusters)),
                    jordan_blocks=tuple(blocks), cond_M=float(np.linalg.cond(M)))


def assert_same_spectrum(got, want):
    """Every field equal bit for bit, with its dtype and its Python types."""
    for f in dataclasses.fields(Spectrum):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            assert a.tobytes() == b.tobytes(), f.name
        else:
            assert repr(a) == repr(b), f.name


@st.composite
def clustered_sets(draw):
    """Eigenvalue sets with conjugate pairs, exact repeats and chains whose
    links are 0.5-1.5 times the cluster threshold, shuffled, real or complex."""
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    part = st.floats(-1.0, 1.0, allow_nan=False)
    lam = [complex(draw(part), draw(part)) * scale
           for _ in range(draw(st.integers(0, 6)))]
    real = draw(st.booleans())
    if real:
        lam = [complex(z.real) for z in lam]
    lam += [z.conjugate() for z in lam if draw(st.booleans())]
    lam += [z for z in lam if draw(st.booleans())]
    thresh = matexp.DEFAULT_CLUSTER_TOL * (1.0 + max(map(abs, lam), default=0.0))
    for z in list(lam):
        if draw(st.booleans()):
            step = complex(1.0, 0.0 if real else draw(part))
            for _ in range(draw(st.integers(1, 3))):
                f = draw(st.sampled_from([0.5, 0.9, 1.0, 1.1, 1.5]) | st.floats(0.5, 1.5))
                z = z + f * thresh * step / abs(step)
                lam.append(z)
    order = draw(st.permutations(range(len(lam))))
    lam = np.array([lam[i] for i in order], dtype=complex)
    return lam.real.copy() if real else lam


class TestClusterIndices:
    """``_cluster_indices`` gives the groups of the union-find it replaced."""

    @settings(max_examples=300)
    @given(lam=clustered_sets())
    def test_matches_union_find(self, lam):
        got = matexp._cluster_indices(lam)
        assert got == reference_cluster_indices(lam)
        assert all(type(k) is int for grp in got for k in grp)

    def test_empty(self):
        assert matexp._cluster_indices(np.zeros(0)) == []

    def test_chain_links_transitively(self):
        # 0 ~ 3 ~ 2 by links of 0.9 threshold, 0 and 2 are 1.8 apart; 1 alone
        d = 0.9 * matexp.DEFAULT_CLUSTER_TOL * 3.0
        lam = np.array([-2.0 + 2 * d, 1.0, -2.0, -2.0 + d])
        assert matexp._cluster_indices(lam) == [(0, 2, 3), (1,)]


def shipped_generators():
    from logsens.cli import build_system, validate_config
    configs = [{"kind": "spring_mass"}, {"kind": "rlc"},
               {"kind": "rlc", "parameters": {"poles": [
                   [-2.0, 0.3141592653589793], [-2.0, -0.3141592653589793]]}},
               {"kind": "two_qubit"}]
    configs += [{"kind": "spin_chain", "parameters": {"N": N}} for N in range(2, 11)]
    configs.append({"kind": "custom", "parameters": {
        "A1": [[-1.0, 1.0], [0.0, -1.0]], "S": [[0.0, 0.0], [1.0, 0.0]],
        "c": [1.0, 0.0], "v": [0.0, 1.0], "xi0": 0.0}})
    return [build_system(validate_config(c))[0].A0 for c in configs]


class TestSpectrumConstruction:
    """``eig_decompose`` and ``Spectrum.from_jordan`` give, in every field and
    dtype, the spectrum of the construction before ``Spectrum._build``."""

    def test_eig_decompose_shipped(self):
        specs = [eig_decompose(A) for A in shipped_generators()]
        for A, spec in zip(shipped_generators(), specs):
            assert_same_spectrum(spec, reference_eig_decompose(A))
        # real spectra stay real (spring_mass, real rlc), the rest complex
        assert [s.eigenvalues.dtype.kind for s in specs[:4]] == ["f", "f", "c", "c"]
        assert specs[-1].near_defective

    def test_eig_decompose_random(self):
        rng = np.random.default_rng(19)
        for n in range(1, 9):
            A = rng.standard_normal((n, n))
            A[:, :n // 3] = A[:, n // 3:2 * (n // 3)]  # repeated zero eigenvalues
            assert_same_spectrum(eig_decompose(A), reference_eig_decompose(A))

    @settings(max_examples=100)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           where=st.lists(st.sampled_from([-0.3, -0.3, -0.7, -0.3 + 0.5j, -1.0 + 1.0j]),
                          min_size=3, max_size=3),
           n_extra=st.integers(0, 2), keep_unit_blocks=st.booleans())
    def test_from_jordan_random_layouts(self, seed, sizes, where, n_extra,
                                        keep_unit_blocks):
        _, spec = make_jordan_system(np.random.default_rng(seed), sizes, n_extra,
                                     eigenvalues=where[:len(sizes)])
        blocks = [b for b in spec.jordan_blocks if keep_unit_blocks or b[1] > 1]
        args = (spec.eigenvalues, spec.M, blocks)
        assert_same_spectrum(Spectrum.from_jordan(*args), reference_from_jordan(*args))


class TestCrossPathProperties:
    def test_linearity(self):
        rng = np.random.default_rng(13)
        A = random_stable(rng, 4)
        S1 = rng.standard_normal((4, 4))
        S2 = rng.standard_normal((4, 4))
        a, b = 0.7, -1.9
        spec = eig_decompose(A)
        c = rng.standard_normal(4)
        v = rng.standard_normal(4)
        d1 = dderiv_diag(spec, couplings(spec, S1, c, v), 1.2)
        d2 = dderiv_diag(spec, couplings(spec, S2, c, v), 1.2)
        d12 = dderiv_diag(spec, couplings(spec, a * S1 + b * S2, c, v), 1.2)
        assert np.max(np.abs(d12 - (a * d1 + b * d2))) < 1e-10 * max(
            1, np.max(np.abs(d12)))

    def test_zero_time_all_paths(self):
        rng = np.random.default_rng(17)
        A = random_stable(rng, 3)
        S = rng.standard_normal((3, 3))
        spec = eig_decompose(A)
        coup = couplings(spec, S, rng.standard_normal(3), rng.standard_normal(3))
        for D in (
            dderiv_diag(spec, coup, 0.0),
            dderiv_oracle_quadrature(A, S, 0.0),
            dderiv_oracle_blockaug(A, S, 0.0),
            dderiv_oracle_fd(A, S, 0.0),
        ):
            np.testing.assert_allclose(D, 0.0, atol=1e-12)

    def test_small_time_slope(self):
        rng = np.random.default_rng(19)
        A = random_stable(rng, 4)
        S = rng.standard_normal((4, 4))
        h = 1e-6
        D = dderiv_oracle_blockaug(A, S, h)
        assert np.max(np.abs(D / h - S)) < 1e-4

    def test_commuting_case_all_paths(self):
        rng = np.random.default_rng(23)
        A = random_stable(rng, 4)
        S = 0.4 * np.eye(4) + 0.3 * A + 0.05 * A @ A
        t = 2.0
        expected = t * S @ expm(t * A)
        spec = eig_decompose(A)
        coup = couplings(spec, S, rng.standard_normal(4), rng.standard_normal(4))
        for D in (
            dderiv_diag(spec, coup, t),
            dderiv_oracle_quadrature(A, S, t, abs_tol=1e-12),
            dderiv_oracle_blockaug(A, S, t),
        ):
            assert rel_dev(D, expected) < 1e-9
        assert rel_dev(dderiv_oracle_fd(A, S, t), expected) < 1e-8

    def test_similarity_covariance(self):
        rng = np.random.default_rng(29)
        A = random_stable(rng, 4)
        S = rng.standard_normal((4, 4))
        T = np.eye(4) + 0.3 * rng.standard_normal((4, 4))
        t = 1.1
        lhs = dderiv_oracle_blockaug(T @ A @ np.linalg.inv(T),
                                     T @ S @ np.linalg.inv(T), t)
        rhs = T @ dderiv_oracle_blockaug(A, S, t) @ np.linalg.inv(T)
        assert rel_dev(lhs, rhs) < 1e-8

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6),
           t=st.floats(0.1, 8.0))
    def test_oracle_triangle_random(self, seed, n, t):
        rng = np.random.default_rng(seed)
        A = random_stable(rng, n, re_max=-rng.uniform(0.05, 0.5))
        S = rng.standard_normal((n, n))
        spec = eig_decompose(A)
        coup = couplings(spec, S, rng.standard_normal(n), rng.standard_normal(n))
        paths = {
            "diag": dderiv_diag(spec, coup, t),
            "quad": dderiv_oracle_quadrature(A, S, t, abs_tol=1e-12),
            "block": dderiv_oracle_blockaug(A, S, t),
            "fd": dderiv_oracle_fd(A, S, t),
        }
        names = list(paths)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                assert rel_dev(paths[names[i]], paths[names[j]]) < 1e-6, (
                    f"{names[i]} vs {names[j]}")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 6),
           t=st.floats(0.0, 50.0))
    @example(seed=363, n=4, t=49.0)
    def test_quadrature_vs_blockaug_long_times(self, seed, n, t):
        # dyadic panels rebuild exp(tau A) from per-depth node offsets and
        # per-panel end exponentials; deep refinements at large t must still
        # land on the block-augmented value.  The bound is below the default
        # abs_tol (1e-10), which the error estimate may claim while missing
        # it: seed 363 is 1.19e-10 off at the default, 1e-22 at 1e-12
        rng = np.random.default_rng(seed)
        A = random_stable(rng, n, re_max=-rng.uniform(0.01, 0.5))
        S = rng.standard_normal((n, n))
        quad = dderiv_oracle_quadrature(A, S, t, abs_tol=1e-12)
        block = dderiv_oracle_blockaug(A, S, t)
        assert np.max(np.abs(quad - block)) < 1e-11 * max(1.0, np.max(np.abs(block)))


U = np.finfo(float).eps
THETAS = [theta for theta, _ in matexp._PADE]


def norm1(X):
    return float(np.max(np.abs(X).sum(axis=-2), initial=0.0))


def degree_band(A):
    """Index into ``THETAS`` of the Pade degree ``matexp.expm`` picks for A
    alone: the first theta holding its 1-norm, else the last."""
    return next((j for j, theta in enumerate(THETAS) if norm1(A) <= theta),
                len(THETAS) - 1)


def make_matrix(kind, n, norm, seed):
    """An n x n matrix of the given 1-norm: ``dense`` standard normal,
    ``jordan`` a random diagonal with a superdiagonal of 1..10 (far from
    normal), ``diagonal``, or ``zero``."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "dense":
        A = rng.standard_normal((n, n))
    else:
        A = np.diag(rng.standard_normal(n))
        if kind == "jordan":
            A += np.diag(rng.uniform(1.0, 10.0, n - 1), 1)
    return A * (norm / max(norm1(A), 1e-300))


def assert_close_to_scipy(X, A, bound=4000):
    """Normwise within ``bound * u * (1 + ||A||_1)`` of scipy's expm.  Both
    are accurate to about the condition of exp at A times u, which is at
    least ||A||; scipy's own error, measured against 40-digit mpmath, reaches
    600 u (1 + ||A||_1) on 2 x 2 matrices of norm 10, where this one stays
    below 10 u (1 + ||A||_1)."""
    R = expm(A)
    assert norm1(X - R) <= bound * U * (1.0 + norm1(A)) * norm1(R)


kinds = st.sampled_from(["dense", "jordan", "diagonal", "zero"])


class TestExpm:
    """``matexp.expm`` against ``scipy.linalg.expm``, which implements a
    different scaling and squaring (Al-Mohy & Higham, 2009)."""

    @settings(max_examples=150)
    @given(kind=kinds, n=st.integers(1, 12), log_norm=st.floats(-8.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy(self, kind, n, log_norm, seed):
        A = make_matrix(kind, n, 10.0 ** log_norm, seed)
        assert_close_to_scipy(matexp.expm(A), A)

    @settings(max_examples=100)
    @given(n=st.integers(1, 12), log_norm=st.floats(-8.0, 2.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_symmetric_matches_eigh(self, n, log_norm, seed):
        # exp of a symmetric matrix is V exp(w) V^T, accurate to a few n u
        A = make_matrix("dense", n, 1.0, seed)
        A = A + A.T
        A *= 10.0 ** log_norm / max(norm1(A), 1e-300)
        w, V = np.linalg.eigh(A)
        ref = (V * np.exp(w)) @ V.T
        X = matexp.expm(A)
        assert norm1(X - ref) <= 100 * U * (1.0 + norm1(A)) * norm1(ref)

    @settings(max_examples=100)
    @given(n=st.integers(1, 12), seed=st.integers(0, 2 ** 32 - 1),
           members=st.lists(st.tuples(kinds, st.floats(-8.0, 2.0)), min_size=2,
                            max_size=6),
           band=st.none() | st.integers(0, len(THETAS) - 1))
    def test_stack_member_as_alone(self, n, seed, members, band):
        # band None: norms spread over 1e-8..1e2, so the degree the stack
        # shares may exceed a member's own; else every norm lies in one
        # degree's band, (THETAS[band - 1], THETAS[band]], up to 1e2 for the
        # last, and every member picks the stack's degree alone
        if band is not None:
            lo = np.log10(THETAS[band - 1]) if band else -8.0
            hi = np.log10(THETAS[band]) if band < len(THETAS) - 1 else 2.0
            lo, hi = lo + 1e-9, hi - 1e-9  # strictly inside, despite rounding
            members = [(kind, lo + (hi - lo) * (x + 8.0) / 10.0)
                       for kind, x in members]
        stack = np.array([make_matrix(kind, n, 10.0 ** x, seed + i)
                          for i, (kind, x) in enumerate(members)])
        X = matexp.expm(stack)
        assert X.shape == stack.shape
        top = max(degree_band(A) for A in stack)
        for A, Xi in zip(stack, X):
            alone = matexp.expm(A)
            if degree_band(A) == top:
                np.testing.assert_array_equal(Xi, alone)
            else:  # a higher degree than alone: equal up to rounding
                assert norm1(Xi - alone) <= 100 * U * (1.0 + norm1(A)) * norm1(alone)
            assert_close_to_scipy(Xi, A)
        if band is not None:  # zero matrices aside, all were bit for bit
            assert all(degree_band(A) == top for A in stack if A.any())

    def test_zero_one_by_one_and_diagonal(self):
        for n in (1, 3, 12):
            np.testing.assert_array_equal(matexp.expm(np.zeros((n, n))), np.eye(n))
        for x in (-700.0, -30.0, -1e-9, 0.0, 1e-300, 0.5, 30.0, 700.0):
            got = matexp.expm(np.array([[x]]))
            assert abs(got[0, 0] - np.exp(x)) <= 1e3 * U * np.exp(x)
        d = np.array([-100.0, -3.0, 0.0, 1e-12, 2.5, 40.0])
        got = matexp.expm(np.diag(d))
        np.testing.assert_array_equal(got - np.diag(np.diag(got)), 0.0)
        np.testing.assert_allclose(np.diag(got), np.exp(d), rtol=1e-13)
        assert_close_to_scipy(got, np.diag(d))

    def test_empty_and_refused_shapes(self):
        assert matexp.expm(np.zeros((0, 3, 3))).shape == (0, 3, 3)
        assert matexp.expm(np.zeros((2, 0, 0))).shape == (2, 0, 0)
        for shape in ((3,), (2, 3), (4, 2, 3)):
            with pytest.raises(ValueError, match="square"):
                matexp.expm(np.zeros(shape))

    @pytest.mark.parametrize("kind, params, t_end, dt", [
        ("spin_chain", {"N": 10}, 50.0, 0.01),
        ("two_qubit", {}, 2000.0, 1.0),
    ], ids=["spin_chain_N10", "two_qubit"])
    def test_shipped_generators(self, kind, params, t_end, dt):
        # the stepped oracles' operators: A0, blockaug's 2n and fd's 3n
        # generators, at the grid step, a spot-check-sized step and t_end
        from logsens.cli import build_system, validate_config
        sys_ = build_system(validate_config({"kind": kind, "parameters": params}))[0]
        A0, S, Z = sys_.A0, sys_.S, np.zeros_like(sys_.A0)
        h = matexp._fd_step(S)
        for G in (A0, np.block([[A0, S], [Z, A0]]),
                  np.block([[A0 + h * S, Z, h * S], [Z, A0 - h * S, h * S],
                            [Z, Z, A0]])):
            for d in (dt, 0.37 * t_end, t_end):
                assert_close_to_scipy(matexp.expm(d * G), d * G, bound=20)

    def test_overflow_is_non_finite_without_warnings(self):
        rng = np.random.default_rng(3)
        big = 1e300 * rng.standard_normal((4, 4))
        fine = rng.standard_normal((4, 4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert matexp.expm(np.array([[1000.0]]))[0, 0] == np.inf
            assert not np.isfinite(matexp.expm(big)).all()
            X = matexp.expm(np.array([big, fine, [[np.inf] * 4] * 4, [[np.nan] * 4] * 4]))
            assert np.isnan(X[2:]).all()
            np.testing.assert_array_equal(X[1], matexp.expm(fine))
            assert not np.isfinite(X[0]).all()

    def test_quadrature_overflow_is_nan(self):
        # a non-finite error estimate ends the quadrature: halving cannot
        # mend an overflow
        A = 1e300 * np.array([[0.0, 1.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            Q, miss = _quadrature(A, np.eye(2), 5.0)
        assert np.isnan(Q).all() and miss is None
