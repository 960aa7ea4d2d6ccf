"""Tests for the matrix-exponential directional derivative machinery.

The quadrature and block-augmented evaluations of the defining integral act
as independent oracles for the analytic (eigenbasis / Jordan) paths.
"""

import numpy as np
import pytest
from conftest import make_jordan_system
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from logsens.matexp import (
    Spectrum,
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
    def test_quadrature_vs_blockaug_long_times(self, seed, n, t):
        # dyadic panels rebuild exp(tau A) from per-depth node offsets and
        # per-panel end exponentials; deep refinements at large t must still
        # land on the block-augmented value
        rng = np.random.default_rng(seed)
        A = random_stable(rng, n, re_max=-rng.uniform(0.01, 0.5))
        S = rng.standard_normal((n, n))
        quad = dderiv_oracle_quadrature(A, S, t)
        block = dderiv_oracle_blockaug(A, S, t)
        assert np.max(np.abs(quad - block)) < 1e-11 * max(1.0, np.max(np.abs(block)))
