"""Tests for pole placement and the closed-loop scenario builders."""

import numpy as np
import pytest
from scipy.linalg import expm

from logsens.classical import (
    RLC_LAMBDA3_DEFAULT,
    OpenLoopPlant,
    close_loop,
    place_poles,
    rlc_scenario,
    spring_mass_scenario,
)
from logsens.matexp import couplings
from logsens.sensan import classify, error_signal, trace


class TestPlacePoles:
    def test_worked_example(self):
        A = np.array([[0.0, 1.0], [-4.0, 0.0]])
        b = np.array([0.0, 1.0])
        k = place_poles(A, b, [-2.0, -5.0])
        np.testing.assert_allclose(k, [6.0, 7.0], atol=1e-10)

    def test_noop_when_poles_match(self):
        # controllable-form A whose spectrum already equals the request
        A = np.array([[0.0, 1.0], [-10.0, -7.0]])
        b = np.array([0.0, 1.0])
        k = place_poles(A, b, [-2.0, -5.0])
        np.testing.assert_allclose(k, [0.0, 0.0], atol=1e-10)

    def test_round_trip_eigenvalues(self):
        rng = np.random.default_rng(61)
        A = rng.standard_normal((4, 4))
        b = rng.standard_normal(4)
        poles = [-1.0, -2.5, -3.0 + 2.0j, -3.0 - 2.0j]
        k = place_poles(A, b, poles)
        achieved = np.sort_complex(np.linalg.eigvals(A - np.outer(b, k)))
        np.testing.assert_allclose(achieved, np.sort_complex(poles), atol=1e-8)

    def test_uncontrollable_rejected(self):
        A = np.diag([-1.0, -2.0])
        b = np.array([1.0, 0.0])
        with pytest.raises(ValueError, match="controllable"):
            place_poles(A, b, [-3.0, -4.0])

    def test_non_conjugate_set_rejected(self):
        A = np.array([[0.0, 1.0], [-4.0, 0.0]])
        b = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="conjugation"):
            place_poles(A, b, [-1.0 + 1.0j, -2.0])

    def test_unstable_request_rejected(self):
        A = np.array([[0.0, 1.0], [-4.0, 0.0]])
        b = np.array([0.0, 1.0])
        with pytest.raises(ValueError, match="Re"):
            place_poles(A, b, [1.0, -2.0])


# A double integrator, controllable from b = e2.  Its velocity, read by
# c = e2, is 0 at every closed-loop equilibrium: c A0^-1 b = 0.
DOUBLE_INTEGRATOR = {"A1": [[0.0, 1.0], [0.0, 0.0]], "b": [0.0, 1.0], "c": [1.0, 0.0],
                     "S": np.zeros((2, 2)), "xi0": 1.0}
REFUSALS = {
    "plant_dimensions": (lambda: OpenLoopPlant(**dict(DOUBLE_INTEGRATOR, b=[0.0, 1.0, 0.0])),
                         "inconsistent plant dimensions"),
    "plant_uncontrollable": (lambda: OpenLoopPlant(**dict(DOUBLE_INTEGRATOR, b=[1.0, 0.0])),
                             r"\(A1 \+ S\*xi0, b\) is not controllable"),
    "pole_count": (lambda: place_poles(DOUBLE_INTEGRATOR["A1"], DOUBLE_INTEGRATOR["b"], [-1.0]),
                   "need exactly 2 poles, got 1"),
    "unreachable_at_dc": (lambda: close_loop(OpenLoopPlant(**dict(DOUBLE_INTEGRATOR,
                                                                  c=[0.0, 1.0])),
                                             [-1.0, -2.0]),
                          r"c @ A0\^\{-1\} @ b = 0: reference direction unreachable at DC"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refused(case):
    call, message = REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestCloseLoop:
    def test_spring_mass_gains(self):
        loop, sys = close_loop(spring_mass_scenario(4.0), [-2.0, -5.0])
        assert loop.k0 == pytest.approx(10.0, abs=1e-10)
        np.testing.assert_allclose(sys.v, [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(loop.beta, [-0.1, 0.0], atol=1e-12)

    def test_dc_condition(self):
        for plant, poles in [
            (spring_mass_scenario(4.0), [-2.0, -5.0]),
            (rlc_scenario(0.5), [-1.0, -2.0, -4.0]),
        ]:
            loop, sys = close_loop(plant, poles)
            dc = -loop.k0 * float(plant.c @ np.linalg.solve(loop.A0, plant.b))
            assert dc == pytest.approx(1.0, abs=1e-12)
            assert error_signal(sys, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_requested_poles_achieved(self):
        loop, _ = close_loop(rlc_scenario(0.5),
                             [-2 + 1j * np.pi / 10, -2 - 1j * np.pi / 10, -4.0])
        got = np.sort_complex(np.linalg.eigvals(loop.A0))
        want = np.sort_complex([-2 + 1j * np.pi / 10, -2 - 1j * np.pi / 10, -4.0])
        np.testing.assert_allclose(got, want, atol=1e-8)

    def test_pole_at_origin_rejected(self):
        with pytest.raises(ValueError, match="origin"):
            close_loop(spring_mass_scenario(4.0), [0.0, -5.0])

    @pytest.mark.parametrize("plant, poles", [
        (spring_mass_scenario(4.0), [0.0, 0.0]),
        # a double pole at 0 lands at +-5.6e-9, within the placement
        # tolerance but off the origin: the requested set names it
        (rlc_scenario(0.5), [0.0, 0.0, -1.0]),
    ], ids=["spring_mass", "rlc_double"])
    def test_requested_origin_rejected(self, plant, poles):
        with pytest.raises(ValueError, match="^closed-loop pole at the origin"):
            close_loop(plant, poles)

    def test_placement_refusal_comes_first(self):
        with pytest.raises(ValueError, match="^pole placement failed"):
            close_loop(rlc_scenario(0.5), [0.0, 0.0, 0.0])

    def test_one_eigen_solve(self, monkeypatch):
        # place_poles verifies the spectrum; close_loop reuses its verdict
        calls = []
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals",
                            lambda A: calls.append(A) or eigvals(A))
        close_loop(spring_mass_scenario(4.0), [-2.0, -5.0])
        assert len(calls) == 1

    def test_error_decays(self):
        loop, sys = close_loop(spring_mass_scenario(4.0), [-2.0, -5.0])
        T = 20.0 / 2.0  # 20 / |Re lambda_1|
        assert abs(error_signal(sys, T)) < 1e-6


class TestSpringMassScenario:
    def test_nominal_matrix_entrywise(self):
        plant = spring_mass_scenario(4.0)
        np.testing.assert_array_equal(plant.nominal_A(),
                                      np.array([[0.0, 1.0], [-4.0, 0.0]]))

    def test_nonpositive_spring_rejected(self):
        with pytest.raises(ValueError):
            spring_mass_scenario(0.0)

    def test_slope_prediction(self):
        plant = spring_mass_scenario(4.0)
        loop, sys = close_loop(plant, [-2.0, -5.0])
        spec = sys.spectrum()
        cls = classify(spec, couplings(spec, sys.S, sys.c, loop.beta), sys.xi0)
        assert cls.kind == "LinearReal"
        assert cls.constants["sbar_dom"] == pytest.approx(-1.0 / 3.0, abs=1e-10)
        assert abs(cls.slope) == pytest.approx(4.0 / 3.0, abs=1e-10)

    def test_complex_pair_classification_inputs(self):
        plant = spring_mass_scenario(4.0)
        loop, sys = close_loop(plant, [-1 + 1j * np.pi / 5, -1 - 1j * np.pi / 5])
        spec = sys.spectrum()
        cls = classify(spec, couplings(spec, sys.S, sys.c, loop.beta), sys.xi0)
        assert cls.constants["re_z1w1z2w2"] == pytest.approx(-0.197, abs=5e-4)
        assert cls.constants["im_z1w1z2w2"] == pytest.approx(-0.409, abs=5e-4)
        assert cls.t0 == pytest.approx(4.107, abs=0.001)

    def test_zero_overshoot_real_poles(self):
        # monotone error <=> step response without overshoot
        _, sys = close_loop(spring_mass_scenario(4.0), [-2.0, -5.0])
        tr = trace(sys, np.arange(0.0, 10.0, 0.01))
        assert np.all(np.diff(tr.error) <= 1e-12)
        assert np.all(tr.error >= -1e-12)


class TestRlcScenario:
    def test_nominal_matrix_entrywise(self):
        plant = rlc_scenario(0.5)
        expected = np.array([[-1.0, 1.0, -1.0], [1.0, -2.0, 0.0],
                             [0.5, 0.0, -0.5]])
        np.testing.assert_array_equal(plant.nominal_A(), expected)
        np.testing.assert_array_equal(
            plant.S, np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, -1.0]]))

    def test_real_case_slope(self):
        plant = rlc_scenario(0.5)
        loop, sys = close_loop(plant, [-1.0, -2.0, -4.0])
        spec = sys.spectrum()
        cls = classify(spec, couplings(spec, sys.S, sys.c, loop.beta), sys.xi0)
        assert cls.kind == "LinearReal"
        assert cls.constants["sbar_dom"] == pytest.approx(-19.0 / 6.0, abs=1e-9)
        assert abs(cls.slope) == pytest.approx(19.0 / 12.0, abs=1e-9)

    def test_complex_case_timing(self):
        plant = rlc_scenario(0.5)
        poles = [-2 + 1j * np.pi / 10, -2 - 1j * np.pi / 10, RLC_LAMBDA3_DEFAULT]
        loop, sys = close_loop(plant, poles)
        spec = sys.spectrum()
        cls = classify(spec, couplings(spec, sys.S, sys.c, loop.beta), sys.xi0)
        assert cls.kind == "PeriodicComplex"
        assert cls.period == pytest.approx(10.0, abs=1e-9)
        assert cls.t0 == pytest.approx(10.49, abs=0.05)

    def test_nonpositive_xi_rejected(self):
        with pytest.raises(ValueError):
            rlc_scenario(-1.0)

    def test_real_case_overshoot(self):
        # ~30% overshoot with 0.49 s rise time pins the closed loop
        _, sys = close_loop(rlc_scenario(0.5), [-1.0, -2.0, -4.0])
        ts = np.arange(0.0, 12.0, 0.001)
        y = 1.0 - np.array([float(sys.c @ expm(sys.A0 * t) @ sys.v) for t in ts])
        assert y.max() - 1.0 == pytest.approx(0.30, abs=0.01)
        rise = ts[np.argmax(y >= 0.9)] - ts[np.argmax(y >= 0.1)]
        assert rise == pytest.approx(0.49, abs=0.01)
