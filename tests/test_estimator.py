import dataclasses
import math

import numpy as np
import pytest

from consensus_lab import estimator as nn

import oracles as ref


def two_center_basis():
    return nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE,
                        centers=np.array([[0.0], [1.0]]), width=1.0)


class TestBasisEval:
    def test_unit_at_center(self):
        basis = nn.gaussian_grid([(-2.0, 2.0), (-2.0, 2.0)], 3)
        for center in basis.centers[:4]:
            phi = ref.phi(basis, center)
            assert phi.max() == pytest.approx(1.0)

    def test_gaussian_tail(self):
        basis = two_center_basis()
        phi = ref.phi(basis, np.array([20.0]))
        assert np.all(phi <= 1e-21)

    def test_hand_gaussian_pair(self):
        phi = ref.phi(two_center_basis(), np.array([0.0]))
        assert phi == pytest.approx([1.0, math.exp(-0.5)])

    def test_dimension_mismatch(self):
        with pytest.raises(nn.DimensionMismatch):
            nn.basis_eval_batch(two_center_basis(), np.array([[0.0, 1.0]]))
        with pytest.raises(nn.DimensionMismatch):
            ref.phi(two_center_basis(), np.array([0.0, 1.0]))

    def test_state_basis_is_left_to_state_bases(self):
        with pytest.raises(nn.DimensionMismatch, match="StateBases"):
            nn.basis_eval(two_center_basis(), np.array([0.0]))

    def test_fourier_layout(self):
        basis = nn.fourier_basis((2.0, 1.0))
        assert basis.count == 5
        t = 0.3
        phi = nn.basis_eval(basis, t)
        expected = [1.0, math.sin(2 * t), math.cos(2 * t), math.sin(t), math.cos(t)]
        assert phi == pytest.approx(expected)

    def test_time_rbf(self):
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_TIME, centers=np.array([0.0, 1.0]), width=2.0)
        phi = nn.basis_eval(basis, 1.0)
        assert phi == pytest.approx([math.exp(-1.0 / 8.0), 1.0])

    def test_batch_matches_single(self):
        basis = nn.gaussian_grid([(-1.0, 1.0), (-1.0, 1.0)], 3)
        states = np.random.default_rng(0).normal(size=(6, 2))
        batch = nn.basis_eval_batch(basis, states)
        for i in range(6):
            assert np.array_equal(batch[i], ref.phi(basis, states[i]))

    def test_bound_is_sqrt_count(self):
        basis = nn.gaussian_grid([(-1.0, 1.0)], 4)
        assert nn.basis_bound(basis) == pytest.approx(2.0)
        rng = np.random.default_rng(1)
        worst = max(np.linalg.norm(ref.phi(basis, rng.normal(size=1)))
                    for _ in range(200))
        assert worst <= nn.basis_bound(basis) + 1e-12


class TestEstimate:
    def test_zero_weights(self):
        est = ref.zero_estimator(two_center_basis())
        assert ref.estimate(est, np.array([0.37])) == 0.0

    def test_hand_dot_product(self):
        est = ref.LipEstimator(theta=np.array([1.0, 1.0]), basis=two_center_basis())
        assert ref.estimate(est, np.array([0.0])) == pytest.approx(1.0 + math.exp(-0.5))

    def test_single_neuron_identity(self):
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.array([[0.5]]), width=1.0)
        est = ref.LipEstimator(theta=np.array([4.2]), basis=basis)
        assert ref.estimate(est, np.array([0.5])) == pytest.approx(4.2)


class TestGainValidation:
    def test_rejects_asymmetric_gain(self):
        with pytest.raises(ValueError, match="symmetric"):
            ref.LipEstimator(theta=np.zeros(2), basis=two_center_basis(),
                            gain=np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_indefinite_gain(self):
        with pytest.raises(ValueError, match="positive definite"):
            ref.LipEstimator(theta=np.zeros(2), basis=two_center_basis(),
                            gain=np.diag([1.0, -1.0]))

    def test_scalar_gain_expands(self):
        est = ref.LipEstimator(theta=np.zeros(2), basis=two_center_basis(), gain=3.0)
        assert np.array_equal(est.gain, 3.0 * np.eye(2))


class TestTuningLaws:
    def test_agent_damping_only(self):
        theta0 = np.array([2.0, -1.0])
        est = ref.LipEstimator(theta=theta0, basis=two_center_basis(), gain=np.eye(2), sigma=0.3)
        out = ref.tune_agent(est, np.array([0.7, 0.1]), 0.0, 1.0, 2.0)
        assert out == pytest.approx(-0.3 * theta0)

    def test_agent_hand_value(self):
        est = ref.LipEstimator(theta=np.zeros(2), basis=two_center_basis(), gain=np.eye(2), sigma=0.1)
        out = ref.tune_agent(est, np.array([1.0, 0.0]), 2.0, 0.5, 2.0)
        assert out == pytest.approx([-2.0, 0.0])

    def test_agent_equilibrium(self):
        est = ref.zero_estimator(two_center_basis())
        assert np.array_equal(ref.tune_agent(est, np.array([1.0, 1.0]), 0.0, 1.0, 1.0), [0.0, 0.0])

    def test_leader_sign_structure(self):
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.array([[0.0]]), width=1.0)
        est = ref.LipEstimator(theta=np.zeros(1), basis=basis, gain=np.eye(1), sigma=0.0)
        assert ref.tune_leader(est, np.array([1.0]), 1.0, 1.0, 1.0) == pytest.approx([1.0])
        assert ref.tune_agent(est, np.array([1.0]), 1.0, 1.0, 1.0) == pytest.approx([-1.0])

    def test_leader_decay(self):
        theta0 = np.array([3.0, 4.0])
        est = ref.LipEstimator(theta=theta0, basis=two_center_basis(), gain=np.eye(2), sigma=0.2)
        assert ref.tune_leader(est, np.array([1.0, 1.0]), 0.0, 1.0, 1.0) == pytest.approx(-0.2 * theta0)

    def test_disturbance_hand_value(self):
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.array([[0.0]]), width=1.0)
        est = ref.LipEstimator(theta=np.zeros(1), basis=basis, gain=2.0 * np.eye(1), sigma=0.0)
        assert ref.tune_disturbance(est, np.array([1.0]), 1.0, 1.0, 3.0) == pytest.approx([-6.0])

    def test_disturbance_zero_everything(self):
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.array([[0.0]]), width=1.0)
        est = ref.zero_estimator(basis)
        assert ref.tune_disturbance(est, np.array([0.0]), 0.0, 1.0, 0.0) == pytest.approx([0.0])

    def test_leader_and_agent_magnitudes_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = rng.normal(size=2)
            phi = rng.normal(size=2)
            r, p, pin = rng.normal(), rng.uniform(0.1, 2.0), rng.uniform(0.0, 3.0)
            est = ref.LipEstimator(theta=theta, basis=two_center_basis(),
                                  gain=np.eye(2), sigma=0.0)
            agent = ref.tune_agent(est, phi, r, p, pin)
            leader = ref.tune_leader(est, phi, r, p, pin)
            assert agent == pytest.approx(-leader)


def _integrate_tuning(est, drive, phi_fn, dt, t_end):
    """Euler-integrate tune_agent; returns the norm history."""
    theta = est.theta.copy()
    norms = []
    t = 0.0
    while t < t_end:
        current = dataclasses.replace(est, theta=theta)
        theta = theta + dt * ref.tune_agent(current, phi_fn(t), drive(t), 1.0, 1.0)
        t += dt
        norms.append(np.linalg.norm(theta))
    return np.asarray(norms)


class TestBoundednessProperties:
    def test_damped_weights_respect_analytic_bound(self):
        # limsup ||theta|| <= sigma_max(F) * Phi * c_max / (sigma_min(F) * kappa)
        kappa = 0.5
        phi_cap = 1.5
        c_max = 2.0
        gain = np.diag([2.0, 0.5])
        basis = two_center_basis()
        est = ref.LipEstimator(theta=np.zeros(2), basis=basis, gain=gain, sigma=kappa)
        phi_fn = lambda t: phi_cap * np.array([math.sin(t), math.cos(t)])
        drive = lambda t: c_max * math.sin(0.7 * t)
        norms = _integrate_tuning(est, drive, phi_fn, dt=0.01, t_end=120.0)
        bound = 2.0 * phi_cap * c_max / (0.5 * kappa)
        assert norms[len(norms) // 2:].max() <= bound * 1.01

    def test_pure_decay_below_one_percent(self):
        kappa = 0.4
        gain = np.diag([1.5, 0.5])
        theta0 = np.array([5.0, -3.0])
        est = ref.LipEstimator(theta=theta0, basis=two_center_basis(), gain=gain, sigma=kappa)
        horizon = 5.0 / (kappa * 0.5)
        theta = theta0.copy()
        dt = 0.005
        steps = int(round(horizon / dt))
        for k in range(steps):
            current = dataclasses.replace(est, theta=theta)
            theta = theta + dt * ref.tune_agent(current, np.zeros(2), 0.0, 1.0, 1.0)
        assert np.linalg.norm(theta) <= 0.01 * np.linalg.norm(theta0)
