import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import controller as ctl
from consensus_lab import dynamics as dyn
from consensus_lab import estimator as nn
from consensus_lab import graph as gr

import oracles as ref


def topo(adj, b, nu1=1.0, nu2=1.0):
    adj = np.asarray(adj, dtype=float)
    sym = np.array_equal(adj, adj.T)
    return gr.Topology(adjacency=adj, leader_weights=b,
                       nu1=nu1, nu2=nu2, undirected=sym)


def lyap_kron_oracle(delta, alpha_bar):
    """Independent vectorized solve of Delta^T P + P Delta = -alpha_bar I."""
    m = delta.shape[0]
    eye = np.eye(m)
    system = np.kron(eye, delta.T) + np.kron(delta.T, eye)
    rhs = (-alpha_bar * eye).ravel(order="F")
    vec_p = np.linalg.solve(system, rhs)
    return vec_p.reshape(m, m, order="F")


class TestHurwitz:
    def test_single_factor(self):
        assert ctl.hurwitz_lambda([2.0]) == pytest.approx([2.0])

    def test_two_factors(self):
        assert ctl.hurwitz_lambda([1.0, 2.0]) == pytest.approx([2.0, 3.0])

    def test_binomial_cube(self):
        assert ctl.hurwitz_lambda([1.0, 1.0, 1.0]) == pytest.approx([1.0, 3.0, 3.0])

    def test_check_accepts_constructed(self):
        assert ctl.check_hurwitz(ctl.hurwitz_lambda([0.3, 1.7, 4.0]))

    def test_check_rejects_unstable(self):
        assert not ctl.check_hurwitz([-1.0])

    def test_check_quadratic_roots(self):
        assert ctl.check_hurwitz([2.0, 3.0])  # roots -1, -2

    @pytest.mark.parametrize("lam", [[], [[2.0]], [math.nan], [2.0, math.inf], [-math.inf]])
    def test_check_rejects_empty_and_non_finite(self, lam):
        # no companion matrix is built: eigvals would raise on these
        assert not ctl.check_hurwitz(lam)

    @given(st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=1, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_synthesis_always_hurwitz(self, xi):
        assert ctl.check_hurwitz(ctl.hurwitz_lambda(xi))

    def test_companion_matches_polynomial(self):
        lam = ctl.hurwitz_lambda([1.0, 2.0, 5.0])
        eig = np.sort(np.linalg.eigvals(ctl.companion(lam)).real)
        assert eig == pytest.approx([-5.0, -2.0, -1.0], abs=1e-9)


class TestLyapunovP1:
    def test_scalar_solution(self):
        assert ctl.lyapunov_P1([2.0], 1.0)[0, 0] == pytest.approx(0.25)

    def test_scalar_closed_form(self):
        for lam, abar in ((1.0, 2.0), (3.0, 6.0), (0.5, 1.0)):
            assert ctl.lyapunov_P1([lam], abar)[0, 0] == pytest.approx(abar / (2 * lam))

    def test_against_kronecker_oracle(self):
        lam = np.array([2.0, 3.0])
        p1 = ctl.lyapunov_P1(lam, 1.0)
        oracle = lyap_kron_oracle(ctl.companion(lam), 1.0)
        assert np.allclose(p1, oracle, atol=1e-12)
        delta = ctl.companion(lam)
        residual = np.linalg.norm(delta.T @ p1 + p1 @ delta + np.eye(2), "fro")
        assert residual <= 1e-10

    @pytest.mark.parametrize("order", [2, 3, 4, 5, 6])
    def test_matches_bartels_stewart(self, order):
        rng = np.random.default_rng(order)
        for _ in range(20):
            lam = ctl.hurwitz_lambda(rng.uniform(0.3, 4.0, size=order - 1))
            abar = rng.uniform(0.5, 3.0)
            p1 = ctl.lyapunov_P1(lam, abar)
            oracle = ref.lyapunov_p1_scipy(ctl.companion(lam), abar)
            np.testing.assert_allclose(p1, oracle, rtol=0, atol=1e-12 * np.max(np.abs(oracle)))
            assert np.array_equal(p1, p1.T)

    def test_random_orders_positive_definite(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            m = int(rng.integers(1, 5))
            lam = ctl.hurwitz_lambda(rng.uniform(0.2, 5.0, size=m))
            abar = rng.uniform(0.5, 3.0)
            p1 = ctl.lyapunov_P1(lam, abar)
            assert np.linalg.eigvalsh(p1)[0] > 0
            delta = ctl.companion(lam)
            residual = np.linalg.norm(delta.T @ p1 + p1 @ delta + abar * np.eye(m), "fro")
            assert residual <= 1e-10


class TestSyncError:
    def test_perfect_consensus(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        offsets = ctl.Offsets(per_agent=np.array([[1.0, 0.0], [-2.0, 0.0]]),
                              leader=np.array([0.5, 0.0]))
        leader = np.array([3.0, 0.7])
        agents = (leader - offsets.leader) + offsets.per_agent
        fleet = dyn.FleetState(agents=agents, leader=leader)
        for k in (1, 2):
            assert ref.sync_error(k, fleet, t, offsets) == pytest.approx([0.0, 0.0], abs=1e-14)

    def test_two_node_hand_value(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        fleet = dyn.FleetState(agents=np.array([[1.0, 0.0], [2.0, 0.0]]),
                               leader=np.array([0.0, 0.0]))
        e1 = ref.sync_error(1, fleet, t, ref.zero_offsets(2, 2))
        assert e1 == pytest.approx([0.0, -1.0])
        pounds = gr.pinned_laplacian(t)
        oracle = -pounds @ (fleet.agents[:, 0] - fleet.leader[0])
        assert e1 == pytest.approx(oracle, abs=1e-14)

    def test_translation_invariance(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        rng = np.random.default_rng(1)
        agents = rng.normal(size=(2, 2))
        leader = rng.normal(size=2)
        offsets = ref.zero_offsets(2, 2)
        base = ref.sync_error(1, dyn.FleetState(agents=agents, leader=leader), t, offsets)
        shift = 17.3
        shifted = ref.sync_error(
            1, dyn.FleetState(agents=agents + shift, leader=leader + shift), t, offsets)
        assert shifted == pytest.approx(base, abs=1e-12)

    def test_matrix_form_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            n_agents = int(rng.integers(2, 9))
            adj = rng.uniform(0, 1, size=(n_agents, n_agents)) * (rng.random((n_agents, n_agents)) < 0.6)
            adj = np.triu(adj, 1)
            adj = adj + adj.T
            b = rng.uniform(0, 1, size=n_agents)
            t = topo(adj, b, nu1=rng.uniform(0.5, 2), nu2=rng.uniform(0.5, 2))
            order = int(rng.integers(2, 4))
            fleet = dyn.FleetState(agents=rng.normal(scale=3, size=(n_agents, order)),
                                   leader=rng.normal(scale=3, size=order))
            offsets = ctl.Offsets(per_agent=rng.normal(size=(n_agents, order)),
                                  leader=rng.normal(size=order))
            pounds = gr.pinned_laplacian(t)
            for k in range(1, order + 1):
                xbar = fleet.agents[:, k - 1] - offsets.per_agent[:, k - 1]
                xbar0 = fleet.leader[k - 1] - offsets.leader[k - 1]
                oracle = -pounds @ (xbar - xbar0)
                per_agent = ref.sync_error(k, fleet, t, offsets)
                assert np.max(np.abs(per_agent - oracle)) <= 1e-12


class TestStabilityErrorAndRho:
    def test_zero_errors(self):
        assert ref.stability_error(np.zeros((2, 3)), [2.0]) == pytest.approx([0.0] * 3)
        assert ref.rho(np.zeros((1, 3)), [2.0]) == pytest.approx([0.0] * 3)

    def test_hand_values(self):
        assert ref.stability_error(np.array([[1.0], [0.5]]), [2.0]) == pytest.approx([2.5])
        assert ref.rho(np.array([[1.0, -1.0]]), [2.0]) == pytest.approx([2.0, -2.0])

    def test_linearity(self):
        rng = np.random.default_rng(3)
        e = rng.normal(size=(3, 4))
        lam = np.array([1.5, 0.7])
        assert ref.stability_error(3.0 * e, lam) == pytest.approx(3.0 * ref.stability_error(e, lam))

    def test_rho_matrix_form_oracle(self):
        rng = np.random.default_rng(4)
        e_tail = rng.normal(size=(2, 5))          # e^2, e^3 for n=3
        lam = np.array([1.2, 3.4])
        oracle = e_tail.T @ lam                   # E_2 lambda_bar with E_2 = [e^2 e^3]
        assert ref.rho(e_tail, lam) == pytest.approx(oracle, abs=1e-12)


class TestPotentials:
    def test_collision_branches(self):
        assert ref.collision_potential(0.0, 1.5, 1.0, 1.0) == 0.0
        assert ref.collision_potential(0.0, 0.5, 1.0, 1.0) == pytest.approx(2.0)
        assert ref.collision_potential(0.0, 1.0, 1.0, 1.0) == 0.0  # tie -> zero branch

    def test_collision_symmetry(self):
        assert ref.collision_potential(0.2, 0.9, 1.3, 2.0) == \
            ref.collision_potential(0.9, 0.2, 1.3, 2.0)

    def test_leader_branches(self):
        assert ref.leader_potential(0.0, 2.0, 2.0, 1.0) == 0.0
        assert ref.leader_potential(0.0, 0.4, 2.0, 1.0) == pytest.approx(5.0)
        assert ref.leader_potential(0.0, 0.0, 1.0, 1.0) == pytest.approx(1.0 / ctl.DISTANCE_CLAMP)

    def test_obstacle_branches(self):
        assert ref.obstacle_potential(0.0, 1.5, 2.0, 1.0) == pytest.approx(1.96)
        assert ref.obstacle_potential(0.0, 2.0, 2.0, 1.0) == 0.0   # zero numerator at R
        assert ref.obstacle_potential(0.0, 2.5, 2.0, 1.0) == 0.0   # beyond detection
        # approaches zero from inside the detection boundary
        assert ref.obstacle_potential(0.0, 1.999999, 2.0, 1.0) < 1e-10

    def test_obstacle_core_saturation(self):
        inside = ref.obstacle_potential(0.0, 0.5, 2.0, 1.0)
        at_edge = ref.obstacle_potential(0.0, 1.0 * (1.0 + ctl.DISTANCE_CLAMP), 2.0, 1.0)
        assert inside == pytest.approx(at_edge)

    def test_collision_jump_at_threshold(self):
        chi, psi = 1.3, 2.0
        just_inside = ref.collision_potential(0.0, psi * (1 - 1e-9), chi, psi)
        assert ref.collision_potential(0.0, psi, chi, psi) == 0.0
        assert just_inside == pytest.approx(chi / psi, rel=1e-6)

    @given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10),
           st.floats(min_value=0.01, max_value=5), st.floats(min_value=0.01, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_potentials_nonnegative(self, a, b, chi, psi):
        assert ref.collision_potential(a, b, chi, psi) >= 0.0
        assert ref.leader_potential(a, b, chi, psi) >= 0.0
        assert ref.obstacle_potential(a, b, 2 * psi, psi) >= 0.0


def make_single_agent_setup(chi=0.5, psi_i0=0.3, gamma2=0.4, gamma0=0.7, obstacles=(2.0,)):
    t = topo([[0.0]], [1.0])
    lyap = gr.graph_lyapunov(t)
    gains = ctl.ControlGains(
        lambda_bar=np.array([2.0]), c=np.array([3.0, 1.5]),
        gamma0=gamma0, gamma1=0.6, gamma2=gamma2, chi=chi,
        psi_ij=0.5, psi_i0=psi_i0, detect_radius=1.5, obstacle_radius=0.4,
        obstacles=np.asarray(obstacles), alpha_bar=1.0)
    f_basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE,
                           centers=np.array([[0.0, 0.0], [1.0, 0.5]]), width=1.5)
    w_basis = nn.fourier_basis((1.0,))
    l_basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE,
                           centers=np.array([[0.5, 0.0]]), width=2.0)
    est_f = ref.LipEstimator(theta=np.array([0.3, -0.2]), basis=f_basis, sigma=0.05)
    est_w = ref.LipEstimator(theta=np.array([0.1, 0.2, -0.3]), basis=w_basis, sigma=0.05)
    est_l = ref.LipEstimator(theta=np.array([0.7]), basis=l_basis, sigma=0.05)
    offsets = ctl.Offsets(per_agent=np.array([[0.2, 0.0]]), leader=np.array([0.1, 0.0]))
    return t, lyap, gains, offsets, (est_f, est_w, est_l)


def straight_line_single_agent(fleet, gains, offsets, ests, t_now):
    """From-scratch recomputation of the control law for one pinned agent."""
    s, v = float(fleet.agents[0, 0]), float(fleet.agents[0, 1])
    s0, v0 = float(fleet.leader[0]), float(fleet.leader[1])
    d1 = (s - offsets.per_agent[0, 0]) - (s0 - offsets.leader[0])
    d2 = (v - offsets.per_agent[0, 1]) - (v0 - offsets.leader[1])
    e1 = -1.0 * d1            # nu2 * b = 1
    e2 = -1.0 * d2
    lam = gains.lambda_bar[0]
    r = lam * e1 + e2
    rho_val = lam * e2
    est_f, est_w, est_l = ests
    fhat = sum(th * math.exp(-((s - cs) ** 2 + (v - cv) ** 2) / (2 * est_f.basis.width ** 2))
               for th, (cs, cv) in zip(est_f.theta, est_f.basis.centers))
    freq = est_w.basis.centers[0]
    what = est_w.theta[0] + est_w.theta[1] * math.sin(freq * t_now) + \
        est_w.theta[2] * math.cos(freq * t_now)
    (cl_s, cl_v), = est_l.basis.centers
    lhat = est_l.theta[0] * math.exp(-((s0 - cl_s) ** 2 + (v0 - cl_v) ** 2)
                                     / (2 * est_l.basis.width ** 2))
    u = rho_val / 1.0 - fhat - what + lhat + r - (gains.c[0] * d1 + gains.c[1] * d2)
    dist0 = abs(s - s0)
    if dist0 < gains.psi_i0:
        u += gains.gamma2 * (gains.chi / max(dist0, 1e-6)) * math.copysign(1.0, s - s0)
    for omega in gains.obstacles:
        dob = abs(s - omega)
        if dob <= gains.detect_radius:
            deff = max(dob, gains.obstacle_radius * (1 + 1e-6))
            m = ((gains.detect_radius ** 2 - deff ** 2)
                 / (deff ** 2 - gains.obstacle_radius ** 2)) ** 2
            u += gains.gamma0 * m * math.copysign(1.0, s - omega)
    return u


class TestControlInput:
    def test_perfect_consensus_zero(self):
        t = topo([[0, 1], [1, 0]], [1, 1])
        lyap = gr.graph_lyapunov(t)
        gains = ctl.ControlGains(lambda_bar=np.array([1.0]), c=np.array([2.0, 1.0]),
                                 chi=0.5, psi_ij=0.5, psi_i0=0.5,
                                 detect_radius=1.0, obstacle_radius=0.3)
        offsets = ctl.Offsets(per_agent=np.array([[2.0, 0.0], [-2.0, 0.0]]),
                              leader=np.array([0.0, 0.0]))
        leader = np.array([1.0, 0.4])
        agents = leader[None, :] + offsets.per_agent - offsets.leader[None, :]
        fleet = dyn.FleetState(agents=agents, leader=leader)
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.zeros((1, 2)), width=1.0)
        ests = (ref.zero_estimator(basis), ref.zero_estimator(nn.fourier_basis((1.0,))),
                ref.zero_estimator(basis))
        for i in (0, 1):
            assert ref.control_input(i, fleet, t, lyap, offsets, gains, ests, 0.0) == \
                pytest.approx(0.0, abs=1e-14)

    def test_single_agent_straight_line_oracle(self):
        t, lyap, gains, offsets, ests = make_single_agent_setup()
        rng = np.random.default_rng(5)
        for _ in range(40):
            fleet = dyn.FleetState(agents=rng.normal(scale=1.2, size=(1, 2)),
                                   leader=rng.normal(scale=1.2, size=2))
            t_now = float(rng.uniform(0, 10))
            got = ref.control_input(0, fleet, t, lyap, offsets, gains, ests, t_now)
            want = straight_line_single_agent(fleet, gains, offsets, ests, t_now)
            assert got == pytest.approx(want, abs=1e-12)

    def test_avoidance_direction_repels(self):
        # The avoidance contribution must push agent i away from agent j.
        t = topo([[0, 1], [1, 0]], [1, 1])
        lyap = gr.graph_lyapunov(t)
        base = dict(lambda_bar=np.array([1.0]), c=np.array([0.0, 0.0]),
                    chi=1.0, psi_ij=1.0, psi_i0=0.05,
                    detect_radius=1.0, obstacle_radius=0.3)
        gains_on = ctl.ControlGains(gamma1=2.0, **base)
        gains_off = ctl.ControlGains(gamma1=0.0, **base)
        offsets = ref.zero_offsets(2, 2)
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.zeros((1, 2)), width=1.0)
        ests = (ref.zero_estimator(basis), ref.zero_estimator(nn.fourier_basis((1.0,))),
                ref.zero_estimator(basis))
        fleet = dyn.FleetState(agents=np.array([[0.3, 0.0], [0.0, 0.0]]),
                               leader=np.array([5.0, 0.0]))
        for i, away_sign in ((0, +1.0), (1, -1.0)):
            with_avoid = ref.control_input(i, fleet, t, lyap, offsets, gains_on, ests, 0.0)
            without = ref.control_input(i, fleet, t, lyap, offsets, gains_off, ests, 0.0)
            contribution = with_avoid - without
            m12 = ref.collision_potential(0.3, 0.0, 1.0, 1.0)
            assert contribution == pytest.approx(away_sign * 2.0 * m12)

    def test_signless_mode_subtracts_raw_sum(self):
        t, lyap, gains, offsets, ests = make_single_agent_setup()
        import dataclasses
        signless = dataclasses.replace(gains, signless_avoidance=True)
        off = dataclasses.replace(gains, gamma0=0.0, gamma1=0.0, gamma2=0.0)
        fleet = dyn.FleetState(agents=np.array([[1.9, 0.0]]), leader=np.array([1.8, 0.0]))
        u_off = ref.control_input(0, fleet, t, lyap, offsets, off, ests, 0.0)
        u_signless = ref.control_input(0, fleet, t, lyap, offsets, signless, ests, 0.0)
        m0 = ref.leader_potential(1.9, 1.8, gains.chi, gains.psi_i0)
        mb = ref.obstacle_potential(1.9, 2.0, gains.detect_radius, gains.obstacle_radius)
        assert u_signless - u_off == pytest.approx(-(gains.gamma2 * m0 + gains.gamma0 * mb))

    def test_translation_compatibility(self):
        t, lyap, gains, offsets, ests = make_single_agent_setup()
        import dataclasses
        # agent sits in the obstacle's detection annulus, close to the leader
        fleet = dyn.FleetState(agents=np.array([[1.1, 0.3]]), leader=np.array([0.9, 0.2]))
        shift = 11.0
        shifted_gains = dataclasses.replace(gains, obstacles=gains.obstacles + shift)
        # translated states fall elsewhere on the NN grids; zero the weights so
        # only the structural terms (differences, potentials) are compared
        zests = tuple(ref.zero_estimator(e.basis) for e in ests)
        fleet2 = dyn.FleetState(agents=fleet.agents + shift, leader=fleet.leader + shift)
        u1 = ref.control_input(0, fleet2, t, lyap, offsets, shifted_gains, zests, 1.0)
        u0z = ref.control_input(0, fleet, t, lyap, offsets, gains, zests, 1.0)
        assert u1 == pytest.approx(u0z, abs=1e-12)
        # sanity: the avoidance terms were genuinely active in the comparison
        assert ref.obstacle_potential(1.1, 2.0, gains.detect_radius, gains.obstacle_radius) > 0
        # and the NN terms do change the law when weights are nonzero
        u0 = ref.control_input(0, fleet, t, lyap, offsets, gains, ests, 1.0)
        assert abs(u0 - u0z) > 1e-6

    def test_zero_gain_reduction(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        lyap = gr.graph_lyapunov(t)
        gains = ctl.ControlGains(lambda_bar=np.array([1.5]), c=np.array([0.0, 0.0]),
                                 gamma0=0.0, gamma1=0.0, gamma2=0.0,
                                 chi=1.0, psi_ij=0.5, psi_i0=0.5,
                                 detect_radius=1.0, obstacle_radius=0.3)
        offsets = ref.zero_offsets(2, 2)
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.zeros((1, 2)), width=1.0)
        ests = (ref.zero_estimator(basis), ref.zero_estimator(nn.fourier_basis((1.0,))),
                ref.zero_estimator(basis))
        rng = np.random.default_rng(6)
        fleet = dyn.FleetState(agents=rng.normal(size=(2, 2)), leader=rng.normal(size=2))
        e1 = ref.sync_error(1, fleet, t, offsets)
        e2 = ref.sync_error(2, fleet, t, offsets)
        r = 1.5 * e1 + e2
        rho_v = 1.5 * e2
        pin = np.array([2.0, 1.0])  # d + b for this chain
        for i in (0, 1):
            u = ref.control_input(i, fleet, t, lyap, offsets, gains, ests, 0.0)
            assert u == pytest.approx(rho_v[i] / pin[i] + r[i], abs=1e-13)

    def test_isolated_agent_raises(self):
        t = gr.Topology(adjacency=np.zeros((2, 2)),
                        leader_weights=[1.0, 0.0], nu1=1.0, nu2=1.0)
        gains = ctl.ControlGains(lambda_bar=np.array([1.0]), c=np.array([1.0, 1.0]),
                                 chi=1.0, psi_ij=0.5, psi_i0=0.5,
                                 detect_radius=1.0, obstacle_radius=0.3)
        offsets = ref.zero_offsets(2, 2)
        basis = nn.BasisSpec(kind=nn.GAUSSIAN_RBF_STATE, centers=np.zeros((1, 2)), width=1.0)
        ests = (ref.zero_estimator(basis), ref.zero_estimator(nn.fourier_basis((1.0,))),
                ref.zero_estimator(basis))
        fleet = dyn.FleetState(agents=np.zeros((2, 2)), leader=np.zeros(2))
        lyap_single = gr.graph_lyapunov(topo([[0.0]], [1.0]))
        with pytest.raises(ref.IsolatedAgent):
            ref.control_input(1, fleet, t, lyap_single, offsets, gains, ests, 0.0)


class TestControlGainsValidation:
    def test_core_must_be_inside_detection(self):
        with pytest.raises(ValueError, match="smaller"):
            ctl.ControlGains(lambda_bar=np.array([1.0]), c=np.array([1.0, 1.0]),
                             detect_radius=1.0, obstacle_radius=1.5)

    def test_lambda_must_be_hurwitz(self):
        with pytest.raises(ctl.NotHurwitz):
            ctl.ControlGains(lambda_bar=np.array([-1.0]), c=np.array([1.0, 1.0]))

    def test_radius_whose_square_overflows_is_refused(self):
        # the field reads the squared radii
        with pytest.raises(gr.FieldError) as info:
            ctl.ControlGains(lambda_bar=np.array([1.0]), c=np.array([1.0, 1.0]),
                             detect_radius=1e200, obstacle_radius=0.5)
        assert info.value.field == "detect_radius"

    @pytest.mark.parametrize("obstacles", [[[-30.0, -60.0]], [[1.0], [2.0]], [[4.0]]])
    def test_obstacles_must_be_flat(self, obstacles):
        with pytest.raises(ValueError, match="obstacles"):
            ctl.ControlGains(lambda_bar=np.array([1.0]), c=np.array([1.0, 1.0]),
                             obstacles=obstacles)
