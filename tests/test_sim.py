import dataclasses
import json
import math
import re

import numpy as np
import pytest

from consensus_lab import controller as ctl
from consensus_lab import cuub
from consensus_lab import dynamics as dyn
from consensus_lab import estimator as nn
from consensus_lab import field as fld
from consensus_lab import graph as gr
from consensus_lab import scenario_io as sio
from consensus_lab import sim

import oracles as ref


def small_scenario(strict=False, obstacles=(0.6,), duration=0.05):
    """Two-agent chain with active potentials, nonzero offsets, mixed drifts."""
    topo = gr.Topology(adjacency=[[0, 1], [1, 0]],
                       leader_weights=[1.0, 0.0], nu1=1.2, nu2=0.8)
    models = (
        dyn.AgentModel(drift=dyn.compile_state_expression("cos(s) - 0.1*v", 2),
                       disturbance=dyn.sinusoid_disturbance(0.5, 2.0)),
        dyn.AgentModel(drift=lambda x, t: -0.2 * x[0] ** 2 + 0.05 * math.sin(t),
                       disturbance=dyn.constant_disturbance(0.3)),
    )
    leader = dyn.LeaderModel(drift=lambda x, t: 0.1 * math.cos(0.5 * t))
    gains = ctl.ControlGains(
        lambda_bar=np.array([1.5]), c=np.array([2.0, 1.0]),
        gamma0=0.7, gamma1=0.9, gamma2=0.4, chi=0.6,
        psi_ij=1.0, psi_i0=0.8, detect_radius=1.1, obstacle_radius=0.2,
        obstacles=np.asarray(obstacles), alpha_bar=1.0,
        strict_decentralized=strict)
    offsets = ctl.Offsets(per_agent=np.array([[0.3, 0.0], [-0.3, 0.0]]),
                          leader=np.array([0.1, 0.0]))
    cfg = nn.NNConfig(
        f_basis=nn.gaussian_grid([(-2.0, 2.0), (-2.0, 2.0)], 3),
        leader_basis=nn.gaussian_grid([(-2.0, 2.0), (-2.0, 2.0)], 2),
        w_basis=nn.fourier_basis((2.0,)),
        gain=1.5, kappa=0.1, kappa0=0.2, kappaw=0.3)
    initial = dyn.FleetState(agents=np.array([[0.25, 0.1], [-0.15, -0.2]]),
                             leader=np.array([0.05, 0.3]))
    return sim.Scenario(topology=topo, agent_models=models, leader_model=leader,
                        gains=gains, offsets=offsets, nn_config=cfg,
                        initial=initial, duration=duration, dt=1e-3, record_stride=5)


class TestRk4:
    def test_exponential_decay(self):
        f = lambda y, t: -y
        y = np.array([1.0])
        dt = 1e-3
        for k in range(1000):
            y = sim.rk4_step(f, y, k * dt, dt)
        assert abs(y[0] - math.exp(-1.0)) <= 1e-6

    def test_zero_field_fixed_point(self):
        f = lambda y, t: np.zeros_like(y)
        y = np.array([3.0, -2.0])
        assert np.array_equal(sim.rk4_step(f, y, 0.0, 0.1), y)

    def test_fourth_order_richardson(self):
        # halving dt cuts the global error ~16x (measured at a step size
        # where truncation still dominates rounding)
        def global_error(dt):
            f = lambda y, t: -y
            y = np.array([1.0])
            for k in range(int(round(1.0 / dt))):
                y = sim.rk4_step(f, y, k * dt, dt)
            return abs(y[0] - math.exp(-1.0))

        ratio = global_error(1e-2) / global_error(5e-3)
        assert 12.0 <= ratio <= 20.0

    def test_state_is_left_unchanged(self):
        scenario = small_scenario()
        ctx = fld._SimContext([scenario])
        y = sim.initial_state(scenario)
        y[4:] = np.linspace(-0.4, 0.4, y.size - 4)
        before = y.copy()
        sim.rk4_step(ctx.field, y, 0.1, 1e-3)
        assert np.array_equal(y, before)

    def test_field_may_reuse_its_output_or_return_its_input(self):
        y = np.random.default_rng(2).normal(size=7)
        before = y.copy()
        shared = np.empty(7)

        def fresh(s, t):
            return np.sin(s) * t - s

        def reused(s, t):   # one array, overwritten on every call
            np.copyto(shared, fresh(s, t))
            return shared
        assert np.array_equal(sim.rk4_step(reused, y, 0.3, 0.01),
                              sim.rk4_step(fresh, y, 0.3, 0.01))
        assert np.array_equal(sim.rk4_step(lambda s, t: s, y, 0.3, 0.01),
                              sim.rk4_step(lambda s, t: s.copy(), y, 0.3, 0.01))
        assert np.array_equal(y, before)


class TestDerivativeField:
    def test_bitwise_purity(self):
        scenario = small_scenario()
        y = sim.initial_state(scenario)
        y[4:] = np.linspace(-0.4, 0.4, y.size - 4)
        a = fld._SimContext([scenario]).field(y, 0.37)
        b = fld._SimContext([scenario]).field(y, 0.37)
        assert np.array_equal(a, b)

    def test_consecutive_calls_return_equal_arrays_that_do_not_alias(self):
        scenario = small_scenario()
        ctx = fld._SimContext([scenario])
        y = sim.initial_state(scenario)
        y[4:] = np.linspace(-0.4, 0.4, y.size - 4)
        a = ctx.field(y, 0.37)
        b = ctx.field(y, 0.37)
        assert np.array_equal(a, b)
        assert not np.shares_memory(a, b) and not np.shares_memory(a, y)

    def test_chain_channels(self):
        scenario = small_scenario()
        y = sim.initial_state(scenario)
        dy = fld._SimContext([scenario]).field(y, 0.0)
        layout = fld.state_layout(scenario)
        x, x0, _, _, _ = layout.split(y)
        dx, dx0, _, _, _ = layout.split(dy)
        assert np.array_equal(dx[0, :, 0], x[0, :, 1])
        assert dx0[0, 0] == x0[0, 1]

    @pytest.mark.parametrize("strict", [False, True])
    def test_matches_per_agent_law_and_tuning(self, strict):
        """The vectorized field must reproduce control_input and the tuning laws."""
        assert_field_matches_oracles(small_scenario(strict=strict), seed=8, t_now=0.83)

    def test_time_rbf_disturbance_basis_matches_oracles(self):
        # a document's w_basis given as time RBF {centers, width}
        doc = json.loads(sio.builtin_scenario_text("close_pair"))
        doc["nn"]["w_basis"] = {"centers": [0.0, 0.5, 1.5], "width": 0.4}
        scenario = sio.parse_scenario(doc)
        assert scenario.nn_config.w_basis.kind == nn.GAUSSIAN_RBF_TIME
        for seed, t in ((1, 0.0), (2, 0.37), (3, 1.9)):
            assert_field_matches_oracles(scenario, seed, t)
            ctx = fld._SimContext([scenario])
            ctx.evaluate(sim.initial_state(scenario), t)
            assert ctx.phi_w.tolist() == pytest.approx(
                [math.exp(-(c - t) ** 2 / (2 * 0.4 ** 2)) for c in (0.0, 0.5, 1.5)], rel=1e-15)

    def test_a_leader_drift_shares_its_kernel_with_agent_drifts(self):
        # the leader's expression differs from agent 1's only in a literal,
        # so one kernel call serves both chains' rows
        base = small_scenario()
        leader = dyn.LeaderModel(drift=dyn.compile_state_expression("cos(s) - 0.3*v", 2))
        scenario = dataclasses.replace(base, leader_model=leader)
        ctx = fld._SimContext([scenario])
        batches, loose = ctx.drifts
        assert [b.index.tolist() for b in batches] == [[0, 2]]
        assert [i for i, *_ in loose] == [1]
        y = sim.initial_state(scenario)
        _, dx0, _, _, _ = ctx.layout.split(ctx.field(y, 0.3))
        assert dx0[0, -1] == leader.drift(scenario.initial.leader, 0.3)
        assert ctx.faults == {}

    @pytest.mark.parametrize("signless", [False, True])
    def test_fleet_far_from_the_leader_matches_oracles(self, signless):
        # no agent within psi_i0 of the leader: the leader potential is zero
        scenario = small_scenario()
        scenario = dataclasses.replace(
            scenario, initial=dyn.FleetState(agents=scenario.initial.agents, leader=[4.0, 0.3]),
            gains=dataclasses.replace(scenario.gains, signless_avoidance=signless))
        assert_field_matches_oracles(scenario, seed=6, t_now=0.41)

    @pytest.mark.parametrize("signless", [False, True])
    def test_far_agents_get_the_same_bits_on_either_leader_branch(self, signless):
        # psi_i0 = 0.8: both agents are far from the leader at 4, so the leader
        # term is skipped; psi_i0 = 4: agent 0 is near, agent 1 still far
        scenario = small_scenario()
        scenario = dataclasses.replace(
            scenario, initial=dyn.FleetState(agents=scenario.initial.agents, leader=[4.0, 0.3]),
            gains=dataclasses.replace(scenario.gains, signless_avoidance=signless))
        wide = dataclasses.replace(scenario, gains=dataclasses.replace(scenario.gains, psi_i0=4.0))
        y = sim.initial_state(scenario)
        y[6:] = np.linspace(-0.4, 0.4, y.size - 6)   # the weights
        skip, full = fld._SimContext([scenario]), fld._SimContext([wide])
        skip.evaluate(y, 0.3)
        full.evaluate(y, 0.3)
        u_skip, u_full = skip.u, full.u
        assert u_skip[0, 1].tobytes() == u_full[0, 1].tobytes()
        assert u_skip[0, 0] != u_full[0, 0]

    @pytest.mark.parametrize("leader", [0.05, 4.0])
    def test_non_finite_position_reaches_the_control(self, leader):
        scenario = small_scenario()
        ctx = fld._SimContext([scenario])
        y = sim.initial_state(scenario)
        y[ctx.layout.bounds[1]] = leader
        for bad in (math.nan, math.inf):
            y[0] = bad
            with np.errstate(all="ignore"):
                ctx.evaluate(y, 0.2)
            assert not math.isfinite(ctx.u[0, 0])

    def test_crowded_fleet_matches_oracles(self):
        """Sorted-gap pair scan and grouped models against the per-agent oracles."""
        scenario = crowded_scenario()
        batches, loose = fld._batches([m.drift for m in scenario.agent_models])
        assert sorted(b.index.size for b in batches) == [1, 9, 24] and len(loose) == 2
        assert_field_matches_oracles(scenario, seed=3, t_now=1.37)

    def test_crowded_fleet_signless_matches_oracles(self):
        # the signless sums count a coincident pair at chi / DISTANCE_CLAMP, so
        # split it to keep every term at the scale the 1e-12 tolerance assumes
        scenario = crowded_scenario()
        agents = np.array(scenario.initial.agents)
        agents[COINCIDENT[0], 0] += 0.05
        scenario = dataclasses.replace(
            scenario, gains=dataclasses.replace(scenario.gains, signless_avoidance=True),
            initial=dyn.FleetState(agents=agents, leader=scenario.initial.leader))
        assert_field_matches_oracles(scenario, seed=4, t_now=0.21)

    def test_min_pair_is_the_dense_minimum(self):
        scenario = crowded_scenario()
        ctx = fld._SimContext([scenario])
        y = sim.initial_state(scenario)
        agents = ctx.layout.split(y)[0][0]   # a view: writing it moves the agents in y
        n = agents.shape[0]
        rng = np.random.default_rng(11)
        spread = 2.0 * np.arange(n)
        closest_low, closest_high = spread.copy(), spread.copy()
        closest_low[1] = 0.3           # the closest pair is the lowest one in sorted order
        closest_high[-1] = spread[-2] + 0.3
        trials = [None, closest_low, closest_high] + [rng.normal(scale=5.0, size=n)
                                                      for _ in range(20)]
        for trial in trials:           # the crowded start (a coincident pair) comes first
            if trial is not None:
                agents[:, 0] = trial[rng.permutation(n)]
            pos = agents[:, 0]
            dense = np.abs(pos[:, None] - pos[None, :])[~np.eye(pos.size, dtype=bool)].min()
            assert ctx.record(y, 0.0)[8][0] == dense   # min_pair_distance


def assert_field_matches_oracles(scenario, seed, t_now):
    layout = fld.state_layout(scenario)
    rng = np.random.default_rng(seed)
    y = sim.initial_state(scenario)
    y[layout.n_agents * layout.order + layout.order:] = \
        rng.normal(scale=0.5, size=layout.size - layout.n_agents * layout.order - layout.order)
    dy = fld._SimContext([scenario]).field(y, t_now)
    assert_variant_matches_oracles(scenario, layout.split(y), layout.split(dy), 0, t_now)


def assert_variant_matches_oracles(scenario, blocks, d_blocks, k, t_now):
    """Variant k of a (stacked) state and its field against the per-agent oracles."""
    layout = fld.state_layout(scenario)
    x, x0, th_f, th_w, th_l = (b[k] for b in blocks)
    dx, _, dth_f, dth_w, dth_l = (b[k] for b in d_blocks)
    fleet = dyn.FleetState(agents=x, leader=x0)
    topo = scenario.topology
    lyap = gr.graph_lyapunov(topo)
    cfg = scenario.nn_config
    e_stack = np.stack([ref.sync_error(k, fleet, topo, scenario.offsets)
                        for k in (1, 2)])
    r = ref.stability_error(e_stack, scenario.gains.lambda_bar)
    pin = topo.adjacency.sum(axis=1) + topo.leader_weights

    for i in range(layout.n_agents):
        ests = (
            ref.LipEstimator(theta=th_f[i], basis=cfg.f_basis, gain=cfg.gain, sigma=cfg.kappa),
            ref.LipEstimator(theta=th_w[i], basis=cfg.w_basis, gain=cfg.gain, sigma=cfg.kappaw),
            ref.LipEstimator(theta=th_l[i], basis=cfg.leader_basis, gain=cfg.gain, sigma=cfg.kappa0),
        )
        u_i = ref.control_input(i, fleet, topo, lyap, scenario.offsets,
                                scenario.gains, ests, t_now)
        model = scenario.agent_models[i]
        forcing = model.drift(x[i], t_now) + u_i + model.disturbance(t_now)
        assert dx[i, 1] == pytest.approx(forcing, abs=1e-12)

        phi_f = ref.phi(cfg.f_basis, x[i])
        phi_w = ref.phi(cfg.w_basis, t_now)
        phi_l = ref.phi(cfg.leader_basis, x0)
        assert dth_f[i] == pytest.approx(
            ref.tune_agent(ests[0], phi_f, r[i], lyap.p_diag[i], pin[i]), abs=1e-12)
        assert dth_w[i] == pytest.approx(
            ref.tune_disturbance(ests[1], phi_w, r[i], lyap.p_diag[i], pin[i]), abs=1e-12)
        assert dth_l[i] == pytest.approx(
            ref.tune_leader(ests[2], phi_l, r[i], lyap.p_diag[i], pin[i]), abs=1e-12)


PSI_IJ = 1.0
COINCIDENT = (7, 23)     # agents placed at the same position
AT_PSI = (4, 30)         # agents exactly PSI_IJ apart: no push (the test is strict <)


def crowded_scenario():
    """36 agents in shuffled index order: a five-agent cluster (three or more
    neighbours within psi_ij each), a coincident pair with a third agent near
    both, a pair exactly psi_ij apart, obstacles, and every kind of model."""
    rng = np.random.default_rng(5)
    n = 36
    spots = [0.0, 0.2, 0.4, 0.6, 0.8, 5.0, 5.0, 5.3, 10.0, 10.0 + PSI_IJ]
    spots += [13.0 + 1.7 * j + rng.uniform(-0.2, 0.2) for j in range(n - len(spots))]
    slots = list(rng.permutation(n))
    # pin the coincident and the exactly-psi pairs to known indices
    for index, spot in zip(COINCIDENT + AT_PSI, (5, 6, 8, 9)):
        other = slots.index(spot)
        slots[other], slots[index] = slots[index], slots[other]
    pos = np.array([spots[k] for k in slots])
    assert pos[COINCIDENT[0]] == pos[COINCIDENT[1]]
    assert pos[AT_PSI[1]] - pos[AT_PSI[0]] == PSI_IJ

    adjacency = np.zeros((n, n))
    for i in range(n - 1):
        adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
    topo = gr.Topology(adjacency=adjacency,
                       leader_weights=[1.0 if i % 6 == 0 else 0.0 for i in range(n)],
                       nu1=1.1, nu2=0.9)

    def drift(i):
        if i == 0:
            return dyn.BUILTIN_AGENT_DRIFTS["platoon_agent_1"](1200.0)
        if i == 1:
            return lambda x, t: -0.3 * x[1] + 0.1 * math.sin(t)
        if i == 2:
            return dyn.compile_state_expression("exp(-0.1*s*s) - v**3/10 + tan(0.1*t)", 2)
        if i % 4 == 3:
            return dyn.compile_state_expression(
                f"{0.5 + 0.01 * i}*cos(x1) - {0.1 + 0.002 * i}*x2*x2", 2)
        return dyn.compile_state_expression(
            f"-{1.0 + 0.03 * i}*v + {0.4 + 0.01 * i}*sin({0.5 + 0.02 * i}*s)", 2)

    def disturbance(i):
        if i % 3 == 0:
            return dyn.constant_disturbance(0.1 * i - 1.0)
        if i % 3 == 1:
            return dyn.sinusoid_disturbance(0.2 + 0.01 * i, 0.5 + 0.1 * i)
        return dyn.compile_time_expression(f"{0.1 + 0.001 * i}*cos({1 + i}*t) + 0.05")

    models = tuple(dyn.AgentModel(drift=drift(i), disturbance=disturbance(i))
                   for i in range(n))
    leader = dyn.LeaderModel(drift=dyn.compile_state_expression("-2*v - s", 2))
    gains = ctl.ControlGains(
        lambda_bar=np.array([1.5]), c=np.array([2.0, 1.0]),
        gamma0=0.7, gamma1=0.9, gamma2=0.4, chi=0.6,
        psi_ij=PSI_IJ, psi_i0=0.8, detect_radius=1.1, obstacle_radius=0.2,
        obstacles=np.array([2.0, 14.9, 30.2]), alpha_bar=1.0)
    cfg = nn.NNConfig(
        f_basis=nn.gaussian_grid([(-5.0, 80.0), (-2.0, 2.0)], [6, 3]),
        leader_basis=nn.gaussian_grid([(-2.0, 2.0), (-2.0, 2.0)], 2),
        w_basis=nn.fourier_basis((2.0, 1.0)),
        gain=1.5, kappa=0.1, kappa0=0.2, kappaw=0.3)
    initial = dyn.FleetState(agents=np.column_stack([pos, rng.uniform(-0.5, 0.5, n)]),
                             leader=np.array([0.3, 0.1]))
    return sim.Scenario(topology=topo, agent_models=models, leader_model=leader,
                        gains=gains, offsets=ref.zero_offsets(n, 2), nn_config=cfg,
                        initial=initial, duration=0.01, dt=1e-3, record_stride=5)


class TestRun:
    def test_zero_duration_single_record(self):
        scenario = dataclasses.replace(small_scenario(), duration=0.0)
        trace = ref.run(scenario)
        assert trace.aborted is None
        assert trace.times.size == 1
        assert np.array_equal(trace.agents[0], scenario.initial.agents)
        assert np.array_equal(trace.leader[0], scenario.initial.leader)
        # recorded synchronization errors match the per-agent operation
        for k in (1, 2):
            e_k = ref.sync_error(k, scenario.initial, scenario.topology, scenario.offsets)
            assert trace.errors[0, :, k - 1] == pytest.approx(e_k, abs=1e-14)

    def test_overflowing_expression_aborts(self):
        model = dyn.AgentModel(drift=dyn.compile_state_expression("exp(s**2)", 2),
                               disturbance=dyn.constant_disturbance(0.0))
        base = small_scenario(duration=3.0)
        scenario = dataclasses.replace(
            base,
            agent_models=(model, base.agent_models[1]),
            initial=dyn.FleetState(agents=np.array([[3.0, 5.0], [0.0, 0.0]]),
                                   leader=np.array([0.0, 0.0])),
        )
        trace = ref.run(scenario)
        assert trace.aborted is not None

    def test_two_runs_bitwise_identical(self):
        scenario = small_scenario(duration=0.2)
        t1 = ref.run(scenario)
        t2 = ref.run(scenario)
        assert np.array_equal(t1.agents, t2.agents)
        assert np.array_equal(t1.controls, t2.controls)
        assert np.array_equal(t1.weight_norms, t2.weight_norms)
        assert t1.aborted is None and t2.aborted is None

    @pytest.mark.parametrize("stride", [1, 5, 7, 50, 60])
    def test_record_count_is_the_records_a_run_writes(self, stride):
        scenario = dataclasses.replace(small_scenario(), record_stride=stride)
        assert ref.record_count(scenario) == ref.run(scenario).times.size

    def test_records_at_stride_and_final(self):
        scenario = small_scenario(duration=0.102)  # 102 steps, stride 5
        trace = ref.run(scenario)
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(0.102)
        assert trace.times.size == 22  # t=0, 20 strides, final partial step

    @pytest.mark.parametrize("duration, dt, steps", [
        (0.3, 0.1, 3), (0.7, 0.1, 7), (0.102, 0.001, 102), (1.0, 1 / 3, 3)])
    def test_a_whole_number_of_steps_passes_the_rounding_of_its_ratio(self, duration, dt, steps):
        # 0.3 / 0.1 is 2.9999999999999996 in floats
        scenario = dataclasses.replace(small_scenario(), duration=duration, dt=dt)
        assert ref.run(scenario).times[-1] == pytest.approx(steps * dt)

    def test_weight_breaker_aborts(self, monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_BREAKER", 1e-6)
        trace = ref.run(small_scenario(duration=1.0))
        assert trace.aborted is not None and "circuit breaker" in trace.aborted
        assert trace.times.size >= 1

    def test_weight_breaker_names_the_agent_and_the_family(self, monkeypatch):
        monkeypatch.setattr(nn, "WEIGHT_BREAKER", 1e-9)
        scenario, _ = sio.load_scenario("builtin:vehicle_platoon")
        trace = ref.run(dataclasses.replace(scenario, duration=0.05))
        found = re.fullmatch(r"(drift|disturbance|leader) weight norm (\S+) of agent (\d+) "
                             r"exceeds circuit breaker at t=(\S+)", trace.aborted)
        assert found, trace.aborted
        family, norm, agent, t = found.groups()
        norms = trace.weight_norms[-1]   # (N, 3) at the record that tripped the breaker
        named = norms[int(agent) - 1, sim.WEIGHT_FAMILIES.index(family)]
        assert named == norms.max() > 1e-9
        assert float(norm) == pytest.approx(named, rel=1e-3)
        assert float(t) == pytest.approx(trace.times[-1])

    def test_blowup_aborts_with_reason(self):
        # cubic antidamping: finite-time escape; the run must record an abort
        model = dyn.AgentModel(drift=dyn.compile_state_expression("v**3 + 1", 2),
                               disturbance=dyn.constant_disturbance(0.0))
        base = small_scenario(duration=5.0)
        scenario = dataclasses.replace(
            base,
            agent_models=(model, base.agent_models[1]),
            gains=dataclasses.replace(base.gains, c=np.array([0.0, 0.0]),
                                      lambda_bar=np.array([1e-3])),
        )
        trace = ref.run(scenario)
        assert trace.aborted is not None
        assert np.all(np.isfinite(trace.agents))

    def test_validation_rejects_isolated_agent(self):
        topo = gr.Topology(adjacency=np.zeros((2, 2)),
                           leader_weights=[1.0, 0.0], nu1=1.0, nu2=1.0)
        with pytest.raises(ValueError, match="spanning tree"):
            dataclasses.replace(small_scenario(), topology=topo)

    def test_validation_rejects_order_one_chains(self):
        # the chain order is the states' width; a library caller may build any
        with pytest.raises(ValueError, match="chain order must be >= 2"):
            dataclasses.replace(
                small_scenario(), initial=dyn.FleetState(agents=[[0.0], [1.0]], leader=[0.5]))


def stacked_variants():
    """small_scenario variants that share one batch key but no gain, weight,
    offset, model or initial state."""
    base = small_scenario(duration=0.2)
    g, cfg = base.gains, base.nn_config
    directed = gr.Topology(adjacency=[[0, 2.0], [0.5, 0]], leader_weights=[1.0, 0.3],
                           nu1=1.0, nu2=1.5, undirected=False)
    expr_model = dyn.AgentModel(drift=dyn.compile_state_expression("-0.4*v + 0.2*sin(s)", 2),
                                disturbance=dyn.sinusoid_disturbance(0.1, 3.0))
    builtin = dyn.AgentModel(drift=dyn.BUILTIN_AGENT_DRIFTS["platoon_agent_2"](1500.0),
                             disturbance=dyn.constant_disturbance(-0.2))
    return [
        base,
        dataclasses.replace(base, gains=dataclasses.replace(g, psi_ij=0.3, chi=1.3, gamma1=0.2)),
        dataclasses.replace(base, gains=dataclasses.replace(
            g, obstacles=np.array([-0.1]), detect_radius=0.9, gamma0=2.0,
            lambda_bar=np.array([3.0]), c=np.array([0.5, 0.25]))),
        dataclasses.replace(base, nn_config=dataclasses.replace(cfg, kappa=0.7, gain=3.0, kappaw=0.05)),
        dataclasses.replace(base, topology=directed, agent_models=(expr_model, builtin),
                            leader_model=dyn.LeaderModel(drift=dyn.compile_state_expression(
                                "0.3*cos(t) - 0.1*s", 2))),
        dataclasses.replace(base, offsets=ctl.Offsets(per_agent=np.array([[0.0, 0.1], [0.2, 0.0]]),
                                                      leader=np.zeros(2)),
                            initial=dyn.FleetState(agents=np.array([[0.9, 0.0], [0.0, -0.4]]),
                                                   leader=np.array([1.0, 0.0]))),
    ]


def crowded_variants():
    """crowded_scenario with psi_ij reaching 1, 4 and 6+ sorted neighbours:
    the first variant's scan stops before the others'."""
    base = crowded_scenario()
    g = base.gains
    return [dataclasses.replace(base, gains=dataclasses.replace(g, psi_ij=0.1)),
            base,
            dataclasses.replace(base, gains=dataclasses.replace(
                g, psi_ij=12.0, chi=0.2, obstacles=np.array([1.0, 9.0, 33.0])))]


class TestWorkspace:
    def test_recorded_arrays_outlive_later_evaluations(self):
        scenario = small_scenario()
        ctx = fld._SimContext([scenario])
        y = sim.initial_state(scenario)
        y[4:] = np.linspace(-0.4, 0.4, y.size - 4)
        # agents, leader, u, errors, r and rel_errors, as the record keeps them
        kept = ctx.record(y, 0.37)[1:7]
        before = [a.tobytes() for a in kept]
        other = y * 1.5 - 0.2
        ctx.evaluate(other, 0.5)
        ctx.field(other, 0.5)
        assert [a.tobytes() for a in kept] == before
        fresh_ctx = fld._SimContext([scenario])
        fresh_ctx.evaluate(y, 0.37)
        fresh = (fresh_ctx.agents, fresh_ctx.leader, fresh_ctx.u, fresh_ctx.errors,
                 fresh_ctx.r, fresh_ctx.rel_errors)
        assert [a.tobytes() for a in fresh] == before

    def test_the_field_after_a_record_equals_a_fresh_field(self):
        scenario = small_scenario()
        ctx = fld._SimContext([scenario])
        y = sim.initial_state(scenario)
        y[4:] = np.linspace(-0.4, 0.4, y.size - 4)
        expected = fld._SimContext([scenario]).field(y, 0.37)
        ctx.record(y, 0.37)
        assert ctx.field(y, 0.37).tobytes() == expected.tobytes()
        # the evaluation serves one call, at the recorded state and time only
        ctx.record(y, 0.37)
        moved = y.copy()
        moved[0] += 0.25
        assert ctx.field(moved, 0.37).tobytes() == \
            fld._SimContext([scenario]).field(moved, 0.37).tobytes()
        ctx.record(y, 0.37)
        assert ctx.field(y, 0.38).tobytes() == \
            fld._SimContext([scenario]).field(y, 0.38).tobytes()

    def test_a_zero_pair_distance_is_written_as_a_positive_zero(self):
        # agent 0 at +0.0 and agent 1 at -0.0: a stable sort keeps that order,
        # whose gap is -0.0; the record writes every zero gap as 0.0
        scenario = small_scenario(duration=0.0)
        scenario = dataclasses.replace(scenario, initial=dyn.FleetState(
            agents=np.array([[0.0, 0.1], [-0.0, -0.2]]), leader=scenario.initial.leader))
        trace = ref.run(scenario)
        assert trace.min_pair_distance.tolist() == [0.0]
        assert math.copysign(1.0, trace.min_pair_distance[0]) == 1.0

    def test_each_step_computes_four_evaluations(self, monkeypatch):
        # the step after a record takes its first stage from the record's
        # evaluation: 50 steps and 6 records compute 4 * 50 + 1, not 4 * 50 + 6
        computed = []
        init = fld._SimContext.__init__

        def counting_init(ctx, scenarios):
            init(ctx, scenarios)
            bases = ctx.state_bases
            ctx.state_bases = lambda chains: computed.append(1) or bases(chains)
        monkeypatch.setattr(fld._SimContext, "__init__", counting_init)
        scenario, _ = sio.load_scenario("builtin:close_pair")
        trace = ref.run(dataclasses.replace(scenario, duration=0.05, record_stride=10))
        assert trace.times.size == 6 and trace.aborted is None
        assert len(computed) == 201


class TestRunMany:
    @pytest.mark.parametrize("make", [stacked_variants, crowded_variants])
    def test_stacked_field_matches_oracles_per_variant(self, make):
        variants = make()
        ctx = fld._SimContext(variants)
        rng = np.random.default_rng(21)
        y = sim.initial_state(*variants)
        blocks = ctx.layout.split(y)
        for b in blocks[2:]:
            b[...] = rng.normal(scale=0.5, size=b.shape)   # the weights, through the views
        d_blocks = ctx.layout.split(ctx.field(y, 0.61))
        assert ctx.faults == {}
        for k, scenario in enumerate(variants):
            assert_variant_matches_oracles(scenario, blocks, d_blocks, k, 0.61)

    def test_traces_equal_solo_runs_with_a_raising_variant(self):
        variants = stacked_variants()
        base = variants[0]
        def fragile(x, t):
            if t > 0.05:
                raise ValueError("math domain error")
            return -0.1 * x[1]

        raising = dataclasses.replace(base, agent_models=(
            base.agent_models[0], dataclasses.replace(base.agent_models[1], drift=fragile)))
        variants.insert(2, raising)
        assert len({fld.batch_key(v) for v in variants}) == 1
        traces = ref.run_many(variants)
        for variant, trace in zip(variants, traces):
            solo = ref.run(variant)
            assert trace.aborted == solo.aborted
            for f in dataclasses.fields(sim.Trace):
                if f.name != "aborted":
                    assert np.array_equal(getattr(trace, f.name), getattr(solo, f.name)), f.name
        # the obstacle variant's core push overflows agent 2's lambda drift early
        assert [trace.aborted for trace in traces] == [
            None, None, "model evaluation failed at t=0.05: math domain error",
            "non-finite drift of agent 2 at t=0.005", None, None, None]
        assert traces[2].times[-1] == 0.05 and traces[0].times[-1] == 0.2

    def test_aborted_variant_leaves_the_state_finite(self, monkeypatch):
        # the obstacle variant's drift turns non-finite at t=0.005; its blocks
        # are reset, so the fast finiteness check holds on every later step
        finite = []
        rk4_step = sim.rk4_step
        monkeypatch.setattr(sim, "rk4_step", lambda f, y, t, dt: finite.append(
            bool(np.isfinite(y).all())) or rk4_step(f, y, t, dt))
        variants = stacked_variants()
        traces = ref.run_many(variants)
        assert traces[2].aborted == "non-finite drift of agent 2 at t=0.005"
        assert len(finite) == 200 and all(finite)
        for variant, trace in zip(variants, traces):
            if trace.aborted is None:
                assert np.array_equal(trace.agents, ref.run(variant).agents)

    def test_non_finite_state_names_the_agent_and_the_block(self):
        # gains.c = 1e300 overflows agent 1's chain in the first step; the
        # other variant runs on as it does alone
        base, _ = sio.load_scenario("builtin:close_pair")
        base = dataclasses.replace(base, duration=0.05)
        blowup = dataclasses.replace(
            base, gains=dataclasses.replace(base.gains, c=np.array([1e300, 1e300])))
        traces = ref.run_many([base, blowup])
        assert [trace.aborted for trace in traces] == [
            None, "non-finite state of agent 1 (chain) at t=0.001"]
        assert traces[1].times.tolist() == [0.0]
        alone = ref.run(base)
        for name in ("agents", "leader", "weight_norms"):
            assert np.array_equal(getattr(traces[0], name), getattr(alone, name)), name

    def test_non_finite_state_names_the_first_non_finite_rate(self):
        # nn.F = 1e308 makes the disturbance weights' rate non-finite at the
        # first stage; the later stages carry it into agent 1's chain.  The
        # abort names both, and the variant that runs on keeps its bits
        base, _ = sio.load_scenario("builtin:close_pair")
        base = dataclasses.replace(base, duration=0.05)
        blowup = dataclasses.replace(base, nn_config=dataclasses.replace(base.nn_config, gain=1e308))
        traces = ref.run_many([blowup, base])
        reason = ("non-finite state of agent 1 (chain) at t=0.001; "
                  "first non-finite rate: agent 1 (disturbance weights)")
        assert [trace.aborted for trace in traces] == [reason, None]
        assert ref.run(blowup).aborted == reason
        alone = ref.run(base)
        for f in dataclasses.fields(sim.Trace):
            if f.name != "aborted":
                assert np.array_equal(getattr(traces[1], f.name), getattr(alone, f.name)), f.name

    @pytest.mark.parametrize("block, index, part", [
        (0, (1, 2, 1), "agent 3 (chain)"),
        (1, (1, 0), "the leader (chain)"),
        (2, (1, 1, 4), "agent 2 (drift weights)"),
        (3, (1, 0, 0), "agent 1 (disturbance weights)"),
        (4, (1, 2, 3), "agent 3 (leader weights)"),
    ])
    def test_non_finite_part_in_layout_order(self, block, index, part):
        layout = fld.StateLayout(n_agents=3, order=2, p_f=9, p_w=5, p_l=9, n_variants=2)
        y = np.zeros(layout.size)
        blocks = layout.split(y)
        blocks[block][index] = np.nan
        blocks[4][1, -1, -1] = np.inf   # the variant's last entry
        blocks[min(block, 3)][(0,) + index[1:]] = np.inf   # the other variant
        assert sim._nonfinite_part(blocks, 1) == part
        assert sim._nonfinite_part(layout.split(np.zeros(layout.size)), 1) is None

    def test_structures_that_differ_are_refused(self):
        base = small_scenario()
        with pytest.raises(ValueError, match="batch_key"):
            ref.run_many([base, dataclasses.replace(base, dt=2e-3)])


def synthetic_trace(times, delta1, delta2=None):
    """Trace scaffold with one agent and prescribed first-order rel errors."""
    t = np.asarray(times, dtype=float)
    n_rec = t.size
    rel = np.zeros((n_rec, 1, 2))
    rel[:, 0, 0] = delta1
    if delta2 is not None:
        rel[:, 0, 1] = delta2
    zeros = np.zeros((n_rec, 1, 2))
    return sim.Trace(
        times=t, agents=zeros.copy(), leader=np.zeros((n_rec, 2)),
        controls=np.zeros((n_rec, 1)), errors=zeros.copy(), r=np.zeros((n_rec, 1)),
        rel_errors=rel, weight_norms=np.zeros((n_rec, 1, 3)),
        min_pair_distance=np.full(n_rec, np.inf),
        min_obstacle_distance=np.full(n_rec, np.inf),
    )


class TestMetrics:
    def test_constant_zero_trace(self):
        trace = synthetic_trace(np.linspace(0, 5, 51), np.zeros(51))
        out = sim.metrics(trace)
        assert out["ultimate_bound"] == [0.0, 0.0]
        assert out["settling_time"] == 0.0

    def test_exponential_decay_settling_matches_analytic(self):
        times = np.linspace(0.0, 10.0, 1001)   # stride 0.01
        amp, rate = 2.0, 0.5
        trace = synthetic_trace(times, amp * np.exp(-rate * times))
        out = sim.metrics(trace)
        b_hat = amp * math.exp(-rate * 8.0)
        assert out["ultimate_bound"][0] == pytest.approx(b_hat, rel=1e-12)
        # analytic crossing of 1.1 * b_hat
        t_star = 8.0 - math.log(1.1) / rate
        assert abs(out["settling_time"] - t_star) <= 0.01 + 1e-9

    def test_settling_time_equals_the_backward_scan(self):
        rng = np.random.default_rng(17)
        times = np.cumsum(rng.uniform(0.01, 0.1, size=15))
        patterns = [rng.random(15) < p for p in (0.2, 0.5, 0.8, 0.95) for _ in range(25)]
        patterns += [np.ones(15, dtype=bool), np.zeros(15, dtype=bool),
                     np.arange(15) < 14,                  # only the last record fails
                     np.ones(1, dtype=bool), np.zeros(1, dtype=bool)]
        for ok in patterns:
            t = times[:ok.size]
            assert sim.settling_time(t, ok).hex() == ref.settling_time(t, ok).hex(), ok

    def test_settling_time_with_nan_norms(self):
        # a NaN norm is never within the bound; one in the window makes the
        # bound NaN, so no record is
        times = np.linspace(0.0, 1.0, 11)
        for nan_at, ok in ((3, np.arange(11) != 3), (10, np.zeros(11, dtype=bool))):
            delta1 = np.zeros(11)
            delta1[nan_at] = math.nan
            got = sim.metrics(synthetic_trace(times, delta1))["settling_time"]
            assert got.hex() == ref.settling_time(times, ok).hex()
        assert sim.metrics(synthetic_trace(times, np.where(times < 0.35, math.nan, 0.0))
                           )["settling_time"] == times[4]

    def test_empty_trace_raises(self):
        trace = synthetic_trace(np.zeros(0), np.zeros(0))
        with pytest.raises(sim.EmptyTrace):
            sim.metrics(trace)

    def test_aborted_trace_rejected(self):
        trace = synthetic_trace(np.linspace(0, 1, 11), np.zeros(11))
        trace.aborted = "boom"
        with pytest.raises(ValueError, match="aborted"):
            sim.metrics(trace)

    def test_bundled_pair_scenario_keeps_positive_distance(self, bundled):
        out = sim.metrics(bundled.trace("close_pair"))
        assert out["min_pair_distance"] > 0.0


def bits(value):
    """A summary with every float as its hex form: equal only when bitwise equal."""
    if isinstance(value, dict):
        return {key: bits(v) for key, v in value.items()}
    if isinstance(value, list):
        return [bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def random_trace(rng, n_agents, order, records):
    """A Trace of random fields: E_i0 over many magnitudes, increasing times."""
    def field(*shape):
        return rng.standard_normal((records,) + shape) * 10.0 ** rng.integers(-8, 8, (records,) + shape)
    return sim.Trace(
        times=np.cumsum(rng.uniform(0.001, 0.1, records)), agents=field(n_agents, order),
        leader=field(order), controls=field(n_agents), errors=field(n_agents, order),
        r=field(n_agents), rel_errors=field(n_agents, order),
        weight_norms=np.abs(field(n_agents, 3)), min_pair_distance=np.abs(field()),
        min_obstacle_distance=np.abs(field()))


class TestSummaryFold:
    """The fold over records against the whole-trace oracle, bit for bit."""

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("n_agents", [1, 2, 5, 8, 9, 200])
    @pytest.mark.parametrize("records", [1, 2, 37])
    def test_random_traces(self, n_agents, order, records):
        rng = np.random.default_rng(1000 * n_agents + 10 * order + records)
        trace = random_trace(rng, n_agents, order, records)
        assert bits(sim.metrics(trace)) == bits(ref.metrics(trace))

    @pytest.mark.parametrize("n_agents", [1, 9])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_traces_with_non_finite_values(self, n_agents, value):
        rng = np.random.default_rng(7)
        for i, j, k in [(0, 0, 0), (20, n_agents - 1, 1), (36, 0, 1)]:
            trace = random_trace(rng, n_agents, 2, 37)
            trace.rel_errors[i, j, k] = value
            trace.min_pair_distance[i] = abs(value)
            trace.min_obstacle_distance[36 - i] = abs(value)
            assert bits(sim.metrics(trace)) == bits(ref.metrics(trace)), (i, j, k)

    @pytest.mark.parametrize("name", ["vehicle_platoon", "close_pair", "obstacle_gate",
                                      "close_pair:no_avoidance"])
    def test_bundled_runs(self, bundled, name):
        trace = bundled.trace(name)
        assert bits(sim.metrics(trace)) == bits(ref.metrics(trace))

    def test_a_sink_folds_each_variant_as_its_trace_gives(self):
        variants = stacked_variants()
        summaries = [sim.Summary() for _ in variants]

        def sink(record, live):
            for k in live:
                summaries[k].add(record, k)
        aborted = sim.run_many(variants, sink)
        traces = ref.run_many(variants)
        assert aborted == [trace.aborted for trace in traces]
        for summary, trace in zip(summaries, traces):
            if trace.aborted is None:
                assert bits(summary.result()) == bits(ref.metrics(trace))
            assert summary.times == trace.times.tolist()


class TestTraceCap:
    def test_a_sink_streams_a_trace_beyond_the_cap(self):
        # the records a sink is handed are the rows of the collected trace
        scenario = small_scenario(duration=0.1)
        trace = ref.run(scenario)
        records = []
        assert sim.run(scenario, lambda record, live: records.append(record)) is None
        for name in sim.Record._fields:
            assert np.array_equal(np.concatenate([getattr(r, name) for r in records]),
                                  getattr(trace, name)), name


class TestBoundedness:
    def test_fleet_states_stay_within_ten_times_initial_envelope(self, bundled):
        trace = bundled.trace("vehicle_platoon")
        scenario = bundled.scenario("vehicle_platoon")
        envelope = max(np.linalg.norm(scenario.initial.agents, axis=1).max(),
                       np.linalg.norm(scenario.initial.leader), 1.0)
        agent_norms = np.linalg.norm(trace.agents, axis=2)
        leader_norms = np.linalg.norm(trace.leader, axis=1)
        assert agent_norms.max() <= 10.0 * envelope
        assert leader_norms.max() <= 10.0 * envelope


def leader_only_platoon():
    """The bundled platoon with no follower edges and every pinning weight 1,
    whose mu1 is positive."""
    scenario, _ = sio.load_scenario("builtin:vehicle_platoon")
    n = scenario.topology.n_agents
    topo = gr.Topology(adjacency=np.zeros((n, n)), leader_weights=np.ones(n))
    return dataclasses.replace(scenario, topology=topo)


def det_cofactor(matrix):
    """Textbook cofactor expansion along the first row."""
    m = [list(map(float, row)) for row in matrix]
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0.0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += ((-1.0) ** j) * m[0][j] * det_cofactor(minor)
    return total


class TestCuubDiagnostics:
    def test_diagonal_case_positive_definite(self):
        k = cuub.assemble_k_matrix(2.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0)
        minors = cuub.sylvester_minors(k)
        assert np.all(minors > 0)

    def test_worked_instance_against_cofactor_oracle(self):
        k = cuub.assemble_k_matrix(2.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 1.0)
        minors = cuub.sylvester_minors(k)
        for m in range(1, 6):
            oracle = det_cofactor(k[:m, :m])
            assert minors[m - 1] == pytest.approx(oracle, abs=1e-12)
        assert np.all(minors > 0)

    def test_bd_hand_arithmetic(self):
        omega_l1 = 1.0 * 1.0 + 1.0 * 1.0 + 1.0 * 1.0 + 1.0   # kappas=1, thetas=1, Lambda=1
        assert cuub.bd_value(omega_l1, 0.5) == pytest.approx(8.0)

    def test_bd_guard_on_singular_k(self):
        assert cuub.bd_value(1.0, 0.0) == math.inf

    @pytest.mark.parametrize("alpha_bar", [0.0, -1.0])
    def test_alpha_bar_must_be_positive(self, alpha_bar):
        with pytest.raises(gr.FieldError) as info:
            cuub.CuubBounds(alpha_bar=alpha_bar)
        assert info.value.field == "alpha_bar"

    def test_full_report_single_agent(self):
        topo = gr.Topology(adjacency=[[0.0]], leader_weights=[1.0],
                           nu1=1.0, nu2=1.0)
        gains = ctl.ControlGains(lambda_bar=np.array([2.0]), c=np.array([1.0, 1.0]),
                                 chi=1.0, psi_ij=0.5, psi_i0=0.5,
                                 detect_radius=1.0, obstacle_radius=0.3, alpha_bar=1.0)
        bounds = cuub.CuubBounds(beta=1.0, kappa=1.0, kappaw=1.0, kappa0=1.0)
        report = cuub.cuub_diagnostics(bounds, topo, gains)
        # A = 0: all coupling terms except g vanish; g = -sigma_max(P1)/2 = -1/8
        assert report.graph_quantities["sigma_max_A"] == 0.0
        assert report.graph_quantities["g"] == pytest.approx(-0.125)
        assert report.mu1 == pytest.approx(1.0)   # sigma_min(Q)/2 = 1
        assert report.positive_definite
        assert report.failure is None
        # omega reduces to (0, kappa*0, ..., Lambda) with Lambda = 0 here
        assert report.omega_l1 == pytest.approx(0.0)
        assert report.b_d == pytest.approx(0.0)

    def test_every_bound_moves_the_report(self):
        # a bound that no value of the report reads is a setting that does nothing
        def numbers(value):
            if isinstance(value, dict):
                return [x for v in value.values() for x in numbers(v)]
            if value is None or isinstance(value, str):
                return []
            return np.ravel(np.asarray(value, dtype=float)).tolist()

        scenario, doc = sio.load_scenario("builtin:vehicle_platoon")
        base = sio.parse_bounds(doc["bounds"], scenario)

        def report(bounds):
            return numbers(dataclasses.asdict(
                cuub.cuub_diagnostics(bounds, scenario.topology, scenario.gains)))
        before = report(base)
        unmoved = []
        for f in dataclasses.fields(cuub.CuubBounds):
            value = getattr(base, f.name)
            value = 2.0 * (scenario.gains.alpha_bar if value is None else value) + 1.0
            if np.array_equal(report(dataclasses.replace(base, **{f.name: value})), before,
                              equal_nan=True):
                unmoved.append(f.name)
        assert unmoved == []

    def test_mu1_violation_fails_fifth_minor(self):
        topo = gr.Topology(adjacency=[[0, 1], [1, 0]],
                           leader_weights=[1.0, 0.0], nu1=1.0, nu2=1.0)
        # a huge lambda_bar norm drives h up and mu1 far below its requirement
        gains = ctl.ControlGains(lambda_bar=np.array([50.0]), c=np.array([1.0, 1.0]),
                                 chi=1.0, psi_ij=0.5, psi_i0=0.5,
                                 detect_radius=1.0, obstacle_radius=0.3, alpha_bar=1.0)
        bounds = cuub.CuubBounds(beta=1.0, kappa=1.0, kappaw=1.0, kappa0=1.0)
        report = cuub.cuub_diagnostics(bounds, topo, gains)
        assert not report.positive_definite
        assert report.first_failing_minor == 5
        assert report.mu1 < report.mu1_required
        assert "NotPositiveDefinite" in report.failure

    @pytest.mark.parametrize("leader_only", [False, True])
    def test_schur_identity_of_k(self, leader_only):
        # K's leading 4x4 block is diagonal, so det K = beta/2 kappa kappa_w
        # kappa_0 (mu1 - mu1_required), whatever the bound constants are
        scenario = (leader_only_platoon() if leader_only
                    else sio.load_scenario("builtin:vehicle_platoon")[0])
        rng = np.random.default_rng(22)
        names = [f.name for f in dataclasses.fields(cuub.CuubBounds) if f.name != "alpha_bar"]
        for _ in range(50):
            bounds = cuub.CuubBounds(**dict(zip(names, 10.0 ** rng.uniform(-3, 3, len(names)))))
            report = cuub.cuub_diagnostics(bounds, scenario.topology, scenario.gains)
            diag = bounds.beta / 2.0 * bounds.kappa * bounds.kappaw * bounds.kappa0
            schur = diag * (report.mu1 - report.mu1_required)
            # relative to the two terms, which may cancel when mu1 > 0
            scale = diag * (abs(report.mu1) + report.mu1_required)
            assert abs(np.linalg.det(report.k_matrix) - schur) <= 1e-9 * scale
            assert abs(report.minors[4] - schur) <= 1e-9 * scale
            assert report.positive_definite == (report.mu1 > report.mu1_required)
