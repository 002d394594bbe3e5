"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass/fail line
per criterion.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from consensus_lab import cli
from consensus_lab import controller as ctl
from consensus_lab import cuub
from consensus_lab import dynamics as dyn
from consensus_lab import estimator as nn
from consensus_lab import graph as gr
from consensus_lab import sim

import oracles as ref


class criterion:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        print(f"[{'FAIL' if exc_type else 'PASS'}] {self.name}")
        return False


def random_undirected_pinned(rng, n):
    adj = np.zeros((n, n))
    order = rng.permutation(n)
    for idx in range(1, n):
        child, parent = order[idx], order[rng.integers(0, idx)]
        w = rng.uniform(0.5, 2.0)
        adj[child, parent] = adj[parent, child] = w
    for _ in range(int(rng.integers(0, n))):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w = rng.uniform(0.5, 2.0)
            adj[i, j] = adj[j, i] = w
    b = np.zeros(n)
    b[order[0]] = rng.uniform(0.5, 2.0)
    for i in range(n):
        if rng.random() < 0.3:
            b[i] = rng.uniform(0.5, 2.0)
    return gr.Topology(adjacency=adj, leader_weights=b,
                       nu1=rng.uniform(0.5, 2.0), nu2=rng.uniform(0.5, 2.0))


def two_cluster_unpinned(rng):
    """Two disjoint connected clusters; the second never hears the leader."""
    n1, n2 = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    n = n1 + n2
    adj = np.zeros((n, n))
    for base, size in ((0, n1), (n1, n2)):
        nodes = base + rng.permutation(size)
        for idx in range(1, size):
            child, parent = nodes[idx], nodes[rng.integers(0, idx)]
            w = rng.uniform(0.5, 2.0)
            adj[child, parent] = adj[parent, child] = w
    b = np.zeros(n)
    b[rng.integers(0, n1)] = rng.uniform(0.5, 2.0)
    return gr.Topology(adjacency=adj, leader_weights=b,
                       nu1=1.0, nu2=1.0)


@pytest.fixture(scope="module")
def lemma_graphs():
    rng = np.random.default_rng(2024)
    return [random_undirected_pinned(rng, int(rng.integers(2, 9))) for _ in range(100)]


def test_lemma3_property_suite(lemma_graphs):
    with criterion("Lemma 3: q > 0 and Q > 0 on 100 pinned topologies in < 10 s"):
        start = time.perf_counter()
        for topo in lemma_graphs:
            assert gr.has_leader_spanning_tree(topo)
            lyap = gr.graph_lyapunov(topo)
            assert np.all(lyap.q > 0)
            assert lyap.min_eig_q > 1e-10
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"suite took {elapsed:.2f} s"


def test_lemma1_property_suite(lemma_graphs):
    with criterion("Lemma 1: pinned Laplacian nonsingular; leader-cut clusters detected"):
        for topo in lemma_graphs:
            cond = np.linalg.cond(gr.pinned_laplacian(topo))
            assert np.isfinite(cond)
        rng = np.random.default_rng(77)
        for _ in range(50):
            topo = two_cluster_unpinned(rng)
            tree_failed = not gr.has_leader_spanning_tree(topo)
            solve_singular = False
            try:
                gr.graph_lyapunov(topo)
            except gr.SingularPinnedLaplacian:
                solve_singular = True
            except gr.NonPositiveQ:
                solve_singular = True  # also a rejection of the certificate
            assert tree_failed or solve_singular
            assert tree_failed  # by construction the check fails first


def test_error_form_oracle():
    with criterion("sync_error equals -(nu1 L + nu2 B)(xbar - xbar0) to 1e-12 on 100 fleets"):
        rng = np.random.default_rng(5150)
        for _ in range(100):
            n_agents = int(rng.integers(2, 9))
            topo = random_undirected_pinned(rng, n_agents)
            order = int(rng.integers(2, 5))
            fleet = dyn.FleetState(agents=rng.normal(scale=3.0, size=(n_agents, order)),
                                   leader=rng.normal(scale=3.0, size=order))
            offsets = ctl.Offsets(per_agent=rng.normal(size=(n_agents, order)),
                                  leader=rng.normal(size=order))
            pounds = gr.pinned_laplacian(topo)
            for k in range(1, order + 1):
                xbar = fleet.agents[:, k - 1] - offsets.per_agent[:, k - 1]
                xbar0 = fleet.leader[k - 1] - offsets.leader[k - 1]
                oracle = -pounds @ (xbar - xbar0)
                got = ref.sync_error(k, fleet, topo, offsets)
                assert np.max(np.abs(got - oracle)) <= 1e-12


def test_lyapunov_solve():
    with criterion("companion Lyapunov: residual <= 1e-10 and P1 > 0 on 50 random gains"):
        rng = np.random.default_rng(99)
        for _ in range(50):
            order = int(rng.integers(2, 6))            # n in {2..5}
            lam = ctl.hurwitz_lambda(rng.uniform(0.2, 5.0, size=order - 1))
            alpha_bar = rng.uniform(0.5, 4.0)
            p1 = ctl.lyapunov_P1(lam, alpha_bar)
            delta = ctl.companion(lam)
            residual = np.linalg.norm(
                delta.T @ p1 + p1 @ delta + alpha_bar * np.eye(order - 1), "fro")
            assert residual <= 1e-10
            assert np.linalg.eigvalsh(p1)[0] > 0


def test_integrator_order():
    with criterion("RK4: error at dt=1e-3 <= 1e-6; halving ratio in [12, 20]"):
        def global_error(dt):
            y = np.array([1.0])
            for k in range(int(round(1.0 / dt))):
                y = sim.rk4_step(lambda y, t: -y, y, k * dt, dt)
            return abs(y[0] - math.exp(-1.0))

        assert global_error(1e-3) <= 1e-6
        # ratio measured at dt=1e-2 where truncation still dominates rounding
        # (at 1e-3 the global error is ~4e-15, below accumulated roundoff)
        ratio = global_error(1e-2) / global_error(5e-3)
        assert 12.0 <= ratio <= 20.0


def test_fleet_reproduction(bundled):
    with criterion("bundled fleet, 40 s: position errors decay >= 90%, bounded weights"):
        trace = bundled.trace("vehicle_platoon")
        elapsed = bundled.elapsed("vehicle_platoon")
        assert elapsed < 60.0, f"run took {elapsed:.1f} s"
        assert trace.aborted is None
        for arr in (trace.agents, trace.leader, trace.controls, trace.errors,
                    trace.r, trace.rel_errors, trace.weight_norms,
                    trace.min_pair_distance):
            assert np.all(np.isfinite(arr))
        pos_err = np.abs(trace.rel_errors[:, :, 0])      # (T, N)
        peak = pos_err.max(axis=0)
        initial = pos_err[0]
        window = trace.times >= trace.times[0] + 0.8 * (trace.times[-1] - trace.times[0])
        last20 = pos_err[window].max(axis=0)
        assert np.all(last20 <= 0.1 * peak), f"last-20% vs peak: {last20 / peak}"
        assert np.all(last20 <= 0.1 * initial), f"last-20% vs initial: {last20 / initial}"
        assert trace.weight_norms.max() < nn.WEIGHT_BREAKER


def test_avoidance_causality(bundled):
    with criterion("avoidance causality: potentials hold the distance floors"):
        pair_on = bundled.trace("close_pair")
        pair_off = bundled.trace("close_pair:no_avoidance")
        floor = 0.1 * bundled.scenario("close_pair").gains.psi_ij
        assert pair_on.aborted is None and pair_off.aborted is None
        assert pair_on.min_pair_distance.min() >= floor
        assert pair_off.min_pair_distance.min() < floor

        gate_on = bundled.trace("obstacle_gate")
        gate_off = bundled.trace("obstacle_gate:no_avoidance")
        core = bundled.scenario("obstacle_gate").gains.obstacle_radius
        assert gate_on.aborted is None and gate_off.aborted is None
        assert gate_on.min_obstacle_distance.min() > core
        assert gate_off.min_obstacle_distance.min() < gate_on.min_obstacle_distance.min()


def _det_cofactor(m):
    if len(m) == 1:
        return m[0][0]
    total = 0.0
    for j in range(len(m)):
        minor = [row[:j] + row[j + 1:] for row in m[1:]]
        total += ((-1.0) ** j) * m[0][j] * _det_cofactor(minor)
    return total


def test_cuub_diagnostics_oracle():
    with criterion("stability diagnostics: minors match cofactor oracle; B_d arithmetic"):
        k = cuub.assemble_k_matrix(2.0, 1.0, 1.0, 1.0, 0.1, 0.1, 0.1, 0.1, 1.0)
        minors = cuub.sylvester_minors(k)
        for m in range(1, 6):
            oracle = _det_cofactor([list(row) for row in k[:m, :m]])
            assert abs(minors[m - 1] - oracle) <= 1e-12
        assert np.all(minors > 0)
        # omega_l1 = kappa*Theta + kappaw*Thetaw + kappa0*Theta0 + Lambda = 4
        omega_l1 = 1.0 * 1.0 + 1.0 * 1.0 + 1.0 * 1.0 + 1.0
        assert cuub.bd_value(omega_l1, 0.5) == pytest.approx(8.0, abs=1e-15)


def test_determinism(bundled, tmp_path):
    with criterion("two CLI runs of a bundled scenario produce byte-identical trace.csv"):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--scenario", "builtin:close_pair", "--out", str(out1)]) == 0
        assert cli.main(["run", "--scenario", "builtin:close_pair", "--out", str(out2)]) == 0
        bytes1 = (out1 / "trace.csv").read_bytes()
        bytes2 = (out2 / "trace.csv").read_bytes()
        assert bytes1 == bytes2
        for name in cli.FIG_FILES:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
