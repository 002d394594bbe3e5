import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import graph as gr

import oracles as ref


def topo(adj, b, nu1=1.0, nu2=1.0, undirected=True):
    adj = np.asarray(adj, dtype=float)
    return gr.Topology(n_agents=adj.shape[0], adjacency=adj, leader_weights=b,
                       nu1=nu1, nu2=nu2, undirected=undirected)


def random_pinned_topology(rng, n, directed_fraction=0.3):
    """Connected-by-construction pinned topology: random tree plus extra edges."""
    adj = np.zeros((n, n))
    keep = np.zeros((n, n), dtype=bool)  # child-hears-parent links securing reachability
    order = rng.permutation(n)
    for idx in range(1, n):
        child, parent = order[idx], order[rng.integers(0, idx)]
        w = rng.uniform(0.5, 2.0)
        adj[child, parent] = w
        adj[parent, child] = w
        keep[child, parent] = True
    extra = rng.integers(0, n)
    for _ in range(extra):
        i, j = rng.integers(0, n, size=2)
        if i != j:
            w = rng.uniform(0.5, 2.0)
            adj[i, j] = w
            adj[j, i] = w
    directed = rng.random() < directed_fraction
    if directed:
        mask = rng.random((n, n)) < 0.3
        adj = np.where(mask & ~keep, 0.0, adj)
    b = np.zeros(n)
    b[order[0]] = rng.uniform(0.5, 2.0)
    for i in range(n):
        if rng.random() < 0.3:
            b[i] = rng.uniform(0.5, 2.0)
    t = topo(adj, b, nu1=rng.uniform(0.5, 2.0), nu2=rng.uniform(0.5, 2.0),
             undirected=not directed)
    assert gr.has_leader_spanning_tree(t)
    return t


class TestDegreeAndLaplacian:
    def test_degree_symmetric_01(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        assert np.array_equal(gr.degree_matrix(t), np.diag([1.0, 1.0]))

    def test_degree_empty_graph(self):
        t = topo([[0, 0], [0, 0]], [1, 0])
        assert np.array_equal(gr.degree_matrix(t), np.zeros((2, 2)))

    def test_degree_weighted_row_sums(self):
        t = topo([[0, 2, 0], [2, 0, 3], [0, 3, 0]], [1, 0, 0])
        assert np.array_equal(np.diag(gr.degree_matrix(t)), [2.0, 5.0, 3.0])

    def test_laplacian_two_node_chain(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        assert np.array_equal(gr.laplacian(t), [[1, -1], [-1, 1]])

    def test_laplacian_weighted(self):
        t = topo([[0, 2, 0], [2, 0, 3], [0, 3, 0]], [1, 0, 0])
        assert np.array_equal(gr.laplacian(t), [[2, -2, 0], [-2, 5, -3], [0, -3, 3]])

    def test_laplacian_rows_sum_to_zero_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            t = random_pinned_topology(rng, int(rng.integers(2, 9)))
            assert np.max(np.abs(gr.laplacian(t) @ np.ones(t.n_agents))) <= 1e-12

    def test_undirected_laplacian_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            t = random_pinned_topology(rng, int(rng.integers(2, 9)), directed_fraction=0.0)
            eig = np.linalg.eigvalsh(gr.laplacian(t))
            assert eig.min() >= -1e-10
            assert np.allclose(gr.laplacian(t), gr.laplacian(t).T)


class TestTopologyInvariants:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            topo([[0, -1], [1, 0]], [1, 0], undirected=False)

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            topo([[1, 0], [0, 0]], [1, 0])

    def test_rejects_asymmetric_when_undirected(self):
        with pytest.raises(ValueError, match="symmetric"):
            topo([[0, 1], [0.5, 0]], [1, 0])

    def test_rejects_nonpositive_gains(self):
        with pytest.raises(ValueError, match="positive"):
            topo([[0, 1], [1, 0]], [1, 0], nu1=0.0)


class TestSpanningTree:
    def test_chain_from_pinned_node(self):
        assert gr.has_leader_spanning_tree(topo([[0, 1], [1, 0]], [1, 0]))

    def test_isolated_agent(self):
        assert not gr.has_leader_spanning_tree(topo([[0, 0], [0, 0]], [1, 0]))

    def test_no_pinning_at_all(self):
        assert not gr.has_leader_spanning_tree(topo([[0, 1], [1, 0]], [0, 0]))

    def test_bundled_scenario_topology(self):
        from consensus_lab import scenario_io as sio
        scenario, _ = sio.load_scenario("builtin:vehicle_platoon")
        assert gr.has_leader_spanning_tree(scenario.topology)

    def test_directed_reachability_direction_matters(self):
        # agent 1 hears agent 0 (a_10 > 0); leader pins agent 0 only
        t = topo([[0, 0], [1, 0]], [1, 0], undirected=False)
        assert gr.has_leader_spanning_tree(t)
        # reversed edge: agent 1 talks but never listens
        t2 = topo([[0, 1], [0, 0]], [1, 0], undirected=False)
        assert not gr.has_leader_spanning_tree(t2)


class TestPinnedLaplacian:
    def test_single_pinned_agent(self):
        t = topo([[0.0]], [1.0])
        assert np.array_equal(gr.pinned_laplacian(t), [[1.0]])

    def test_two_node_assembly(self):
        t = topo([[0, 1], [1, 0]], [1, 0])
        assert np.array_equal(gr.pinned_laplacian(t), [[2, -1], [-1, 1]])

    def test_unpinned_annihilates_ones(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            t = random_pinned_topology(rng, int(rng.integers(2, 9)), directed_fraction=0.0)
            t0 = gr.Topology(n_agents=t.n_agents, adjacency=t.adjacency,
                             leader_weights=np.zeros(t.n_agents), nu1=t.nu1, nu2=t.nu2)
            assert not gr.has_leader_spanning_tree(t0)
            residual = gr.pinned_laplacian(t0) @ np.ones(t0.n_agents)
            assert np.max(np.abs(residual)) <= 1e-12

    def test_scales_with_gains(self):
        t = topo([[0, 1], [1, 0]], [1, 0], nu1=2.0, nu2=3.0)
        expected = 2.0 * np.array([[1, -1], [-1, 1]]) + 3.0 * np.diag([1.0, 0.0])
        assert np.array_equal(gr.pinned_laplacian(t), expected)


class TestGraphLyapunov:
    def test_scalar_case(self):
        lyap = gr.graph_lyapunov(topo([[0.0]], [1.0]))
        assert np.allclose(lyap.q, [1.0])
        assert np.allclose(lyap.p_diag, [1.0])
        assert np.allclose(lyap.q_matrix, [[2.0]])
        assert lyap.min_eig_q == pytest.approx(2.0)

    def test_two_node_hand_solve(self):
        # pounds = [[2,-1],[-1,1]]: q = (2, 3), P = diag(1/2, 1/3),
        # Q = [[2, -5/6], [-5/6, 2/3]]
        t = topo([[0, 1], [1, 0]], [1, 0])
        lyap = gr.graph_lyapunov(t)
        assert np.allclose(lyap.q, [2.0, 3.0], atol=1e-14)
        assert np.allclose(lyap.p_diag, [0.5, 1.0 / 3.0], atol=1e-14)
        assert np.allclose(lyap.q_matrix, [[2.0, -5.0 / 6.0], [-5.0 / 6.0, 2.0 / 3.0]], atol=1e-14)
        assert lyap.min_eig_q > 0
        # independent dense-solver oracle
        pounds = gr.pinned_laplacian(t)
        q_oracle = np.linalg.solve(pounds, np.ones(2))
        assert np.allclose(lyap.q, q_oracle, atol=1e-13)

    def test_random_topologies_all_positive(self):
        # undirected pinned topologies: the domain where the diagonal
        # certificate provably holds (see the directed counterexample below)
        rng = np.random.default_rng(3)
        for _ in range(100):
            t = random_pinned_topology(rng, int(rng.integers(2, 9)), directed_fraction=0.0)
            lyap = gr.graph_lyapunov(t)
            assert np.all(lyap.q > 0)
            assert lyap.min_eig_q > 0
            # eigensolver oracle on the assembled Q
            oracle = np.linalg.eigvalsh(lyap.q_matrix)[0]
            assert oracle == pytest.approx(lyap.min_eig_q, abs=1e-12)

    def test_directed_reducible_graph_can_fail_certificate(self):
        # Directed graph with a leader spanning tree whose Q is indefinite:
        # the certificate must report NonPositiveQ instead of passing silently.
        adj = np.array([[0.0, 3.787, 0.717],
                        [1.0, 0.0, 0.922],
                        [0.0, 1.0, 0.0]])
        t = gr.Topology(n_agents=3, adjacency=adj, leader_weights=[1.0, 0.0, 0.0],
                        nu1=1.0, nu2=1.0, undirected=False)
        assert gr.has_leader_spanning_tree(t)
        with pytest.raises(gr.NonPositiveQ):
            gr.graph_lyapunov(t)

    def test_singular_when_unpinned(self):
        t = gr.Topology(n_agents=2, adjacency=[[0, 1], [1, 0]],
                        leader_weights=[0.0, 0.0], nu1=1.0, nu2=1.0)
        with pytest.raises(gr.SingularPinnedLaplacian):
            gr.graph_lyapunov(t)


class TestGraphLyapunovAgainstLapack:
    def test_matches_lu_solve_on_random_spanning_trees(self):
        rng = np.random.default_rng(17)
        certified = 0
        for _ in range(300):
            t = random_pinned_topology(rng, int(rng.integers(2, 41)))
            q, p, q_matrix, pivots = ref.graph_lyapunov_lu(t)
            np.testing.assert_allclose(gr._lu_pivots(gr.pinned_laplacian(t)), pivots,
                                       rtol=1e-12, atol=0)
            try:
                lyap = gr.graph_lyapunov(t)
            except gr.NonPositiveQ:
                # only a directed graph may lack the certificate, and then LAPACK agrees
                assert not t.undirected
                assert np.any(q <= 0) or np.linalg.eigvalsh(q_matrix)[0] <= gr.Q_EIG_TOL
                continue
            certified += 1
            np.testing.assert_allclose(lyap.q, q, rtol=1e-12, atol=0)
            np.testing.assert_allclose(lyap.p_diag, p, rtol=1e-12, atol=0)
            np.testing.assert_allclose(lyap.q_matrix, q_matrix, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(q_matrix)))
        assert certified >= 250

    def test_nearly_unpinned_connected_graph_is_singular(self):
        # connected, but the leader is heard with weight 1e-20: solvable in
        # floating point, singular by the pivot-ratio test
        t = topo([[0, 1, 0], [1, 0, 1], [0, 1, 0]], [1e-20, 0, 0])
        assert gr.has_leader_spanning_tree(t)
        with pytest.raises(gr.SingularPinnedLaplacian, match="pivot ratio"):
            gr.graph_lyapunov(t)

    def test_overflowing_laplacian_is_singular(self):
        # finite weights whose degree sums overflow
        t = topo([[0, 1e308, 1e308], [1e308, 0, 0], [1e308, 0, 0]], [1, 0, 0])
        with np.errstate(over="ignore"), pytest.raises(gr.SingularPinnedLaplacian,
                                                       match="float range"):
            gr.graph_lyapunov(t)


class TestProximityAugment:
    def test_out_of_range_unchanged(self):
        t = topo([[0, 0], [0, 0]], [1, 0])
        t2 = gr.proximity_augment(t, np.array([0.0, 10.0]), 1.0)
        assert np.array_equal(t2.adjacency, t.adjacency)

    def test_in_range_connects(self):
        t = topo([[0, 0], [0, 0]], [1, 0])
        t2 = gr.proximity_augment(t, np.array([0.0, 0.5]), 1.0)
        assert t2.adjacency[0, 1] == 1.0 and t2.adjacency[1, 0] == 1.0

    def test_pairwise_table(self):
        t = topo(np.zeros((3, 3)), [1, 0, 0])
        t2 = gr.proximity_augment(t, np.array([0.0, 0.5, 10.0]), 1.0)
        expected = np.zeros((3, 3))
        expected[0, 1] = expected[1, 0] = 1.0
        assert np.array_equal(t2.adjacency, expected)

    def test_preserves_heavier_weights(self):
        t = topo([[0, 3], [3, 0]], [1, 0])
        t2 = gr.proximity_augment(t, np.array([0.0, 0.1]), 1.0)
        assert t2.adjacency[0, 1] == 3.0

    @given(st.lists(st.floats(min_value=-50, max_value=50), min_size=2, max_size=6),
           st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50, deadline=None)
    def test_idempotent(self, states, psi):
        n = len(states)
        t = topo(np.zeros((n, n)), [1.0] + [0.0] * (n - 1))
        states = np.asarray(states)
        once = gr.proximity_augment(t, states, psi)
        twice = gr.proximity_augment(once, states, psi)
        assert np.array_equal(once.adjacency, twice.adjacency)
