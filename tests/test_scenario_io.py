import dataclasses
import json

import numpy as np
import pytest

from consensus_lab import controller as ctl
from consensus_lab import cuub
from consensus_lab import dynamics as dyn
from consensus_lab import scenario_io as sio
from consensus_lab import sim


def minimal_doc():
    return {
        "schema": 1,
        "topology": {"adjacency": [[0, 1], [1, 0]], "leader_weights": [1, 0]},
        "agents": [
            {"drift": {"expr": "0"}, "mass": 1.0},
            {"drift": {"expr": "0"}, "mass": 1.0},
        ],
        "leader": {"drift": {"expr": "0"}},
        "initial_states": {"agents": [[0, 0], [1, 0]], "leader": [0, 0]},
        "gains": {"lambda_xi": [1.0], "c": [2.0, 1.0]},
        "sim": {"duration": 1.0},
    }


class TestParsing:
    def test_minimal_document_parses(self):
        scenario = sio.parse_scenario(minimal_doc())
        assert scenario.topology.n_agents == 2
        assert scenario.duration == 1.0
        assert scenario.dt == 1e-3
        assert scenario.record_stride == sim.RECORD_STRIDE_DEFAULT

    def test_omitted_keys_take_the_dataclass_defaults(self):
        # the minimal document holds no optional key of topology, gains, nn or sim
        scenario = sio.parse_scenario(minimal_doc())
        checked = []
        for obj in (scenario.topology, scenario.gains, scenario.nn_config, scenario):
            for f in dataclasses.fields(obj):
                if f.default is not dataclasses.MISSING:
                    assert np.array_equal(getattr(obj, f.name), f.default), f.name
                    checked.append(f.name)
        assert len(checked) == 3 + 12 + 4 + 2

    def test_given_keys_reach_their_fields(self):
        doc = minimal_doc()
        doc["topology"].update(nu1=2.0, nu2=3.0, undirected=False)
        doc["gains"].update(gamma0=0.1, gamma1=0.2, gamma2=0.3, chi=0.4, psi_ij=0.5,
                            psi_i0=0.6, R=3.0, core_radius=0.7, alpha_bar=0.8)
        doc.update(obstacles=[4.0], strict_decentralized=True, signless_avoidance=True)
        doc["nn"] = {"F": 2.0, "kappa": 0.1, "kappa0": 0.2, "kappaw": 0.3}
        doc["sim"].update(dt=0.01, record_stride=3)
        scenario = sio.parse_scenario(doc)
        topo, gains, cfg = scenario.topology, scenario.gains, scenario.nn_config
        assert (topo.nu1, topo.nu2, topo.undirected) == (2.0, 3.0, False)
        assert (gains.gamma0, gains.gamma1, gains.gamma2, gains.chi, gains.psi_ij, gains.psi_i0,
                gains.detect_radius, gains.obstacle_radius, gains.alpha_bar) == \
            (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 3.0, 0.7, 0.8)
        assert gains.obstacles.tolist() == [4.0]
        assert gains.strict_decentralized and gains.signless_avoidance
        assert (cfg.gain, cfg.kappa, cfg.kappa0, cfg.kappaw) == (2.0, 0.1, 0.2, 0.3)
        assert (scenario.dt, scenario.record_stride) == (0.01, 3)

    def test_builtin_names_with_and_without_prefix(self):
        doc = minimal_doc()
        doc["agents"][0]["drift"] = "builtin:platoon_agent_1"
        doc["agents"][1]["drift"] = "platoon_agent_2"
        doc["leader"]["drift"] = "platoon_leader"
        doc["agents"][1]["mass"] = 1100.0
        doc["leader"]["mass"] = 2000.0
        scenario = sio.parse_scenario(doc)
        # each drift is the builtin built for the mass of its object
        x = np.array([1.3, -0.4])
        for i, (model, mass) in enumerate(zip(scenario.agent_models, [1.0, 1100.0])):
            builtin = dyn.BUILTIN_AGENT_DRIFTS[f"platoon_agent_{i + 1}"](mass)
            assert model.drift(x, 0.7) == builtin(x, 0.7)
        leader = dyn.BUILTIN_LEADER_DRIFTS["platoon_leader"](2000.0)
        assert scenario.leader_model.drift(x, 0.7) == leader(x, 0.7)

    def test_bare_string_expression_drift(self):
        doc = minimal_doc()
        doc["agents"][0]["drift"] = "cos(s) - v"
        scenario = sio.parse_scenario(doc)
        assert scenario.agent_models[0].drift(np.array([0.0, 0.25]), 0.0) == pytest.approx(0.75)

    def test_disturbance_forms(self):
        doc = minimal_doc()
        doc["agents"][0]["disturbance"] = 2.5
        doc["agents"][1]["disturbance"] = {"sinusoid": {"amp": 3.0, "freq": 2.0}}
        scenario = sio.parse_scenario(doc)
        assert scenario.agent_models[0].disturbance(10.0) == 2.5
        assert scenario.agent_models[1].disturbance(0.0) == 0.0

    def test_proximity_augment_at_load(self):
        doc = minimal_doc()
        doc["topology"]["adjacency"] = [[0, 0], [0, 0]]
        doc["topology"]["proximity_psi"] = 2.0
        # initial positions 0 and 1 are within range, so the pair connects
        scenario = sio.parse_scenario(doc)
        assert scenario.topology.adjacency[0, 1] == 1.0
        assert scenario.topology.adjacency[1, 0] == 1.0

    def test_schema_version_rejected(self):
        doc = minimal_doc()
        doc["schema"] = 2
        with pytest.raises(sio.ScenarioError, match="schema"):
            sio.parse_scenario(doc)


class TestErrorPaths:
    def test_missing_duration_names_path(self):
        doc = minimal_doc()
        del doc["sim"]["duration"]
        with pytest.raises(sio.ScenarioError, match=r"sim\.duration"):
            sio.parse_scenario(doc)

    def test_bad_agent_mass_names_index(self):
        doc = minimal_doc()
        doc["agents"][1]["mass"] = -1.0
        with pytest.raises(sio.ScenarioError, match=r"agents\[1\]\.mass"):
            sio.parse_scenario(doc)

    def test_bad_expression_names_path(self):
        doc = minimal_doc()
        doc["agents"][0]["drift"] = {"expr": "import os"}
        with pytest.raises(sio.ScenarioError, match=r"agents\[0\]\.drift"):
            sio.parse_scenario(doc)

    def test_state_count_mismatch(self):
        doc = minimal_doc()
        doc["initial_states"]["agents"] = [[0, 0]]
        with pytest.raises(sio.ScenarioError, match="initial_states"):
            sio.parse_scenario(doc)

    def test_unknown_builtin_scenario(self):
        with pytest.raises(sio.ScenarioError, match="unknown builtin"):
            sio.load_scenario("builtin:not_a_scenario")

    def test_isolated_agent_rejected(self):
        doc = minimal_doc()
        doc["topology"]["adjacency"] = [[0, 0], [0, 0]]
        doc["topology"]["leader_weights"] = [1, 1]
        scenario = sio.parse_scenario(doc)  # both pinned: fine
        doc["topology"]["leader_weights"] = [1, 0]
        with pytest.raises(sio.ScenarioError, match="spanning tree"):
            sio.parse_scenario(doc)
        assert scenario.topology.n_agents == 2


class TestBounds:
    def test_defaults_come_from_scenario(self):
        scenario = sio.parse_scenario(minimal_doc())
        bounds = sio.parse_bounds({}, scenario)
        assert bounds.kappa == scenario.nn_config.kappa
        assert bounds.phi_w == pytest.approx(np.sqrt(scenario.nn_config.w_basis.count))

    def test_overrides_win(self):
        scenario = sio.parse_scenario(minimal_doc())
        bounds = sio.parse_bounds({"kappa": 0.7, "theta_f": 2.0}, scenario)
        assert bounds.kappa == 0.7
        assert bounds.theta_f == 2.0

    def test_negative_bound_rejected(self):
        scenario = sio.parse_scenario(minimal_doc())
        with pytest.raises(sio.ScenarioError, match="t_m"):
            sio.parse_bounds({"t_m": -1.0}, scenario)

    @pytest.mark.parametrize("key", ["kapa", "eps_f", "eps_w", "eps_leader"])
    def test_unknown_key_is_refused(self, key):
        scenario = sio.parse_scenario(minimal_doc())
        with pytest.raises(sio.ScenarioError) as info:
            sio.parse_bounds({"kappa": 0.5, key: 0.5}, scenario)
        assert str(info.value) == f"bounds.{key}: unknown field"

    def test_explicit_alpha_bar(self):
        scenario = sio.parse_scenario(minimal_doc())
        assert sio.parse_bounds({}, scenario).alpha_bar is None
        bounds = sio.parse_bounds({"alpha_bar": 2.5}, scenario)
        assert bounds.alpha_bar == 2.5
        report = cuub.cuub_diagnostics(bounds, scenario.topology, scenario.gains)
        p1 = ctl.lyapunov_P1(scenario.gains.lambda_bar, 2.5)
        assert report.graph_quantities["sigma_max_P1"] == float(np.linalg.norm(p1, 2))
        with pytest.raises(sio.ScenarioError, match="alpha_bar"):
            sio.parse_bounds({"alpha_bar": 0.0}, scenario)


class TestBuiltinCatalog:
    def test_names_listed(self):
        names = sio.builtin_scenario_names()
        assert {"vehicle_platoon", "close_pair", "obstacle_gate"} <= set(names)

    def test_builtin_docs_are_valid(self):
        for name in sio.builtin_scenario_names():
            doc = json.loads(sio.builtin_scenario_text(name))
            sio.parse_scenario(doc)
