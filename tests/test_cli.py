import contextlib
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consensus_lab import cli
from consensus_lab import cuub
from consensus_lab import estimator as nn
from consensus_lab import field as fld
from consensus_lab import graph as gr
from consensus_lab import scenario_io as sio
from consensus_lab import sim

import oracles as ref
from test_golden import GOLDEN_ENV, digest, environment

ALL_OUTPUTS = ("trace.csv", "summary.json") + cli.FIG_FILES


def load_builtin_doc(name):
    return json.loads(sio.builtin_scenario_text(name))


def write_doc(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


class TestRunCommand:
    def test_short_run_writes_all_outputs(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", "builtin:close_pair",
                         "--out", str(out), "--duration", "0.5"])
        assert code == 0
        for name in ALL_OUTPUTS:
            assert (out / name).exists(), name
        header = (out / "trace.csv").read_text().splitlines()[0]
        assert header.split(",") == sim.trace_columns(2, 2)
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted"] is None
        assert summary["records"] == 51  # 500 steps at stride 10, plus t=0

    def test_zero_duration_single_row(self, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--scenario", "builtin:close_pair",
                         "--out", str(out), "--duration", "0"])
        assert code == 0
        rows = (out / "trace.csv").read_text().splitlines()
        assert len(rows) == 2  # header + single record

    def test_malformed_json_names_location(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 1,,}', encoding="utf-8")
        code = cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_file(self, tmp_path, capsys):
        code = cli.main(["run", "--scenario", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_validation_error_names_json_path(self, tmp_path, capsys):
        doc = load_builtin_doc("close_pair")
        doc["gains"]["chi"] = -1.0
        code = cli.main(["run", "--scenario", write_doc(tmp_path, doc),
                         "--out", str(tmp_path / "o")])
        assert code == 1
        assert "gains" in capsys.readouterr().err

    def test_aborted_run_exits_two(self, tmp_path, capsys):
        doc = load_builtin_doc("close_pair")
        doc["agents"][0]["drift"] = {"expr": "100*v**3 + 10"}
        doc["gains"]["c"] = [0.0, 0.0]
        doc["gains"]["lambda_xi"] = [0.001]
        doc["sim"]["duration"] = 5.0
        out = tmp_path / "o"
        code = cli.main(["run", "--scenario", write_doc(tmp_path, doc), "--out", str(out)])
        assert code == 2
        assert "aborted" in capsys.readouterr().err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["aborted"] is not None
        # the partial trace stays inspectable: every record up to the abort
        lines = len((out / "trace.csv").read_text().splitlines())
        assert lines == summary["records"] + 1
        for name in cli.FIG_FILES:
            assert len((out / name).read_text().splitlines()) == lines, name

    @pytest.mark.parametrize("scenario", sio.builtin_scenario_names())
    def test_each_figure_file_has_a_line_per_trace_line(self, tmp_path, scenario):
        out = tmp_path / "out"
        assert cli.main(["run", "--scenario", f"builtin:{scenario}", "--duration", "0.2",
                         "--out", str(out)]) == 0
        lines = len((out / "trace.csv").read_text().splitlines())
        for name in cli.FIG_FILES:
            assert len((out / name).read_text().splitlines()) == lines, name

    def test_usage_error_exit_code_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", "builtin:close_pair"])  # missing --out
        assert exc.value.code == 1


class TestCheckCommand:
    def test_bundled_scenario_passes(self, capsys):
        for scenario in sio.builtin_scenario_names():
            assert cli.main(["check", "--scenario", f"builtin:{scenario}"]) == 0, scenario
            out = capsys.readouterr().out
            for name in ("leader spanning tree", "pinned laplacian conditioning",
                         "graph Lyapunov certificate", "Hurwitz lambda_bar",
                         "companion Lyapunov solve"):
                assert f"{name}: PASS" in out, (scenario, name)

    def test_unpinned_scenario_fails_spanning_tree(self, tmp_path, capsys):
        doc = load_builtin_doc("close_pair")
        doc["topology"]["leader_weights"] = [0.0, 0.0]
        code = cli.main(["check", "--scenario", write_doc(tmp_path, doc)])
        assert code == 1
        captured = capsys.readouterr()
        assert "spanning tree" in captured.out + captured.err

    def test_non_hurwitz_lambda_fails(self, tmp_path, capsys):
        doc = load_builtin_doc("close_pair")
        doc["gains"].pop("lambda_xi")
        doc["gains"]["lambda_bar"] = [-1.0]
        code = cli.main(["check", "--scenario", write_doc(tmp_path, doc)])
        assert code == 1
        captured = capsys.readouterr()
        assert "Hurwitz" in captured.out + captured.err


class TestDiagnoseCommand:
    def test_passing_bounds(self, tmp_path, capsys):
        bounds = {"beta": 1.0, "kappa": 1.0, "kappaw": 1.0, "kappa0": 1.0,
                  "phi_f": 0.0, "phi_w": 0.0, "phi_leader": 0.0,
                  "theta_f": 1.0, "theta_w": 1.0, "theta_leader": 1.0,
                  "t_m": 0.1, "t_n": 0.1, "e0_bound": 0.0}
        bpath = tmp_path / "bounds.json"
        bpath.write_text(json.dumps(bounds), encoding="utf-8")
        code = cli.main(["diagnose", "--scenario", "builtin:obstacle_gate",
                         "--bounds", str(bpath)])
        out = capsys.readouterr().out
        assert code == 0
        assert "B_d" in out and "minor 5" in out and "positive definite" in out

    def test_embedded_bounds_fail_fifth_minor(self, capsys):
        # the platoon's embedded bounds violate the mu1 requirement
        code = cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon"])
        assert code == 1
        captured = capsys.readouterr()
        assert "minor 5" in captured.out
        assert "NotPositiveDefinite" in captured.err
        # K is indefinite, so there is no ball for B_d to be the radius of
        b_d = [line for line in captured.out.splitlines() if line.startswith("B_d =")]
        assert b_d == ["B_d = undefined (K is not positive definite)"]

    def test_platoon_report_says_why_k_cannot_pass(self, tmp_path, capsys):
        # mu1 < 0 <= mu1_required: no bound constants pass minor 5
        jpath = tmp_path / "report.json"
        code = cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon",
                         "--json", str(jpath)])
        assert code == 1
        out = capsys.readouterr().out.splitlines()
        mu1 = [i for i, line in enumerate(out) if line.startswith("mu1 = ")]
        assert mu1 and out[mu1[0] + 1] == (
            "mu1 <= 0: no choice of bound constants passes minor 5; "
            "only the graph, its certificate or lambda_bar can change mu1")
        report = json.loads(jpath.read_text())
        assert report["b_d_valid"] is False and report["positive_definite"] is False
        assert report["b_d"] == pytest.approx(325.847568904108, rel=1e-12)   # kept, not valid

    def test_leader_only_platoon_passes(self, tmp_path, capsys):
        # no follower edges and every pinning weight 1: K > 0 with the embedded bounds
        doc = load_builtin_doc("vehicle_platoon")
        n = len(doc["topology"]["leader_weights"])
        doc["topology"]["adjacency"] = [[0.0] * n for _ in range(n)]
        doc["topology"]["leader_weights"] = [1.0] * n
        jpath = tmp_path / "report.json"
        code = cli.main(["diagnose", "--scenario", write_doc(tmp_path, doc),
                         "--json", str(jpath)])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        b_d = [line for line in out if line.startswith("B_d = ")]
        assert len(b_d) == 1 and math.isfinite(float(b_d[0].split(" = ")[1]))
        assert not any(line.startswith("mu1 <= 0") for line in out)
        assert out[-1] == "K is positive definite"
        report = json.loads(jpath.read_text())
        assert report["b_d_valid"] is True
        assert report["b_d"] == pytest.approx(float(b_d[0].split(" = ")[1]), rel=1e-11)

    def test_zero_bounds_reduce_omega_to_lambda(self, tmp_path, capsys):
        bounds = {"beta": 1.0, "kappa": 1.0, "kappaw": 1.0, "kappa0": 1.0,
                  "phi_f": 0.0, "phi_w": 0.0, "phi_leader": 0.0,
                  "theta_f": 0.0, "theta_w": 0.0, "theta_leader": 0.0,
                  "t_m": 0.0, "t_n": 0.0, "e0_bound": 0.0}
        bpath = tmp_path / "bounds.json"
        bpath.write_text(json.dumps(bounds), encoding="utf-8")
        jpath = tmp_path / "report.json"
        code = cli.main(["diagnose", "--scenario", "builtin:obstacle_gate",
                         "--bounds", str(bpath), "--json", str(jpath)])
        assert code == 0
        report = json.loads(jpath.read_text())
        assert report["omega"][:4] == [0.0, 0.0, 0.0, 0.0]
        assert report["omega_l1"] == report["graph_quantities"]["Lambda"]
        assert report["b_d"] == report["omega_l1"] / report["sigma_min_k"]

    @pytest.mark.parametrize("key", ["kapa", "eps_f"])
    @pytest.mark.parametrize("embedded", [False, True])
    def test_unknown_bounds_key_is_one_line_error(self, tmp_path, capsys, key, embedded):
        # a misspelled key would otherwise leave its bound at the default
        bounds = {"kappa": 0.5, key: 0.5}
        if embedded:
            doc = load_builtin_doc("close_pair")
            doc["bounds"] = bounds
            argv = ["--scenario", write_doc(tmp_path, doc)]
        else:
            bpath = tmp_path / "bounds.json"
            bpath.write_text(json.dumps(bounds), encoding="utf-8")
            argv = ["--scenario", "builtin:close_pair", "--bounds", str(bpath)]
        assert cli.main(["diagnose", *argv]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: bounds.{key}: unknown field"]

    def test_no_bounds_anywhere(self, capsys):
        code = cli.main(["diagnose", "--scenario", "builtin:close_pair"])
        assert code == 1
        assert "bounds" in capsys.readouterr().err

    def test_bound_whose_square_overflows(self, tmp_path, capsys):
        # gamma1 = -phi_f * sigma(P) * sigma(A) / 2 squares beyond the float range
        bpath = tmp_path / "bounds.json"
        bpath.write_text(json.dumps({"phi_f": 1e200, "theta_f": 1.0}), encoding="utf-8")
        jpath = tmp_path / "report.json"
        code = cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon",
                         "--bounds", str(bpath), "--json", str(jpath)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and "NotPositiveDefinite" in lines[0], lines
        assert json.loads(jpath.read_text())["mu1_required"] == "inf"

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_unwritable_json_report_is_one_line_error(self, tmp_path, capsys, target):
        # a missing directory, or a directory where the file belongs
        jpath = tmp_path / target
        code = cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon", "--json", str(jpath)])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {jpath}: "), lines


class TestSweepCommand:
    def test_kappa_sweep_rows(self, tmp_path):
        doc = load_builtin_doc("close_pair")
        doc["sim"]["duration"] = 0.5
        spath = write_doc(tmp_path, doc)
        out = tmp_path / "sweep_out"
        code = cli.main(["sweep", "--scenario", spath, "--param", "kappa",
                         "--values", "0.01,0.05,0.1", "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "value,settling_time,ultimate_bound,min_pair_distance"
        assert len(rows) == 4
        assert [float(r.split(",")[0]) for r in rows[1:]] == [0.01, 0.05, 0.1]

    def test_dotted_param_avoidance_ordering(self, tmp_path, monkeypatch):
        # long enough for the unprotected pair to collapse; both points share
        # a batch key, so they run as one stacked integration in this process
        monkeypatch.setenv(cli.THREADS_ENV, "2")
        doc = load_builtin_doc("close_pair")
        doc["sim"]["duration"] = 6.0
        spath = write_doc(tmp_path, doc)
        out = tmp_path / "o"
        code = cli.main(["sweep", "--scenario", spath, "--param", "gains.gamma1",
                         "--values", "0.0,4.0", "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert len(rows) == 3
        dist_off = float(rows[1].split(",")[3])
        dist_on = float(rows[2].split(",")[3])
        assert dist_off < dist_on

    def test_empty_values(self, tmp_path, capsys):
        code = cli.main(["sweep", "--scenario", "builtin:close_pair",
                         "--param", "kappa", "--values", "", "--out", str(tmp_path)])
        assert code == 1
        assert "empty" in capsys.readouterr().err

    def test_unknown_field(self, tmp_path, capsys):
        code = cli.main(["sweep", "--scenario", "builtin:close_pair",
                         "--param", "warpdrive", "--values", "1,2", "--out", str(tmp_path)])
        assert code == 1
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("param, path", [
        ("gains.lambda_xi", "gains.lambda_xi"), ("topology.undirected", "topology.undirected"),
        ("nn.f_basis", "nn.f_basis"), ("lambda_xi", "gains.lambda_xi"),
        ("bounds.theta_f", "bounds.theta_f")])
    def test_field_that_is_not_a_number(self, tmp_path, capsys, param, path):
        # the field exists, so the message says why a sweep cannot set it, not
        # that it is unknown: it is not a number, or no run reads the bounds
        doc = close_pair_with("sim.duration", 0.05)
        doc["bounds"] = {"theta_f": 1.0}
        code = cli.main(["sweep", "--scenario", write_doc(tmp_path, doc),
                         "--param", param, "--values", "1,2", "--out", str(tmp_path / "o")])
        assert code == 1
        lines = capsys.readouterr().err.strip().splitlines()
        why = "no run reads it" if path.startswith("bounds.") else "not a number"
        assert lines == [f"error: {path}: {why}, so a sweep cannot set it"]
        assert not (tmp_path / "o").exists()


def directed_indefinite_q_doc():
    # has a leader spanning tree, but no diagonal graph Lyapunov certificate
    doc = load_builtin_doc("close_pair")
    doc["topology"] = {"adjacency": [[0, 0, 0], [100, 0, 0], [0, 0.01, 0]],
                       "leader_weights": [1, 0, 0], "undirected": False}
    doc["agents"].append({"drift": {"expr": "0"}})
    doc["initial_states"]["agents"] = [[0.15, 0.0], [-0.15, 0.0], [0.5, 0.0]]
    del doc["offsets"]
    return doc


def proximity_count_mismatch_doc():
    doc = load_builtin_doc("close_pair")
    doc["topology"]["proximity_psi"] = 1.0
    doc["initial_states"]["agents"].append([0.4, 0.0])
    return doc


def test_state_count_fault_reads_the_same_with_or_without_proximity(tmp_path, capsys):
    # proximity_augment meets the fault first, validate_scenario otherwise
    doc = proximity_count_mismatch_doc()
    plain = {**doc, "topology": {k: v for k, v in doc["topology"].items() if k != "proximity_psi"}}
    refusals = []
    for d in (doc, plain):
        assert cli.main(["check", "--scenario", write_doc(tmp_path, d)]) == 1
        refusals.append(capsys.readouterr().err)
    assert refusals == ["FAIL load: initial_states.agents: got 3 states for 2 agents\n"] * 2


def fractional_per_axis_doc(basis):
    doc = load_builtin_doc("close_pair")
    doc["nn"][basis]["per_axis"] = [2.5, 3]
    return doc


def close_pair_with(dotted, value):
    """close_pair with one field set; an integer index picks an array entry."""
    doc = load_builtin_doc("close_pair")
    *parents, leaf = [int(p) if p.isdigit() else p for p in dotted.split(".")]
    node = doc
    for part in parents:
        node = node[part]
    node[leaf] = value
    return doc


INVALID_DOCS = {
    "topology": directed_indefinite_q_doc,
    "initial_states.agents": proximity_count_mismatch_doc,
    "nn.f_basis.per_axis": lambda: fractional_per_axis_doc("f_basis"),
    "nn.leader_basis.per_axis": lambda: fractional_per_axis_doc("leader_basis"),
    # numbers a float cannot hold, or whose use overflows one
    "gains.chi": lambda: close_pair_with("gains.chi", 10 ** 400),
    "offsets.leader": lambda: close_pair_with("offsets.leader.0", 10 ** 400),
    "agents[0].disturbance": lambda: close_pair_with("agents.0.disturbance", -10 ** 400),
    "gains.R": lambda: close_pair_with("gains.R", 1e200),
    "sim.dt": lambda: close_pair_with("sim.dt", 1e-320),
    # cross-field checks, made by sim.validate_scenario
    "agents": lambda: close_pair_with("agents", load_builtin_doc("close_pair")["agents"] * 2),
    "offsets.agents": lambda: close_pair_with("offsets.agents", [[0.0, 0.0]]),
    "gains.c": lambda: close_pair_with("gains", {"lambda_xi": [1.0, 2.0], "c": [1.0, 2.0, 3.0]}),
    # arrays of arrays where a flat list of numbers belongs
    "obstacles": lambda: close_pair_with("obstacles", [[1.0], [2.0]]),
    "topology.leader_weights": lambda: close_pair_with("topology.leader_weights", [[1, 1]]),
}


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
@pytest.mark.parametrize("json_path", sorted(INVALID_DOCS))
def test_invalid_document_names_json_path(tmp_path, capsys, json_path, command):
    doc = INVALID_DOCS[json_path]()
    doc["sim"]["duration"] = 0.05
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json_path in lines[0], lines


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
def test_empty_leader_weights_names_its_path(tmp_path, capsys, command):
    doc = close_pair_with("topology.leader_weights", [])
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "topology.leader_weights: lists no agent" in lines[0], lines


def counted_calls(monkeypatch, module, name):
    """The calls to module.name made while the test runs, as a one-item list."""
    function, calls = getattr(module, name), [0]

    def counted(*args):
        calls[0] += 1
        return function(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def certificate_solves(monkeypatch):
    return counted_calls(monkeypatch, gr, "graph_lyapunov")


@pytest.fixture
def validations(monkeypatch):
    return counted_calls(monkeypatch, sim, "validate_scenario")


def test_replace_keeps_the_solved_certificate(certificate_solves):
    scenario, _ = sio.load_scenario("builtin:close_pair")
    scenario = dataclasses.replace(scenario, duration=0.05)
    sim.validate_scenario(scenario)
    assert ref.run(scenario).aborted is None
    assert certificate_solves == [1]


def test_run_override_solves_the_certificate_once(tmp_path, certificate_solves):
    assert cli.main(["run", "--scenario", "builtin:close_pair", "--duration", "0.05",
                     "--out", str(tmp_path / "o")]) == 0
    assert certificate_solves == [1]


def short_close_pair_doc():
    doc = load_builtin_doc("close_pair")
    doc["sim"]["duration"] = 0.05
    return doc


# a Scenario is checked once, when it is built: by the parse, and again only
# where a new one is made (a run override, each sweep point)
def test_run_override_validates_the_loaded_and_the_new_scenario(tmp_path, validations):
    assert cli.main(["run", "--scenario", "builtin:close_pair", "--duration", "0.05",
                     "--out", str(tmp_path / "o")]) == 0
    assert validations == [2]


def test_load_then_run_validates_once(validations):
    assert ref.run(sio.parse_scenario(short_close_pair_doc())).aborted is None
    assert validations == [1]


def test_sweep_validates_each_parse_once(tmp_path, monkeypatch, validations):
    # one for the loaded document, then two parses per point: one to find
    # its batch key, one in the batch that runs it
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    assert cli.main(["sweep", "--scenario", write_doc(tmp_path, short_close_pair_doc()),
                     "--param", "nn.kappa", "--values", "0.5,1,2,4",
                     "--out", str(tmp_path / "o")]) == 0
    assert validations == [9]


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
def test_dt_above_duration_names_sim_dt(tmp_path, capsys, command):
    doc = load_builtin_doc("close_pair")
    doc["sim"].update(dt=1.0, duration=0.5)
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "sim.dt" in lines[0] and "sim.duration" in lines[0], lines


def test_negative_dt_override_names_sim_dt(tmp_path, capsys):
    assert cli.main(["run", "--scenario", "builtin:close_pair", "--dt", "-1",
                     "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["error: sim.dt must be positive"], lines


def close_pair_section(section, drop, **values):
    """close_pair's `section` object without the key `drop`, with values set."""
    obj = {k: v for k, v in load_builtin_doc("close_pair")[section].items() if k != drop}
    return {**obj, **values}


# one out-of-range close_pair value per rule, by section and owner, and how its
# refusal starts: the JSON key it names and ": " (a space for validate_scenario's
# sim.* messages)
REFUSALS = [
    # topology: Topology, proximity_augment
    ("topology.adjacency", [[0, -1], [-1, 0]], "topology.adjacency: "),
    ("topology.adjacency", [[1, 1], [1, 0]], "topology.adjacency: "),
    ("topology.adjacency", [[0, 1]], "topology.adjacency: "),
    ("topology.adjacency", [[0, 1], [0.5, 0]], "topology.adjacency: "),
    ("topology.leader_weights", [[1, 1]], "topology.leader_weights: "),
    ("topology.leader_weights", [1, -1], "topology.leader_weights: "),
    ("topology.nu1", 0, "topology.nu1: "),
    ("topology.nu2", -1, "topology.nu2: "),
    ("topology.proximity_psi", 0, "topology.proximity_psi: "),
    # initial_states: FleetState
    ("initial_states.agents", [0.15, -0.15], "initial_states.agents: "),
    ("initial_states.leader", [0.0], "initial_states.leader: "),
    ("initial_states", {"agents": [[0.15], [-0.15]], "leader": [0.0]}, "initial_states.leader: "),
    # gains and obstacles: hurwitz_lambda, ControlGains
    ("gains.lambda_xi", [-1.0], "gains.lambda_xi: "),
    ("gains.lambda_xi", [1e-320], "gains.lambda_xi: "),
    ("gains.lambda_bar", [-1.0], "gains.lambda_bar: "),
    ("gains.lambda_bar", [], "gains.lambda_bar: "),
    ("gains.c", [1.0], "gains.c: "),
    ("obstacles", [[1.0], [2.0]], "obstacles: "),
    ("gains.gamma1", -1, "gains.gamma1: "),
    ("gains.chi", 0, "gains.chi: "),
    ("gains.R", 0, "gains.R: "),
    ("gains.core_radius", 1.5, "gains.core_radius: "),
    ("gains.core_radius", 2.0, "gains.core_radius: "),
    ("gains", close_pair_section("gains", "core_radius", R=0.3), "gains.R: "),
    ("gains", close_pair_section("gains", "R", core_radius=2.5), "gains.core_radius: "),
    ("gains.R", 1e200, "gains.R: "),
    ("gains.alpha_bar", 0, "gains.alpha_bar: "),
    # nn: gaussian_grid, BasisSpec, NNConfig
    ("nn.f_basis.per_axis", [0, 5], "nn.f_basis.per_axis: "),
    ("nn.f_basis.per_axis", [3], "nn.f_basis.per_axis: "),
    ("nn.f_basis.box", [[2, -2], [-2, 2]], "nn.f_basis.box: "),
    ("nn.f_basis.width", 0, "nn.f_basis.width: "),
    ("nn.f_basis.width", 1e200, "nn.f_basis.width: "),
    ("nn.f_basis.box", [[-1e308, 1e308], [-2, 2]], "nn.f_basis.box: "),
    ("nn.f_basis", {"box": [[-1e308, 1e308], [-2, 2]], "per_axis": 3}, "nn.f_basis.box: "),
    ("nn.leader_basis.width", 1e200, "nn.leader_basis.width: "),
    ("nn.w_basis.freqs", [], "nn.w_basis.freqs: "),
    ("nn.w_basis", {"centers": [[0.0], [1.0]], "width": 1.0}, "nn.w_basis.centers: "),
    ("nn.w_basis", {"centers": [0.0, 1.0], "width": 0}, "nn.w_basis.width: "),
    ("nn.F", -1, "nn.F: "),
    ("nn.kappa0", 0, "nn.kappa0: "),
    # offsets: Offsets
    ("offsets.agents", [0, 0], "offsets.agents: "),
    ("offsets.leader", [0], "offsets.leader: "),
    ("offsets.agents", [[0, 0, 0], [0, 0, 0]], "offsets.agents: "),
    ("offsets", {"agents": [[0, 0, 0], [0, 0, 0]]}, "offsets.agents: "),
    ("offsets", {"leader": [0, 0, 0]}, "offsets.leader: "),
    # sim: validate_scenario, whose messages name the key without a colon
    ("sim.dt", 0, "sim.dt "),
    ("sim.duration", -1, "sim.duration "),
    ("sim.record_stride", 0, "sim.record_stride "),
    # agents: the parser's own rule
    ("agents.0.mass", 0, "agents[0].mass: "),
    # bounds: the reader's JSON types, CuubBounds
    ("bounds", {"t_m": "x"}, "bounds.t_m: expected a number, got str"),
    ("bounds", {"t_m": -1.0}, "bounds.t_m: "),
]


@pytest.mark.parametrize("command, prefix", [("run", "error: "), ("check", "FAIL load: ")])
@pytest.mark.parametrize("dotted, value, head", REFUSALS)
def test_refusal_names_its_json_key_once(tmp_path, capsys, command, prefix, dotted, value, head):
    doc = close_pair_with(dotted, value)
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "run":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix + head), lines
    section = re.match(r"[^.: ]+", head).group()   # anchored once, not again inside
    assert len(re.findall(re.escape(section) + "[.:]", lines[0])) == 1, lines


# one key that nothing reads in each object of close_pair, set as in
# close_pair_with, and the JSON path its refusal names
UNREAD_KEYS = [
    ("notes", "x", "notes"),
    ("topology.kappa", 1.0, "topology.kappa"),
    ("gains.gama1", 50, "gains.gama1"),
    ("nn.kapa", 1.0, "nn.kapa"),
    ("nn.f_basis.widht", 2.0, "nn.f_basis.widht"),
    ("nn.leader_basis.per_axes", 3, "nn.leader_basis.per_axes"),
    ("nn.w_basis.freq", [1.0], "nn.w_basis.freq"),
    ("sim.steps", 100, "sim.steps"),
    ("initial_states.t0", 0.0, "initial_states.t0"),
    ("offsets.agent", [[0, 0], [0, 0]], "offsets.agent"),
    ("agents.1.mas", 1.0, "agents[1].mas"),
    ("agents.0.drift.vars", ["s"], "agents[0].drift.vars"),
    ("agents.0.disturbance", {"constant": 0.5, "amp": 1.0}, "agents[0].disturbance.amp"),
    ("agents.0.disturbance", {"sinusoid": {"amp": 0.1, "freq": 1.0, "phase": 0.0}},
     "agents[0].disturbance.sinusoid.phase"),
    ("leader.lable", "leader", "leader.lable"),
    ("bounds", {"kapa": 0.5}, "bounds.kapa"),
    # of two keys where one wins, the other is refused rather than ignored
    ("gains.lambda_bar", [2.0], "gains.lambda_xi"),
    ("nn.w_basis", {"freqs": [1.0], "centers": [0.0, 1.0], "width": 1.0}, "nn.w_basis.centers"),
    ("agents.0.disturbance", {"constant": 0.5, "sinusoid": {"amp": 0.1, "freq": 1.0}},
     "agents[0].disturbance.sinusoid"),
]


@pytest.mark.parametrize("command, prefix", [("check", "FAIL load: "), ("run", "error: "),
                                             ("sweep", "error: ")])
@pytest.mark.parametrize("dotted, value, path", UNREAD_KEYS)
def test_key_that_nothing_reads_is_refused(tmp_path, capsys, command, prefix, dotted, value,
                                           path):
    argv = [command, "--scenario", write_doc(tmp_path, close_pair_with(dotted, value))]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.splitlines() == [f"{prefix}{path}: unknown field"]
    assert not (tmp_path / "o").exists()


def test_annotation_keys_and_mass_beside_an_expression_are_accepted(tmp_path, capsys):
    # close_pair's agents and leader give a mass beside their expression drifts
    doc = load_builtin_doc("close_pair")
    doc["description"] = {"any": ["JSON", 1]}
    doc["bounds"] = {"kappa": 0.5}
    doc["agents"][0]["label"] = "first"
    doc["leader"]["label"] = "leader"
    path = write_doc(tmp_path, doc)
    assert cli.main(["check", "--scenario", path]) == 0
    assert cli.main(["diagnose", "--scenario", path]) in (0, 1)
    assert capsys.readouterr().err.count("unknown field") == 0


@pytest.mark.parametrize("key, value", [("t_m", -1.0), ("kappa0", -0.5), ("alpha_bar", 0)])
def test_bounds_refusal_names_its_json_key(tmp_path, capsys, key, value):
    bounds = tmp_path / "bounds.json"
    bounds.write_text(json.dumps({key: value}), encoding="utf-8")
    assert cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon",
                     "--bounds", str(bounds)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: bounds.{key}: "), lines


def test_missing_bounds_file_is_not_called_a_scenario(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon",
                     "--bounds", str(missing)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == [f"error: file not found: {missing}"]


def oversized_basis_doc(basis):
    # one column more than a 64 x 64 grid: just above the cap, small to allocate
    doc = load_builtin_doc("close_pair")
    doc["nn"][basis]["per_axis"] = [65, 64]
    return doc


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
@pytest.mark.parametrize("basis", ["f_basis", "leader_basis"])
def test_oversized_basis_names_json_path(tmp_path, capsys, basis, command):
    assert 65 * 64 > nn.MAX_GRID_CENTERS >= 64 * 64
    doc = oversized_basis_doc(basis)
    doc["sim"]["duration"] = 0.05
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and f"nn.{basis}.per_axis" in lines[0], lines


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "builtin:close_pair"],
    ["sweep", "--scenario", "builtin:close_pair", "--param", "nn.kappa", "--values", "0.5,2"],
])
def test_unwritable_out_fails_before_the_first_step(tmp_path, capsys, monkeypatch, argv):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before the outputs were opened")
    monkeypatch.setattr(sim, "run_many", integrate)
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    out = tmp_path / "taken"
    out.write_text("a file, not a directory", encoding="utf-8")
    assert cli.main(argv + ["--out", str(out)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "cannot write outputs" in lines[0], lines


@pytest.mark.parametrize("override, message", [
    (["--dt", "1e-320"], "step count"),
    (["--duration", "inf"], "step count"),
    (["--duration", "nan"], "duration must be nonnegative"),
])
def test_step_count_override_must_be_finite(tmp_path, capsys, override, message):
    argv = ["run", "--scenario", "builtin:close_pair", "--out", str(tmp_path / "o")] + override
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and message in lines[0], lines


# documents that ask for more than the step budget (sim.MAX_STEPS), keyed
# by the field the message names
OVER_BUDGET_SIM = {
    "sim.dt": {"dt": 1e-300, "duration": 0.01},             # 1e298 steps
    "sim.duration": {"duration": 1e5},                       # 1e8 steps of 1 ms
}
# a long trace: 800 001 records of 27 values, which the commands stream
LONG_TRACE_SIM = {"duration": 800.0, "record_stride": 1}


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
@pytest.mark.parametrize("json_path", sorted(OVER_BUDGET_SIM))
def test_run_beyond_the_step_budget_is_refused(tmp_path, capsys, json_path, command):
    doc = load_builtin_doc("close_pair")
    doc["sim"].update(OVER_BUDGET_SIM[json_path])
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json_path in lines[0], lines


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "builtin:close_pair", "--dt", "1e-9"],
    ["run", "--scenario", "builtin:vehicle_platoon", "--duration", "1e5"],
    ["sweep", "--scenario", "builtin:close_pair", "--param", "sim.dt", "--values", "0.001,1e-300"],
])
def test_overrides_and_sweep_points_keep_the_step_budget(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "step count" in lines[0], lines
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "builtin:close_pair", "--duration", "0.0015"],
    ["run", "--scenario", "builtin:close_pair", "--duration", "0.0125"],   # not rounded to even
    ["run", "--scenario", "builtin:close_pair", "--dt", "0.0007"],
    ["sweep", "--scenario", "builtin:close_pair", "--param", "sim.duration",
     "--values", "0.0104,0.0106"],
])
def test_a_horizon_of_part_of_a_step_is_refused(tmp_path, capsys, argv):
    assert cli.main(argv + ["--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "sim.duration" in lines[0] and "sim.dt" in lines[0], lines
    assert "not a whole number of steps" in lines[0], lines
    assert not (tmp_path / "o").exists()


def test_check_refuses_a_horizon_of_part_of_a_step(tmp_path, capsys):
    doc = close_pair_with("sim.duration", 0.0015)
    assert cli.main(["check", "--scenario", write_doc(tmp_path, doc)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "FAIL load: sim.duration / sim.dt = 0.0015 / 0.001 = 1.5 is not a whole number of steps"]


def test_a_trace_beyond_the_trace_cap_is_checked(tmp_path, capsys):
    doc = load_builtin_doc("close_pair")
    doc["sim"].update(LONG_TRACE_SIM)
    assert cli.main(["check", "--scenario", write_doc(tmp_path, doc)]) == 0
    assert capsys.readouterr().err == ""


def chain_doc(n, pin_every):
    """close_pair's first agent n times on a path graph, every pin_every-th one pinned."""
    doc = load_builtin_doc("close_pair")
    adjacency = [[0] * n for _ in range(n)]
    for i in range(n - 1):
        adjacency[i][i + 1] = adjacency[i + 1][i] = 1
    doc["topology"].update(adjacency=adjacency,
                           leader_weights=[int(i % pin_every == 0) for i in range(n)])
    doc["agents"] = [doc["agents"][0]] * n
    doc["initial_states"]["agents"] = [[-2.0 * (i + 1), 0.0] for i in range(n)]
    doc["offsets"]["agents"] = [[0, 0]] * n
    return doc


def test_a_thousand_agent_chain_checks_and_runs(tmp_path, capsys):
    # the load's certificate verdict takes no eigendecomposition; check's min_eig_q does
    path = write_doc(tmp_path, chain_doc(1000, 25))
    assert cli.main(["check", "--scenario", path]) == 0
    assert "graph Lyapunov certificate: PASS" in capsys.readouterr().out
    out = tmp_path / "o"
    assert cli.main(["run", "--scenario", path, "--duration", "0.005", "--out", str(out)]) == 0
    assert json.loads((out / "summary.json").read_text())["aborted"] is None


@pytest.mark.parametrize("n_agents, order", [(1, 2), (5, 2), (3, 4)])
def test_trace_width_counts_the_trace_columns(n_agents, order):
    # t, the agent and leader states, u, e, r and E, three weight norms per
    # agent, and the two smallest distances
    assert len(sim.trace_columns(n_agents, order)) == 3 + order + n_agents * (3 * order + 5)


def huge_weights_doc(weight, where):
    """vehicle_platoon with the given adjacency (and pinning) weights replaced."""
    doc = load_builtin_doc("vehicle_platoon")
    adjacency = doc["topology"]["adjacency"]
    for i, j in where:
        adjacency[i][j] = adjacency[j][i] = weight
    return doc


# inputs whose numbers overflow in numpy while the scenario is loaded or
# diagnosed; each must end in one line, with no RuntimeWarning on the way
OVERFLOWING = {
    "degree sum": lambda: huge_weights_doc(1e308, [(0, 1), (1, 2)]),
}


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
@pytest.mark.parametrize("case", sorted(OVERFLOWING))
def test_overflowing_topology_warns_nothing(tmp_path, capsys, case, command):
    argv = [command, "--scenario", write_doc(tmp_path, OVERFLOWING[case]())]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "topology" in lines[0], lines


def scaled_weights_doc(scale):
    """vehicle_platoon with its adjacency and leader weights times scale."""
    doc = load_builtin_doc("vehicle_platoon")
    topo = doc["topology"]
    topo["adjacency"] = [[w * scale for w in row] for row in topo["adjacency"]]
    topo["leader_weights"] = [w * scale for w in topo["leader_weights"]]
    return doc


@pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e150, 1e160])
def test_check_does_not_depend_on_the_weight_scale(tmp_path, capsys, scale):
    # below 1e-4 the least eigenvalue of Q is under 1e-10; above about 1e154 Q overflows
    assert cli.main(["check", "--scenario", write_doc(tmp_path, scaled_weights_doc(scale))]) == 0
    assert "graph Lyapunov certificate: PASS" in capsys.readouterr().out


@pytest.mark.parametrize("command, code", [("check", 0), ("run", 2), ("sweep", 0),
                                           ("diagnose", 1)])
def test_weights_whose_certificate_q_overflows(tmp_path, capsys, command, code):
    # the certificate holds, but Q (~ the weights squared) and the field's
    # terms are beyond the float range: the run aborts, diagnose fails K
    argv = [command, "--scenario", write_doc(tmp_path, scaled_weights_doc(1e160))]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command in ("run", "sweep"):
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == code
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == (code != 0), lines
    if command == "run":
        assert lines[0].startswith("simulation aborted: non-finite")
    if command == "diagnose":
        assert lines[0].startswith("NotPositiveDefinite")


def order4_doc(lambda_xi):
    """close_pair lifted to order-4 chains."""
    doc = load_builtin_doc("close_pair")
    doc["initial_states"] = {"agents": [[0.15, 0, 0, 0], [-0.15, 0, 0, 0]], "leader": [0] * 4}
    doc["offsets"] = {"agents": [[0] * 4, [0] * 4], "leader": [0] * 4}
    doc["gains"].update(lambda_xi=lambda_xi, c=[10.0, 6.0, 3.0, 1.0])
    for basis in ("f_basis", "leader_basis"):
        doc["nn"][basis]["box"] = [[-2, 2]] * 4
    return doc


@pytest.mark.parametrize("lambda_xi", [[10.0, 20.0, 30.0], [1000.0, 1000.0, 1000.0]])
def test_companion_lyapunov_residual_is_relative(tmp_path, capsys, lambda_xi):
    # lambda_bar = [1e9, 3e6, 3e3] leaves an absolute residual of about 1e-8
    assert cli.main(["check", "--scenario", write_doc(tmp_path, order4_doc(lambda_xi))]) == 0
    assert "companion Lyapunov solve: PASS (residual = " in capsys.readouterr().out


def test_exact_companion_solve_with_a_huge_lambda_passes(tmp_path, capsys):
    # P1 = 1 / (2e200) solves exactly, though ||Delta||^2 overflows and ||P1||^2 underflows
    doc = load_builtin_doc("close_pair")
    doc["gains"]["lambda_xi"] = [1e200]
    assert cli.main(["check", "--scenario", write_doc(tmp_path, doc)]) == 0
    assert "companion Lyapunov solve: PASS (residual = 0.000e+00)" in capsys.readouterr().out


def test_companion_residual_beyond_the_float_range_is_one_line(tmp_path, capsys):
    # lambda_bar = [1e300, 3e200, 3e100]: the residual's products are not finite
    code = cli.main(["check", "--scenario", write_doc(tmp_path, order4_doc([1e100] * 3))])
    captured = capsys.readouterr()
    assert code in (0, 1)
    assert captured.err.splitlines() == ([] if code == 0 else ["FAILED: companion Lyapunov solve"])


def test_a_failed_check_is_one_line_and_exit_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "P1_RESIDUAL_TOL", -1.0)   # no residual passes
    assert cli.main(["check", "--scenario", "builtin:close_pair"]) == 1
    captured = capsys.readouterr()
    assert "companion Lyapunov solve: FAIL (residual = " in captured.out
    assert captured.err.splitlines() == ["FAILED: companion Lyapunov solve"]


def test_overflowing_proximity_distance_warns_nothing(tmp_path):
    # |x_1 - x_2| overflows to inf, which is beyond proximity_psi: no new edge
    doc = load_builtin_doc("close_pair")
    doc["topology"]["proximity_psi"] = 1.0
    doc["initial_states"]["agents"][0][0] = 1e308
    doc["initial_states"]["agents"][1][0] = -1e308
    assert cli.main(["check", "--scenario", write_doc(tmp_path, doc)]) == 0


def test_overflowing_bounds_warn_nothing(tmp_path, capsys):
    # the minors of K overflow in det: the fifth is -inf
    bpath = tmp_path / "bounds.json"
    bpath.write_text(json.dumps({"phi_f": 1e200, "theta_f": 1.0}), encoding="utf-8")
    assert cli.main(["diagnose", "--scenario", "builtin:vehicle_platoon",
                     "--bounds", str(bpath)]) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "NotPositiveDefinite" in lines[0], lines


def assert_written(written, value):
    """written is value as a strict JSON report holds it: each float that is
    not finite as its string, every other number with its bits."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        assert written.keys() == value.keys()
        for key in value:
            assert_written(written[key], value[key])
    elif isinstance(value, (list, tuple)):
        assert len(written) == len(value)
        for w, v in zip(written, value):
            assert_written(w, v)
    elif isinstance(value, float) and not math.isfinite(value):
        assert written == str(float(value))
    else:
        assert written == value


def test_json_report_is_strict_json(tmp_path):
    # weights times 1e160 overflow the graph quantities to nan and +-inf
    path = write_doc(tmp_path, scaled_weights_doc(1e160))
    jpath = tmp_path / "report.json"
    assert cli.main(["diagnose", "--scenario", path, "--json", str(jpath)]) == 1

    def refuse(token):
        raise AssertionError(f"non-standard JSON token {token}")
    written = json.loads(jpath.read_text(encoding="utf-8"), parse_constant=refuse)
    assert (written["b_d"], written["mu1_required"], written["graph_quantities"]["g"]) == \
        ("nan", "inf", "-inf")
    scenario, doc = sio.load_scenario(path)
    report = cuub.cuub_diagnostics(sio.parse_bounds(doc["bounds"], scenario),
                                  scenario.topology, scenario.gains)
    assert_written(written, dataclasses.asdict(report))


@pytest.mark.parametrize("command", ["run", "check", "diagnose", "sweep", "diagnose --bounds"])
def test_deeply_nested_document_is_one_line_error(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    command, *bounds = command.split()
    argv = [command, "--scenario", "builtin:close_pair" if bounds else str(deep)]
    argv += [bounds[0], str(deep)] if bounds else []
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command in ("run", "sweep"):
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "nested too deeply" in lines[0], lines


def test_sweep_copies_any_document_json_accepts(tmp_path):
    # 500 levels parse, but copy.deepcopy of them overflows the stack
    doc = close_pair_with("sim.duration", 0.05)
    doc["description"] = json.loads("[" * 500 + "]" * 500)
    assert cli.main(["sweep", "--scenario", write_doc(tmp_path, doc), "--param", "nn.kappa",
                     "--values", "0.5", "--out", str(tmp_path / "o")]) == 0


def test_cli_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, consensus_lab.cli; "
                               "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, timeout=60, env=env, check=True)
    assert done.stdout.strip() == "[]"


def test_integer_power_tower_aborts_promptly(tmp_path):
    # 9**9**9 has about 370 million digits as an integer; as float64 it is inf
    doc = load_builtin_doc("close_pair")
    doc["agents"][0]["drift"] = {"expr": "9**9**9*s"}
    doc["sim"]["duration"] = 0.05
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "consensus_lab.cli", "run",
         "--scenario", write_doc(tmp_path, doc), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 2
    lines = done.stderr.strip().splitlines()
    assert len(lines) == 1 and "aborted" in lines[0] and "non-finite" in lines[0], lines


class TestCsvFormat:
    def test_17_digit_roundtrip(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--scenario", "builtin:close_pair",
                  "--out", str(out), "--duration", "0.1"])
        rows = (out / "trace.csv").read_text().splitlines()
        values = [float(v) for v in rows[5].split(",")]
        rendered = ",".join(ref.fmt(v) for v in values)
        assert rendered == rows[5]

    def test_figure_headers(self, tmp_path):
        out = tmp_path / "out"
        cli.main(["run", "--scenario", "builtin:close_pair",
                  "--out", str(out), "--duration", "0.1"])
        assert (out / "fig_positions.csv").read_text().splitlines()[0] == "t,x1_0,x1_1,x1_2"
        assert (out / "fig_controls.csv").read_text().splitlines()[0] == "t,u_1,u_2"
        assert (out / "fig_pos_error.csv").read_text().splitlines()[0] == "t,E1_1,E1_2"


def test_callable_drift_leaving_math_domain_aborts(tmp_path, capsys):
    # stage 2 of the first step drives the first vehicle to -inf, where the
    # builtin drift's math.cos raises ValueError
    doc = load_builtin_doc("vehicle_platoon")
    doc["initial_states"]["agents"][0] = [1e308, 0.0]
    doc["sim"]["duration"] = 0.01
    spath = write_doc(tmp_path, doc)
    assert cli.main(["run", "--scenario", spath, "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert lines == ["simulation aborted: model evaluation failed at t=0: math domain error"]
    assert cli.main(["sweep", "--scenario", spath, "--param", "nn.kappa", "--values", "0.5",
                     "--out", str(tmp_path / "s")]) == 0
    row = (tmp_path / "s" / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[1:3] == ["nan", "nan"]


@pytest.mark.parametrize("where, term, agent", [
    (("agents", 1, "drift"), "drift", 2),
    (("agents", 0, "disturbance"), "disturbance", 1),
])
def test_non_finite_model_abort_names_the_agent_and_the_term(tmp_path, capsys, where, term,
                                                             agent):
    # exp(1e5 t) overflows from the stage at t = 0.0075 on
    doc = close_pair_with_model(where, {"expr": "exp(100000*t)"})
    assert cli.main(["run", "--scenario", write_doc(tmp_path, doc),
                     "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(f"simulation aborted: non-finite {term} of agent {agent} at t=0.007")


@pytest.mark.parametrize("dotted, value", [("nn.F", 1e308), ("gains.c", [1e300, 1e300])])
def test_non_finite_state_abort_names_the_agent_and_the_block(tmp_path, capsys, dotted, value):
    # the first step overflows agent 1's chain, first in the state's layout;
    # with nn.F = 1e308 the step's first rate is already non-finite in the
    # disturbance weights, and the abort names them as the origin
    doc = close_pair_with(dotted, value)
    assert cli.main(["run", "--scenario", write_doc(tmp_path, doc), "--duration", "0.05",
                     "--out", str(tmp_path / "o")]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    origin = {"nn.F": "; first non-finite rate: agent 1 (disturbance weights)", "gains.c": ""}
    assert lines == ["simulation aborted: non-finite state of agent 1 (chain) at t=0.001"
                     + origin[dotted]]


@pytest.mark.parametrize("source", ["directory", "non_utf8"])
@pytest.mark.parametrize("command", ["run", "check", "diagnose", "sweep"])
def test_unreadable_scenario_source(tmp_path, capsys, command, source):
    path = tmp_path / "scenario.json"
    if source == "directory":
        path.mkdir()
    else:
        path.write_bytes(b'{"schema": 1, "label": "\xff\xfe"}')
    argv = [command, "--scenario", str(path)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command in ("run", "sweep"):
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "cannot read" in lines[0] and str(path) in lines[0], lines


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5"])
def test_invalid_worker_cap_rejected(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv(cli.THREADS_ENV, value)
    argv = ["sweep", "--scenario", "builtin:close_pair", "--param", "nn.kappa",
            "--values", "0.5,1", "--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and cli.THREADS_ENV in lines[0] and repr(value) in lines[0], lines
    assert not (tmp_path / "o").exists()


def short_pair_doc(duration=0.3):
    doc = load_builtin_doc("close_pair")
    doc["sim"]["duration"] = duration
    return doc


def test_the_run_path_never_calls_eigvalsh(tmp_path, monkeypatch):
    # the certificate's verdict is taken on its Collatz-Wielandt bound, and
    # Q is built only when check or diagnose reads it
    def refuse(_a):
        raise AssertionError("eigvalsh called")
    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    for name in ("vehicle_platoon", "close_pair", "obstacle_gate"):
        assert cli.main(["run", "--scenario", f"builtin:{name}", "--duration", "0.02",
                         "--out", str(tmp_path / name)]) == 0
    assert cli.main(["sweep", "--scenario", write_doc(tmp_path, short_pair_doc(0.05)),
                     "--param", "nn.kappa", "--values", "0.5,2",
                     "--out", str(tmp_path / "sweep")]) == 0


def solo_row(doc, dotted, value):
    """The sweep.csv row of one point, from its own run."""
    point = json.loads(json.dumps(doc))
    cli._set_doc_field(point, dotted, value)
    trace = ref.run(sio.parse_scenario(point))
    if trace.aborted is None:
        summary = sim.metrics(trace)
        row = (value, summary["settling_time"], summary["ultimate_bound"][0],
               summary["min_pair_distance"])
    else:
        row = (value, float("nan"), float("nan"), float(trace.min_pair_distance.min()))
    return ",".join(ref.fmt(v) for v in row)


def sweep_rows(tmp_path, doc, dotted, values):
    out = tmp_path / f"sweep-{dotted}"
    assert cli.main(["sweep", "--scenario", write_doc(tmp_path, doc), "--param", dotted,
                     "--values", ",".join(repr(v) for v in values), "--out", str(out)]) == 0
    return (out / "sweep.csv").read_text().splitlines()[1:]


def batch_keys(doc, dotted, values):
    keys = set()
    for value in values:
        point = json.loads(json.dumps(doc))
        cli._set_doc_field(point, dotted, value)
        keys.add(fld.batch_key(sio.parse_scenario(point)))
    return len(keys)


@pytest.mark.parametrize("dotted, values", [
    ("nn.kappa", [0.5, 1.0, 1.7, 3.0]),
    ("gains.psi_ij", [0.05, 0.25, 1.0]),
    ("gains.chi", [0.1, 0.5, 2.5]),
])
def test_one_group_sweep_rows_equal_solo_runs(tmp_path, dotted, values):
    doc = short_pair_doc()
    assert batch_keys(doc, dotted, values) == 1
    assert sweep_rows(tmp_path, doc, dotted, values) == [solo_row(doc, dotted, v) for v in values]


@pytest.mark.parametrize("workers", ["1", "2"])
def test_multi_group_sweep_rows_equal_solo_runs(tmp_path, monkeypatch, workers):
    monkeypatch.setenv(cli.THREADS_ENV, workers)
    doc = short_pair_doc()
    values = [0.1, 0.25, 0.1, 0.3]
    assert batch_keys(doc, "sim.duration", values) == 3
    assert sweep_rows(tmp_path, doc, "sim.duration", values) == \
        [solo_row(doc, "sim.duration", v) for v in values]


def test_aborted_point_leaves_the_others_alone(tmp_path):
    doc = short_pair_doc()
    values = [0.5, 1e12, 2.0]
    rows = sweep_rows(tmp_path, doc, "nn.F", values)
    assert rows[1].split(",")[1:3] == ["nan", "nan"]
    assert rows == [solo_row(doc, "nn.F", v) for v in values]


def test_batches_split_at_the_agent_bound(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_BATCH_AGENTS", 4)   # two close_pair points per batch
    monkeypatch.setenv(cli.THREADS_ENV, "1")             # batches run in this process
    calls = []
    run_many = sim.run_many
    monkeypatch.setattr(sim, "run_many", lambda scenarios, sink: calls.append(
        len(scenarios)) or run_many(scenarios, sink))
    doc = short_pair_doc(0.1)
    values = [0.5, 0.9, 1.3, 1.7, 2.1]
    assert sweep_rows(tmp_path, doc, "nn.kappa", values) == \
        [solo_row(doc, "nn.kappa", v) for v in values]
    assert calls == [1, 2, 2] + [1] * len(values)   # the batches, then the solo runs


@pytest.mark.parametrize("points, n_agents, cap, sizes", [
    (8, 2, 2, [8]),             # 16 agents: one stacked batch, whatever the cap
    (8, 16, 8, [8]),            # 128 agents: still one batch
    (8, 64, 2, [2, 2, 2, 2]),   # 512 agents: four batches at the bound
    (8, 64, 8, [1] * 8),        # ... but never fewer batches than workers
    (2, 200, 2, [1, 1]),        # a point larger than the bound runs alone
    (3, 100, 8, [1, 1, 1]),
])
def test_sweep_batches_keep_every_worker_busy(points, n_agents, cap, sizes, monkeypatch):
    monkeypatch.setattr(cli, "SWEEP_BATCH_AGENTS", 128)
    batches = cli._sweep_batches(list(range(points)), n_agents, cap)
    assert [len(b) for b in batches] == sizes
    assert sum(batches, []) == list(range(points))


# Every value a float64 trace cell can need: signed zeros, infinities, nan,
# the smallest subnormal, the largest finite magnitudes and integral floats.
SPECIAL_VALUES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e308, -1e308,
                  1.0, -3.0, 2.0 ** 53, 1e16, 1e22, 0.1, 1 / 3, 123456789.0]


def cell_trace(n_agents, order, records=4):
    """(Trace, M): a Trace whose trace.csv row i must be the (records, width) matrix's row i."""
    rng = np.random.default_rng(order)
    pool = np.concatenate([SPECIAL_VALUES,
                           rng.standard_normal(64) * 10.0 ** rng.integers(-300, 300, 64)])
    width = len(sim.trace_columns(n_agents, order))
    matrix = np.resize(pool, (records, width))
    shapes = {"times": (), "agents": (n_agents, order), "leader": (order,),
              "controls": (n_agents,), "errors": (n_agents, order), "r": (n_agents,),
              "rel_errors": (n_agents, order), "weight_norms": (n_agents, 3),
              "min_pair_distance": (), "min_obstacle_distance": ()}
    fields, start = {}, 0
    for name, shape in shapes.items():   # trace.csv's column order
        size = int(np.prod(shape))
        fields[name] = matrix[:, start:start + size].reshape((records,) + shape)
        start += size
    assert start == width
    return sim.Trace(**fields), matrix


@pytest.mark.parametrize("order", [2, 3])
def test_writers_format_each_cell_as_fmt(tmp_path, order):
    trace, matrix = cell_trace(3, order)
    assert {ref.fmt(v) for v in SPECIAL_VALUES} >= {
        "-0", "inf", "-inf", "nan", "4.9406564584124654e-324", "1e+308", "-3", "9007199254740992"}
    with contextlib.ExitStack() as stack:   # each record as run writes it
        write_trace = cli.write_trace_csv(stack, tmp_path / "trace.csv", 3, order)
        write_figures = cli.write_figure_data(stack, tmp_path, 3, order)
        for i in range(len(matrix)):
            write_figures(write_trace(sim.Record(*[getattr(trace, name)[i:i + 1]
                                                   for name in sim.Record._fields])))
    lines = (tmp_path / "trace.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(sim.trace_columns(3, order))
    assert lines[1:] == [",".join(ref.fmt(v) for v in row) for row in matrix]
    columns = dict(zip(lines[0].split(","), zip(*(line.split(",") for line in lines[1:]))))
    for name in cli.FIG_FILES:
        fig = (tmp_path / name).read_text(encoding="utf-8").splitlines()
        assert len(fig) == len(lines)
        for j, header in enumerate(fig[0].split(",")):
            assert tuple(line.split(",")[j] for line in fig[1:]) == columns[header], (name, header)


def order3_doc(duration):
    """A three-agent chain of order-3 agents with expression drifts."""
    doc = load_builtin_doc("close_pair")
    doc["agents"] = [
        {"drift": {"expr": "-0.3*x3 + 0.1*sin(x1) - 0.2*x2"},
         "disturbance": {"sinusoid": {"amp": 0.1, "freq": 1.3}}},
        {"drift": {"expr": "-0.25*x3 + 0.12*cos(x1)"}, "disturbance": 0.05},
        {"drift": {"expr": "-0.5*x3 - x2*x2*0.01"}}]
    doc["topology"].update(adjacency=[[0, 1, 0], [1, 0, 1], [0, 1, 0]], leader_weights=[1, 0, 0])
    doc["leader"]["drift"] = {"expr": "-x3 - x2 - 0.2*x1 + 0.1*sin(t)"}
    doc["initial_states"] = {"agents": [[0.5, 0, 0], [-0.3, 0.1, 0], [-1.2, 0, 0.2]],
                             "leader": [0, 0, 0]}
    doc["offsets"] = {"agents": [[-0.4, 0, 0], [-0.8, 0, 0], [-1.2, 0, 0]], "leader": [0, 0, 0]}
    doc["gains"].update(lambda_xi=[2.0, 1.0], c=[10.0, 8.0, 5.0])
    for basis in ("f_basis", "leader_basis"):
        doc["nn"][basis]["box"] = [[-2, 2]] * 3
    doc["sim"]["duration"] = duration
    return doc


# SHA-256 of the outputs of order3_doc(1.0), 101 records
ORDER3_DIGESTS = {
    "trace.csv": "e77b8714a17eccd0306da86a81f48594dc233f7e8fb41ca64a64d9f2f606155f",
    "summary.json": "3e6ddae32a30c209a7dcd35ddecb8d43f6b2719f54315ef85c6dadf740dfdbb7",
    "fig_positions.csv": "c0e48e53c010f555573697037f839fd2b0620abb64a0ba959d1519643f8bbf00",
    "fig_velocities.csv": "254d21dbce5573c74187c6f376f64a62f519681ffea8aeb9806ebfd080429a88",
    "fig_pos_error.csv": "cf18c5fd8257affd1a391f74987a81dc4a0079dfb09e939f63197b978e28a2af",
    "fig_vel_error.csv": "680035765e9cc61655c790c0f45cb74239df265392e6b0c9c5c4503fed9361c8",
    "fig_controls.csv": "a0a063b5a922dc0d0f83a31144994a9c7f7189e12cad82f1a4fbe44bec834d5e",
}


def test_order3_run_matches_golden_digests(tmp_path):
    if environment() != GOLDEN_ENV:
        pytest.skip(f"digests were taken with {GOLDEN_ENV}: exp/sin/cos may differ in the last bit")
    out = tmp_path / "out"
    assert cli.main(["run", "--scenario", write_doc(tmp_path, order3_doc(1.0)),
                     "--out", str(out)]) == 0
    assert {f: digest(out / f) for f in ORDER3_DIGESTS} == ORDER3_DIGESTS


def test_integer_field_sweeps_as_an_integer(tmp_path, monkeypatch, capsys):
    # an integer field rejects a float: "sim.record_stride: expected an
    # integer, got float"
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    spath = write_doc(tmp_path, short_pair_doc(0.1))
    out = tmp_path / "o"
    assert cli.main(["sweep", "--scenario", spath, "--param", "sim.record_stride",
                     "--values", "2,3", "--out", str(out)]) == 0
    assert [row.split(",")[0] for row in (out / "sweep.csv").read_text().splitlines()[1:]] == \
        ["2", "3"]
    capsys.readouterr()
    assert cli.main(["sweep", "--scenario", spath, "--param", "record_stride",
                     "--values", "2,2.5", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "sim.record_stride" in err[0], err


def test_sweep_value_keeps_the_type_the_document_holds():
    doc = {"a": {"n": 1, "x": 1.5, "z": 0}}
    cli._set_doc_field(doc, "a.n", 4.0)
    assert type(doc["a"]["n"]) is int
    cli._set_doc_field(doc, "a.x", 4.0)
    assert type(doc["a"]["x"]) is float
    cli._set_doc_field(doc, "a.n", 2.5)
    assert doc["a"]["n"] == 2.5
    cli._set_doc_field(doc, "a.z", -0.0)
    assert math.copysign(1.0, doc["a"]["z"]) == -1.0
    assert doc == {"a": {"n": 2.5, "x": 4.0, "z": 0.0}}


# An expression function takes exactly one argument: sin() would fail in the
# middle of a run, and numpy would take the second argument of sin(s, v) as
# its output array, so the text would silently mean sin(s).
BAD_ARITY = {
    "agents[0].drift.expr": [("agents", 0, "drift"), {"expr": "sin()"}],
    "agents[1].drift.expr": [("agents", 1, "drift"), {"expr": "-v + sin(s, v)"}],
    "agents[0].disturbance.expr": [("agents", 0, "disturbance"), {"expr": "cos()"}],
    "agents[1].disturbance.expr": [("agents", 1, "disturbance"), {"expr": "exp(t, t)"}],
}


def close_pair_with_model(where, spec):
    doc = short_pair_doc(0.05)
    section, index, key = where
    doc[section][index][key] = spec
    return doc


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("json_path", sorted(BAD_ARITY))
def test_expression_call_arity_is_one_line_error(tmp_path, capsys, json_path, command):
    doc = close_pair_with_model(*BAD_ARITY[json_path])
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    argv += ["--out", str(tmp_path / "o")] if command == "run" else []
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json_path in lines[0] and "exactly one argument" in lines[0], lines


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("depth", [1500, 3000])
def test_deeply_nested_expression_is_one_line_error(tmp_path, capsys, depth, command):
    # 1500 unary minuses overflow the stack while the literals are lifted,
    # 3000 already while Python builds the syntax tree
    doc = close_pair_with_model(("agents", 0, "drift"), {"expr": "-" * depth + "s"})
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    argv += ["--out", str(tmp_path / "o")] if command == "run" else []
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "agents[0].drift.expr" in lines[0], lines
    assert "nested too deeply" in lines[0]


def test_a_long_flat_sum_is_not_nested(tmp_path):
    # a sum's syntax tree is as deep as the sum is long, yet 1 200 terms are not nested
    doc = close_pair_with_model(("agents", 0, "drift"), {"expr": "s" + "+s" * 1199})
    assert cli.main(["check", "--scenario", write_doc(tmp_path, doc)]) == 0


# A function name must be called: a bare sin would reach the run as a numpy
# function and end it in a TypeError.  A literal beyond the float range reads
# as inf, which would abort the run with a non-finite drift.  True and False
# are not numbers, although Python would read them as 1 and 0.
UNLOADABLE_EXPRESSIONS = [
    ("agents[0].drift", "sin", "without calling it"),
    ("agents[1].drift", "s + cos", "without calling it"),
    ("leader.drift", "sin", "without calling it"),
    ("leader.drift", "s + cos", "without calling it"),
    ("agents[0].disturbance", "exp", "without calling it"),
    ("agents[1].drift", "1e400*s", "has a constant too large for a float"),
    ("agents[0].disturbance", "1e400", "has a constant too large for a float"),
    ("agents[0].drift", "True*s", "contains a non-numeric constant"),
    ("leader.drift", "s - False", "contains a non-numeric constant"),
    ("agents[1].disturbance", "True", "contains a non-numeric constant"),
]


@pytest.mark.parametrize("command", ["run", "check", "sweep"])
@pytest.mark.parametrize("where, expr, message", UNLOADABLE_EXPRESSIONS)
def test_expression_outside_the_grammar_fails_at_load(tmp_path, capsys, where, expr, message,
                                                     command):
    doc = close_pair_with(where.replace("[", ".").replace("]", ""), {"expr": expr})
    doc["sim"]["duration"] = 0.05
    argv = [command, "--scenario", write_doc(tmp_path, doc)]
    if command == "sweep":
        argv += ["--param", "nn.kappa", "--values", "0.5"]
    if command != "check":
        argv += ["--out", str(tmp_path / "o")]
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and f"{where}.expr" in lines[0] and message in lines[0], lines


def test_negative_sweep_values_take_the_equals_form(tmp_path, capsys):
    # argparse reads "--values -1,2" as an option; "--values=-1,2" works
    with pytest.raises(SystemExit):
        cli.main(["sweep", "--help"])
    assert "--values=-1,2" in capsys.readouterr().out
    out = tmp_path / "o"
    assert cli.main(["sweep", "--scenario", write_doc(tmp_path, short_pair_doc(0.05)),
                     "--param", "gains.gamma1", "--values=-0.0,2", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["-0", "2"]


def test_every_name_the_bench_wraps_is_there():
    # bench/child.py's traced pass wraps module attributes by name; where one
    # is gone, its metric reads null and the run still exits 0
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "bench"), str(root / "src")]))
    script = ("import json, child\n"
              "from consensus_lab import cli, estimator, graph, scenario_io, sim\n"
              "tracer = child.Tracer()\n"
              "tracer.install(cli, scenario_io, sim, graph, estimator)\n"
              "scenario_io.load_scenario('builtin:vehicle_platoon')\n"
              "print(json.dumps([tracer.missing, tracer.spans['scenario_io.parse_scenario'][0]]))\n")
    done = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, timeout=60, env=env, check=True)
    missing, parses = json.loads(done.stdout)
    assert missing == {}
    assert parses == 1   # load_scenario parses through the patched module attribute


def test_cli_import_loads_no_process_pool():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", "import sys, consensus_lab.cli; "
                               "print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, timeout=60, env=env, check=True)
    assert done.stdout.strip() == "False"
