import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from consensus_lab import cli
from consensus_lab import estimator as nn
from consensus_lab import scenario_io as sio
from consensus_lab import sim

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
        assert header.split(",") == cli.trace_columns(2, 2)
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
        assert (out / "trace.csv").exists()  # partial trace stays inspectable

    def test_usage_error_exit_code_one(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--scenario", "builtin:close_pair"])  # missing --out
        assert exc.value.code == 1


class TestCheckCommand:
    def test_bundled_scenario_passes(self, capsys):
        assert cli.main(["check", "--scenario", "builtin:vehicle_platoon"]) == 0
        out = capsys.readouterr().out
        for name in ("leader spanning tree", "pinned laplacian conditioning",
                     "graph Lyapunov certificate", "Hurwitz lambda_bar",
                     "companion Lyapunov solve"):
            assert f"{name}: PASS" in out

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
        assert json.loads(jpath.read_text())["mu1_required"] == float("inf")


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

    def test_ambiguous_bare_name(self, tmp_path, capsys):
        # both sim and topology could own a field named "seed"? use a real clash:
        doc = load_builtin_doc("close_pair")
        doc["topology"]["kappa"] = 1.0  # contrive a clash with nn.kappa
        code = cli.main(["sweep", "--scenario", write_doc(tmp_path, doc),
                         "--param", "kappa", "--values", "0.1", "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ambiguous" in capsys.readouterr().err


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
    doc["notes"] = json.loads("[" * 500 + "]" * 500)
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
        [sys.executable, "-m", "consensus_lab.cli", "run", "--scenario", write_doc(tmp_path, doc),
         "--out", str(tmp_path / "o")],
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
        rendered = ",".join(cli._fmt(v) for v in values)
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


def solo_row(doc, dotted, value):
    """The sweep.csv row of one point, from its own sim.run."""
    point = json.loads(json.dumps(doc))
    assert cli._set_doc_field(point, dotted, value)
    trace = sim.run(sio.parse_scenario(point))
    if trace.aborted is None:
        summary = sim.metrics(trace)
        row = (value, summary["settling_time"], summary["ultimate_bound"][0],
               summary["min_pair_distance"])
    else:
        row = (value, float("nan"), float("nan"), float(trace.min_pair_distance.min()))
    return ",".join(cli._fmt(v) for v in row)


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
        keys.add(sim.batch_key(sio.parse_scenario(point)))
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
    monkeypatch.setattr(sim, "run_many", lambda scenarios: calls.append(len(scenarios))
                        or run_many(scenarios))
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
