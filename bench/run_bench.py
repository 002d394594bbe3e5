"""Benchmark of consensus-lab: CLI commands timed end to end, modules timed from outside.

    python3 bench/run_bench.py --workload {platoon,fleet200,sweep} --seed N \
        --seconds S --trace {0,1}

Run it from anywhere inside a checkout that holds ``src/consensus_lab``; it
uses the package from source and writes only under ``.bench_work/``.

Each run:

1. runs the self-test of the output checks (``checks.py``);
2. makes the workload's inputs from ``--seed``;
3. with ``--trace 0``, starts SETUP_PROBES fresh interpreters that import
   the CLI and load, parse and validate the workload's scenario(s), and
   reports the median as ``setup_s``;
4. runs one untimed warm-up command, then repeats the workload's CLI
   command for ``--seconds``, each in a fresh fork of a server process that
   has imported the CLI once (``child.py``);
5. checks every command's outputs and prints every metric by name and unit,
   then one JSON line with ``correct``, ``attempted``, ``failed``, ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the commands alternate between untraced and traced (public entry points of
each module wrapped, see ``child.Tracer``) and the metrics are per layer.

An operation is one ``run`` command or one sweep point.  It fails on a
nonzero exit or escaped exception, an output outside its check, or output
bytes that differ from the first command of the same run.
"""

import argparse
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import fleet

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = BENCH / "reference" / "platoon_summary.json"

PLATOON_DURATION = 1.0
SWEEP_DURATION = 0.3
SWEEP_POINTS = 8
SWEEP_PARAM = "nn.kappa"
SETUP_PROBES = 7
MIN_OPS = {0: 3, 1: 4}
STOP_STARTING_AFTER_S = 140.0
CHILD_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
THREADS_ENV = "CONSENSUS_LAB_THREADS"
# ROADMAP baseline, cost of one field evaluation, for the cross-check printed
# beside the first traced numbers
ROADMAP_FIELD_US = {"platoon": 177.0, "fleet200": 1738.0}

WHY = {
    "platoon": "the paper's study: N=5 with builtin closure drifts, a field bound by fixed "
               "per-call overhead",
    "fleet200": "N=200 with expression drifts, pinned chain and active pair and obstacle "
                "avoidance: per-agent eval loop and dense NxN work",
    "sweep": "K short N=2 runs through the process pool: per-run set-up and parse cost paid "
             "K times",
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("agent_steps_per_s", "1/s"),
              ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("scenario_io.load_s", "s"), ("scenario_io.parse_calls", "count"),
    ("graph.busy_s", "s"), ("graph.calls", "count"),
    ("dynamics.busy_s", "s"), ("dynamics.calls", "count"),
    ("estimator.busy_s", "s"), ("estimator.calls", "count"),
    ("sim.steps", "count"), ("sim.field_evals", "count"), ("sim.records", "count"),
    ("sim.field_us", "us"), ("sim.field_self_us", "us"), ("sim.rk4_self_us", "us"),
    ("sim.loop_self_s", "s"), ("sim.step_us_p50", "us"), ("sim.step_us_p99", "us"),
    ("sim.metrics_s", "s"), ("cli.write_trace_s", "s"), ("cli.write_figures_s", "s"),
    ("cli.bytes_written", "B"), ("cli.sweep_points", "count"), ("trace_overhead_frac", "1"),
)
GRAPH_SPANS = ("graph.graph_lyapunov", "graph.has_leader_spanning_tree", "graph.pinned_laplacian")
DYNAMICS_SPANS = ("dynamics.drift", "dynamics.disturbance", "dynamics.leader_drift")
ESTIMATOR_SPANS = ("estimator.basis_eval_batch", "estimator.basis_eval")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Inputs, CLI arguments and set-up request of a workload; a pure function of the seed."""
    if workload == "platoon":
        source = "builtin:vehicle_platoon"
        return {"argv": ["run", "--scenario", source, "--duration", repr(PLATOON_DURATION)],
                "setup": {"scenario": source, "duration": PLATOON_DURATION},
                "points": 1, "info": {}}
    if workload == "fleet200":
        path = work / f"fleet200-seed{seed}.json"
        doc = fleet.write_fleet(seed, path)
        steps = int(round(fleet.DURATION / fleet.DT))
        return {"argv": ["run", "--scenario", str(path)], "setup": {"scenario": str(path)},
                "points": 1, "records": steps // fleet.RECORD_STRIDE + 1,
                "info": {"drift_expression_sharing": fleet.expression_sharing(doc),
                         "obstacles": doc["obstacles"]}}
    base = SRC / "consensus_lab" / "scenarios" / "close_pair.json"
    doc = json.loads(base.read_text(encoding="utf-8"))
    doc["sim"]["duration"] = SWEEP_DURATION
    path = work / "close_pair_short.json"
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    rng = random.Random(seed)
    values = [round(rng.uniform(0.5, 2.0), 4) for _ in range(SWEEP_POINTS)]
    return {"argv": ["sweep", "--scenario", str(path), "--param", SWEEP_PARAM,
                     "--values", ",".join(repr(v) for v in values)],
            "setup": {"scenario": str(path), "sweep_param": SWEEP_PARAM, "sweep_values": values},
            "points": SWEEP_POINTS, "values": values, "info": {"sweep_values": values}}


def spawn(request: dict, work: Path, deadline: float):
    """Run a set-up probe in a fresh interpreter; returns (report, problem)."""
    report_path = work / "report.json"
    report_path.unlink(missing_ok=True)
    request = dict(request, report=str(report_path))
    timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
    request["launch"] = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), json.dumps(request)],
                            cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not report_path.is_file():
        tail = err.decode("utf-8", "replace").strip().splitlines()[-1:] or [""]
        return None, f"child exited {proc.returncode}: {tail[0]}"
    with open(report_path, encoding="utf-8") as fh:
        return json.load(fh), None


class Server:
    """child.py in serve mode: runs each CLI command in a fresh fork of itself."""

    def __init__(self, work: Path):
        self.work = work
        self.log = open(work / "server.log", "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), json.dumps({"mode": "serve"})],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log, start_new_session=True)

    def command(self, request: dict, deadline: float):
        """Run one command; returns (report, problem)."""
        report_path = self.work / "report.json"
        report_path.unlink(missing_ok=True)
        request = dict(request, report=str(report_path), log=str(self.work / "command.log"))
        timeout = max(1.0, min(CHILD_TIMEOUT_S, deadline - time.monotonic()))
        self.proc.stdin.write((json.dumps(request) + "\n").encode("utf-8"))
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        if not line:
            self.close()
            return None, "command timed out or the server died"
        status = int(line)
        if status != 0 or not report_path.is_file():
            log = (self.work / "command.log").read_text(encoding="utf-8", errors="replace")
            tail = log.strip().splitlines()[-1:] or [""]
            return None, f"forked command exited {status}: {tail[0]}"
        with open(report_path, encoding="utf-8") as fh:
            return json.load(fh), None

    def close(self):
        """Stop the server and everything it started, and wait for them."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()
        self.log.close()


def _digests(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}


class SetupFailed(RuntimeError):
    """A set-up probe did not load the workload's scenario."""


class Workload:
    """Runs and checks one workload's commands; keeps every sample."""

    def __init__(self, name: str, seed: int, deadline: float):
        self.name = name
        self.deadline = deadline
        self.work = WORK / name
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.spec = prepare(name, seed, self.work)
        self.spec["pool"] = min(nproc(), self.spec["points"])
        self.reference = checks.load_reference(REFERENCE)
        self.first_digests = None
        self.first_rows = None
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.server = None

    def setup_probe(self) -> dict:
        report, problem = spawn(dict(self.spec["setup"], mode="setup"), self.work,
                                self.deadline)
        if report is None:
            raise SetupFailed(problem)
        return report

    def command(self, traced: bool, workers: int):
        """One CLI command, checked; returns its report or None if it did not report."""
        out_dir = self.work / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.spec["argv"] + ["--out", str(out_dir)]
        if self.server is None:
            self.server = Server(self.work)
        report, problem = self.server.command(
            {"argv": argv, "trace": traced, "workers": workers}, self.deadline)
        if report is None and self.server.proc.poll() is not None:
            self.server = None
        points = self.spec["points"]
        self.attempted += points
        if report is None:
            self._fail(points, [problem])
            return None
        exit_problems = checks.check_exit(report["rc"])
        if report.get("error"):
            exit_problems.append(report["error"].strip().splitlines()[-1])
        if exit_problems:
            self._fail(points, exit_problems)
            return report
        if self.name == "sweep":
            report["sweep_points"] = self._check_sweep(out_dir)
        else:
            self._check_run(out_dir)
        report["bytes_written"] = sum(p.stat().st_size for p in out_dir.iterdir())
        return report

    def _fail(self, count: int, problems: list):
        self.failed += count
        self.problems.extend(problems)

    def _check_run(self, out_dir: Path):
        problems = []
        digests = _digests(out_dir)
        if self.first_digests is None:
            self.first_digests = digests
        else:
            problems += checks.check_same_bytes(digests, self.first_digests)
        try:
            summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
            if self.name == "platoon":
                problems += checks.check_platoon_summary(summary, self.reference)
            else:
                trace = (out_dir / "trace.csv").read_text(encoding="utf-8")
                problems += checks.check_fleet_outputs(trace, summary, self.spec["records"])
        except (OSError, ValueError) as exc:
            problems.append(f"unreadable output: {exc}")
        if problems:
            self._fail(1, problems)

    def _check_sweep(self, out_dir: Path) -> int:
        """Check sweep.csv point by point; returns its row count."""
        values = self.spec["values"]
        try:
            text = (out_dir / "sweep.csv").read_text(encoding="utf-8")
        except OSError as exc:
            self._fail(len(values), [f"unreadable sweep.csv: {exc}"])
            return 0
        per_point = checks.check_sweep_rows(text, values)
        rows = text.splitlines()[1:]
        if self.first_rows is None:
            self.first_rows = rows
        for i, problems in enumerate(per_point):
            mine = rows[i] if i < len(rows) else None
            first = self.first_rows[i] if i < len(self.first_rows) else None
            if mine != first:
                problems.append(f"point {i}: sweep.csv row differs from the first command's")
            if problems:
                self._fail(1, problems)
        return len(rows)


def median(xs):
    return statistics.median(xs) if xs else None


def tail(xs):
    """(percentile, value): the highest percentile with at least 10 samples above it."""
    n = len(xs)
    if n < 20:
        return None, None
    pct = int(100 * (n - 10) / n)
    return pct, statistics.quantiles(xs, n=100, method="inclusive")[pct - 1]


def end_to_end(wl: Workload, setup_reports: list, ops: list, workload_info: dict) -> dict:
    walls = [r["wall_s"] for r in ops]
    wall = median(walls)
    agents_steps = workload_info["n_agents"] * workload_info["steps"] * wl.spec["points"]
    # the timed commands of --trace 0 run with the pool; without one there are no children
    pool = wl.spec["pool"]
    rss = [(r["rss_self_kb"] + pool * r["rss_children_kb"]) / 1024.0 for r in ops]
    return {
        "setup_s": median([r["setup_s"] for r in setup_reports]),
        "wall_s": wall,
        "agent_steps_per_s": agents_steps / wall if wall else None,
        "peak_rss_mb": median(rss),
    }


def _span(reports, name, field):
    return [r["trace"]["spans"].get(name, [0, 0.0, 0.0])[field] for r in reports]


def per_layer(wl: Workload, traced: list, untraced: list, info: dict) -> tuple:
    """Per-layer metrics from the traced commands; (values, reasons for nulls, notes)."""
    missing = {}
    for r in traced:
        missing.update(r["trace"]["missing"])
    values, reasons, notes = {}, {}, []

    def count(names):
        per_op = [sum(_span([r], n, 0)[0] for n in names) for r in traced]
        if len(set(per_op)) > 1:
            notes.append(f"counts of {', '.join(names)} differ between traced commands: {per_op}")
        return per_op[0]

    def busy(layer):
        return median([r["trace"]["busy"].get(layer, 0.0) for r in traced])

    def per_call_us(name, field):
        calls = count([name])
        return median(_span(traced, name, field)) / calls * 1e6 if calls else 0.0

    values["scenario_io.load_s"] = busy("scenario_io")
    values["scenario_io.parse_calls"] = count(["scenario_io.parse_scenario"])
    values["graph.busy_s"] = busy("graph")
    values["graph.calls"] = count(GRAPH_SPANS)
    values["dynamics.busy_s"] = busy("dynamics")
    values["dynamics.calls"] = count(DYNAMICS_SPANS)
    values["estimator.busy_s"] = busy("estimator")
    values["estimator.calls"] = count(ESTIMATOR_SPANS)
    values["sim.steps"] = count(["sim.rk4_step"])
    values["sim.field_evals"] = count(["sim.field"])
    values["sim.records"] = traced[0]["trace"]["records"]
    values["sim.field_us"] = per_call_us("sim.field", 1)
    values["sim.field_self_us"] = per_call_us("sim.field", 2)
    values["sim.rk4_self_us"] = per_call_us("sim.rk4_step", 2)
    values["sim.loop_self_s"] = median(_span(traced, "sim.run", 2))
    steps = [s * 1e6 for r in traced for s in r["trace"]["samples"].get("sim.rk4_step", [])]
    values["sim.step_us_p50"] = median(steps) if steps else 0.0
    values["sim.step_us_p99"] = (statistics.quantiles(steps, n=100, method="inclusive")[98]
                                 if len(steps) > 1 else 0.0)
    notes.append(f"step samples: {len(steps)} (p99 has {len(steps) // 100} above it)")
    values["sim.metrics_s"] = median(_span(traced, "sim.metrics", 1))
    values["cli.write_trace_s"] = median(_span(traced, "cli.write_trace_csv", 1))
    values["cli.write_figures_s"] = median(_span(traced, "cli.write_figure_data", 1))
    values["cli.bytes_written"] = traced[0].get("bytes_written", 0)
    values["cli.sweep_points"] = traced[0].get("sweep_points", 0)
    values["trace_overhead_frac"] = (median([r["wall_s"] for r in traced])
                                     / median([r["wall_s"] for r in untraced]) - 1.0)

    depends = {
        "scenario_io.load_s": ("scenario_io.load_scenario", "scenario_io.parse_scenario"),
        "scenario_io.parse_calls": ("scenario_io.parse_scenario",),
        "graph.busy_s": GRAPH_SPANS, "graph.calls": GRAPH_SPANS,
        "dynamics.busy_s": ("dynamics", "scenario_io.parse_scenario"),
        "dynamics.calls": ("dynamics", "scenario_io.parse_scenario"),
        "estimator.busy_s": ESTIMATOR_SPANS, "estimator.calls": ESTIMATOR_SPANS,
        "sim.steps": ("sim.rk4_step",), "sim.field_evals": ("sim.rk4_step",),
        "sim.records": ("sim.run",), "sim.field_us": ("sim.rk4_step",),
        "sim.field_self_us": ("sim.rk4_step",), "sim.rk4_self_us": ("sim.rk4_step",),
        "sim.loop_self_s": ("sim.run",), "sim.step_us_p50": ("sim.rk4_step",),
        "sim.step_us_p99": ("sim.rk4_step",), "sim.metrics_s": ("sim.metrics",),
        "cli.write_trace_s": ("cli.write_trace_csv",),
        "cli.write_figures_s": ("cli.write_figure_data",),
    }
    for metric, targets in depends.items():
        gone = [missing[t] for t in targets if t in missing]
        if gone:
            values[metric] = None
            reasons[metric] = "; ".join(gone)

    n, k = info["n_agents"], wl.spec["points"]
    checks_ = [("sim.field_evals = 4 x sim.steps",
                values["sim.field_evals"], 4 * (values["sim.steps"] or 0)),
               ("dynamics.calls = sim.field_evals x (2N+1)",
                values["dynamics.calls"], (values["sim.field_evals"] or 0) * (2 * n + 1)),
               ("sim.steps = points x steps", values["sim.steps"], k * info["steps"])]
    if wl.name == "sweep":
        checks_.append(("scenario_io.parse_calls = 2K+1", values["scenario_io.parse_calls"],
                        2 * k + 1))
    for label, got, want in checks_:
        notes.append(f"reconcile {label}: {got} vs {want} -> "
                     f"{'ok' if got == want else 'MISMATCH'}")
    if wl.name in ROADMAP_FIELD_US and values["sim.field_us"]:
        ref = ROADMAP_FIELD_US[wl.name]
        notes.append(f"baseline cross-check: sim.field_us {values['sim.field_us']:.1f} us, "
                     f"ROADMAP {ref:.0f} us (ratio {values['sim.field_us'] / ref:.2f})")
    return values, reasons, notes


def measure(wl: Workload, trace: int, seconds: float, started: float) -> tuple:
    """Set-up probes, warm-up and the timed commands of one run."""
    info = wl.setup_probe()
    setup_reports = [wl.setup_probe() for _ in range(SETUP_PROBES)] if trace == 0 else []
    pool = wl.spec["pool"]
    timed_workers = 1 if trace else pool
    # untimed warm-up; for the sweep it uses the other worker count, so every
    # timed sweep.csv is compared with the output of the other execution path
    wl.command(False, pool if trace else 1)

    ops, traced_ops = [], []
    t_end = time.monotonic() + seconds
    i = 0
    while ((time.monotonic() < t_end or i < MIN_OPS[trace])
           and time.monotonic() - started < STOP_STARTING_AFTER_S):
        is_traced = trace == 1 and i % 2 == 1
        report = wl.command(is_traced, timed_workers)
        i += 1
        if report is None or report["rc"] != 0:
            continue
        (traced_ops if is_traced else ops).append(report)
    return info, setup_reports, ops, traced_ops


def _fmt_value(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    if not (SRC / "consensus_lab" / "cli.py").is_file():
        print(f"error: {SRC / 'consensus_lab'} not found; run inside a consensus-lab checkout",
              file=sys.stderr)
        return 2
    wrong = checks.self_test(checks.load_reference(REFERENCE))
    if wrong:
        print("error: output checks fail their self-test: " + "; ".join(wrong), file=sys.stderr)
        return 2

    trace = args.trace
    wl = Workload(args.workload, args.seed, started + STOP_STARTING_AFTER_S + 20.0)
    try:
        info, setup_reports, ops, traced_ops = measure(wl, trace, args.seconds, started)
    except SetupFailed as exc:
        print(f"error: set-up probe failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if wl.server is not None:
            wl.server.close()

    correct = wl.failed == 0 and bool(ops) and (trace == 0 or bool(traced_ops))
    print(f"consensus-lab benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={trace}")
    print(f"why: {WHY[wl.name]}")
    provenance = {"nproc": nproc(), "sweep_workers": wl.spec["pool"] if wl.name == "sweep" else None,
                  "blas_threads": 1, **info["versions"], "git_commit": git_commit(),
                  "seed": args.seed, "scenario_sha256": info["scenario_sha256"],
                  "n_agents": info["n_agents"], "steps_per_point": info["steps"],
                  "points": wl.spec["points"], **wl.spec["info"]}
    for key, value in provenance.items():
        print(f"  {key}: {value}")
    attempted, failed = wl.attempted, wl.failed
    print(f"{'failed_ops_frac':28s} {failed / attempted if attempted else 1.0:>14.6g} 1"
          f"  ({failed} failed of {attempted} ops)")
    for problem in wl.problems[:10]:
        print(f"  problem: {problem}")

    metrics, reasons, notes = {}, {}, []
    if ops and trace == 0:
        values = end_to_end(wl, setup_reports, ops, info)
        units = dict(END_TO_END)
        walls = [r["wall_s"] for r in ops]
        pct, tail_value = tail(walls)
        notes.append(f"wall_s samples: {len(walls)}; "
                     + (f"p{pct} {tail_value:.6g} s" if pct else "too few for a tail percentile"))
        notes.append(f"setup_s probes: {len(setup_reports)}")
    elif ops and traced_ops:
        values, reasons, notes = per_layer(wl, traced_ops, ops, info)
        units = dict(PER_LAYER)
        notes.append(f"commands: {len(ops)} untraced, {len(traced_ops)} traced")
    else:
        values, units = {}, {}
    for name, value in values.items():
        metrics[name] = {"value": value, "unit": units[name]}
        if name in reasons:
            metrics[name]["reason"] = reasons[name]
        print(f"{name:28s} {_fmt_value(value):>14s} {units[name]}"
              + (f"  ({reasons[name]})" if name in reasons else ""))
    for note in notes:
        print(f"  {note}")

    record = {"provenance": provenance, "metrics": metrics, "notes": notes,
              "problems": wl.problems,
              "commands": [{k: r[k] for k in ("wall_s", "cpu_user_s", "cpu_sys_s", "minor_faults")}
                           for r in ops],
              "setup_s": [r["setup_s"] for r in setup_reports]}
    with open(WORK / f"record-{wl.name}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
