"""Command-line front end: run, check, diagnose, sweep.

Exit codes: 0 success, 1 validation or usage error, 2 aborted simulation.
All CSV output uses 17 significant digits so identical scenarios produce
byte-identical files.
"""

import argparse
import contextlib
import dataclasses
import json
import math
import operator
import os
import sys
from pathlib import Path

import numpy as np

from . import controller as ctl
from . import cuub
from . import field as fld
from . import scenario_io as sio
from . import sim

THREADS_ENV = "CONSENSUS_LAB_THREADS"
# The companion Lyapunov residual ||Delta^T P1 + P1 Delta + alpha_bar I||_F passes
# below this times its terms' scale, 2 ||Delta||_F ||P1||_F + alpha_bar sqrt(n - 1)
P1_RESIDUAL_TOL = 1e-10
# Most agents (points x N) one stacked sweep integration holds.  Up to about
# this many a stacked field costs at most about twice a lone small run, so
# stacking beats spreading the points over worker processes; past it the
# per-agent work dominates and the points are spread again.
SWEEP_BATCH_AGENTS = 128

FIG_FILES = ("fig_positions.csv", "fig_velocities.csv", "fig_pos_error.csv",
             "fig_vel_error.csv", "fig_controls.csv")
# per figure file its trace.csv columns after t: the leader's, then one series per agent
_FIG_COLUMNS = ((["x1_0"], "x1"), ([], "x2"), ([], "E1"), ([], "E2"), ([], "u"))


def write_trace_csv(stack, path: Path, n_agents: int, order: int):
    """Open trace.csv at path on the ExitStack and write its header; return
    the function that writes a one-variant sim.Record as a line, its values
    in sim.trace_columns order, and returns it."""
    header = sim.trace_columns(n_agents, order)
    fh = stack.enter_context(open(path, "w", encoding="utf-8", newline="\n"))
    fh.write(",".join(header) + "\n")
    template = ",".join(["%.17g"] * len(header)) + "\n"   # one call per record

    def write(record: sim.Record) -> str:
        line = template % tuple(np.concatenate([a.reshape(-1) for a in record]).tolist())
        fh.write(line)
        return line
    return write


def write_figure_data(stack, out_dir: Path, n_agents: int, order: int):
    """Open the per-figure plot data files in out_dir on the ExitStack and
    write their headers; return the function that writes a line of each,
    picking its cells from one trace.csv line, so no value is formatted twice."""
    column = {name: j for j, name in enumerate(sim.trace_columns(n_agents, order))}
    figures = []
    for name, (lead, series) in zip(FIG_FILES, _FIG_COLUMNS):
        header = ["t"] + lead + [f"{series}_{i}" for i in range(1, n_agents + 1)]
        fh = stack.enter_context(open(out_dir / name, "w", encoding="utf-8", newline="\n"))
        fh.write(",".join(header) + "\n")
        figures.append((fh, operator.itemgetter(*[column[c] for c in header])))

    def write(line: str) -> None:
        cells = line[:-1].split(",")
        for fh, pick in figures:
            fh.write(",".join(pick(cells)) + "\n")
    return write


def cmd_run(args) -> int:
    try:
        scenario = sio.load_scenario(args.scenario)[0]   # the document is not kept
        overrides = {name: value for name, value in (("dt", args.dt), ("duration", args.duration))
                     if value is not None}
        if overrides:
            scenario = dataclasses.replace(scenario, **overrides)   # checks the new scenario
    except (sio.ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    summary = sim.Summary()
    out_dir = Path(args.out)
    n_agents, order = scenario.topology.n_agents, scenario.initial.order
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        with contextlib.ExitStack() as stack:   # every output is open before the first step
            write_trace = write_trace_csv(stack, out_dir / "trace.csv", n_agents, order)
            write_figures = write_figure_data(stack, out_dir, n_agents, order)
            summary_fh = stack.enter_context(open(out_dir / "summary.json", "w", encoding="utf-8"))

            def sink(record, _live):   # one variant, live at each of its records
                write_figures(write_trace(record))
                summary.add(record, 0)
            aborted = sim.run(scenario, sink)
            result = (dict(summary.result(), aborted=None) if aborted is None
                      else {"aborted": aborted, "records": len(summary.times)})
            json.dump(result, summary_fh, indent=2, sort_keys=True)
            summary_fh.write("\n")
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    if aborted is not None:
        print(f"simulation aborted: {aborted}", file=sys.stderr)
        return 2
    print(f"wrote {out_dir / 'trace.csv'} ({len(summary.times)} records)")
    return 0


def _norm(a: np.ndarray) -> float:
    """Frobenius norm of a, taken of a times the power of two that brings its
    largest magnitude into [0.5, 1), so that no square overflows or underflows;
    bitwise np.linalg.norm(a) where that is exact, inf or nan if a holds one."""
    peak = float(np.max(np.abs(a)))
    if not 0 < peak < math.inf:
        return peak
    exp = math.frexp(peak)[1]
    return float(np.ldexp(np.linalg.norm(np.ldexp(a, -exp)), exp))


def cmd_check(args) -> int:
    try:
        scenario = sio.load_scenario(args.scenario)[0]   # the document is not kept
    except sio.ScenarioError as exc:
        print(f"FAIL load: {exc}", file=sys.stderr)
        return 1

    # loading validated the leader spanning tree, the graph certificate and
    # the Hurwitz lambda_bar; those lines report what it found
    gains = scenario.gains
    lyap = scenario.topology.certificate
    # lambda_bar's products may leave the float range; a residual that does fails its line
    with np.errstate(all="ignore"):
        # of £ times the exact 2^-exponent: the same number, without £'s overflowing norm
        cond = float(np.linalg.cond(np.ldexp(scenario.topology.pounds, -lyap.exponent)))
        p1 = ctl.lyapunov_P1(gains.lambda_bar, gains.alpha_bar)
        delta = ctl.companion(gains.lambda_bar)
        residual = _norm(delta.T @ p1 + p1 @ delta + gains.alpha_bar * np.eye(delta.shape[0]))
        terms = 2.0 * _norm(delta) * _norm(p1) + gains.alpha_bar * math.sqrt(len(p1))
    checks = [
        ("leader spanning tree", True, ""),
        ("pinned laplacian conditioning", bool(np.isfinite(cond)), f"cond = {cond:.6g}"),
        ("graph Lyapunov certificate", True,
         f"q in [{lyap.q.min():.6g}, {lyap.q.max():.6g}], "
         f"P in [{lyap.p_diag.min():.6g}, {lyap.p_diag.max():.6g}], "
         f"min eig Q = {lyap.min_eig_q:.6g}"),
        ("Hurwitz lambda_bar", True, f"lambda_bar = {np.array2string(gains.lambda_bar)}"),
        ("companion Lyapunov solve",
         math.isfinite(residual) and residual <= P1_RESIDUAL_TOL * terms,
         f"residual = {residual:.3e}"),
    ]

    failed = None
    for name, ok, detail in checks:
        line = f"{name}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        print(line)
        if not ok and failed is None:
            failed = name
    if failed is not None:
        print(f"FAILED: {failed}", file=sys.stderr)
        return 1
    return 0


def _strict_json(value):
    """value with arrays as lists and each float that is not finite as the
    string "nan", "inf" or "-inf", which strict JSON has no number for."""
    if isinstance(value, dict):
        return {key: _strict_json(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return str(float(value))
    return value


def cmd_diagnose(args) -> int:
    try:
        scenario = sio.load_scenario(args.scenario)[0]   # the document is not kept
        bounds = scenario.bounds
        if args.bounds is not None:
            bounds = sio.parse_bounds(sio.load_document(args.bounds), scenario)
    except sio.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if bounds is None:
        print("error: no bounds file given and the scenario embeds none", file=sys.stderr)
        return 1

    report = cuub.cuub_diagnostics(bounds, scenario.topology, scenario.gains)
    for idx, (minor, ok) in enumerate(zip(report.minors, report.minors_pass), start=1):
        print(f"minor {idx}: {minor:.12g} ({'PASS' if ok else 'FAIL'})")
    print(f"mu1 = {report.mu1:.12g} (required > {report.mu1_required:.12g})")
    if report.mu1 <= 0:   # minor 5 needs mu1 > mu1_required, which is >= 0
        print("mu1 <= 0: no choice of bound constants passes minor 5; "
              "only the graph, its certificate or lambda_bar can change mu1")
    print(f"omega = {np.array2string(report.omega, precision=6)}")
    print(f"omega_l1 = {report.omega_l1:.12g}")
    print(f"sigma_min(K) = {report.sigma_min_k:.12g}")
    print(f"B_d = {report.b_d:.12g}" if report.positive_definite
          else "B_d = undefined (K is not positive definite)")
    if args.json is not None:
        try:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(_strict_json(dataclasses.asdict(report)), fh, indent=2, sort_keys=True,
                          allow_nan=False)
                fh.write("\n")
        except OSError as exc:
            print(f"error: cannot write {args.json}: {exc.strerror}", file=sys.stderr)
            return 1
    if not report.positive_definite:
        print(report.failure, file=sys.stderr)
        return 1
    print("K is positive definite")
    return 0


def _set_doc_field(doc: dict, dotted: str, value: float) -> None:
    """Set the number at a dotted path; ScenarioError if the path is missing
    or holds anything but a number."""
    *parents, leaf = dotted.split(".")
    node = doc
    for part in parents + [leaf]:
        if not isinstance(node, dict) or part not in node:
            raise sio.ScenarioError(dotted, "unknown scenario field")
        holder, node = node, node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise sio.ScenarioError(dotted, "not a number, so a sweep cannot set it")
    # an integral value stays a JSON integer where the document holds one,
    # because an integer field (sim.record_stride) rejects a float; -0.0
    # stays a float, whose sign a float field keeps
    if isinstance(node, int) and value.is_integer() and (value or math.copysign(1.0, value) > 0):
        value = int(value)
    holder[leaf] = value


def _resolve_param(doc: dict, name: str) -> str:
    """Resolve a bare parameter name to its dotted path in the section that
    holds it; a loaded document holds only keys its parse read, and gains,
    nn, sim and topology read no key name in common.  No run reads bounds."""
    if name.startswith("bounds."):
        raise sio.ScenarioError(name, "no run reads it, so a sweep cannot set it")
    if "." in name:
        return name
    for section in ("gains", "nn", "sim", "topology"):
        if name in doc.get(section, {}):
            return f"{section}.{name}"
    raise sio.ScenarioError(name, "unknown scenario field")


def _sweep_group(task: tuple) -> list:
    """The sweep.csv rows of a batch of points that share one field.batch_key,
    integrated together, each summarised as its records are made; a task
    is (values, scenario documents as JSON text)."""
    values, docs = task
    summaries = [sim.Summary() for _ in values]

    def sink(record, live):
        for k in live:
            summaries[k].add(record, k)
    aborted = sim.run_many([sio.parse_scenario(json.loads(doc)) for doc in docs], sink)
    return [_sweep_row(*point) for point in zip(values, summaries, aborted)]


def _sweep_row(value: float, summary: sim.Summary, aborted) -> tuple:
    if aborted is not None:   # no settling time or bound; the distance up to the abort
        return value, math.nan, math.nan, float(np.min(summary.min_pair))
    result = summary.result()
    return value, result["settling_time"], result["ultimate_bound"][0], result["min_pair_distance"]


def _sweep_batches(members: list, n_agents: int, cap: int) -> list:
    """Cut the points of one batch-key group into batches to stack.

    A batch holds at most SWEEP_BATCH_AGENTS agents.  A group that needs more
    than one batch is cut into at least min(cap, points) batches, so no worker
    the cap allows is left idle; the batch sizes differ by at most one.
    """
    k = len(members)
    count = -(-k // max(1, SWEEP_BATCH_AGENTS // n_agents))
    if count > 1:
        count = max(count, min(cap, k))
    return [members[i * k // count:(i + 1) * k // count] for i in range(count)]


def _worker_cap() -> int:
    """Process cap from CONSENSUS_LAB_THREADS (default: the CPU count)."""
    raw = os.environ.get(THREADS_ENV)
    if not raw:
        return os.cpu_count() or 1
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{THREADS_ENV} must be a positive integer, got {raw!r}")
    return cap


def cmd_sweep(args) -> int:
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError:
        print(f"error: cannot parse values {args.values!r}", file=sys.stderr)
        return 1
    if not values:
        print("error: empty sweep value list", file=sys.stderr)
        return 1
    try:
        cap = _worker_cap()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    jobs, groups, group_agents = [], {}, {}
    try:
        _scenario, doc = sio.load_scenario(args.scenario)
        dotted = _resolve_param(doc, args.param)
        text = json.dumps(doc)
        for value in values:
            job = json.loads(text)   # a copy; deepcopy fails on nesting that json accepts
            _set_doc_field(job, dotted, value)
            scenario = sio.parse_scenario(job)
            key = fld.batch_key(scenario)
            groups.setdefault(key, []).append(len(jobs))
            group_agents[key] = scenario.topology.n_agents
            jobs.append(json.dumps(job))   # text: far smaller than the parsed scenario
    except sio.ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    # the points of one batch run as one stacked integration, in one process
    tasks, batches = [], []
    for key, members in groups.items():
        for batch in _sweep_batches(members, group_agents[key], cap):
            batches.append(batch)
            tasks.append(([values[i] for i in batch], [jobs[i] for i in batch]))
    workers = min(cap, len(tasks))
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        # open before the first step, written after the pool (no bytes for a fork to inherit)
        with open(out_dir / "sweep.csv", "w", encoding="utf-8", newline="\n") as fh:
            if workers > 1:
                import concurrent.futures   # only here: it costs every command ~6 ms to import
                with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_sweep_group, tasks))
            else:
                results = [_sweep_group(task) for task in tasks]
            rows = dict(zip(sum(batches, []), sum(results, [])))   # point index -> row
            fh.write("value,settling_time,ultimate_bound,min_pair_distance\n")
            for i in range(len(values)):
                fh.write("%.17g,%.17g,%.17g,%.17g\n" % rows[i])
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir / 'sweep.csv'} ({len(values)} rows)")
    return 0


class _Parser(argparse.ArgumentParser):
    # usage problems are exit code 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="consensus-lab",
                     description="Deterministic leader-follower consensus simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate a scenario and write trace/plot data")
    p_run.add_argument("--scenario", required=True,
                       help="scenario JSON path or builtin:<name>")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--dt", type=float, default=None, help="override integration step")
    p_run.add_argument("--duration", type=float, default=None, help="override horizon")
    p_run.set_defaults(func=cmd_run)

    p_check = sub.add_parser("check", help="verify graph and gain prerequisites")
    p_check.add_argument("--scenario", required=True)
    p_check.set_defaults(func=cmd_check)

    p_diag = sub.add_parser("diagnose", help="evaluate the stability diagnostics matrix")
    p_diag.add_argument("--scenario", required=True)
    p_diag.add_argument("--bounds", default=None, help="bounds JSON (defaults to scenario's)")
    p_diag.add_argument("--json", default=None, help="also write the report as JSON")
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser("sweep", help="run one simulation per parameter value")
    p_sweep.add_argument("--scenario", required=True)
    p_sweep.add_argument("--param", required=True, help="scalar field, e.g. nn.kappa or gamma1")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values; --values=-1,2 if the first is negative")
    p_sweep.add_argument("--out", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
