"""Benchmark operations in fresh processes: set-up probes and CLI commands.

run_bench.py starts this script in one of two modes, given as a JSON request
in the first argument:

- ``{"mode": "setup", ...}``: a set-up probe.  It imports the CLI, loads,
  parses and validates the workload's scenario(s), and writes a report to
  ``request["report"]`` with the time since ``request["launch"]``, which is
  ``time.monotonic()`` in the parent just before the start (on Linux the
  monotonic clock is shared by all processes).  Optional keys: ``duration``
  override, ``sweep_param`` and ``sweep_values``.
- ``{"mode": "serve"}``: imports the CLI once, then reads one request per
  line from stdin.  Each request runs ``consensus_lab.cli.main(argv)`` in a
  forked copy of this process, so every command starts from a fresh import
  without paying for it, and the exit code of the copy is written back as
  one line.  Request keys: ``argv``, ``trace``, ``workers`` (the value of
  CONSENSUS_LAB_THREADS), ``report`` and ``log`` paths.

With ``trace`` true, the public entry points of each module are wrapped in
the forked copy before the command starts (see ``Tracer.install``); nothing
inside the package is changed.  The parent checks the command's outputs.
"""

import copy
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time
import traceback


class Tracer:
    """Spans around module entry points, aggregated in memory.

    For every span name it keeps [calls, inclusive seconds, self seconds],
    where self time is the span minus its direct wrapped children.  For
    every layer it keeps busy seconds: time with at least one span of the
    layer open, so nested calls within a layer are not counted twice.
    """

    def __init__(self):
        self.spans = {}
        self.busy = {}
        self.samples = {}
        self.missing = {}
        self.records = 0
        self._depth = {}
        self._stack = []

    def wrap(self, layer, name, fn, sample=False):
        acc = self.spans.setdefault(name, [0, 0.0, 0.0])
        samples = self.samples.setdefault(name, []) if sample else None
        self.busy.setdefault(layer, 0.0)
        self._depth.setdefault(layer, 0)
        busy, depth, stack = self.busy, self._depth, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            depth[layer] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[layer] -= 1
                if not depth[layer]:
                    busy[layer] += dur
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if samples is not None:
                    samples.append(dur)

        return wrapper

    def _target(self, module, attr, name):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing[name] = f"{module.__name__}.{attr} is not there to wrap"
            return None
        return fn

    def patch(self, module, attr, layer, name=None, sample=False):
        name = name or f"{layer}.{attr}"
        fn = self._target(module, attr, name)
        if fn is not None:
            setattr(module, attr, self.wrap(layer, name, fn, sample))

    def wrap_models(self, scenario):
        """The scenario with its drift, disturbance and leader-drift callables wrapped."""
        try:
            agents = tuple(
                dataclasses.replace(
                    m,
                    drift=self.wrap("dynamics", "dynamics.drift", m.drift),
                    disturbance=self.wrap("dynamics", "dynamics.disturbance", m.disturbance))
                for m in scenario.agent_models)
            leader = dataclasses.replace(
                scenario.leader_model,
                drift=self.wrap("dynamics", "dynamics.leader_drift", scenario.leader_model.drift))
            return dataclasses.replace(scenario, agent_models=agents, leader_model=leader)
        except (AttributeError, TypeError, ValueError) as exc:
            self.missing["dynamics"] = f"cannot wrap the scenario's model callables: {exc}"
            return scenario

    def install(self, cli, sio, sim, graph, estimator):
        """Wrap the public entry points that the benchmark reports on."""
        self.patch(cli, "write_trace_csv", "cli")
        self.patch(cli, "write_figure_data", "cli")
        self.patch(sio, "load_scenario", "scenario_io")
        parse = self._target(sio, "parse_scenario", "scenario_io.parse_scenario")
        if parse is not None:
            spanned = self.wrap("scenario_io", "scenario_io.parse_scenario", parse)
            sio.parse_scenario = lambda *a, **k: self.wrap_models(spanned(*a, **k))
        for attr in ("graph_lyapunov", "has_leader_spanning_tree", "pinned_laplacian"):
            self.patch(graph, attr, "graph")
        for attr in ("basis_eval_batch", "basis_eval"):
            self.patch(estimator, attr, "estimator")
        self.patch(sim, "metrics", "sim")
        rk4 = self._target(sim, "rk4_step", "sim.rk4_step")
        if rk4 is not None:
            def rk4_step(field, *args, **kwargs):
                return rk4(self.wrap("sim", "sim.field", field), *args, **kwargs)
            sim.rk4_step = self.wrap("sim", "sim.rk4_step", rk4_step, sample=True)
        run = self._target(sim, "run", "sim.run")
        if run is not None:
            spanned_run = self.wrap("sim", "sim.run", run)

            def counted_run(*args, **kwargs):
                trace = spanned_run(*args, **kwargs)
                self.records += len(getattr(trace, "times", ()))
                return trace
            sim.run = counted_run

    def report(self) -> dict:
        return {"spans": self.spans, "busy": self.busy, "samples": self.samples,
                "missing": self.missing, "records": self.records}


def _setup(req: dict) -> dict:
    import numpy
    import scipy

    import consensus_lab.cli  # noqa: F401  (the CLI's import cost is part of set-up)
    from consensus_lab import scenario_io as sio
    from consensus_lab import sim

    scenario, doc = sio.load_scenario(req["scenario"])
    if req.get("duration") is not None:
        scenario = dataclasses.replace(scenario, duration=req["duration"])
        sim.validate_scenario(scenario)
    for value in req.get("sweep_values", []):
        job = copy.deepcopy(doc)
        node = job
        *parents, leaf = req["sweep_param"].split(".")
        for part in parents:
            node = node[part]
        node[leaf] = value
        sio.parse_scenario(job)
    setup_s = time.monotonic() - req["launch"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return {
        "setup_s": setup_s,
        "scenario_sha256": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
        "n_agents": int(scenario.topology.n_agents),
        "steps": int(round(scenario.duration / scenario.dt)),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }


def _run(req: dict) -> dict:
    from consensus_lab import cli

    main = cli.main
    tracer = None
    if req.get("trace"):
        from consensus_lab import estimator, graph, scenario_io, sim
        tracer = Tracer()
        tracer.install(cli, scenario_io, sim, graph, estimator)
        main = tracer.wrap("cli", "cli.main", main)
    error = None
    t0 = time.perf_counter()
    try:
        rc = main(req["argv"])
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an escaped exception is a failed operation, reported with its traceback
        rc, error = None, traceback.format_exc()
    wall_s = time.perf_counter() - t0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out = {
        "rc": rc,
        "error": error,
        "wall_s": wall_s,
        "cpu_user_s": usage.ru_utime,
        "cpu_sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt,
        "rss_self_kb": usage.ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        out["trace"] = tracer.report()
    return out


def _write(path: str, report: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _serve() -> None:
    from consensus_lab import cli  # noqa: F401  (imported once, before any fork)

    for line in sys.stdin:
        req = json.loads(line)
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                log = os.open(req["log"], os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
                os.dup2(log, 1)
                os.dup2(log, 2)
                os.environ["CONSENSUS_LAB_THREADS"] = str(req["workers"])
                _write(req["report"], _run(req))
                status = 0
            except BaseException:  # the forked copy must never return into the serve loop
                traceback.print_exc()
            finally:
                sys.stdout.flush()
                sys.stderr.flush()
                os._exit(status)
        _, wait_status = os.waitpid(pid, 0)
        print(os.waitstatus_to_exitcode(wait_status), flush=True)


def main() -> None:
    req = json.loads(sys.argv[1])
    if req["mode"] == "serve":
        _serve()
    else:
        _write(req["report"], _setup(req))


if __name__ == "__main__":
    main()
