"""Closed-loop integration of fleet states and estimator weights.

The scenario and its checks, the RK4 loop over the derivative field of
``field``, the trace records, and the summary of a run.  Integration is
classical fixed-step RK4.  Runs are deterministic: identical scenarios
produce bitwise identical traces.

Scenarios that share a structure (``field.batch_key``) integrate as one
stacked state, and each variant's records are bitwise the ones it gives
alone (``run`` is ``run_many`` of one).

Each record goes to a sink as it is made.  Aborts (non-finite values,
weight-norm circuit breaker) end a scenario's records rather than raise.
"""

import dataclasses
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import controller as ctl
from . import cuub
from . import dynamics as dyn
from . import estimator as nn
from . import field as fld
from . import graph as gr

RECORD_STRIDE_DEFAULT = 10
# The most RK4 steps a run may ask for, checked when a scenario is
# validated.  At the limit a run of the five-vehicle platoon takes about an
# hour; the bundled platoon asks for 40 000 steps.
MAX_STEPS = 10_000_000
# the estimator families whose weight norms a record holds, in its order
WEIGHT_FAMILIES = ("drift", "disturbance", "leader")


class EmptyTrace(ValueError):
    """A Summary of no records was asked for its result."""


@dataclass(frozen=True)
class Scenario:
    """Complete simulation description; immutable once constructed."""

    topology: gr.Topology
    agent_models: tuple
    leader_model: dyn.LeaderModel
    gains: ctl.ControlGains
    offsets: ctl.Offsets
    nn_config: nn.NNConfig
    initial: dyn.FleetState
    duration: float
    dt: float = 1e-3
    record_stride: int = RECORD_STRIDE_DEFAULT
    bounds: Optional[cuub.CuubBounds] = None   # read by diagnose only, not by a run

    def __post_init__(self):
        object.__setattr__(self, "agent_models", tuple(self.agent_models))
        validate_scenario(self)

    @property
    def steps(self) -> int:
        """RK4 steps of a run: duration / dt, which validation requires to be whole."""
        return int(round(self.duration / self.dt))


def validate_scenario(scenario: Scenario) -> None:
    """Raise ValueError on any violated cross-field invariant.

    A Scenario runs this when it is built, also by ``dataclasses.replace``;
    the certificate it solves is cached on the topology.
    """
    topo = scenario.topology
    n = scenario.initial.order
    n_agents = topo.n_agents
    if len(scenario.agent_models) != n_agents:
        raise ValueError(f"agents: got {len(scenario.agent_models)} models for "
                         f"{n_agents} topology agents")
    if scenario.initial.agents.shape[0] != n_agents:
        raise ValueError(f"initial_states.agents: got {scenario.initial.agents.shape[0]} states "
                         f"for {n_agents} agents")
    if scenario.offsets.per_agent.shape != (n_agents, n):
        raise ValueError(f"offsets.agents: expected shape ({n_agents}, {n})")
    if scenario.offsets.leader.shape != (n,):
        raise ValueError(f"offsets.leader: expected length {n}")
    if scenario.gains.order != n:
        raise ValueError(f"gains.c: length {scenario.gains.order} does not match chain order {n}")
    if not scenario.dt > 0:
        raise ValueError("sim.dt must be positive")
    if not scenario.duration >= 0:
        raise ValueError("sim.duration must be nonnegative")
    steps = scenario.duration / scenario.dt
    if steps > MAX_STEPS:
        raise ValueError(f"sim.duration / sim.dt asks for a step count of {steps:.4g}, "
                         f"above the limit of {MAX_STEPS} (sim.MAX_STEPS)")
    if scenario.duration > 0 and scenario.dt > scenario.duration:
        raise ValueError("sim.dt must not exceed a positive sim.duration")
    if abs(steps - round(steps)) > 1e-9 * steps:
        raise ValueError(f"sim.duration / sim.dt = {scenario.duration!r} / {scenario.dt!r} = "
                         f"{steps:.12g} is not a whole number of steps")
    if scenario.record_stride < 1:
        raise ValueError("sim.record_stride must be >= 1")
    if not gr.has_leader_spanning_tree(topo):
        raise ValueError("topology has no leader spanning tree: some agent cannot hear the leader")
    for name in ("f_basis", "leader_basis"):
        if getattr(scenario.nn_config, name).centers.shape[1] != n:
            raise ValueError(f"{name} centers must match the chain order")
    try:
        with np.errstate(all="ignore"):   # a degree sum beyond the float range fails the checks
            topo.certificate   # solved here and cached on the topology
    except (gr.SingularPinnedLaplacian, gr.NonPositiveQ) as exc:
        raise ValueError(f"topology: no graph Lyapunov certificate: {exc}") from None


def initial_state(*scenarios: Scenario) -> np.ndarray:
    """Flat initial vector of the scenarios: their fleet states and all-zero weights."""
    layout = dataclasses.replace(fld.state_layout(scenarios[0]), n_variants=len(scenarios))
    y = np.zeros(layout.size)
    agents, leader, _, _, _ = layout.split(y)
    for k, scenario in enumerate(scenarios):
        agents[k] = scenario.initial.agents
        leader[k] = scenario.initial.leader
    return y


def rk4_step(field: Callable[[np.ndarray, float], np.ndarray],
             full_state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical 4-stage fixed-step update, returned as a new array.

    Nothing is written into ``full_state`` or into an array the field
    returned, and each stage's derivative is used up before the field is
    called again: a field may return its input, or one array that it
    overwrites on every call.  The sum is y + (dt/6)(k1 + 2 k2 + 2 k3 + k4),
    accumulated in that order.
    """
    k = field(full_state, t)
    acc = np.array(k, dtype=float)
    stage = np.empty_like(acc)
    for h, weight in ((0.5 * dt, 2.0), (0.5 * dt, 2.0), (dt, 1.0)):
        np.multiply(k, h, out=stage)
        stage += full_state
        k = field(stage, t + h)
        acc += weight * k   # 1.0 * k4 is k4
    acc *= dt / 6.0
    acc += full_state
    return acc


@dataclass
class Trace:
    """Time-indexed record of a run; arrays have one row per recorded instant."""

    times: np.ndarray              # (T,)
    agents: np.ndarray             # (T, N, n)
    leader: np.ndarray             # (T, n)
    controls: np.ndarray           # (T, N)
    errors: np.ndarray             # (T, N, n): column k-1 holds e^k
    r: np.ndarray                  # (T, N)
    rel_errors: np.ndarray         # (T, N, n): E_i0 per order
    weight_norms: np.ndarray       # (T, N, 3): the WEIGHT_FAMILIES
    min_pair_distance: np.ndarray  # (T,), inf when N == 1
    min_obstacle_distance: np.ndarray  # (T,), inf when no obstacles
    aborted: Optional[str] = None


# One instant of K stacked runs: per Trace field, its rows with a leading variant axis.
Record = NamedTuple("Record", [(f.name, np.ndarray) for f in dataclasses.fields(Trace)][:-1])


def trace_columns(n_agents: int, order: int) -> list[str]:
    """The names of a record's values, in Record order: the trace.csv header."""
    ids, ks = range(1, n_agents + 1), range(1, order + 1)
    chains = {x: [f"{x}{k}_{i}" for i in ids for k in ks] for x in "xeE"}   # per agent, per order
    return (["t"] + chains["x"] + [f"x{k}_0" for k in ks] + [f"u_{i}" for i in ids] + chains["e"]
            + [f"r_{i}" for i in ids] + chains["E"] + [f"th{w}_norm_{i}" for i in ids for w in "fwl"]
            + ["min_pair_distance", "min_obstacle_distance"])


def run_many(scenarios, sink) -> list:
    """Integrate scenarios that share one batch_key as one stacked state.

    One RK4 loop, with one field evaluation per stage, advances every
    scenario and hands each Record to ``sink(record, live)``, with the
    indices of the variants live at it.  An abort (non-finite values, weight
    norms beyond the circuit breaker) ends that scenario's records; the abort
    reasons are returned, None where none.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    ctx = fld._SimContext(scenarios)
    y = initial_state(*scenarios)
    dt, stride, breaker = first.dt, first.record_stride, nn.WEIGHT_BREAKER
    n_steps = first.steps
    live = list(range(len(scenarios)))
    aborted = [None] * len(scenarios)
    # the entries of stopped variants, reset to their (finite) initial state
    # after each step so the fast finiteness check keeps holding
    y0, stopped = y.copy(), np.zeros(y.size, dtype=bool)

    def stop(k: int, reason: str) -> None:
        aborted[k] = reason
        live.remove(k)
        for block in ctx.layout.split(stopped):
            block[k] = True

    def record(t: float) -> None:
        row = Record(*ctx.record(y, t))
        sink(row, live)
        norms = row.weight_norms.reshape(len(scenarios), -1)   # per agent, per family
        worst = norms.argmax(axis=1).tolist()
        for k in [k for k in live if norms[k, worst[k]] > breaker]:
            agent, family = divmod(worst[k], 3)
            stop(k, f"{WEIGHT_FAMILIES[family]} weight norm {norms[k, worst[k]]:.3e} of agent "
                    f"{agent + 1} exceeds circuit breaker at t={t:g}")

    with np.errstate(all="ignore"):
        record(0.0)
        step = 0
        while live and step < n_steps:
            t = step * dt
            ctx.faults.clear()
            y_next = rk4_step(ctx.field, y, t, dt)
            for k, fault in ctx.faults.items():
                if k in live:
                    stop(k, fault if isinstance(fault, str)
                         else f"model evaluation failed at t={t:g}: {fault}")
            step += 1
            if not np.logical_and.reduce(np.isfinite(y_next)):
                # the step's first rate, evaluated again, names where the
                # blow-up began; the later stages spread it to the chains
                blocks, rates = ctx.layout.split(y_next), ctx.layout.split(ctx.field(y, t))
                for k in list(live):
                    part = _nonfinite_part(blocks, k)
                    if part is not None:
                        origin = _nonfinite_part(rates, k)
                        stop(k, f"non-finite state of {part} at t={step * dt:g}"
                                + (f"; first non-finite rate: {origin}" if origin else ""))
            y, t = y_next, step * dt
            if len(live) < len(scenarios):
                np.copyto(y, y0, where=stopped)
            if live and (step % stride == 0 or step == n_steps):
                record(t)
    return aborted


# the blocks of StateLayout.split, as a non-finite state abort names them
_STATE_BLOCKS = ("chain", "chain") + tuple(f"{w} weights" for w in WEIGHT_FAMILIES)


def _nonfinite_part(blocks, k: int) -> Optional[str]:
    """Whose state holds variant k's first non-finite entry in layout order,
    and in which block, of the StateLayout.split `blocks`; None if none."""
    for b, (block, name) in enumerate(zip(blocks, _STATE_BLOCKS)):
        bad = np.argwhere(~np.isfinite(block[k]))
        if bad.size:
            who = "the leader" if b == 1 else f"agent {bad[0, 0] + 1}"
            return f"{who} ({name})"
    return None


def run(scenario: Scenario, sink) -> Optional[str]:
    """run_many of one scenario: its abort reason, None where none."""
    return run_many([scenario], sink)[0]


class Summary:
    """Summary statistics of a run, folded over its records in order: peaks,
    empirical ultimate bounds, settling time; n + 3 floats kept per record.

    The empirical ultimate bound of order k is the maximum of ||delta^k||
    over the last 20% of the horizon; the settling time is the first
    recorded instant after which ||delta^1|| stays within 1.1x that bound.
    """

    def __init__(self):
        self.times, self.norms, self.min_pair, self.min_obstacle = [], [], [], []
        self.peak = self.last = None

    def add(self, row, k: int) -> None:
        """Fold in entry k of `row`, which has Trace's field names: variant
        k of a Record, or record k of a Trace."""
        rel = row.rel_errors[k]                           # (N, n)
        self.last = np.abs(rel)
        self.peak = self.last if self.peak is None else np.maximum(self.peak, self.last)
        self.norms.append(np.linalg.norm(rel, axis=0))   # ||delta^k|| over agents
        self.times.append(row.times[k])
        self.min_pair.append(row.min_pair_distance[k])
        self.min_obstacle.append(row.min_obstacle_distance[k])

    def result(self) -> dict:
        if not self.times:
            raise EmptyTrace("trace has no records")
        times, norms = np.array(self.times), np.array(self.norms)   # (T,), (T, n)
        t_cut = times[0] + 0.8 * (times[-1] - times[0])
        ultimate = norms[times >= t_cut].max(axis=0)
        tol = 1.1 * ultimate[0]
        return {
            "peak_abs_rel_error": self.peak.tolist(),     # (N, n)
            "final_abs_rel_error": self.last.tolist(),    # (N, n)
            "ultimate_bound": ultimate.tolist(),          # per order
            "settling_time": settling_time(times, norms[:, 0] <= tol * (1.0 + 1e-12)),
            "min_pair_distance": float(np.min(self.min_pair)),
            "min_obstacle_distance": float(np.min(self.min_obstacle)),
            "duration": float(times[-1] - times[0]),
            "records": int(times.size),
        }


def metrics(trace: Trace) -> dict:
    """The Summary of a whole trace that did not abort."""
    if trace.aborted is not None:
        raise ValueError(f"cannot summarize an aborted trace: {trace.aborted}")
    summary = Summary()
    for i in range(trace.times.size):
        summary.add(trace, i)
    return summary.result()


def settling_time(times: np.ndarray, ok: np.ndarray) -> float:
    """The first recorded instant from which ok holds at every later record:
    the start of the longest all-true suffix of ok, or the last instant when
    the last record is not ok."""
    failed = np.flatnonzero(~ok)
    start = failed[-1] + 1 if failed.size else 0
    return float(times[min(start, times.size - 1)])
