"""Closed-loop integration of fleet states and estimator weights, plus diagnostics.

One flat state vector carries every follower chain, the leader chain, and
all adaptive weights; a single derivative field composes the control law and
the tuning laws so states and weights integrate together (no splitting).
Integration is classical fixed-step RK4.  Runs are deterministic: identical
scenarios produce bitwise identical traces.

Aborts (non-finite values, weight-norm circuit breaker) are recorded on the
trace rather than raised, so partial traces stay inspectable.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import controller as ctl
from . import dynamics as dyn
from . import estimator as nn
from . import graph as gr

RECORD_STRIDE_DEFAULT = 10


class EmptyTrace(ValueError):
    """metrics() was asked to summarize a trace with no records."""


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
    # graph certificate found by validate_scenario; never copied by replace()
    certificate: Optional[gr.GraphLyapunov] = field(default=None, init=False, repr=False,
                                                    compare=False)

    def __post_init__(self):
        object.__setattr__(self, "agent_models", tuple(self.agent_models))


def validate_scenario(scenario: Scenario) -> gr.GraphLyapunov:
    """Raise ValueError on any violated cross-field invariant; return the graph certificate.

    The certificate is kept on the (immutable) scenario, so a scenario is
    validated once; ``dataclasses.replace`` makes a new, unvalidated one.
    """
    if scenario.certificate is not None:
        return scenario.certificate
    topo = scenario.topology
    n = scenario.leader_model.order
    n_agents = topo.n_agents
    if len(scenario.agent_models) != n_agents:
        raise ValueError(f"expected {n_agents} agent models, got {len(scenario.agent_models)}")
    for i, model in enumerate(scenario.agent_models):
        if model.order != n:
            raise ValueError(f"agent {i} has order {model.order}, leader has {n}")
    if scenario.initial.agents.shape != (n_agents, n):
        raise ValueError("initial agent states must be (N, n)")
    if scenario.offsets.per_agent.shape != (n_agents, n):
        raise ValueError("offsets must be (N, n)")
    if scenario.gains.order != n:
        raise ValueError(f"gains are sized for order {scenario.gains.order}, models have {n}")
    if not scenario.dt > 0:
        raise ValueError("dt must be positive")
    if scenario.duration < 0:
        raise ValueError("duration must be nonnegative")
    if scenario.duration > 0 and scenario.dt > scenario.duration:
        raise ValueError("dt must not exceed a positive duration")
    if scenario.record_stride < 1:
        raise ValueError("record_stride must be >= 1")
    if not gr.has_leader_spanning_tree(topo):
        raise ValueError("topology has no leader spanning tree: some agent cannot hear the leader")
    if scenario.nn_config.f_basis.kind != nn.GAUSSIAN_RBF_STATE:
        raise ValueError("f_basis must be a state RBF basis")
    if scenario.nn_config.f_basis.centers.shape[1] != n:
        raise ValueError("f_basis centers must match the chain order")
    if scenario.nn_config.leader_basis.kind != nn.GAUSSIAN_RBF_STATE:
        raise ValueError("leader_basis must be a state RBF basis")
    if scenario.nn_config.leader_basis.centers.shape[1] != n:
        raise ValueError("leader_basis centers must match the chain order")
    if scenario.nn_config.w_basis.kind == nn.GAUSSIAN_RBF_STATE:
        raise ValueError("w_basis must be a time basis")
    try:
        lyap = gr.graph_lyapunov(topo)
    except (gr.SingularPinnedLaplacian, gr.NonPositiveQ) as exc:
        raise ValueError(f"topology: no graph Lyapunov certificate: {exc}") from None
    object.__setattr__(scenario, "certificate", lyap)
    return lyap


@dataclass(frozen=True)
class StateLayout:
    """Index layout of the flat closed-loop state vector."""

    n_agents: int
    order: int
    p_f: int
    p_w: int
    p_l: int

    @property
    def size(self) -> int:
        base = self.n_agents * self.order + self.order
        return base + self.n_agents * (self.p_f + self.p_w + self.p_l)

    def split(self, y: np.ndarray):
        na, n = self.n_agents, self.order
        i0 = na * n
        i1 = i0 + n
        i2 = i1 + na * self.p_f
        i3 = i2 + na * self.p_w
        agents = y[:i0].reshape(na, n)
        leader = y[i0:i1]
        th_f = y[i1:i2].reshape(na, self.p_f)
        th_w = y[i2:i3].reshape(na, self.p_w)
        th_l = y[i3:].reshape(na, self.p_l)
        return agents, leader, th_f, th_w, th_l


def state_layout(scenario: Scenario) -> StateLayout:
    cfg = scenario.nn_config
    return StateLayout(
        n_agents=scenario.topology.n_agents,
        order=scenario.leader_model.order,
        p_f=cfg.f_basis.count,
        p_w=cfg.w_basis.count,
        p_l=cfg.leader_basis.count,
    )


def initial_state(scenario: Scenario) -> np.ndarray:
    """Flat initial vector: initial fleet states and all-zero weights."""
    layout = state_layout(scenario)
    y = np.zeros(layout.size)
    na, n = layout.n_agents, layout.order
    y[:na * n] = scenario.initial.agents.ravel()
    y[na * n:na * n + n] = scenario.initial.leader
    return y


class _Evaluation(NamedTuple):
    """Everything downstream of one raw state snapshot (see _SimContext.evaluate)."""

    agents: np.ndarray      # (N, n)
    leader: np.ndarray      # (n,)
    th_f: np.ndarray        # (N, p_f) drift weights
    th_w: np.ndarray        # (N, p_w) disturbance weights
    th_l: np.ndarray        # (N, p_l) leader weights
    rel_errors: np.ndarray  # (N, n): E_i0 per order
    errors: np.ndarray      # (N, n): column k-1 holds e^k
    r: np.ndarray           # (N,)
    phi_f: np.ndarray       # (N, p_f)
    phi_w: np.ndarray       # (p_w,)
    phi_l: np.ndarray       # (p_l,)
    u: np.ndarray           # (N,) composite control
    s_fac: np.ndarray       # (N,) r_i * p_i * (d_i + b_i0), shared by the tuning laws
    min_pair: float
    min_obst: float


class _SimContext:
    """Precomputed arrays shared by the derivative field and the recorder."""

    def __init__(self, scenario: Scenario):
        lyap = validate_scenario(scenario)
        topo = scenario.topology
        self.scenario = scenario
        self.layout = state_layout(scenario)
        self.pounds = gr.pinned_laplacian(topo)
        self.dvec = topo.adjacency.sum(axis=1)
        self.bvec = np.asarray(topo.leader_weights)
        self.pin = self.dvec + self.bvec
        self.p_vec = lyap.p_diag
        g = scenario.gains
        self.lam = np.asarray(g.lambda_bar)
        self.cvec = np.asarray(g.c)
        self.psi_a = np.asarray(scenario.offsets.per_agent)
        self.psi_l = np.asarray(scenario.offsets.leader)
        self.gains = g
        if g.strict_decentralized:
            self.ce_mask = (self.bvec > 0).astype(float)
        else:
            self.ce_mask = np.ones(topo.n_agents)
        cfg = scenario.nn_config
        self.cfg = cfg
        self.f_basis = cfg.f_basis
        self.l_basis = cfg.leader_basis
        self.w_basis = cfg.w_basis
        self.drift_batches, self.loose_drifts = _batches(
            [m.drift for m in scenario.agent_models])
        self.disturbance_batches, self.loose_disturbances = _batches(
            [m.disturbance for m in scenario.agent_models])
        self.leader_drift = scenario.leader_model.drift
        self.obstacles = np.asarray(g.obstacles, dtype=float)

    # Everything downstream of the raw state snapshot, shared by the field
    # evaluation and by trace recording so both see identical numbers.
    def evaluate(self, y: np.ndarray, t: float) -> _Evaluation:
        na, n = self.layout.n_agents, self.layout.order
        X, x0, th_f, th_w, th_l = self.layout.split(y)
        g = self.gains

        delta = (X - self.psi_a) - (x0 - self.psi_l)[None, :]
        e_cols = -(self.pounds @ delta)                      # column k-1 holds e^k
        r = e_cols[:, :n - 1] @ self.lam + e_cols[:, n - 1]
        rho_v = e_cols[:, 1:] @ self.lam

        phi_f = nn.basis_eval_batch(self.f_basis, X)
        f_hat = np.einsum("ij,ij->i", th_f, phi_f)
        phi_w = nn.basis_eval(self.w_basis, t)
        w_hat = th_w @ phi_w
        phi_l = nn.basis_eval(self.l_basis, x0)
        l_hat = th_l @ phi_l

        u_d = (rho_v / self.pin - f_hat - w_hat + l_hat + r
               - (delta @ self.cvec) * self.ce_mask)

        pos = X[:, 0]
        pair, min_pair = self._pair_sums(pos)
        dl = pos - x0[0]
        adl = np.abs(dl)
        m_lead = np.where(adl < g.psi_i0, g.chi / np.maximum(adl, ctl.DISTANCE_CLAMP), 0.0)
        if g.signless_avoidance:
            u_c = g.gamma1 * pair + g.gamma2 * m_lead
        else:
            u_c = -g.gamma1 * pair - g.gamma2 * m_lead * np.sign(dl)

        if self.obstacles.size:
            do = pos[:, None] - self.obstacles[None, :]
            ado = np.abs(do)
            deff = np.maximum(ado, g.obstacle_radius * (1.0 + ctl.DISTANCE_CLAMP))
            ratio = (g.detect_radius ** 2 - deff ** 2) / (deff ** 2 - g.obstacle_radius ** 2)
            m_obs = np.where(ado <= g.detect_radius, ratio ** 2, 0.0)
            if g.signless_avoidance:
                u_0 = g.gamma0 * m_obs.sum(axis=1)
            else:
                u_0 = -g.gamma0 * (m_obs * np.sign(do)).sum(axis=1)
            min_obst = float(ado.min())
        else:
            u_0 = np.zeros(na)
            min_obst = math.inf

        u = u_d - u_c - u_0
        return _Evaluation(X, x0, th_f, th_w, th_l, delta, e_cols, r, phi_f, phi_w, phi_l,
                           u, r * self.p_vec * self.pin, min_pair, min_obst)

    def _pair_sums(self, pos: np.ndarray):
        """Per agent sum of the pairwise potentials (times sign(x_i - x_j) unless
        signless), and the smallest pair distance.

        With the positions sorted, |x_i - x_j| is the gap between sorted slots
        a and a + k.  Gaps only grow with the offset k, so the scan stops at
        the first k at which no gap is below psi_ij.
        """
        g = self.gains
        na = pos.shape[0]
        if na < 2:
            return np.zeros(na), math.inf
        order = pos.argsort(kind="stable")
        ps = pos[order]
        gap = ps[1:] - ps[:-1]
        min_pair = float(gap.min())
        if min_pair >= g.psi_ij:
            return np.zeros(na), min_pair
        acc = np.zeros(na)
        near = gap < g.psi_ij
        k = 1
        while True:
            if not g.signless_avoidance:
                near &= gap > 0.0   # coincident agents exert no push
            m = np.where(near, g.chi / np.maximum(gap, ctl.DISTANCE_CLAMP), 0.0)
            acc[k:] += m
            if g.signless_avoidance:
                acc[:-k] += m
            else:
                acc[:-k] -= m
            k += 1
            if k == na:
                break
            gap = ps[k:] - ps[:-k]
            near = gap < g.psi_ij
            if not near.any():
                break
        sums = np.empty(na)
        sums[order] = acc
        return sums, min_pair

    def field(self, y: np.ndarray, t: float) -> np.ndarray:
        ev = self.evaluate(y, t)
        X, x0 = ev.agents, ev.leader
        na, n = self.layout.n_agents, self.layout.order
        cfg = self.cfg

        f_vals = np.empty(na)
        for b in self.drift_batches:
            f_vals[b.index] = b.kernel(b.consts, [X[b.index, k] for k in b.columns], t)
        for i, drift in self.loose_drifts:
            f_vals[i] = drift(X[i], t)
        w_vals = np.empty(na)
        for b in self.disturbance_batches:
            w_vals[b.index] = b.kernel(b.consts, (), t)
        for i, disturbance in self.loose_disturbances:
            w_vals[i] = disturbance(t)
        if not np.isfinite(f_vals).all() or not np.isfinite(w_vals).all():
            raise dyn.NonFiniteDrift(f"non-finite drift or disturbance at t={t}")
        f0 = self.leader_drift(x0, t)
        if not math.isfinite(f0):
            raise dyn.NonFiniteDrift(f"non-finite leader drift at t={t}")

        x_dot = np.empty((na, n))
        x_dot[:, :n - 1] = X[:, 1:]
        x_dot[:, n - 1] = f_vals + ev.u + w_vals
        x0_dot = np.empty(n)
        x0_dot[:n - 1] = x0[1:]
        x0_dot[n - 1] = f0

        col = ev.s_fac[:, None]
        d_th_f = -cfg.gain * (ev.phi_f * col + cfg.kappa * ev.th_f)
        d_th_w = -cfg.gain * (ev.phi_w[None, :] * col + cfg.kappaw * ev.th_w)
        d_th_l = cfg.gain * (ev.phi_l[None, :] * col - cfg.kappa0 * ev.th_l)

        return np.concatenate([
            x_dot.ravel(), x0_dot, d_th_f.ravel(), d_th_w.ravel(), d_th_l.ravel(),
        ])


class _Batch(NamedTuple):
    """Agents whose models share one kernel, with their stacked constants."""

    index: np.ndarray   # (G,) agent indices
    kernel: Callable
    consts: list        # one (G,) float64 column per model constant
    columns: tuple      # state columns the kernel reads


def _batches(models) -> tuple:
    """Group the BatchModels among `models` by key; the rest stay (index, callable)."""
    members, loose = {}, []
    for i, model in enumerate(models):
        if isinstance(model, dyn.BatchModel):
            members.setdefault(model.key, []).append(i)
        else:
            loose.append((i, model))
    batches = []
    for index in members.values():
        first = models[index[0]]
        stacked = np.array([models[i].consts for i in index]).reshape(len(index), -1)
        batches.append(_Batch(np.array(index), first.kernel,
                              [np.ascontiguousarray(c) for c in stacked.T], first.columns))
    return batches, loose


def rk4_step(field: Callable[[np.ndarray, float], np.ndarray],
             full_state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical 4-stage fixed-step update."""
    if not dt > 0:
        raise ValueError("dt must be positive")
    k1 = field(full_state, t)
    k2 = field(full_state + 0.5 * dt * k1, t + 0.5 * dt)
    k3 = field(full_state + 0.5 * dt * k2, t + 0.5 * dt)
    k4 = field(full_state + dt * k3, t + dt)
    return full_state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    weight_norms: np.ndarray       # (T, N, 3): drift, disturbance, leader families
    min_pair_distance: np.ndarray  # (T,), inf when N == 1
    min_obstacle_distance: np.ndarray  # (T,), inf when no obstacles
    aborted: Optional[str] = None

    @property
    def n_agents(self) -> int:
        return self.agents.shape[1]

    @property
    def order(self) -> int:
        return self.agents.shape[2]


class _Recorder:
    def __init__(self):
        self.rows = {name: [] for name in (
            "times", "agents", "leader", "controls", "errors", "r",
            "rel_errors", "weight_norms", "min_pair", "min_obst")}

    def record(self, ctx: _SimContext, y: np.ndarray, t: float) -> float:
        ev = ctx.evaluate(y, t)
        norms = np.stack([
            np.linalg.norm(ev.th_f, axis=1),
            np.linalg.norm(ev.th_w, axis=1),
            np.linalg.norm(ev.th_l, axis=1),
        ], axis=1)
        rows = self.rows
        rows["times"].append(t)
        rows["agents"].append(ev.agents.copy())
        rows["leader"].append(ev.leader.copy())
        rows["controls"].append(ev.u)
        rows["errors"].append(ev.errors)
        rows["r"].append(ev.r)
        rows["rel_errors"].append(ev.rel_errors)
        rows["weight_norms"].append(norms)
        rows["min_pair"].append(ev.min_pair)
        rows["min_obst"].append(ev.min_obst)
        return float(norms.max()) if norms.size else 0.0

    def build(self, aborted: Optional[str]) -> Trace:
        rows = self.rows
        return Trace(
            times=np.asarray(rows["times"]),
            agents=np.asarray(rows["agents"]),
            leader=np.asarray(rows["leader"]),
            controls=np.asarray(rows["controls"]),
            errors=np.asarray(rows["errors"]),
            r=np.asarray(rows["r"]),
            rel_errors=np.asarray(rows["rel_errors"]),
            weight_norms=np.asarray(rows["weight_norms"]),
            min_pair_distance=np.asarray(rows["min_pair"]),
            min_obstacle_distance=np.asarray(rows["min_obst"]),
            aborted=aborted,
        )


def run(scenario: Scenario) -> Trace:
    """Integrate the closed loop and record every record_stride steps.

    Abort reasons (non-finite values, weight norms beyond the circuit
    breaker) are stored on the returned trace instead of being raised.
    """
    ctx = _SimContext(scenario)
    recorder = _Recorder()
    y = initial_state(scenario)
    t0 = scenario.initial.time
    n_steps = int(round(scenario.duration / scenario.dt)) if scenario.duration > 0 else 0
    breaker = scenario.nn_config.weight_breaker
    aborted = None

    with np.errstate(all="ignore"):
        max_norm = recorder.record(ctx, y, t0)
        if max_norm > breaker:
            aborted = f"weight norm {max_norm:.3e} exceeds circuit breaker at t={t0:g}"
        step = 0
        while aborted is None and step < n_steps:
            t = t0 + step * scenario.dt
            try:
                y = rk4_step(ctx.field, y, t, scenario.dt)
            except dyn.NonFiniteDrift as exc:
                aborted = str(exc)
                break
            except (OverflowError, ZeroDivisionError, TypeError) as exc:
                # callable drifts (the builtins, library callers) can overflow,
                # divide by zero, or go complex under fractional powers
                aborted = f"model evaluation failed at t={t0 + step * scenario.dt:g}: {exc}"
                break
            step += 1
            t = t0 + step * scenario.dt
            if not np.all(np.isfinite(y)):
                aborted = f"non-finite state at t={t:g}"
                break
            if step % scenario.record_stride == 0 or step == n_steps:
                max_norm = recorder.record(ctx, y, t)
                if max_norm > breaker:
                    aborted = f"weight norm {max_norm:.3e} exceeds circuit breaker at t={t:g}"
    return recorder.build(aborted)


def metrics(trace: Trace) -> dict:
    """Summary statistics: peaks, empirical ultimate bounds, settling time.

    The empirical ultimate bound of order k is the maximum of ||delta^k||
    over the last 20% of the horizon; the settling time is the first
    recorded instant after which ||delta^1|| stays within 1.1x that bound.
    """
    if trace.times.size == 0:
        raise EmptyTrace("trace has no records")
    if trace.aborted is not None:
        raise ValueError(f"cannot summarize an aborted trace: {trace.aborted}")
    times = trace.times
    rel = trace.rel_errors                      # (T, N, n)
    abs_rel = np.abs(rel)
    t_cut = times[0] + 0.8 * (times[-1] - times[0])
    window = times >= t_cut
    norms = np.linalg.norm(rel, axis=1)         # (T, n): ||delta^k|| over agents
    ultimate = norms[window].max(axis=0)

    tol = 1.1 * ultimate[0]
    ok = norms[:, 0] <= tol * (1.0 + 1e-12)
    settled_from = trace.times[-1]
    # last index from which ok holds for every later instant
    holds = True
    for idx in range(times.size - 1, -1, -1):
        holds = holds and bool(ok[idx])
        if not holds:
            break
        settled_from = times[idx]

    return {
        "peak_abs_rel_error": abs_rel.max(axis=0).tolist(),      # (N, n)
        "final_abs_rel_error": abs_rel[-1].tolist(),             # (N, n)
        "ultimate_bound": ultimate.tolist(),                     # per order
        "settling_time": float(settled_from),
        "min_pair_distance": float(trace.min_pair_distance.min()),
        "min_obstacle_distance": float(trace.min_obstacle_distance.min()),
        "duration": float(times[-1] - times[0]),
        "records": int(times.size),
    }


# ---------------------------------------------------------------------------
# CUUB diagnostics from the stability analysis: the 5x5 matrix K paired with
# z = [||E1||_F, ||th~||, ||th~_w||, ||th~_0||, ||r||], the forcing vector
# omega, and the ultimate-bound radius B_d = ||omega||_1 / sigma_min(K).

@dataclass(frozen=True)
class CuubBounds:
    """User-supplied bound constants; graph-derived quantities are computed."""

    theta_f: float = 0.0        # Theta_n
    theta_w: float = 0.0        # Theta_nw
    theta_leader: float = 0.0   # Theta_n0
    phi_f: float = 0.0          # Phi_n
    phi_w: float = 0.0          # Phi_nw
    phi_leader: float = 0.0     # Phi_n0
    eps_f: float = 0.0
    eps_w: float = 0.0
    eps_leader: float = 0.0
    t_m: float = 0.0            # bound on obstacle-avoidance magnitude
    t_n: float = 0.0            # bound on collision-avoidance magnitude
    beta: float = 1.0
    kappa: float = 0.05
    kappaw: float = 0.05
    kappa0: float = 0.05
    e0_bound: float = 0.0       # bound on ||E_i0|| used for the c.E0 term
    alpha_bar: Optional[float] = None  # defaults to the scenario's gains value

    def __post_init__(self):
        for name in ("theta_f", "theta_w", "theta_leader", "phi_f", "phi_w",
                     "phi_leader", "eps_f", "eps_w", "eps_leader", "t_m", "t_n",
                     "beta", "kappa", "kappaw", "kappa0", "e0_bound"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class DiagnosticsReport:
    k_matrix: np.ndarray
    minors: np.ndarray
    minors_pass: tuple
    positive_definite: bool
    first_failing_minor: Optional[int]
    mu1: float
    mu1_required: float
    omega: np.ndarray
    omega_l1: float
    sigma_min_k: float
    b_d: float
    graph_quantities: dict = field(default_factory=dict)
    failure: Optional[str] = None


def assemble_k_matrix(beta, kappa, kappaw, kappa0, g, gamma1, gamma2, gamma3, mu1) -> np.ndarray:
    return np.array([
        [beta / 2.0, 0.0, 0.0, 0.0, g],
        [0.0, kappa, 0.0, 0.0, gamma1],
        [0.0, 0.0, kappaw, 0.0, gamma2],
        [0.0, 0.0, 0.0, kappa0, gamma3],
        [g, gamma1, gamma2, gamma3, mu1],
    ])


def sylvester_minors(matrix: np.ndarray) -> np.ndarray:
    """Leading principal minors det(M[:m, :m]) for m = 1..size."""
    m = np.asarray(matrix, dtype=float)
    return np.array([np.linalg.det(m[:k, :k]) for k in range(1, m.shape[0] + 1)])


def bd_value(omega_l1: float, sigma_min_k: float) -> float:
    """Ultimate-bound radius ||omega||_1 / sigma_min(K)."""
    if sigma_min_k <= 0:
        return math.inf
    return omega_l1 / sigma_min_k


def cuub_diagnostics(bounds: CuubBounds, topology: gr.Topology,
                     lyap: gr.GraphLyapunov, gains: ctl.ControlGains) -> DiagnosticsReport:
    """Assemble K, test its five Sylvester minors, and compute B_d."""
    pounds = gr.pinned_laplacian(topology)
    adjacency = topology.adjacency
    dvec = adjacency.sum(axis=1)
    pin = dvec + topology.leader_weights

    sig_a = float(np.linalg.norm(adjacency, 2)) if adjacency.size else 0.0
    sig_db_min = float(np.min(pin))
    sig_p = float(np.max(lyap.p_diag))
    sig_q_min = float(np.linalg.svd(lyap.q_matrix, compute_uv=False)[-1])
    sig_pounds = float(np.linalg.norm(pounds, 2))
    alpha_bar = gains.alpha_bar if bounds.alpha_bar is None else bounds.alpha_bar
    p1 = ctl.lyapunov_P1(gains.lambda_bar, alpha_bar)
    sig_p1 = float(np.linalg.norm(p1, 2))
    norm_lam = float(np.linalg.norm(gains.lambda_bar))
    norm_delta = float(np.linalg.norm(ctl.companion(gains.lambda_bar), "fro"))
    ce0 = float(np.linalg.norm(gains.c)) * bounds.e0_bound

    pa = sig_p * sig_a
    h = pa / sig_db_min * norm_lam
    gamma1 = -0.5 * bounds.phi_f * pa
    gamma2 = -0.5 * bounds.phi_w * pa
    gamma3 = -0.5 * bounds.phi_leader * pa
    g = -0.5 * (pa / sig_db_min * norm_delta * norm_lam + sig_p1)
    mu1 = 0.5 * sig_q_min - h
    mu2 = 0.5 * ce0 * sig_q_min
    lam_cap = sig_p * sig_pounds * (bounds.t_m + bounds.t_n) + mu2

    k = assemble_k_matrix(bounds.beta, bounds.kappa, bounds.kappaw, bounds.kappa0,
                          g, gamma1, gamma2, gamma3, mu1)
    minors = sylvester_minors(k)
    minors_pass = tuple(bool(m > 0) for m in minors)
    positive_definite = all(minors_pass)
    first_failing = None if positive_definite else minors_pass.index(False) + 1

    half_beta = bounds.beta / 2.0
    denom = half_beta * bounds.kappa * bounds.kappaw * bounds.kappa0
    if denom > 0:
        mu1_required = (half_beta * bounds.kappa * bounds.kappaw * gamma3 ** 2
                        + half_beta * bounds.kappa * gamma2 ** 2 * bounds.kappa0
                        + half_beta * gamma1 ** 2 * bounds.kappaw * bounds.kappa0
                        + g ** 2 * bounds.kappa * bounds.kappaw * bounds.kappa0) / denom
    else:
        mu1_required = math.inf

    sigma_min_k = float(np.linalg.svd(k, compute_uv=False)[-1])
    omega = np.array([0.0, bounds.kappa * bounds.theta_f, bounds.kappaw * bounds.theta_w,
                      bounds.kappa0 * bounds.theta_leader, lam_cap])
    omega_l1 = (bounds.kappa * bounds.theta_f + bounds.kappaw * bounds.theta_w
                + bounds.kappa0 * bounds.theta_leader + lam_cap)
    b_d = bd_value(omega_l1, sigma_min_k)

    failure = None
    if not positive_definite:
        failure = (f"NotPositiveDefinite: leading minor {first_failing} = "
                   f"{minors[first_failing - 1]:.6e}")

    return DiagnosticsReport(
        k_matrix=k,
        minors=minors,
        minors_pass=minors_pass,
        positive_definite=positive_definite,
        first_failing_minor=first_failing,
        mu1=mu1,
        mu1_required=mu1_required,
        omega=omega,
        omega_l1=omega_l1,
        sigma_min_k=sigma_min_k,
        b_d=b_d,
        graph_quantities={
            "sigma_max_P": sig_p,
            "sigma_min_Q": sig_q_min,
            "sigma_max_A": sig_a,
            "sigma_min_DplusB": sig_db_min,
            "sigma_max_P1": sig_p1,
            "norm_lambda_bar": norm_lam,
            "norm_companion_fro": norm_delta,
            "c_e0_bound": ce0,
            "sigma_max_pinned": sig_pounds,
            "h": h,
            "g": g,
            "gamma1": gamma1,
            "gamma2": gamma2,
            "gamma3": gamma3,
            "mu2": mu2,
            "Lambda": lam_cap,
        },
        failure=failure,
    )
