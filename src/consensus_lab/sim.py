"""Closed-loop integration of fleet states and estimator weights, plus diagnostics.

One flat state vector carries every follower chain, the leader chain, and
all adaptive weights; a single derivative field composes the control law and
the tuning laws so states and weights integrate together (no splitting).
Integration is classical fixed-step RK4.  Runs are deterministic: identical
scenarios produce bitwise identical traces.

Scenarios that share a structure (``batch_key``) integrate as one stacked
state: the field evaluates every variant at once, and each variant's trace
is bitwise the one it gives alone (``run`` is ``run_many`` of one).

Aborts (non-finite values, weight-norm circuit breaker) are recorded on the
trace rather than raised, so partial traces stay inspectable.
"""

import dataclasses
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
    if not scenario.duration >= 0:
        raise ValueError("duration must be nonnegative")
    if not math.isfinite(scenario.duration / scenario.dt):
        raise ValueError("the step count duration / dt must be finite")
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
    """Index layout of the flat closed-loop state of n_variants scenarios.

    The blocks follow each other whole: the agents of every variant, every
    leader, then the drift, disturbance and leader weights; within a block
    the variants follow each other.  With one variant this is the state of
    a lone scenario.
    """

    n_agents: int
    order: int
    p_f: int
    p_w: int
    p_l: int
    n_variants: int = 1

    @property
    def size(self) -> int:
        base = self.n_agents * self.order + self.order
        return self.n_variants * (base + self.n_agents * (self.p_f + self.p_w + self.p_l))

    def split(self, y: np.ndarray):
        """Views of the blocks, each with a leading variant axis."""
        k, na, n = self.n_variants, self.n_agents, self.order
        i0 = k * na * n
        i1 = i0 + k * n
        i2 = i1 + k * na * self.p_f
        i3 = i2 + k * na * self.p_w
        agents = y[:i0].reshape(k, na, n)
        leader = y[i0:i1].reshape(k, n)
        th_f = y[i1:i2].reshape(k, na, self.p_f)
        th_w = y[i2:i3].reshape(k, na, self.p_w)
        th_l = y[i3:].reshape(k, na, self.p_l)
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


def initial_state(*scenarios: Scenario) -> np.ndarray:
    """Flat initial vector of the scenarios: their fleet states and all-zero weights."""
    layout = dataclasses.replace(state_layout(scenarios[0]), n_variants=len(scenarios))
    y = np.zeros(layout.size)
    agents, leader, _, _, _ = layout.split(y)
    for k, scenario in enumerate(scenarios):
        agents[k] = scenario.initial.agents
        leader[k] = scenario.initial.leader
    return y


def _step_count(scenario: Scenario) -> int:
    return int(round(scenario.duration / scenario.dt)) if scenario.duration > 0 else 0


def _basis_key(basis: nn.BasisSpec) -> tuple:
    return basis.kind, basis.centers.shape, basis.centers.tobytes(), basis.width


def batch_key(scenario: Scenario) -> tuple:
    """What scenarios must share to be integrated together by run_many.

    That is everything that fixes an array shape, a branch of the field, a
    basis or the step grid; the gains, graph weights, offsets, models and
    initial states may differ.
    """
    g = scenario.gains
    cfg = scenario.nn_config
    return (state_layout(scenario), scenario.dt, _step_count(scenario), scenario.record_stride,
            scenario.initial.time, g.obstacles.size, g.signless_avoidance,
            g.strict_decentralized, _basis_key(cfg.f_basis), _basis_key(cfg.leader_basis),
            _basis_key(cfg.w_basis))


class _Evaluation(NamedTuple):
    """Everything downstream of one raw state snapshot (see _SimContext.evaluate).

    Every array has a leading variant axis of length K.
    """

    agents: np.ndarray      # (K, N, n)
    flat_agents: np.ndarray  # (K*N, n): the agents of every variant, one row each
    leader: np.ndarray      # (K, n)
    th_f: np.ndarray        # (K, N, p_f) drift weights
    th_w: np.ndarray        # (K, N, p_w) disturbance weights
    th_l: np.ndarray        # (K, N, p_l) leader weights
    rel_errors: np.ndarray  # (K, N, n): E_i0 per order
    errors: np.ndarray      # (K, N, n): column k-1 holds e^k
    r: np.ndarray           # (K, N)
    phi_f: np.ndarray       # (K, N, p_f)
    phi_w: np.ndarray       # (p_w,), shared: every variant is at the same t
    phi_l: np.ndarray       # (K, p_l)
    u: np.ndarray           # (K, N) composite control
    s_fac: np.ndarray       # (K, N) r_i * p_i * (d_i + b_i0), shared by the tuning laws


# Errors a drift or disturbance callable (the builtins, library callers) can
# raise on a bad state: overflow, division by zero, leaving math's domain,
# or a complex value under a fractional power.
_MODEL_ERRORS = (OverflowError, ZeroDivisionError, TypeError, ValueError)


class _SimContext:
    """Precomputed arrays shared by the derivative field and the recorder.

    The context serves K scenarios with one batch_key, whose states stack
    as StateLayout describes.  A per-scenario constant is one value when
    all K share its bits, else it carries a leading axis of length K (a
    column where it scales an array).  Each comes from the same scalar
    expression a lone scenario would use, and every reduction and matrix
    product runs within one variant, so a variant's numbers do not depend
    on the others.
    """

    def __init__(self, scenarios):
        certificates = [validate_scenario(s) for s in scenarios]
        first = scenarios[0]
        key = batch_key(first)
        if any(batch_key(s) != key for s in scenarios[1:]):
            raise ValueError("scenarios differ in structure; group them by sim.batch_key")
        self.layout = dataclasses.replace(state_layout(first), n_variants=len(scenarios))
        n_var, na = len(scenarios), self.layout.n_agents
        topos = [s.topology for s in scenarios]
        gains = [s.gains for s in scenarios]
        cfgs = [s.nn_config for s in scenarios]

        def shared(arrays) -> bool:
            return all(a.shape == arrays[0].shape and a.tobytes() == arrays[0].tobytes()
                       for a in arrays[1:])

        def stacked(arrays):
            """The (K, ...) stack of the variants' arrays, (1, ...) if all have the same bits."""
            arrays = [np.asarray(a, dtype=float) for a in arrays]
            return arrays[0][None] if shared(arrays) else np.stack(arrays)

        def vectors(arrays):
            """The one (m,) vector if all have the same bits, else a (K, m, 1) stack (see _matvec)."""
            return arrays[0] if shared(arrays) else np.stack(arrays)[:, :, None]

        def column(values, ndim=1):
            """One float if every variant has the same bits, else a (K, 1, ...) column."""
            if len({float(v).hex() for v in values}) == 1:
                return float(values[0])
            return np.array(values, dtype=float).reshape((n_var,) + (1,) * ndim)

        bvec = [np.asarray(topo.leader_weights) for topo in topos]
        self.pounds = stacked([gr.pinned_laplacian(topo) for topo in topos])
        self.pin = stacked([topo.adjacency.sum(axis=1) + b for topo, b in zip(topos, bvec)])
        self.p_vec = stacked([cert.p_diag for cert in certificates])
        self.lam = vectors([g.lambda_bar for g in gains])
        self.cvec = vectors([g.c for g in gains])
        self.psi_a = stacked([s.offsets.per_agent for s in scenarios])
        self.psi_l = stacked([s.offsets.leader for s in scenarios])
        if first.gains.strict_decentralized:
            self.ce_mask = stacked([(b > 0).astype(float) for b in bvec])
        else:
            self.ce_mask = np.ones((1, na))
        self.signless = first.gains.signless_avoidance
        self.chi = column([g.chi for g in gains])
        self.psi_ij = column([g.psi_ij for g in gains])
        self.psi_i0 = column([g.psi_i0 for g in gains])
        self.gamma1 = column([g.gamma1 for g in gains])
        self.neg_gamma1 = column([-g.gamma1 for g in gains])
        self.gamma2 = column([g.gamma2 for g in gains])
        self.obstacles = stacked([g.obstacles for g in gains])
        self.gamma0 = column([g.gamma0 for g in gains])
        self.neg_gamma0 = column([-g.gamma0 for g in gains])
        self.detect_radius = column([g.detect_radius for g in gains], 2)
        self.detect_sq = column([g.detect_radius ** 2 for g in gains], 2)
        self.core_sq = column([g.obstacle_radius ** 2 for g in gains], 2)
        self.core_floor = column([g.obstacle_radius * (1.0 + ctl.DISTANCE_CLAMP) for g in gains], 2)
        self.gain = column([cfg.gain for cfg in cfgs], 2)
        self.neg_gain = column([-cfg.gain for cfg in cfgs], 2)
        self.kappa = column([cfg.kappa for cfg in cfgs], 2)
        self.kappaw = column([cfg.kappaw for cfg in cfgs], 2)
        self.kappa0 = column([cfg.kappa0 for cfg in cfgs], 2)
        self.breaker = [cfg.weight_breaker for cfg in cfgs]
        self.f_basis = first.nn_config.f_basis
        self.l_basis = first.nn_config.leader_basis
        self.w_basis = first.nn_config.w_basis
        self.drift_batches, self.loose_drifts = _batches(
            [m.drift for s in scenarios for m in s.agent_models])
        self.disturbance_batches, self.loose_disturbances = _batches(
            [m.disturbance for s in scenarios for m in s.agent_models])
        self.leader_batches, self.loose_leaders = _batches(
            [s.leader_model.drift for s in scenarios])
        # each agent's variant's first flat index; full (K, N) shape, because
        # integer broadcasting costs more than the sort it serves at small N
        self.row_start = np.repeat(np.arange(n_var) * na, na).reshape(n_var, na)
        self.w_time = self.w_phi = None   # the time basis at the last time seen
        self.no_push = np.zeros((n_var, na))
        # variant -> first abort seen by the field since the caller last cleared
        # it: a message, or the exception a model callable raised
        self.faults = {}

    # Everything downstream of the raw state snapshot, shared by the field
    # evaluation and by trace recording so both see identical numbers.
    def evaluate(self, y: np.ndarray, t: float) -> _Evaluation:
        n_var, na, n = self.layout.n_variants, self.layout.n_agents, self.layout.order
        X, x0, th_f, th_w, th_l = self.layout.split(y)
        flat = X.reshape(n_var * na, n)

        delta = (X - self.psi_a) - (x0 - self.psi_l)[:, None, :]
        e_cols = -(self.pounds @ delta)                      # column k-1 holds e^k
        r = _matvec(e_cols[:, :, :n - 1], self.lam) + e_cols[:, :, n - 1]
        rho_v = _matvec(e_cols[:, :, 1:], self.lam)

        phi_f = nn.basis_eval_batch(self.f_basis, flat)
        f_hat = np.einsum("ij,ij->i", th_f.reshape(phi_f.shape), phi_f).reshape(n_var, na)
        phi_f = phi_f.reshape(th_f.shape)
        if t != self.w_time:   # the two middle RK4 stages share their time
            self.w_time, self.w_phi = t, nn.basis_eval(self.w_basis, t)
        phi_w = self.w_phi
        w_hat = th_w @ phi_w
        phi_l = nn.basis_eval_batch(self.l_basis, x0)
        l_hat = (th_l @ phi_l[:, :, None])[:, :, 0]

        u_d = (rho_v / self.pin - f_hat - w_hat + l_hat + r
               - _matvec(delta, self.cvec) * self.ce_mask)

        pos_flat = flat[:, 0]
        pos = pos_flat.reshape(n_var, na)
        pair = self._pair_sums(pos, pos_flat)
        dl = pos - x0[:, :1]
        adl = np.abs(dl)
        m_lead = np.where(adl < self.psi_i0, self.chi / np.maximum(adl, ctl.DISTANCE_CLAMP), 0.0)
        if self.signless:
            u_c = self.gamma1 * pair + self.gamma2 * m_lead
        else:
            u_c = self.neg_gamma1 * pair - self.gamma2 * m_lead * np.sign(dl)

        if self.obstacles.shape[-1]:
            do = pos[:, :, None] - self.obstacles[..., None, :]
            ado = np.abs(do)
            deff = np.maximum(ado, self.core_floor)
            ratio = (self.detect_sq - deff ** 2) / (deff ** 2 - self.core_sq)
            m_obs = np.where(ado <= self.detect_radius, ratio ** 2, 0.0)
            if self.signless:
                u_0 = self.gamma0 * m_obs.sum(axis=2)
            else:
                u_0 = self.neg_gamma0 * (m_obs * np.sign(do)).sum(axis=2)
            u = u_d - u_c - u_0
        else:
            u = u_d - u_c   # less a zero u_0: the same bits
        return _Evaluation(X, flat, x0, th_f, th_w, th_l, delta, e_cols, r, phi_f, phi_w, phi_l,
                           u, r * self.p_vec * self.pin)

    def distances(self, agents: np.ndarray) -> tuple:
        """Each variant's smallest pair distance and smallest obstacle distance
        (inf when there is no pair or no obstacle)."""
        n_var, na = agents.shape[:2]
        pos = agents[:, :, 0]
        if na < 2:
            min_pair = np.full(n_var, math.inf)
        else:
            ps = np.sort(pos, axis=1, kind="stable")
            min_pair = (ps[:, 1:] - ps[:, :-1]).min(axis=1)
        if self.obstacles.shape[-1]:
            ado = np.abs(pos[:, :, None] - self.obstacles[..., None, :])
            min_obst = ado.reshape(n_var, -1).min(axis=1)
        else:
            min_obst = np.full(n_var, math.inf)
        return min_pair, min_obst

    def _pair_sums(self, pos: np.ndarray, pos_flat: np.ndarray) -> np.ndarray:
        """Per agent sum of the pairwise potentials (times sign(x_i - x_j) unless
        signless).

        With a variant's positions sorted, |x_i - x_j| is the gap between
        sorted slots a and a + k.  Gaps only grow with the offset k, so the
        scan stops at the first k at which no variant has a gap below its
        psi_ij; a variant past its own stop adds exact zeros.
        """
        n_var, na = pos.shape
        if na < 2:
            return self.no_push
        slots = pos.argsort(axis=1, kind="stable") + self.row_start
        ps = pos_flat[slots]
        gap = ps[:, 1:] - ps[:, :-1]
        near = gap < self.psi_ij
        if not near.any():
            return self.no_push
        acc = np.zeros((n_var, na))
        k = 1
        while True:
            if not self.signless:
                near &= gap > 0.0   # coincident agents exert no push
            m = np.where(near, self.chi / np.maximum(gap, ctl.DISTANCE_CLAMP), 0.0)
            acc[:, k:] += m
            if self.signless:
                acc[:, :-k] += m
            else:
                acc[:, :-k] -= m
            k += 1
            if k == na:
                break
            gap = ps[:, k:] - ps[:, :-k]
            near = gap < self.psi_ij
            if not near.any():
                break
        sums = np.empty(n_var * na)
        sums[slots] = acc
        return sums.reshape(n_var, na)

    def field(self, y: np.ndarray, t: float) -> np.ndarray:
        """The derivative of the stacked state; a variant whose models fail is
        noted in ``faults``."""
        ev = self.evaluate(y, t)
        n_var, na, n = self.layout.n_variants, self.layout.n_agents, self.layout.order
        flat, x0 = ev.flat_agents, ev.leader
        faults = self.faults

        # per variant the first fault wins: a raising callable, then a
        # non-finite drift or disturbance, then the leader's
        f_vals = np.empty(n_var * na)
        for b in self.drift_batches:
            f_vals[b.index] = b.kernel(b.consts, [flat[b.index, k] for k in b.columns], t)
        for i, drift in self.loose_drifts:
            try:
                f_vals[i] = drift(flat[i], t)
            except _MODEL_ERRORS as exc:
                f_vals[i] = math.nan
                faults.setdefault(i // na, exc)
        w_vals = np.empty(n_var * na)
        for b in self.disturbance_batches:
            w_vals[b.index] = b.kernel(b.consts, (), t)
        for i, disturbance in self.loose_disturbances:
            try:
                w_vals[i] = disturbance(t)
            except _MODEL_ERRORS as exc:
                w_vals[i] = math.nan
                faults.setdefault(i // na, exc)
        forcing = f_vals + ev.u.reshape(-1) + w_vals
        if not np.isfinite(forcing).all():   # a non-finite term, or only a large sum
            finite = (np.isfinite(f_vals) & np.isfinite(w_vals)).reshape(n_var, na).all(axis=1)
            for k in np.flatnonzero(~finite).tolist():
                faults.setdefault(k, f"non-finite drift or disturbance at t={t}")
        f0 = np.empty(n_var)
        for b in self.leader_batches:
            f0[b.index] = b.kernel(b.consts, [x0[b.index, k] for k in b.columns], t)
        for k, drift in self.loose_leaders:
            try:
                f0[k] = drift(x0[k], t)
            except _MODEL_ERRORS as exc:
                f0[k] = math.nan
                faults.setdefault(k, exc)
        f0_list = f0.tolist()
        if not math.isfinite(sum(f0_list)):   # a non-finite term, or only a large sum
            for k, value in enumerate(f0_list):
                if not math.isfinite(value):
                    faults.setdefault(k, f"non-finite leader drift at t={t}")

        x_dot = np.empty((n_var * na, n))
        x_dot[:, :n - 1] = flat[:, 1:]
        x_dot[:, n - 1] = forcing
        x0_dot = np.empty((n_var, n))
        x0_dot[:, :n - 1] = x0[:, 1:]
        x0_dot[:, n - 1] = f0

        col = ev.s_fac[:, :, None]
        d_th_f = self.neg_gain * (ev.phi_f * col + self.kappa * ev.th_f)
        d_th_w = self.neg_gain * (ev.phi_w * col + self.kappaw * ev.th_w)
        d_th_l = self.gain * (ev.phi_l[:, None, :] * col - self.kappa0 * ev.th_l)

        return np.concatenate([
            x_dot.ravel(), x0_dot.ravel(), d_th_f.ravel(), d_th_w.ravel(), d_th_l.ravel(),
        ])


def _matvec(a: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(K, N, m) matrices times one (m,) vector or a (K, m, 1) stack of them: (K, N)."""
    return a @ v if v.ndim == 1 else (a @ v)[..., 0]


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
    """One growing trace per variant."""

    def __init__(self, n_variants: int):
        self.rows = [{name: [] for name in (
            "times", "agents", "leader", "controls", "errors", "r",
            "rel_errors", "weight_norms", "min_pair", "min_obst")} for _ in range(n_variants)]

    def record(self, ctx: _SimContext, y: np.ndarray, t: float, live) -> np.ndarray:
        """Append a row to the trace of every live variant; returns each
        variant's largest weight norm."""
        ev = ctx.evaluate(y, t)
        norms = np.stack([
            np.linalg.norm(ev.th_f, axis=2),
            np.linalg.norm(ev.th_w, axis=2),
            np.linalg.norm(ev.th_l, axis=2),
        ], axis=2)
        agents, leader = ev.agents.copy(), ev.leader.copy()
        min_pair, min_obst = ctx.distances(agents)
        for k in live:
            rows = self.rows[k]
            rows["times"].append(t)
            rows["agents"].append(agents[k])
            rows["leader"].append(leader[k])
            rows["controls"].append(ev.u[k])
            rows["errors"].append(ev.errors[k])
            rows["r"].append(ev.r[k])
            rows["rel_errors"].append(ev.rel_errors[k])
            rows["weight_norms"].append(norms[k])
            rows["min_pair"].append(min_pair[k])
            rows["min_obst"].append(min_obst[k])
        n_var = ctx.layout.n_variants
        return norms.reshape(n_var, -1).max(axis=1) if norms.size else np.zeros(n_var)

    def build(self, k: int, aborted: Optional[str]) -> Trace:
        rows = self.rows[k]
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


def run_many(scenarios) -> list:
    """Integrate scenarios that share one batch_key as one stacked state.

    One RK4 loop, with one field evaluation per stage, advances every
    scenario; each returned trace is bitwise the one the scenario gives
    alone.  Abort reasons (non-finite values, weight norms beyond the
    circuit breaker) are stored on the trace instead of being raised; an
    aborted scenario stops recording and the others run on.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    ctx = _SimContext(scenarios)
    first = scenarios[0]
    recorder = _Recorder(len(scenarios))
    y = initial_state(*scenarios)
    t0, dt, stride = first.initial.time, first.dt, first.record_stride
    n_steps = _step_count(first)
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
        max_norms = recorder.record(ctx, y, t, live)
        for k in [k for k in live if max_norms[k] > ctx.breaker[k]]:
            stop(k, f"weight norm {max_norms[k]:.3e} exceeds circuit breaker at t={t:g}")

    with np.errstate(all="ignore"):
        record(t0)
        step = 0
        while live and step < n_steps:
            t = t0 + step * dt
            ctx.faults.clear()
            y = rk4_step(ctx.field, y, t, dt)
            for k, fault in ctx.faults.items():
                if k in live:
                    stop(k, fault if isinstance(fault, str)
                         else f"model evaluation failed at t={t:g}: {fault}")
            step += 1
            t = t0 + step * dt
            if not np.isfinite(y).all():
                finite = np.logical_and.reduce([np.isfinite(b).reshape(len(scenarios), -1).all(axis=1)
                                                for b in ctx.layout.split(y)])
                for k in [k for k in live if not finite[k]]:
                    stop(k, f"non-finite state at t={t:g}")
            if len(live) < len(scenarios):
                np.copyto(y, y0, where=stopped)
            if live and (step % stride == 0 or step == n_steps):
                record(t)
    return [recorder.build(k, reason) for k, reason in enumerate(aborted)]


def run(scenario: Scenario) -> Trace:
    """Integrate one scenario and record every record_stride steps (run_many of one)."""
    return run_many([scenario])[0]


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
    try:
        mu1_required = (half_beta * bounds.kappa * bounds.kappaw * gamma3 ** 2
                        + half_beta * bounds.kappa * gamma2 ** 2 * bounds.kappa0
                        + half_beta * gamma1 ** 2 * bounds.kappaw * bounds.kappa0
                        + g ** 2 * bounds.kappa * bounds.kappaw * bounds.kappa0) / denom
    except (OverflowError, ZeroDivisionError):   # a square beyond the float range, or denom 0
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
