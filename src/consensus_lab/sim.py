"""Closed-loop integration of fleet states and estimator weights, plus diagnostics.

One flat state vector carries every follower chain, the leader chain, and
all adaptive weights; a single derivative field composes the control law and
the tuning laws so states and weights integrate together (no splitting).
Integration is classical fixed-step RK4.  Runs are deterministic: identical
scenarios produce bitwise identical traces.

Scenarios that share a structure (``batch_key``) integrate as one stacked
state: the field evaluates every variant at once, and each variant's trace
is bitwise the one it gives alone (``run`` is ``run_many`` of one).

Each record goes to a sink as it is made.  Aborts (non-finite values,
weight-norm circuit breaker) end a scenario's records rather than raise.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import controller as ctl
from . import dynamics as dyn
from . import estimator as nn
from . import graph as gr

RECORD_STRIDE_DEFAULT = 10
# The most work a run may ask for: RK4 steps, checked when a scenario is
# validated, and values in a trace that run/run_many collect whole (records
# times the trace_columns).  At the step limit a run of the five-vehicle
# platoon takes about an hour; the trace limit is 160 MB of float64.  The
# bundled platoon asks for 40 000 steps and 240 060 trace values.
MAX_STEPS = 10_000_000
MAX_TRACE_VALUES = 20_000_000
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

    def __post_init__(self):
        object.__setattr__(self, "agent_models", tuple(self.agent_models))
        validate_scenario(self)


def validate_scenario(scenario: Scenario) -> None:
    """Raise ValueError on any violated cross-field invariant.

    A Scenario runs this when it is built, also by ``dataclasses.replace``;
    the certificate it solves is cached on the topology.
    """
    topo = scenario.topology
    n = scenario.initial.order
    n_agents = topo.n_agents
    if n < 2:
        raise ValueError("chain order must be >= 2")
    if len(scenario.agent_models) != n_agents:
        raise ValueError(f"agents: got {len(scenario.agent_models)} models for "
                         f"{n_agents} topology agents")
    if scenario.initial.agents.shape != (n_agents, n):
        raise ValueError("initial agent states must be (N, n)")
    if scenario.offsets.per_agent.shape != (n_agents, n):
        raise ValueError(f"offsets.agents: expected shape ({n_agents}, {n})")
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
        basis = getattr(scenario.nn_config, name)
        if basis.kind != nn.GAUSSIAN_RBF_STATE:
            raise ValueError(f"{name} must be a state RBF basis")
        if basis.centers.shape[1] != n:
            raise ValueError(f"{name} centers must match the chain order")
    if scenario.nn_config.w_basis.kind == nn.GAUSSIAN_RBF_STATE:
        raise ValueError("w_basis must be a time basis")
    try:
        with np.errstate(all="ignore"):   # a degree sum beyond the float range fails the checks
            topo.certificate   # solved here and cached on the topology
    except (gr.SingularPinnedLaplacian, gr.NonPositiveQ) as exc:
        raise ValueError(f"topology: no graph Lyapunov certificate: {exc}") from None


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
        return self.bounds[-1]

    @functools.cached_property
    def bounds(self) -> tuple:
        """Where the blocks start, and the size: (0, leader, th_f, th_w, th_l, size).

        The agents and leaders form the chains part [0, th_f), the weights
        the theta part [th_f, size).
        """
        k, na = self.n_variants, self.n_agents
        i0 = k * na * self.order
        i1 = i0 + k * self.order
        i2 = i1 + k * na * self.p_f
        i3 = i2 + k * na * self.p_w
        return 0, i0, i1, i2, i3, i3 + k * na * self.p_l

    @functools.cached_property
    def shapes(self) -> tuple:
        """The shapes of the five blocks split returns."""
        k, na, n = self.n_variants, self.n_agents, self.order
        return (k, na, n), (k, n), (k, na, self.p_f), (k, na, self.p_w), (k, na, self.p_l)

    def split(self, y: np.ndarray):
        """Views of the blocks, each with a leading variant axis."""
        _, i0, i1, i2, i3, _ = self.bounds
        s_x, s_x0, s_f, s_w, s_l = self.shapes
        return (y[:i0].reshape(s_x), y[i0:i1].reshape(s_x0), y[i1:i2].reshape(s_f),
                y[i2:i3].reshape(s_w), y[i3:].reshape(s_l))


def state_layout(scenario: Scenario) -> StateLayout:
    cfg = scenario.nn_config
    return StateLayout(
        n_agents=scenario.topology.n_agents,
        order=scenario.initial.order,
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


def record_count(scenario: Scenario) -> int:
    """Records in the trace of a run that does not abort: the start, every
    record_stride-th step and the last step."""
    steps = _step_count(scenario)
    return 1 + steps // scenario.record_stride + (steps % scenario.record_stride > 0)


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
            g.obstacles.size, g.signless_avoidance, g.strict_decentralized,
            _basis_key(cfg.f_basis), _basis_key(cfg.leader_basis), _basis_key(cfg.w_basis))


# Errors a drift or disturbance callable (the builtins, library callers) can
# raise on a bad state: overflow, division by zero, leaving math's domain,
# or a complex value under a fractional power.
_MODEL_ERRORS = (OverflowError, ZeroDivisionError, TypeError, ValueError)


class _SimContext:
    """Precomputed arrays shared by the derivative field and the trace records.

    The context serves K scenarios with one batch_key, whose states stack
    as StateLayout describes.  A per-scenario constant is one value when
    all K share its bits, else it carries a leading axis of length K (a
    column where it scales an array).  Each comes from the same scalar
    expression a lone scenario would use, and every reduction and matrix
    product runs within one variant, so a variant's numbers do not depend
    on the others.

    The field works in a workspace made once: a copy of the state, the
    output, and the intermediates whose slices it reads, with every view of
    them made in advance, so an evaluation neither slices nor reshapes.
    The context alone writes the workspace; a record copies its row out of
    it, and an array that becomes a Trace field carries that field's name.
    """

    def __init__(self, scenarios):
        first = scenarios[0]
        key = batch_key(first)
        if any(batch_key(s) != key for s in scenarios[1:]):
            raise ValueError("scenarios differ in structure; group them by sim.batch_key")
        self.layout = layout = dataclasses.replace(state_layout(first), n_variants=len(scenarios))
        n_var, na, n = len(scenarios), layout.n_agents, layout.order
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
            """The one (m,) vector if all have the same bits, else a (K, m, 1) stack."""
            return arrays[0] if shared(arrays) else np.stack(arrays)[:, :, None]

        def column(values, ndim=1):
            """One float if every variant has the same bits, else a (K, 1, ...) column."""
            if len({float(v).hex() for v in values}) == 1:
                return float(values[0])
            return np.array(values, dtype=float).reshape((n_var,) + (1,) * ndim)

        bvec = [np.asarray(topo.leader_weights) for topo in topos]
        self.pounds = stacked([gr.pinned_laplacian(topo) for topo in topos])
        self.pin = stacked([topo.adjacency.sum(axis=1) + b for topo, b in zip(topos, bvec)])
        self.p_vec = stacked([topo.certificate.p_diag for topo in topos])
        self.lam = vectors([g.lambda_bar for g in gains])
        self.cvec = vectors([g.c for g in gains])
        # every chain's offset, in the row order of the chains part of the state
        self.psi = np.concatenate([
            np.broadcast_to(stacked([s.offsets.per_agent for s in scenarios]),
                            (n_var, na, n)).reshape(-1, n),
            np.broadcast_to(stacked([s.offsets.leader for s in scenarios]), (n_var, n))])
        # which agents see the c.E_i0 term; None when all do, since x * 1.0 is x
        self.ce_mask = None
        if first.gains.strict_decentralized:
            mask = stacked([(b > 0).astype(float) for b in bvec])
            self.ce_mask = None if mask.all() else mask
        self.signless = first.gains.signless_avoidance
        self.chi = column([g.chi for g in gains])
        self.psi_ij = column([g.psi_ij for g in gains])
        self.psi_i0 = column([g.psi_i0 for g in gains])
        # the pair, leader and obstacle gains carry the sign of their terms:
        # each is subtracted unless signless (negating a factor is exact)
        sign = 1.0 if self.signless else -1.0
        self.pair_gain = column([sign * g.gamma1 for g in gains])
        self.leader_gain = column([sign * g.gamma2 for g in gains])
        self.obstacles = stacked([g.obstacles for g in gains])
        self.obstacle_gain = column([sign * g.gamma0 for g in gains])
        self.detect_radius = column([g.detect_radius for g in gains], 2)
        self.detect_sq = column([g.detect_radius ** 2 for g in gains], 2)
        self.core_sq = column([g.obstacle_radius ** 2 for g in gains], 2)
        self.core_floor = column([g.obstacle_radius * (1.0 + ctl.DISTANCE_CLAMP) for g in gains], 2)
        # the three tuning laws as one multiply-add over the theta block,
        # g * (phi * s + kappa * theta): per weight its variant's gain and
        # damping, with the leader law's signs moved into them (negating a
        # factor is exact, so each law keeps its bits)
        def per_weight(values, p):
            return np.repeat(np.array(values, dtype=float), na * p)
        self.theta_gain = np.concatenate([
            per_weight([-cfg.gain for cfg in cfgs], layout.p_f),
            per_weight([-cfg.gain for cfg in cfgs], layout.p_w),
            per_weight([cfg.gain for cfg in cfgs], layout.p_l)])
        self.theta_kappa = np.concatenate([
            per_weight([cfg.kappa for cfg in cfgs], layout.p_f),
            per_weight([cfg.kappaw for cfg in cfgs], layout.p_w),
            per_weight([-cfg.kappa0 for cfg in cfgs], layout.p_l)])
        # the agents' drift basis and the leaders' basis, on the chains part
        # of the state: every agent row, then every leader row
        self.state_bases = nn.StateBases(
            [first.nn_config.f_basis, first.nn_config.leader_basis], [n_var * na, n_var])
        self.w_basis = first.nn_config.w_basis
        # each agent's variant's first flat index; full (K, N) shape, because
        # integer broadcasting costs more than the sort it serves at small N
        self.row_start = np.repeat(np.arange(n_var) * na, na).reshape(n_var, na)
        self.w_time = None   # the time at which phi_w was last evaluated
        self.obstacle_distances = None   # the last evaluation's |x_i - obstacle|, (K, N, M)
        # the pair term when no pair interacts: the gain times zero sums
        self.no_push = self.pair_gain * np.zeros((n_var, na))
        # variant -> first abort seen by the field since the caller last cleared
        # it: a message, or the exception a model callable raised
        self.faults = {}
        # the time of the record whose evaluation the workspace holds for the
        # next field call (see field), else None
        self.recorded = None
        self._workspace(n_var, na, n)
        # per row of the chains part (every agent, then every leader) its variant and drift
        self.row_variant = [i // na for i in range(n_var * na)] + list(range(n_var))
        self.drifts = self._calls([m.drift for s in scenarios for m in s.agent_models]
                                  + [s.leader_model.drift for s in scenarios], self.chains)
        self.disturbances = self._calls([m.disturbance for s in scenarios
                                         for m in s.agent_models], None)

    def _workspace(self, n_var: int, na: int, n: int) -> None:
        """The buffers the field works in, and their views, made once."""
        layout = self.layout
        _, _, i1, i2, i3, size = layout.bounds
        s_x, _, _, s_w, s_l = layout.shapes
        rows = n_var * na
        empty = np.empty

        def product(v):
            """The out buffer of a (K, N, m) @ v product, and its (K, N) view."""
            buf = empty((n_var, na) if v.ndim == 1 else (n_var, na, 1))
            return buf, buf.reshape(n_var, na)

        # the state, copied in once per evaluation
        self.state = empty(size)
        self.chains = self.state[:i1].reshape(-1, n)
        self.agents = self.chains[:rows].reshape(s_x)
        self.leader = self.chains[rows:]
        self.leader_pos = self.leader[:, :1]
        self.pos = self.agents[:, :, 0]
        self.theta = self.state[i1:]
        self.theta_f = self.state[i1:i2].reshape(rows, layout.p_f)
        self.theta_w = self.state[i2:i3].reshape(s_w)
        self.theta_l = self.state[i3:].reshape(s_l)
        # errors: x - psi, then E_i0 and the stacked e^k columns
        self.rel = empty(self.chains.shape)
        self.rel_agents = self.rel[:rows].reshape(s_x)
        self.rel_leader = self.rel[rows:, None, :]
        self.rel_errors = empty(s_x)
        self.errors = empty(s_x)
        self.e_lo, self.e_last, self.e_hi = (self.errors[:, :, :n - 1], self.errors[:, :, n - 1],
                                             self.errors[:, :, 1:])
        self.r_out, self.r = product(self.lam)
        self.rho_out, self.rho = product(self.lam)
        self.ce_out, self.c_e = product(self.cvec)
        # the estimates and the bases they read
        self.phi_f, phi_l = self.state_bases.blocks
        self.phi_w = empty(layout.p_w)
        self.phi_l_col, self.phi_l_row = phi_l[:, :, None], phi_l[:, None, :]
        self.f_hat = empty(rows)
        self.f_hat_kn = self.f_hat.reshape(n_var, na)
        self.l_hat_out = empty((n_var, na, 1))
        self.l_hat = self.l_hat_out[:, :, 0]
        # the control and its avoidance terms
        self.u = empty((n_var, na))
        self.u_flat = self.u.reshape(-1)
        self.sorted_pos = empty((n_var, na))
        self.sorted_hi, self.sorted_lo = self.sorted_pos[:, 1:], self.sorted_pos[:, :-1]
        self.s_fac = empty((n_var, na))
        self.s_rows, self.s_cols = self.s_fac.reshape(-1, 1), self.s_fac[:, :, None]
        # the derivative: chains shifted up one order with the forcing in the
        # last column, then the theta part
        self.out = empty(size)
        d_chains = self.out[:i1].reshape(-1, n)
        self.d_shift, self.chains_hi = d_chains[:, :n - 1], self.chains[:, 1:]
        self.drift_vals = d_chains[:, n - 1]
        self.forcing, self.f0 = self.drift_vals[:rows], self.drift_vals[rows:]
        self.w_vals = empty(rows)
        self.d_f = self.out[i1:i2].reshape(self.phi_f.shape)
        self.d_w = self.out[i2:i3].reshape(rows, layout.p_w)
        self.d_l = self.out[i3:].reshape(s_l)
        self.d_theta = self.out[i1:]

    def _calls(self, models, states) -> tuple:
        """The models of one kind, grouped as _batches returns them, with
        each loose callable's row of `states` (None for a disturbance, which
        reads only t) and that row's variant."""
        batches, loose = _batches(models)
        return batches, [(i, model, None if states is None else states[i], self.row_variant[i])
                         for i, model in loose]

    # Everything downstream of the raw state snapshot, shared by the field
    # evaluation and by trace recording so both see identical numbers: it
    # fills the workspace from a copy of y.
    def evaluate(self, y: np.ndarray, t: float) -> None:
        self.recorded = None
        np.copyto(self.state, y)
        signless, u = self.signless, self.u

        np.subtract(self.chains, self.psi, out=self.rel)   # x_i - psi_i, then x_0 - psi_0
        delta = np.subtract(self.rel_agents, self.rel_leader, out=self.rel_errors)
        e_cols = np.matmul(self.pounds, delta, out=self.errors)
        np.negative(e_cols, out=e_cols)                     # column k-1 holds e^k
        np.matmul(self.e_lo, self.lam, out=self.r_out)
        r = np.add(self.r, self.e_last, out=self.r)
        np.matmul(self.e_hi, self.lam, out=self.rho_out)

        phi_f, _ = self.state_bases(self.chains)
        np.einsum("ij,ij->i", self.theta_f, phi_f, out=self.f_hat)
        if t != self.w_time:   # the two middle RK4 stages share their time
            self.w_time = t
            self.phi_w[:] = nn.basis_eval(self.w_basis, t)
        w_hat = self.theta_w @ self.phi_w
        np.matmul(self.theta_l, self.phi_l_col, out=self.l_hat_out)

        np.matmul(delta, self.cvec, out=self.ce_out)
        if self.ce_mask is not None:
            np.multiply(self.c_e, self.ce_mask, out=self.c_e)
        np.divide(self.rho, self.pin, out=u)   # less f_hat and w_hat, plus l_hat and r, less c_e
        u -= self.f_hat_kn
        u -= w_hat
        u += self.l_hat
        u += r
        u -= self.c_e

        pos = self.pos
        push = self._pair_push(pos)
        dl = pos - self.leader_pos
        adl = np.abs(dl)
        psi_i0 = self.psi_i0
        # no agent near the leader (a NaN takes the other branch)
        if np.logical_and.reduce(adl >= psi_i0, axis=None):
            # m_lead is 0, so the leader term subtracts a zero signed like dl
            u_c = push + 0.0 if signless else push - np.copysign(0.0, dl)
        else:
            m_lead = np.where(adl < psi_i0, self.chi / np.maximum(adl, ctl.DISTANCE_CLAMP), 0.0)
            if not signless:
                m_lead *= np.sign(dl)
            u_c = push + self.leader_gain * m_lead
        u -= u_c

        if self.obstacles.shape[-1]:
            do = pos[:, :, None] - self.obstacles[..., None, :]
            ado = self.obstacle_distances = np.abs(do)
            deff_sq = np.maximum(ado, self.core_floor) ** 2
            ratio = (self.detect_sq - deff_sq) / (deff_sq - self.core_sq)
            m_obs = np.where(ado <= self.detect_radius, ratio ** 2, 0.0)
            if not signless:
                m_obs *= np.sign(do)
            u -= self.obstacle_gain * m_obs.sum(axis=2)
        np.multiply(r, self.p_vec, out=self.s_fac)
        self.s_fac *= self.pin

    def record(self, y: np.ndarray, t: float) -> "Record":
        """Evaluate at (y, t) and return the Record of the K variants,
        copied out of the workspace.  The evaluation stays there for the
        field's next call at (y, t)."""
        self.evaluate(y, t)
        self.recorded = t
        n_var, na = self.u.shape
        _, _, th_f, th_w, th_l = self.layout.split(self.state)
        norms = np.stack([np.linalg.norm(th, axis=2) for th in (th_f, th_w, th_l)], axis=2)
        # the smallest gap between the positions the pair term sorted; + 0.0
        # writes a zero gap as 0, whichever order the sort gave a -0.0/0.0 tie
        min_pair = (np.subtract(self.sorted_hi, self.sorted_lo).min(axis=1) + 0.0 if na > 1
                    else np.full(n_var, math.inf))
        min_obst = (self.obstacle_distances.reshape(n_var, -1).min(axis=1)
                    if self.obstacles.shape[-1] else np.full(n_var, math.inf))
        return Record(np.full(n_var, t), self.agents.copy(), self.leader.copy(), self.u.copy(),
                      self.errors.copy(), self.r.copy(), self.rel_errors.copy(), norms,
                      min_pair, min_obst)

    def _pair_push(self, pos: np.ndarray) -> np.ndarray:
        """Per agent the pair term of u_c: pair_gain times the sum of the
        pairwise potentials, each times sign(x_i - x_j) unless signless.

        With a variant's positions sorted, |x_i - x_j| is the gap between
        sorted slots a and a + k.  Gaps only grow with the offset k, so the
        scan stops at the first k at which no variant has a gap below its
        psi_ij; a variant past its own stop adds exact zeros.  The stable
        argsort that scatters the sums back runs only when some pair
        interacts.  It orders a tie as np.sort does, except that -0.0 and
        0.0 may swap; a gap to any other value is the same either way, and
        the gap between them is a zero of either sign, which counts the same.
        """
        n_var, na = pos.shape
        if na < 2:
            return self.no_push
        ps = self.sorted_pos
        np.copyto(ps, pos)
        ps.sort(axis=1)
        gap = self.sorted_hi - self.sorted_lo
        near = gap < self.psi_ij
        if not np.logical_or.reduce(near, axis=None):
            return self.no_push
        slots = pos.argsort(axis=1, kind="stable") + self.row_start
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
            if not np.logical_or.reduce(near, axis=None):
                break
        sums = np.empty(n_var * na)
        sums[slots] = acc
        return self.pair_gain * sums.reshape(n_var, na)

    def _call_models(self, models, out, states, t: float) -> None:
        """Write the value of model i into out[i] for the models of one kind,
        as _calls lists them: each group's kernel over its rows of `states`,
        then each loose callable on its state row, or on t alone.  A loose
        model that raises gives nan and is the fault of its row's variant
        unless that variant already has one."""
        batches, loose = models
        for b in batches:
            out[b.index] = b.kernel(b.consts, [states[b.index, k] for k in b.columns], t)
        for i, model, row, variant in loose:
            try:
                out[i] = model(t) if row is None else model(row, t)
            except _MODEL_ERRORS as exc:
                out[i] = math.nan
                self.faults.setdefault(variant, exc)

    def field(self, y: np.ndarray, t: float) -> np.ndarray:
        """The derivative of the stacked state, a new array; a variant whose
        models fail is noted in ``faults``.

        The first call after a record, at the time the record evaluated
        and with the bits of y it evaluated, reuses that evaluation."""
        if self.recorded != t or self.state.tobytes() != y.tobytes():
            self.evaluate(y, t)
        self.recorded = None

        np.copyto(self.d_shift, self.chains_hi)   # each chain shifts up by one order
        # every chain's drift goes straight into its forcing column, where the
        # agents' rows then add u and w: (f + u) + w
        forcing, w_vals = self.forcing, self.w_vals
        self._call_models(self.drifts, self.drift_vals, self.chains, t)
        self._call_models(self.disturbances, w_vals, None, t)
        # per variant the first fault wins: a raising callable, then the
        # first agent's non-finite drift or disturbance, then the leader's
        if not math.isfinite(np.add.reduce(self.drift_vals) + np.add.reduce(w_vals)):
            bad_drift = ~np.isfinite(forcing).reshape(self.u.shape)
            bad = bad_drift | ~np.isfinite(w_vals).reshape(self.u.shape)
            for k, i in np.argwhere(bad).tolist():   # agents in order within each variant
                term = "drift" if bad_drift[k, i] else "disturbance"
                self.faults.setdefault(k, f"non-finite {term} of agent {i + 1} at t={t}")
            for k in np.flatnonzero(~np.isfinite(self.f0)).tolist():
                self.faults.setdefault(k, f"non-finite leader drift at t={t}")
        forcing += self.u_flat
        forcing += w_vals

        # the theta part: g * (phi * s + kappa * theta) for all three laws
        s_rows = self.s_rows
        np.multiply(self.phi_f, s_rows, out=self.d_f)
        np.multiply(self.phi_w, s_rows, out=self.d_w)
        np.multiply(self.phi_l_row, self.s_cols, out=self.d_l)
        d_theta = self.d_theta
        d_theta += self.theta_kappa * self.theta
        d_theta *= self.theta_gain
        return self.out.copy()


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


def run_many(scenarios, sink=None) -> list:
    """Integrate scenarios that share one batch_key as one stacked state.

    One RK4 loop, with one field evaluation per stage, advances every
    scenario and hands each Record to ``sink(record, live)``, with the
    indices of the variants live at it.  An abort (non-finite values, weight
    norms beyond the circuit breaker) ends that scenario's records; the abort
    reasons are returned, None where none.  Without a sink each scenario's
    Trace is returned, bitwise the one it gives alone, unless its values
    would exceed MAX_TRACE_VALUES.
    """
    scenarios = list(scenarios)
    if not scenarios:
        return []
    first = scenarios[0]
    collecting = sink is None
    if collecting:
        records = record_count(first)
        width = len(trace_columns(first.topology.n_agents, first.initial.order))
        if records * width > MAX_TRACE_VALUES:
            raise ValueError(f"sim.record_stride: {records} records of {width} trace values exceed "
                             f"sim.MAX_TRACE_VALUES = {MAX_TRACE_VALUES}; record less often")
        rows = [[] for _ in scenarios]   # per variant its records' rows

        def sink(record, live):
            for k in live:
                rows[k].append([a[k] for a in record])
    ctx = _SimContext(scenarios)
    y = initial_state(*scenarios)
    dt, stride, breaker = first.dt, first.record_stride, nn.WEIGHT_BREAKER
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
        row = ctx.record(y, t)
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
            y = rk4_step(ctx.field, y, t, dt)
            for k, fault in ctx.faults.items():
                if k in live:
                    stop(k, fault if isinstance(fault, str)
                         else f"model evaluation failed at t={t:g}: {fault}")
            step += 1
            t = step * dt
            if not np.logical_and.reduce(np.isfinite(y)):
                finite = np.logical_and.reduce([np.isfinite(b).reshape(len(scenarios), -1).all(axis=1)
                                                for b in ctx.layout.split(y)])
                for k in [k for k in live if not finite[k]]:
                    stop(k, f"non-finite state at t={t:g}")
            if len(live) < len(scenarios):
                np.copyto(y, y0, where=stopped)
            if live and (step % stride == 0 or step == n_steps):
                record(t)
    if not collecting:
        return aborted
    return [Trace(*map(np.stack, zip(*rows_k)), aborted=reason)
            for rows_k, reason in zip(rows, aborted)]


def run(scenario: Scenario, sink=None):
    """run_many of one scenario: its Trace, or with a sink its abort reason."""
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
    t_m: float = 0.0            # bound on obstacle-avoidance magnitude
    t_n: float = 0.0            # bound on collision-avoidance magnitude
    beta: float = 1.0
    kappa: float = 0.05
    kappaw: float = 0.05
    kappa0: float = 0.05
    e0_bound: float = 0.0       # bound on ||E_i0|| used for the c.E0 term
    alpha_bar: Optional[float] = None  # defaults to the scenario's gains value

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if f.name != "alpha_bar" and getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")


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


@np.errstate(all="ignore")
def cuub_diagnostics(bounds: CuubBounds, topology: gr.Topology,
                     gains: ctl.ControlGains) -> DiagnosticsReport:
    """Assemble K, test its five Sylvester minors, and compute B_d.

    Bounds large enough to overflow give infinite or NaN minors, which fail
    their test, so numpy's overflow warnings are silenced here.
    """
    def sigma_min(matrix) -> float:   # nan for a matrix that is not finite, where the SVD fails
        return float(np.linalg.norm(matrix, -2)) if np.isfinite(matrix).all() else math.nan

    lyap = topology.certificate
    pounds = gr.pinned_laplacian(topology)
    adjacency = topology.adjacency
    dvec = adjacency.sum(axis=1)
    pin = dvec + topology.leader_weights

    sig_a = float(np.linalg.norm(adjacency, 2)) if adjacency.size else 0.0
    sig_db_min = float(np.min(pin))
    sig_p = float(np.max(lyap.p_diag))
    sig_q_min = sigma_min(lyap.q_matrix)
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

    sigma_min_k = sigma_min(k)
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
