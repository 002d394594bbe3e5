"""The closed loop's derivative field over one stacked state.

One flat state vector carries every follower chain, the leader chain, and
all adaptive weights; a single derivative field composes the control law and
the tuning laws so states and weights integrate together (no splitting).

Scenarios that share a structure (``batch_key``) integrate as one stacked
state: the field evaluates every variant at once, and each variant's
numbers are bitwise the ones it gives alone.
"""

import dataclasses
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import controller as ctl
from . import dynamics as dyn
from . import estimator as nn
from . import graph as gr


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


def state_layout(scenario) -> StateLayout:
    """The StateLayout of one sim.Scenario."""
    cfg = scenario.nn_config
    return StateLayout(
        n_agents=scenario.topology.n_agents,
        order=scenario.initial.order,
        p_f=cfg.f_basis.count,
        p_w=cfg.w_basis.count,
        p_l=cfg.leader_basis.count,
    )


def _step_count(scenario) -> int:
    return int(round(scenario.duration / scenario.dt)) if scenario.duration > 0 else 0


def _basis_key(basis: nn.BasisSpec) -> tuple:
    return basis.kind, basis.centers.shape, basis.centers.tobytes(), basis.width


def batch_key(scenario) -> tuple:
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
    it, and an array that becomes a sim.Trace field carries that field's name.
    """

    def __init__(self, scenarios):
        first = scenarios[0]
        key = batch_key(first)
        if any(batch_key(s) != key for s in scenarios[1:]):
            raise ValueError("scenarios differ in structure; group them by field.batch_key")
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
        self.pounds = stacked([topo.pounds for topo in topos])
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

    def record(self, y: np.ndarray, t: float) -> tuple:
        """Evaluate at (y, t) and return the record of the K variants, its
        values in sim.Trace field order, copied out of the workspace.  The
        evaluation stays there for the field's next call at (y, t)."""
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
        return (np.full(n_var, t), self.agents.copy(), self.leader.copy(), self.u.copy(),
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
