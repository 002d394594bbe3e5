"""Scalar per-agent reference forms of the control law and the tuning laws.

The simulator runs only the vectorised field in ``consensus_lab.field``.  These
literal per-agent restatements (loops over neighbours, one estimator object
per agent and family) are the oracles the tests compare the field against.
So are the loop form ``phi`` of the state bases, the CSV cell format
``fmt`` and the whole-trace ``metrics``, and the graph matrices D, L and
£ = nu1*L + nu2*B built one matrix each, with the certificate's verdict
taken by eigvalsh alone.

The per-agent control is u_i = u_i^d - u_i^c - u_i^0:

    u_i^d = rho_i/(d_i + b_i0) - fhat_i - what_i + fhat0 + r_i - c . E_i0
    u_i^c = collision terms,   u_i^0 = obstacle terms

where e^k is the neighbor/leader-weighted disagreement of the k-th state
channel, r = lambda_1 e^1 + ... + lambda_{n-1} e^{n-1} + e^n, and
rho = lambda_1 e^2 + ... + lambda_{n-1} e^n.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg

from consensus_lab.controller import DISTANCE_CLAMP, ControlGains, Offsets
from consensus_lab.dynamics import FleetState
from consensus_lab.estimator import GAUSSIAN_RBF_STATE, BasisSpec, DimensionMismatch, basis_eval
from consensus_lab import graph as gr
from consensus_lab.graph import GraphLyapunov, Topology, _readonly


class IsolatedAgent(RuntimeError):
    """An agent has d_i + b_i0 = 0 and cannot evaluate the control law."""


class NonFiniteControl(RuntimeError):
    """A term of the control law evaluated to NaN/Inf."""


# ---------------------------------------------------------------------------
# Estimators and tuning laws.  Tuning combines a learning term driven by the
# weighted stability error with a damping term -kappa*theta; the leader
# estimate enters the control law with the opposite sign of the agent
# estimate, so its tuning law flips sign too.

@dataclass(frozen=True)
class LipEstimator:
    """Adaptive weights theta, their basis, the SPD tuning gain F, and damping kappa."""

    theta: np.ndarray
    basis: BasisSpec
    gain: Optional[np.ndarray] = None  # scalar, matrix, or None for identity
    sigma: float = 0.05

    def __post_init__(self):
        theta = _readonly(self.theta)
        if theta.shape != (self.basis.count,):
            raise ValueError(f"theta must have length {self.basis.count}")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite")
        if self.gain is None:
            gain = np.eye(self.basis.count)
        else:
            gain = np.array(self.gain, dtype=float)
            if gain.ndim == 0:
                gain = float(gain) * np.eye(self.basis.count)
        if gain.shape != (self.basis.count, self.basis.count):
            raise ValueError("gain must be a square matrix matching the basis size")
        if np.max(np.abs(gain - gain.T)) > 1e-10:
            raise ValueError("gain must be symmetric")
        if np.linalg.eigvalsh(gain)[0] <= 0:
            raise ValueError("gain must be positive definite")
        gain.setflags(write=False)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "gain", gain)
        object.__setattr__(self, "sigma", float(self.sigma))
        if self.sigma < 0:
            raise ValueError("sigma damping must be nonnegative")


def zero_estimator(basis: BasisSpec, gain=None, sigma: float = 0.05) -> LipEstimator:
    return LipEstimator(theta=np.zeros(basis.count), basis=basis, gain=gain, sigma=sigma)


def phi(basis: BasisSpec, value) -> np.ndarray:
    """The basis at a state vector, exp(-||x - c_j||^2 / (2 width^2)) centre by
    centre as a plain loop, or at a time instant through basis_eval."""
    if basis.kind != GAUSSIAN_RBF_STATE:
        return basis_eval(basis, value)
    x = np.asarray(value, dtype=float)
    if x.shape != (basis.centers.shape[1],):
        raise DimensionMismatch(f"input of shape {x.shape} does not match centers "
                                f"of dimension {basis.centers.shape[1]}")
    out = np.empty(basis.count)
    for j, centre in enumerate(basis.centers.tolist()):
        d2 = 0.0
        for xk, ck in zip(x.tolist(), centre):
            d2 += (xk - ck) ** 2
        out[j] = math.exp(-d2 / (2.0 * basis.width ** 2))
    return out


def estimate(est: LipEstimator, value) -> float:
    """theta^T phi(input)."""
    return float(est.theta @ phi(est.basis, value))


def tune_agent(est: LipEstimator, phi: np.ndarray, r_i: float, p_i: float, pin_degree: float) -> np.ndarray:
    """Weight derivative -F [phi * r_i * p_i * (d_i + b_i0) + kappa * theta]."""
    return -est.gain @ (np.asarray(phi, dtype=float) * (r_i * p_i * pin_degree) + est.sigma * est.theta)


def tune_leader(est: LipEstimator, phi0: np.ndarray, r_i: float, p_i: float, pin_degree: float) -> np.ndarray:
    """Weight derivative +F [phi0 * r_i * p_i * (d_i + b_i0) - kappa * theta]."""
    return est.gain @ (np.asarray(phi0, dtype=float) * (r_i * p_i * pin_degree) - est.sigma * est.theta)


def tune_disturbance(est: LipEstimator, phiw: np.ndarray, r_i: float, p_i: float, pin_degree: float) -> np.ndarray:
    """Same structure as tune_agent, applied to the time-basis estimator."""
    return -est.gain @ (np.asarray(phiw, dtype=float) * (r_i * p_i * pin_degree) + est.sigma * est.theta)


# ---------------------------------------------------------------------------
# Errors, potentials and the composite control law.

def zero_offsets(n_agents: int, order: int) -> Offsets:
    """No desired offsets: every agent and the leader at psi = 0."""
    return Offsets(np.zeros((n_agents, order)), np.zeros(order))


def sync_error(k: int, fleet: FleetState, topology: Topology, offsets: Offsets) -> np.ndarray:
    """Weighted synchronization error of the k-th channel (k is 1-based).

    e_i^k = -nu1 * sum_j a_ij [(x_i^k - psi_i) - (x_j^k - psi_j)]
            -nu2 * b_i0   [(x_i^k - psi_i) - (x_0^k - psi_0)]

    computed as the literal per-agent sums; equals the matrix form
    -(nu1 L + nu2 B)(xbar^k - xbar_0^k) to floating-point accuracy.
    """
    n = fleet.order
    if not 1 <= k <= n:
        raise ValueError(f"order index k={k} out of range 1..{n}")
    xbar = fleet.agents[:, k - 1] - offsets.per_agent[:, k - 1]
    xbar0 = fleet.leader[k - 1] - offsets.leader[k - 1]
    adj = topology.adjacency
    b = topology.leader_weights
    e = np.empty(topology.n_agents)
    for i in range(topology.n_agents):
        acc = 0.0
        for j in range(topology.n_agents):
            if adj[i, j] != 0.0:
                acc += adj[i, j] * (xbar[i] - xbar[j])
        e[i] = -topology.nu1 * acc - topology.nu2 * b[i] * (xbar[i] - xbar0)
    return e


def stability_error(e_stack: np.ndarray, lambda_bar) -> np.ndarray:
    """r = lambda_1 e^1 + ... + lambda_{n-1} e^{n-1} + e^n from the (n, N) stack."""
    e = np.asarray(e_stack, dtype=float)
    lam = np.asarray(lambda_bar, dtype=float)
    if e.shape[0] != lam.shape[0] + 1:
        raise ValueError("e_stack must hold n = len(lambda_bar) + 1 error vectors")
    return lam @ e[:-1] + e[-1]


def rho(e_tail: np.ndarray, lambda_bar) -> np.ndarray:
    """rho = lambda_1 e^2 + ... + lambda_{n-1} e^n from the (n-1, N) tail stack."""
    e = np.asarray(e_tail, dtype=float)
    lam = np.asarray(lambda_bar, dtype=float)
    if e.shape[0] != lam.shape[0]:
        raise ValueError("e_tail must hold the n-1 vectors e^2..e^n")
    return lam @ e


def collision_potential(xi1: float, xj1: float, chi: float, psi: float) -> float:
    """chi / distance inside the separation threshold, 0 at or beyond it."""
    dist = abs(xi1 - xj1)
    if dist >= psi:
        return 0.0
    return chi / max(dist, DISTANCE_CLAMP)


def leader_potential(xi1: float, x01: float, chi: float, psi0: float) -> float:
    """Agent-to-leader variant of the collision potential."""
    dist = abs(xi1 - x01)
    if dist >= psi0:
        return 0.0
    return chi / max(dist, DISTANCE_CLAMP)


def obstacle_potential(xi1: float, omega: float, detect_radius: float, d_core: float) -> float:
    """[(R^2 - d^2)/(d^2 - core^2)]^2 in the detection annulus, 0 beyond R.

    Inside the core (outside the formula's stated domain) the value
    saturates at the one attained at distance core * (1 + 1e-6).
    """
    if not d_core < detect_radius:
        raise ValueError("d_core must be smaller than detect_radius")
    dist = abs(xi1 - omega)
    if dist > detect_radius:
        return 0.0
    dist = max(dist, d_core * (1.0 + DISTANCE_CLAMP))
    ratio = (detect_radius ** 2 - dist ** 2) / (dist ** 2 - d_core ** 2)
    return ratio ** 2


def _direction(origin: float, other: float) -> float:
    # Repulsive direction along the position axis; zero only at exact overlap.
    return float(np.sign(origin - other))


def control_input(
    i: int,
    fleet: FleetState,
    topology: Topology,
    lyap: GraphLyapunov,
    offsets: Offsets,
    gains: ControlGains,
    estimators: tuple[LipEstimator, LipEstimator, LipEstimator],
    t: float,
) -> float:
    """Composite control for agent i from a consistent fleet snapshot.

    ``estimators`` holds agent i's drift, disturbance, and leader estimators.
    ``lyap`` certifies the topology (it feeds the tuning laws, not this law).
    """
    del lyap
    n = fleet.order
    adj = topology.adjacency
    d_i = float(adj[i].sum())
    b_i = float(topology.leader_weights[i])
    if d_i + b_i == 0.0:
        raise IsolatedAgent(f"agent {i} has no neighbors and no leader link")

    e_stack = np.stack([sync_error(k, fleet, topology, offsets) for k in range(1, n + 1)])
    r_i = float(stability_error(e_stack, gains.lambda_bar)[i])
    rho_i = float(rho(e_stack[1:], gains.lambda_bar)[i])

    est_f, est_w, est_leader = estimators
    f_hat = estimate(est_f, fleet.agents[i])
    w_hat = estimate(est_w, t)
    l_hat = estimate(est_leader, fleet.leader)

    delta_i = (fleet.agents[i] - offsets.per_agent[i]) - (fleet.leader - offsets.leader)
    if gains.strict_decentralized and b_i == 0.0:
        c_term = 0.0
    else:
        c_term = float(gains.c @ delta_i)

    u_d = rho_i / (d_i + b_i) - f_hat - w_hat + l_hat + r_i - c_term

    x_i = float(fleet.agents[i, 0])
    u_c = 0.0
    for j in range(topology.n_agents):
        if j == i:
            continue
        m_ij = collision_potential(x_i, float(fleet.agents[j, 0]), gains.chi, gains.psi_ij)
        if m_ij:
            u_c += gains.gamma1 * m_ij * (1.0 if gains.signless_avoidance
                                          else -_direction(x_i, float(fleet.agents[j, 0])))
    m_i0 = leader_potential(x_i, float(fleet.leader[0]), gains.chi, gains.psi_i0)
    if m_i0:
        u_c += gains.gamma2 * m_i0 * (1.0 if gains.signless_avoidance
                                      else -_direction(x_i, float(fleet.leader[0])))
    u_0 = 0.0
    for omega in gains.obstacles:
        m_ib = obstacle_potential(x_i, float(omega), gains.detect_radius, gains.obstacle_radius)
        if m_ib:
            u_0 += gains.gamma0 * m_ib * (1.0 if gains.signless_avoidance
                                          else -_direction(x_i, float(omega)))

    u = u_d - u_c - u_0
    if not np.isfinite(u):
        raise NonFiniteControl(f"control for agent {i} is non-finite at t={t}")
    return float(u)


def fmt(x: float) -> str:
    """A CSV cell as the writers must render it: 17 significant digits."""
    return f"{float(x):.17g}"


def settling_time(times: np.ndarray, ok: np.ndarray) -> float:
    """The settling instant as a backward scan over the records: the earliest
    record from which ok holds at every later one, else the last record's time."""
    settled_from = times[-1]
    holds = True
    for idx in range(times.size - 1, -1, -1):
        holds = holds and bool(ok[idx])
        if not holds:
            break
        settled_from = times[idx]
    return float(settled_from)


def metrics(trace) -> dict:
    """The run summary computed over the whole trace at once, as whole-array
    numpy expressions: the reference for sim.Summary's fold over records."""
    if trace.times.size == 0:
        raise ValueError("trace has no records")
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

    return {
        "peak_abs_rel_error": abs_rel.max(axis=0).tolist(),      # (N, n)
        "final_abs_rel_error": abs_rel[-1].tolist(),             # (N, n)
        "ultimate_bound": ultimate.tolist(),                     # per order
        "settling_time": settling_time(times, ok),
        "min_pair_distance": float(trace.min_pair_distance.min()),
        "min_obstacle_distance": float(trace.min_obstacle_distance.min()),
        "duration": float(times[-1] - times[0]),
        "records": int(times.size),
    }


# ---------------------------------------------------------------------------
# The graph matrices, one matrix each, and the certificate's verdict by eigvalsh.


def degree_matrix(topology: Topology) -> np.ndarray:
    """Diagonal matrix of row sums d_i of the adjacency."""
    return np.diag(topology.adjacency.sum(axis=1))


def laplacian(topology: Topology) -> np.ndarray:
    """L = D - A; every row sums to zero."""
    return degree_matrix(topology) - topology.adjacency


def pinned_laplacian(topology: Topology) -> np.ndarray:
    """nu1*L + nu2*B."""
    return topology.nu1 * laplacian(topology) + topology.nu2 * np.diag(topology.leader_weights)


def graph_lyapunov_eigvalsh(topology: Topology):
    """(q, p) of graph.graph_lyapunov with Q's verdict taken by eigvalsh
    alone, on £ scaled by a power of two into [0.5, 1) in magnitude; raises
    graph_lyapunov's exceptions where it refuses."""
    pounds = pinned_laplacian(topology)
    scale = np.max(np.abs(pounds))
    if not 0.0 < scale < math.inf:
        raise gr.SingularPinnedLaplacian(f"pinned Laplacian scale {scale}")
    e = math.frexp(scale)[1]
    unit = np.ldexp(pounds, -e)
    if not np.min(gr._lu_pivots(unit)) >= gr.PIVOT_RTOL * math.ldexp(scale, -e):
        raise gr.SingularPinnedLaplacian("pivot ratio")
    q = np.linalg.solve(unit, np.ones(len(unit)))
    if np.any(q <= 0):
        raise gr.NonPositiveQ("q")
    p = 1.0 / q
    m = p[:, None] * unit
    if np.linalg.eigvalsh(m + m.T)[0] <= gr.Q_EIG_TOL:
        raise gr.NonPositiveQ("Q")
    with np.errstate(over="ignore"):
        return np.ldexp(q, -e), np.ldexp(p, e)


# ---------------------------------------------------------------------------
# LAPACK reference solves of the two certificates, through scipy.


def graph_lyapunov_lu(topology: Topology):
    """(q, p, Q, |U_kk|) of the graph certificate from scipy's lu_factor/lu_solve."""
    pounds = pinned_laplacian(topology)
    lu, piv = scipy.linalg.lu_factor(pounds, check_finite=False)
    q = scipy.linalg.lu_solve((lu, piv), np.ones(topology.n_agents), check_finite=False)
    p = 1.0 / q
    m = p[:, None] * pounds
    return q, p, m + m.T, np.abs(np.diag(lu))


def lu_pivots_lapack(a: np.ndarray) -> np.ndarray:
    """|U_kk| of LAPACK's getrf (partial pivoting) through scipy's lu_factor."""
    lu, _piv = scipy.linalg.lu_factor(a, check_finite=False)
    return np.abs(np.diag(lu))


def lyapunov_p1_scipy(delta: np.ndarray, alpha_bar: float) -> np.ndarray:
    """Symmetrised solve of Delta^T P1 + P1 Delta = -alpha_bar I by Bartels-Stewart."""
    p1 = scipy.linalg.solve_continuous_lyapunov(delta.T, -alpha_bar * np.eye(delta.shape[0]))
    return 0.5 * (p1 + p1.T)
