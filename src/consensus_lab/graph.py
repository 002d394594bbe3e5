"""Communication topology and the graph matrices used by the control design.

A fleet of N followers communicates over a weighted graph (adjacency A) and
a subset of them additionally hears a leader (pinning weights b_i0).  The
control and tuning laws consume the degree matrix D, the Laplacian L = D - A,
the pinned combination nu1*L + nu2*B, and a diagonal Lyapunov certificate:
q solves (nu1*L + nu2*B) q = 1, P = diag(1/q_i), and
Q = P(nu1*L + nu2*B) + (nu1*L + nu2*B)^T P is positive definite whenever the
augmented graph contains a spanning tree rooted at the leader.
"""

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

# Relative pivot tolerance for declaring the pinned Laplacian singular, and
# the eigenvalue floor below which Q is not accepted as positive definite.
PIVOT_RTOL = 1e-12
Q_EIG_TOL = 1e-10
# Columns per panel of the blocked LU factorization in _lu_pivots.
LU_PANEL = 32


class SingularPinnedLaplacian(RuntimeError):
    """nu1*L + nu2*B admits no solve for q: it is rank deficient or not finite."""


class NonPositiveQ(RuntimeError):
    """q or Q failed positivity; the graph is outside the certificate's hypotheses."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Topology:
    """Weighted follower graph plus leader pinning and coupling gains.

    adjacency[i, j] is the weight with which agent i hears agent j; the
    diagonal must be zero.  leader_weights[i] > 0 means agent i hears the
    leader directly.  A topology with all leader weights zero is
    constructible (some operations are defined on it) but can never pass
    ``has_leader_spanning_tree`` and is rejected by scenario validation.
    The agent count is the length of leader_weights.
    """

    adjacency: np.ndarray
    leader_weights: np.ndarray
    nu1: float = 1.0
    nu2: float = 1.0
    undirected: bool = True

    def __post_init__(self):
        adj = _readonly(self.adjacency)
        lw = _readonly(self.leader_weights)
        if lw.ndim != 1 or lw.size == 0:
            raise ValueError("leader_weights must be a non-empty 1-D array")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "leader_weights", lw)
        object.__setattr__(self, "nu1", float(self.nu1))
        object.__setattr__(self, "nu2", float(self.nu2))
        n = lw.size
        if adj.shape != (n, n):
            raise ValueError(f"adjacency must be {n}x{n}, got {adj.shape}")
        if not np.all(np.isfinite(adj)) or not np.all(np.isfinite(lw)):
            raise ValueError("adjacency and leader_weights must be finite")
        if np.any(adj < 0):
            raise ValueError("adjacency weights must be nonnegative")
        if np.any(np.diag(adj) != 0):
            raise ValueError("adjacency diagonal must be zero")
        if np.any(lw < 0):
            raise ValueError("leader_weights must be nonnegative")
        if self.undirected and not np.array_equal(adj, adj.T):
            raise ValueError("undirected topology requires an exactly symmetric adjacency")
        if not (self.nu1 > 0 and self.nu2 > 0):
            raise ValueError("coupling gains nu1 and nu2 must be positive")

    @property
    def n_agents(self) -> int:
        return self.leader_weights.size

    @functools.cached_property
    def certificate(self) -> "GraphLyapunov":
        """graph_lyapunov of this topology, solved on first use and kept."""
        return graph_lyapunov(self)


@dataclass(frozen=True)
class GraphLyapunov:
    """Diagonal Lyapunov certificate (q, P, Q) of a pinned topology; graph_lyapunov checks it."""

    q: np.ndarray
    p_diag: np.ndarray
    q_matrix: np.ndarray
    min_eig_q: float

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "p_diag", _readonly(self.p_diag))
        object.__setattr__(self, "q_matrix", _readonly(self.q_matrix))
        object.__setattr__(self, "min_eig_q", float(self.min_eig_q))


def degree_matrix(topology: Topology) -> np.ndarray:
    """Diagonal matrix of row sums d_i of the adjacency."""
    return np.diag(topology.adjacency.sum(axis=1))


def laplacian(topology: Topology) -> np.ndarray:
    """L = D - A; every row sums to zero."""
    return degree_matrix(topology) - topology.adjacency


def has_leader_spanning_tree(topology: Topology) -> bool:
    """True iff every agent is reachable from the leader through the augmented graph.

    Agent i hears j when adjacency[i, j] > 0, so information flows from the
    pinned set {i : leader_weights[i] > 0} along edges taken in that
    direction.  Plain breadth-first search; never raises.
    """
    adj = topology.adjacency
    reached = topology.leader_weights > 0
    if not reached.any():
        return False
    frontier = list(np.flatnonzero(reached))
    while frontier:
        j = frontier.pop()
        hears_j = np.flatnonzero(adj[:, j] > 0)
        for i in hears_j:
            if not reached[i]:
                reached[i] = True
                frontier.append(i)
    return bool(reached.all())


def pinned_laplacian(topology: Topology) -> np.ndarray:
    """nu1*L + nu2*B.  Singularity is surfaced by graph_lyapunov, not here."""
    return topology.nu1 * laplacian(topology) + topology.nu2 * np.diag(topology.leader_weights)


def _lu_pivots(a: np.ndarray) -> np.ndarray:
    """|U_kk| of the LU factorization of `a` with partial (row) pivoting.

    Blocked as LAPACK's getrf: each panel of LU_PANEL columns is factored
    one column at a time, updating only the panel's columns; forward
    substitution then gives the panel's U rows, and the trailing matrix
    takes the panel's whole update as one matmul.  Row exchanges follow
    getrf: the first largest |entry| in the column becomes the pivot.  A
    zero column leaves a zero pivot and no elimination step.
    """
    u = np.array(a, dtype=float)
    n = u.shape[0]
    pivots = np.empty(n)
    for j0 in range(0, n, LU_PANEL):
        j1 = min(j0 + LU_PANEL, n)
        for k in range(j0, j1):
            p = k + int(np.argmax(np.abs(u[k:, k])))
            if p != k:
                u[[k, p], j0:] = u[[p, k], j0:]
            pivot = u[k, k]
            pivots[k] = abs(pivot)
            if pivot != 0.0:
                u[k + 1:, k] /= pivot
                u[k + 1:, k + 1:j1] -= u[k + 1:, k, None] * u[k, k + 1:j1]
        for k in range(j0, j1 - 1):
            u[k + 1:j1, j1:] -= u[k + 1:j1, k, None] * u[k, j1:]
        u[j1:, j1:] -= u[j1:, j0:j1] @ u[j0:j1, j1:]
    return pivots


def graph_lyapunov(topology: Topology) -> GraphLyapunov:
    """Solve (nu1*L + nu2*B) q = 1 and build P = diag(1/q), Q = P£ + £^T P.

    Raises SingularPinnedLaplacian when the matrix is not finite, when its LU
    factorization produces a pivot below PIVOT_RTOL relative to the matrix
    scale (the leader-spanning-tree assumption is violated) or when the solve
    fails, and NonPositiveQ when q or Q fails positivity.  For undirected
    topologies that pass the spanning-tree check the certificate always
    succeeds (Q is a symmetric strictly diagonally dominant Z-matrix there);
    for directed reducible topologies Q can be indefinite even with a
    spanning tree, and this reports it.  No verdict depends on the weight
    scale: each is taken on £ times 2^-e, in [0.5, 1) in magnitude, which
    scales q by 2^e, P by 2^-e and Q by 2^-2e exactly; the certificate is
    scaled back, with inf for a Q beyond the float range.
    """
    pounds = pinned_laplacian(topology)
    scale = np.max(np.abs(pounds))
    if scale == 0.0:
        raise SingularPinnedLaplacian("pinned Laplacian is identically zero")
    if not np.isfinite(scale):
        raise SingularPinnedLaplacian("pinned Laplacian overflows the float range")
    e = math.frexp(scale)[1]
    unit, unit_scale = np.ldexp(pounds, -e, out=pounds), math.ldexp(scale, -e)
    pivots = _lu_pivots(unit)
    if not np.min(pivots) >= PIVOT_RTOL * unit_scale:
        raise SingularPinnedLaplacian(
            f"pinned Laplacian is numerically singular (pivot ratio "
            f"{np.min(pivots) / unit_scale:.3e} < {PIVOT_RTOL:g})"
        )
    try:
        q = np.linalg.solve(unit, np.ones(len(unit)))
    except np.linalg.LinAlgError as exc:
        raise SingularPinnedLaplacian(f"pinned Laplacian solve failed: {exc}") from None
    if np.any(q <= 0):
        raise NonPositiveQ(f"solve produced non-positive q entries: {q}")
    p = 1.0 / q
    m = p[:, None] * unit
    q_matrix = m + m.T
    min_eig = np.linalg.eigvalsh(q_matrix)[0]
    if min_eig <= Q_EIG_TOL:
        raise NonPositiveQ(f"Q has minimum eigenvalue {min_eig:.3e} <= {Q_EIG_TOL:g} "
                           f"for the pinned Laplacian scaled by 2^{-e}")
    with np.errstate(over="ignore"):
        return GraphLyapunov(np.ldexp(q, -e), np.ldexp(p, e),
                             np.ldexp(q_matrix, 2 * e, out=q_matrix), np.ldexp(min_eig, 2 * e))


def proximity_augment(topology: Topology, first_states: np.ndarray, psi_threshold: float) -> Topology:
    """Connect every pair whose first states are within psi_threshold.

    New edges get weight 1; existing heavier weights are preserved.  The
    operation is idempotent for fixed states and threshold.
    """
    if not psi_threshold > 0:
        raise ValueError("psi_threshold must be positive")
    x = np.asarray(first_states, dtype=float)
    if x.shape != (topology.n_agents,):
        raise ValueError(f"first_states must have length {topology.n_agents}")
    close = np.abs(x[:, None] - x[None, :]) <= psi_threshold
    np.fill_diagonal(close, False)
    adj = np.maximum(topology.adjacency, close.astype(float))
    return replace(topology, adjacency=adj)
