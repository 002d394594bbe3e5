"""Communication topology and the graph matrices used by the control design.

A fleet of N followers communicates over a weighted graph (adjacency A,
degrees d_i, Laplacian L = D - A) and a subset of them additionally hears a
leader (pinning weights b_i0, B = diag(b)).  The control and tuning laws
consume the pinned Laplacian £ = nu1*L + nu2*B and a diagonal Lyapunov
certificate: q solves £q = 1, P = diag(1/q_i), and Q = P£ + £^T P is
positive definite whenever the augmented graph contains a spanning tree
rooted at the leader (for undirected graphs; see graph_lyapunov).
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
_EPS = np.finfo(float).eps


class SingularPinnedLaplacian(RuntimeError):
    """nu1*L + nu2*B admits no solve for q: it is rank deficient or not finite."""


class NonPositiveQ(RuntimeError):
    """q or Q failed positivity; the graph is outside the certificate's hypotheses."""


class FieldError(ValueError):
    """A value a constructor refuses: `field` names its field, `reason` says why."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field, self.reason = field, reason


def _check(owner, names, ok, reason: str) -> None:
    """FieldError(name, reason) for the first of the named fields of `owner`
    whose value fails ok."""
    for name in names:
        if not ok(getattr(owner, name)):
            raise FieldError(name, reason)


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
        if lw.ndim != 1:
            raise FieldError("leader_weights", "must be a 1-D array")
        if lw.size == 0:
            raise FieldError("leader_weights", "lists no agent")
        object.__setattr__(self, "adjacency", adj)
        object.__setattr__(self, "leader_weights", lw)
        object.__setattr__(self, "nu1", float(self.nu1))
        object.__setattr__(self, "nu2", float(self.nu2))
        n = lw.size
        if adj.shape != (n, n):
            raise FieldError("adjacency", f"must be {n}x{n}, got {adj.shape}")
        weights = ("adjacency", "leader_weights")
        _check(self, weights, lambda a: np.all(np.isfinite(a)), "must be finite")
        _check(self, weights, lambda a: np.all(a >= 0), "must be nonnegative")
        if np.any(np.diag(adj) != 0):
            raise FieldError("adjacency", "diagonal must be zero")
        if self.undirected and not np.array_equal(adj, adj.T):
            raise FieldError("adjacency", "must be exactly symmetric in an undirected topology")
        _check(self, ("nu1", "nu2"), lambda v: v > 0, "must be positive")
        _check(self, ("nu1", "nu2"), math.isfinite, "must be finite")

    @property
    def n_agents(self) -> int:
        return self.leader_weights.size

    @functools.cached_property
    def pounds(self) -> np.ndarray:
        """pinned_laplacian of this topology, built on first use and kept, read-only."""
        pounds = pinned_laplacian(self)
        pounds.setflags(write=False)
        return pounds

    @functools.cached_property
    def certificate(self) -> "GraphLyapunov":
        """graph_lyapunov of this topology, solved on first use and kept."""
        return graph_lyapunov(self)


@dataclass(frozen=True)
class GraphLyapunov:
    """Diagonal Lyapunov certificate of a pinned topology £; graph_lyapunov checks it.

    q solves £q = 1 and P = diag(p_diag), p_diag = 1/q.  The verdict was
    taken on £ times 2^-exponent, whose P is diag(unit_p).  Q = P£ + £^T P
    and its least eigenvalue are built from that matrix on first read and
    kept; the run path reads neither.
    """

    q: np.ndarray
    p_diag: np.ndarray
    pounds: np.ndarray   # the topology's £, shared with it
    exponent: int
    unit_p: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _readonly(self.q))
        object.__setattr__(self, "p_diag", _readonly(self.p_diag))
        object.__setattr__(self, "unit_p", _readonly(self.unit_p))

    def _unit_q_matrix(self) -> np.ndarray:
        """Q of £ times 2^-exponent, which is Q times 2^(-2 exponent)."""
        m = self.unit_p[:, None] * np.ldexp(self.pounds, -self.exponent)
        return m + m.T

    @functools.cached_property
    def q_matrix(self) -> np.ndarray:
        """Q, read-only, with inf where it is beyond the float range."""
        with np.errstate(over="ignore"):
            q_matrix = np.ldexp(self._unit_q_matrix(), 2 * self.exponent)
        q_matrix.setflags(write=False)
        return q_matrix

    @functools.cached_property
    def min_eig_q(self) -> float:
        """The least eigenvalue of Q, inf where it is beyond the float range."""
        with np.errstate(over="ignore"):
            return float(np.ldexp(np.linalg.eigvalsh(self._unit_q_matrix())[0], 2 * self.exponent))


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
    """£ = nu1*L + nu2*B as a new array.  Singularity is surfaced by graph_lyapunov, not here.

    Built in one array, with the bits of nu1*(D - A) + nu2*B: off the
    diagonal that is nu1*(0 - a_ij) + 0, which is -(nu1*a_ij) with a -0.0
    written as 0.0.
    """
    adj = topology.adjacency
    pounds = np.multiply(adj, -topology.nu1)
    pounds += 0.0
    np.fill_diagonal(pounds, topology.nu1 * (adj.sum(axis=1) - np.diagonal(adj))
                     + topology.nu2 * topology.leader_weights)
    return pounds


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


def _q_bound(unit: np.ndarray, q: np.ndarray, p: np.ndarray) -> tuple:
    """(lower, norm): lower <= the least eigenvalue of Q = P U + U^T P as
    built from `unit` = U, with P = diag(p) and p = 1/q > 0 (q the solve of
    U q = 1), and norm >= ||Q||_2.  Two mat-vecs, no eigendecomposition.

    Q is a symmetric Z-matrix (U's off-diagonal entries are <= 0), so for
    any q > 0 the Collatz-Wielandt inequality (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6) gives
    lambda_min(Q) >= min_i (Qq)_i / q_i and, applied to |Q|,
    ||Q||_2 <= max_i (|Q|q)_i / q_i.  Here Qq = p o (Uq) + U^T (p o q), and
    since U's diagonal is >= 0, t = |Q|q = p o (2 diag(U) o q - Uq)
    + (2 diag(U) o (p o q) - U^T (p o q)) from the same two products.

    Rounding, with u = eps/2 and gamma_k = k u / (1 - k u) (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 3): each entry of
    the Q that eigvalsh would see, fl(fl(p_i U_ij) + fl(p_j U_ji)), is
    within gamma_2 |Q_ij| of the exact one (the two terms share a sign);
    each mat-vec entry is within gamma_n of |U| times its vector; so the
    computed (Qq)_i is within gamma_(n+5) t_i of (Q q)_i for that matrix,
    and the computed t is at least t (1 - gamma_(n+5)) >= t / 2.  The
    margin 2 (n + 8) eps t_i covers both, with 6 eps t_i to spare for the
    last subtraction and division, as t >= Qq; norm is twice the computed
    max_i t_i / q_i for the same reason.  Underflow adds at most about
    1e-323 an entry, far below Q_EIG_TOL.
    """
    two_diag, pq = 2.0 * np.diagonal(unit), p * q
    uq, utpq = unit @ q, pq @ unit
    t = p * (two_diag * q - uq) + (two_diag * pq - utpq)
    lower = np.min((p * uq + utpq - 2.0 * (len(q) + 8) * _EPS * t) / q)
    return float(lower), float(2.0 * np.max(t / q))


def graph_lyapunov(topology: Topology) -> GraphLyapunov:
    """Solve £q = 1 for £ = topology.pounds, take P = diag(1/q), and check
    that Q = P£ + £^T P is positive definite.

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

    Q is accepted on _q_bound where its lower bound clears Q_EIG_TOL with
    room for eigvalsh's own error, p(n) eps ||Q||_2 for a backward stable
    solver (Demmel, Applied Numerical Linear Algebra, sec. 5.2), taken as
    4 n eps ||Q||_2, so that eigvalsh would accept too; elsewhere, as on some
    directed graphs, eigvalsh decides.
    """
    pounds = topology.pounds
    scale = np.max(np.abs(pounds))
    if scale == 0.0:
        raise SingularPinnedLaplacian("pinned Laplacian is identically zero")
    if not np.isfinite(scale):
        raise SingularPinnedLaplacian("pinned Laplacian overflows the float range")
    e = math.frexp(scale)[1]
    unit, unit_scale = np.ldexp(pounds, -e), math.ldexp(scale, -e)
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
    with np.errstate(over="ignore"):
        lyap = GraphLyapunov(np.ldexp(q, -e), np.ldexp(p, e), pounds, e, p)
    lower, norm = _q_bound(unit, q, p)
    if not lower > Q_EIG_TOL + 4 * len(q) * _EPS * norm:
        min_eig = np.linalg.eigvalsh(lyap._unit_q_matrix())[0]
        if min_eig <= Q_EIG_TOL:
            raise NonPositiveQ(f"Q has minimum eigenvalue {min_eig:.3e} <= {Q_EIG_TOL:g} "
                               f"for the pinned Laplacian scaled by 2^{-e}")
    return lyap


def proximity_augment(topology: Topology, first_states: np.ndarray, psi_threshold: float) -> Topology:
    """Connect every pair whose first states are within psi_threshold.

    New edges get weight 1; existing heavier weights are preserved.  The
    operation is idempotent for fixed states and threshold.
    """
    if not psi_threshold > 0:
        raise FieldError("psi_threshold", "must be positive")
    x = np.asarray(first_states, dtype=float)
    if x.ndim != 1:
        raise FieldError("first_states", "must be a vector")
    if x.size != topology.n_agents:   # validate_scenario's wording for the same fault
        raise FieldError("first_states", f"got {x.size} states for {topology.n_agents} agents")
    close = np.abs(x[:, None] - x[None, :]) <= psi_threshold
    np.fill_diagonal(close, False)
    adj = np.maximum(topology.adjacency, close.astype(float))
    return replace(topology, adjacency=adj)
