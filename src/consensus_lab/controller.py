"""Controller constants: desired offsets, gains, Hurwitz synthesis and check.

The control law these constants feed, evaluated for all agents at once by
``field._SimContext.evaluate``, is u_i = u_i^d - u_i^c - u_i^0:

    u_i^d = rho_i/(d_i + b_i0) - fhat_i - what_i + fhat0 + r_i - c . E_i0
    u_i^c = collision terms,   u_i^0 = obstacle terms

where e^k is the neighbor/leader-weighted disagreement of the k-th state
channel, r = lambda_1 e^1 + ... + lambda_{n-1} e^{n-1} + e^n, and
rho = lambda_1 e^2 + ... + lambda_{n-1} e^n.

Avoidance terms are scalar potentials multiplied by a direction factor
sign(x_i - other) chosen so that the net contribution to u_i repels agent i
along the position axis (a signless sum cannot repel symmetrically in 1-D).
Scenarios can opt into the raw signless form via ``signless_avoidance``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import FieldError, _check, _readonly

# Distances are clamped below by this before dividing, and the obstacle
# potential saturates at the value attained at core_radius * (1 + this).
DISTANCE_CLAMP = 1e-6
HURWITZ_TOL = 1e-12


class NotHurwitz(FieldError):
    """lambda_bar does not place all companion-matrix roots in the open left half plane."""


@dataclass(frozen=True)
class Offsets:
    """Desired per-order offsets for each agent and the leader."""

    per_agent: np.ndarray  # (N, n)
    leader: np.ndarray     # (n,)

    def __post_init__(self):
        pa = _readonly(self.per_agent)
        ld = _readonly(self.leader)
        object.__setattr__(self, "per_agent", pa)
        object.__setattr__(self, "leader", ld)
        if pa.ndim != 2:
            raise FieldError("per_agent", "must be an (N, n) array")
        if ld.ndim != 1:
            raise FieldError("leader", "must be a vector")
        _check(self, ("per_agent", "leader"), lambda a: np.all(np.isfinite(a)), "must be finite")


@dataclass(frozen=True)
class ControlGains:
    """All controller constants: Hurwitz weights, feedback row, avoidance shape."""

    lambda_bar: np.ndarray       # (n-1,) Hurwitz-certified weights
    c: np.ndarray                # (n,) relative-error feedback row
    gamma0: float = 0.0          # obstacle avoidance gain
    gamma1: float = 0.0          # inter-agent avoidance gain
    gamma2: float = 0.0          # leader-proximity gain
    chi: float = 1.0             # repulsive potential strength
    psi_ij: float = 1.0          # pairwise separation threshold
    psi_i0: float = 1.0          # leader separation threshold
    detect_radius: float = 2.0   # obstacle detection radius R
    obstacle_radius: float = 0.5 # obstacle core radius (must be < R)
    obstacles: np.ndarray = ()   # scalar obstacle positions
    alpha_bar: float = 1.0       # right-hand side of the companion Lyapunov equation
    strict_decentralized: bool = False
    signless_avoidance: bool = False

    def __post_init__(self):
        lam = _readonly(self.lambda_bar)
        c = _readonly(self.c)
        obstacles = _readonly(np.atleast_1d(np.asarray(self.obstacles, dtype=float)))
        object.__setattr__(self, "lambda_bar", lam)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "obstacles", obstacles)
        if lam.ndim != 1 or lam.shape[0] < 1:
            raise FieldError("lambda_bar", "must be a nonempty vector")
        if c.ndim != 1 or c.shape[0] != lam.shape[0] + 1:
            raise FieldError("c", "must have length n = len(lambda_bar) + 1")
        if obstacles.ndim != 1:
            raise FieldError("obstacles", "must be a flat vector of positions")
        _check(self, ("gamma0", "gamma1", "gamma2"), lambda v: v >= 0, "must be nonnegative")
        _check(self, ("chi", "psi_ij", "psi_i0", "detect_radius", "obstacle_radius", "alpha_bar"),
               lambda v: v > 0, "must be positive")
        if not self.obstacle_radius < self.detect_radius:
            raise FieldError("obstacle_radius", f"the core radius {self.obstacle_radius!r} must be "
                                                f"smaller than the detection radius {self.detect_radius!r}")
        r = self.detect_radius   # the field uses the squared radii; the core's is the smaller
        if math.isinf(r * r):
            raise FieldError("detect_radius", "too large: its square overflows a float")
        if not check_hurwitz(lam):
            raise NotHurwitz("lambda_bar", f"{lam} fails the Hurwitz check")

    @property
    def order(self) -> int:
        return self.c.shape[0]


def hurwitz_lambda(xi) -> np.ndarray:
    """Coefficients (lambda_1..lambda_{n-1}) of prod_j (s + xi_j) for positive xi_j."""
    xi = np.asarray(xi, dtype=float)
    if xi.ndim != 1 or xi.shape[0] < 1:
        raise ValueError("xi must be a nonempty vector")
    if np.any(xi <= 0):
        raise ValueError("all xi_j must be positive")
    coeffs = np.array([1.0])
    for root in xi:
        coeffs = np.convolve(coeffs, np.array([1.0, root]))
    # coeffs = [1, lambda_{n-1}, ..., lambda_1]; drop the leading 1 and reverse.
    return coeffs[1:][::-1]


def companion(lambda_bar) -> np.ndarray:
    """The (n-1)x(n-1) companion matrix with -lambda_j in its last row."""
    lam = np.asarray(lambda_bar, dtype=float)
    m = lam.shape[0]
    delta = np.zeros((m, m))
    if m > 1:
        delta[:-1, 1:] = np.eye(m - 1)
    delta[-1, :] = -lam
    return delta


def check_hurwitz(lambda_bar) -> bool:
    """True iff every companion-matrix eigenvalue has real part < -1e-12."""
    lam = np.asarray(lambda_bar, dtype=float)
    if lam.ndim != 1 or lam.shape[0] < 1 or not np.all(np.isfinite(lam)):
        return False
    eig = np.linalg.eigvals(companion(lam))
    return bool(np.all(eig.real < -HURWITZ_TOL))


def lyapunov_P1(lambda_bar, alpha_bar: float) -> np.ndarray:
    """Solve Delta^T P1 + P1 Delta = -alpha_bar * I for the Hurwitz companion Delta.

    The equation is the linear system (I (x) Delta^T + Delta^T (x) I) vec P1
    = -alpha_bar vec I over the column-major vec of P1, of order (n-1)^2.
    lambda_bar is Hurwitz and alpha_bar positive, as ControlGains and
    CuubBounds check them.
    """
    delta = companion(lambda_bar)
    m = delta.shape[0]
    eye = np.eye(m)
    system = np.kron(eye, delta.T) + np.kron(delta.T, eye)
    vec_p1 = np.linalg.solve(system, (-alpha_bar * eye).ravel(order="F"))
    p1 = vec_p1.reshape(m, m, order="F")
    return 0.5 * (p1 + p1.T)
