"""CUUB diagnostics from the stability analysis.

The 5x5 matrix K is paired with z = [||E1||_F, ||th~||, ||th~_w||,
||th~_0||, ||r||], the forcing vector omega, and the ultimate-bound radius
B_d = ||omega||_1 / sigma_min(K).  K's leading 4x4 block is diagonal, so
det K = beta/2 kappa kappa_w kappa_0 (mu1 - mu1_required) with
mu1_required >= 0: when mu1 <= 0 no choice of bound constants passes minor 5.
"""

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import controller as ctl
from . import graph as gr


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
    # whether b_d is the radius of a ball: K is positive definite
    b_d_valid: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "b_d_valid", self.positive_definite)


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
    pounds = topology.pounds
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
