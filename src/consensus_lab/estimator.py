"""Bases and configuration of the linear-in-parameters approximators.

Each estimated quantity (agent drift, leader drift, disturbance) is modeled
as theta^T phi(input) with a fixed bounded basis phi and adapted weights
theta.  The tuning laws, evaluated for all agents at once in
``field._SimContext.field``, combine a learning term driven by the weighted
stability error with a damping term -kappa*theta that keeps weights bounded
without persistent excitation.  The leader estimate enters the control law
with the opposite sign of the agent estimate, so its tuning law flips sign.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import FieldError, _check, _readonly

GAUSSIAN_RBF_STATE = "gaussian_rbf_state"
GAUSSIAN_RBF_TIME = "gaussian_rbf_time"
FOURIER_TIME = "fourier_time"

DEFAULT_GRID_PER_AXIS = 5
# Largest state RBF grid gaussian_grid builds (the product of per_axis).
# The field evaluates an (N, p) block of distances per basis; the bundled
# scenarios use 35 and 24 centres.
MAX_GRID_CENTERS = 4096
DEFAULT_FOURIER_FREQS = (2.0, 1.0)
# The circuit breaker: a run aborts once a weight norm exceeds this.
WEIGHT_BREAKER = 1e6


class DimensionMismatch(ValueError):
    """Basis input does not match the dimension of the centers."""


@dataclass(frozen=True)
class BasisSpec:
    """Fixed basis description.

    gaussian_rbf_state: `centers` is (p, d), each component
        exp(-||x - c_j||^2 / (2 width^2)), so each lies in (0, 1].
    gaussian_rbf_time: `centers` is (p,) on the time axis, same formula.
    fourier_time: `centers` holds frequencies (w_1, ..., w_m) and the basis
        is [1, sin(w_1 t), cos(w_1 t), ..., sin(w_m t), cos(w_m t)].
    Every kind is bounded with sup-norm at most sqrt(count).
    """

    kind: str
    centers: np.ndarray
    width: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN_RBF_STATE, GAUSSIAN_RBF_TIME, FOURIER_TIME):
            raise FieldError("kind", f"unknown basis kind {self.kind!r}")
        centers = _readonly(self.centers)
        if self.kind == GAUSSIAN_RBF_STATE:
            if centers.ndim != 2:
                raise FieldError("centers", "state RBF centers must be a (p, d) array")
        elif self.kind == GAUSSIAN_RBF_TIME:
            if centers.ndim != 1:
                raise FieldError("centers", "time RBF centers must be a 1-D array")
        elif centers.ndim != 1 or centers.shape[0] < 1:
            raise FieldError("centers", "fourier basis needs at least one frequency")
        if self.kind != FOURIER_TIME and not self.width > 0:
            raise FieldError("width", "must be positive")
        if self.kind != FOURIER_TIME and math.isinf(self.width * self.width):
            raise FieldError("width", "too large: its square overflows a float")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "width", float(self.width))

    @property
    def count(self) -> int:
        """Basis size p: one per centre, or 1 + 2 per frequency for fourier_time."""
        m = self.centers.shape[0]
        return 1 + 2 * m if self.kind == FOURIER_TIME else m


def gaussian_grid(box, per_axis=DEFAULT_GRID_PER_AXIS, width=None) -> BasisSpec:
    """Uniform RBF grid over a state box; default width is the largest grid spacing."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if isinstance(per_axis, int):
        per_axis = [per_axis] * len(box)
    if len(per_axis) != len(box):
        raise FieldError("per_axis", "must match the box dimension")
    if any(m < 1 for m in per_axis):
        raise FieldError("per_axis", "must give at least one node per axis")
    if math.prod(per_axis) > MAX_GRID_CENTERS:
        raise FieldError("per_axis", f"a grid of {math.prod(per_axis)} centres "
                                     f"exceeds the limit of {MAX_GRID_CENTERS}")
    if not all(hi > lo for lo, hi in box):
        raise FieldError("box", "bounds must satisfy hi > lo")
    if not all(math.isfinite(hi - lo) for lo, hi in box):
        raise FieldError("box", "hi - lo must be finite")
    axes, spacings = [], []
    for (lo, hi), m in zip(box, per_axis):
        axes.append(np.linspace(lo, hi, m))
        spacings.append((hi - lo) / (m - 1) if m > 1 else (hi - lo))
    mesh = np.meshgrid(*axes, indexing="ij")
    centers = np.stack([m.ravel() for m in mesh], axis=1)
    if width is None:
        width = max(spacings)
    return BasisSpec(kind=GAUSSIAN_RBF_STATE, centers=centers, width=width)


def fourier_basis(freqs=DEFAULT_FOURIER_FREQS) -> BasisSpec:
    return BasisSpec(kind=FOURIER_TIME, centers=np.asarray(freqs, dtype=float))


def basis_eval(basis: BasisSpec, value) -> np.ndarray:
    """Evaluate a time basis at a time instant."""
    if basis.kind == GAUSSIAN_RBF_STATE:
        raise DimensionMismatch("a state RBF basis is evaluated by StateBases")
    if basis.kind == GAUSSIAN_RBF_TIME:
        t = float(value)
        d2 = (basis.centers - t) ** 2
        return np.exp(-d2 / (2.0 * basis.width ** 2))
    arg = basis.centers * float(value)
    out = np.empty(basis.count)
    out[0] = 1.0
    out[1::2] = np.sin(arg)
    out[2::2] = np.cos(arg)
    return out


def basis_eval_batch(basis: BasisSpec, states: np.ndarray) -> np.ndarray:
    """Evaluate a state RBF basis for a stack of states, returning (N, p)."""
    x = np.asarray(states, dtype=float)
    bases = StateBases([basis], [x.shape[0]])
    if x.shape != bases.shape:
        raise DimensionMismatch(f"input of shape {x.shape} does not match {bases.shape}")
    return bases(x)[0]


class StateBases:
    """State RBF bases, each evaluated on its own run of rows of one input.

    Basis j reads the next rows[j] rows of an (R, d) input.  Every (row,
    centre) pair of every basis is one entry of a flat layout fixed when
    the object is built, so each step runs once over all of them: repeat
    the rows, subtract the centres, square, sum over the axes in axis order,
    divide by -2 width^2, exp.  A basis's numbers are the ones it gives
    alone.  The work happens in buffers made once, so each call overwrites
    the blocks the last one returned.
    """

    def __init__(self, bases, rows):
        if any(b.kind != GAUSSIAN_RBF_STATE for b in bases):
            raise DimensionMismatch("batch evaluation is defined for state RBF bases only")
        if len({b.centers.shape[1] for b in bases}) != 1:
            raise DimensionMismatch("the bases differ in dimension")
        d = bases[0].centers.shape[1]
        self.shape = (sum(rows), d)
        # the entries, basis by basis and row by row: the input row of each
        # entry, against the centres tiled per row
        counts = np.concatenate([np.full(m, b.count) for b, m in zip(bases, rows)])
        self.entry_rows = np.repeat(np.arange(self.shape[0]), counts)
        self.centres = np.concatenate([np.tile(b.centers, (m, 1)) for b, m in zip(bases, rows)])
        self.scale = np.concatenate([np.full(m * b.count, -2.0 * b.width ** 2)
                                     for b, m in zip(bases, rows)])
        self.off = np.empty(self.centres.shape)
        self.axes = [self.off[:, k] for k in range(d)]
        self.phi = np.empty(self.scale.shape)
        ends = np.cumsum([0] + [m * b.count for b, m in zip(bases, rows)]).tolist()
        self.blocks = [self.phi[e0:e1].reshape(m, b.count)
                       for e0, e1, b, m in zip(ends, ends[1:], bases, rows)]

    def __call__(self, states: np.ndarray) -> list:
        """The (rows[j], p_j) block of each basis at an (R, d) float64 array."""
        off, phi = self.off, self.phi
        np.take(states, self.entry_rows, axis=0, out=off, mode="clip")
        off -= self.centres
        np.square(off, out=off)
        d2 = self.axes[0]
        for axis in self.axes[1:]:
            d2 = np.add(d2, axis, out=phi)
        np.divide(d2, self.scale, out=phi)   # bitwise -d2 / (2 width^2)
        np.exp(phi, out=phi)
        return self.blocks


def basis_bound(basis: BasisSpec) -> float:
    """Sup-norm bound on phi: sqrt(p) for every supported kind."""
    return math.sqrt(basis.count)


@dataclass(frozen=True)
class NNConfig:
    """Basis and gain configuration for the three estimator families.

    One scalar tuning gain F (times identity) is shared by all families, as
    exposed in the scenario file; per-family damping constants kappa,
    kappa0, kappaw.  Weights start at zero, the unforced equilibrium of the
    damped laws.
    """

    f_basis: BasisSpec
    leader_basis: BasisSpec
    w_basis: BasisSpec
    gain: float = 10.0
    kappa: float = 0.05
    kappa0: float = 0.05
    kappaw: float = 0.05

    def __post_init__(self):
        _check(self, ("f_basis", "leader_basis"), lambda b: b.kind == GAUSSIAN_RBF_STATE,
               "must be a state RBF basis")
        _check(self, ("w_basis",), lambda b: b.kind != GAUSSIAN_RBF_STATE, "must be a time basis")
        _check(self, ("gain", "kappa", "kappa0", "kappaw"), lambda v: v > 0, "must be positive")
