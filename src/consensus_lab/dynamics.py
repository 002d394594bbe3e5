"""Brunovsky-chain agent/leader models, the builtin platoon drifts, expressions.

Every model is a chain of n integrators whose last channel is forced:
followers by drift + control + disturbance, the leader by its autonomous
drift.  Drifts are plain callables f(state, t) -> float; the builtin drifts
hard-code five heterogeneous longitudinal vehicle models (mass, quadratic
drag, road grade) plus a self-regulating leader.  User scenarios may instead
supply drift expressions in a small arithmetic grammar.
"""

import ast
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GRAVITY = 9.81
GRADE_AMPLITUDE = 0.05
GRADE_WAVENUMBER = 0.1


class NonFiniteDrift(RuntimeError):
    """A drift or disturbance evaluated to NaN/Inf; the model blew up."""


def _grade(s: float) -> float:
    return GRADE_AMPLITUDE * math.sin(GRADE_WAVENUMBER * s)


def _slope_force(s: float) -> float:
    return GRAVITY * math.sin(_grade(s))


@dataclass(frozen=True)
class AgentModel:
    """One follower: chain order, drift f(x, t), mass, disturbance w(t)."""

    order: int
    drift: Callable[[np.ndarray, float], float]
    mass: float
    disturbance: Callable[[float], float]
    label: str = ""

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("chain order must be >= 2")
        if not self.mass > 0:
            raise ValueError("mass must be positive")


@dataclass(frozen=True)
class LeaderModel:
    """Leader: chain order and autonomous drift f0(x0, t)."""

    order: int
    drift: Callable[[np.ndarray, float], float]
    label: str = ""

    def __post_init__(self):
        if self.order < 2:
            raise ValueError("chain order must be >= 2")


@dataclass(frozen=True)
class FleetState:
    """Stacked follower states (N, n), leader state (n,), and the clock."""

    agents: np.ndarray
    leader: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        agents = np.array(self.agents, dtype=float)
        leader = np.array(self.leader, dtype=float)
        if agents.ndim != 2:
            raise ValueError("agents must be a 2-D array (N, n)")
        if leader.ndim != 1 or leader.shape[0] != agents.shape[1]:
            raise ValueError("leader state length must match the chain order")
        if not (np.all(np.isfinite(agents)) and np.all(np.isfinite(leader))):
            raise ValueError("states must be finite")
        if self.time < 0:
            raise ValueError("time must be nonnegative")
        agents.setflags(write=False)
        leader.setflags(write=False)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "leader", leader)
        object.__setattr__(self, "time", float(self.time))

    @property
    def n_agents(self) -> int:
        return self.agents.shape[0]

    @property
    def order(self) -> int:
        return self.agents.shape[1]


# ---------------------------------------------------------------------------
# Builtin platoon drifts: five followers with distinct nonlinearities and a
# self-regulating leader, each a factory of the vehicle mass (the masses sit
# in vehicle_platoon.json).  Control and disturbance enter the library's
# chain with unit gain, i.e. the simulated input is the acceleration command
# (physical force / mass).


def _agent1_drift(m):
    def f(x, t):
        s, v = x[0], x[1]
        return v * math.sin(s) / m + math.cos(v) ** 2 - 0.47 * v * v / m - _slope_force(s)
    return f


def _agent2_drift(m):
    def f(x, t):
        s, v = x[0], x[1]
        return -s * s * v / m + math.cos(v) ** 2 - 0.52 * v * v / m - _slope_force(s)
    return f


def _agent3_drift(m):
    def f(x, t):
        s, v = x[0], x[1]
        return -s * s * v / m + math.sin(v) ** 2 - 0.57 * v * v / m - _slope_force(s)
    return f


def _agent4_drift(m):
    def f(x, t):
        s, v = x[0], x[1]
        w = s + v - 1.0
        return (-3.0 * w * w * w / m - v + 0.5 * math.sin(2.0 * t) + math.cos(2.0 * t)
                - 0.65 * v * v / m - _slope_force(s))
    return f


def _agent5_drift(m):
    def f(x, t):
        s, v = x[0], x[1]
        return math.cos(s) - 0.74 * v * v / m - _slope_force(s)
    return f


def _leader_drift(m):
    def f(x, t):
        s, v = x[0], x[1]
        w = s + v - 1.0
        return (-3.0 * v + 1.0 - _slope_force(s) - 0.4 * v * v / m
                + (3.0 * math.sin(2.0 * t) + 6.0 * math.cos(2.0 * t)) / m
                - w * w * (s + 4.0 * v - 1.0) / (3.0 * m))
    return f


BUILTIN_AGENT_DRIFTS = {
    "platoon_agent_1": _agent1_drift,
    "platoon_agent_2": _agent2_drift,
    "platoon_agent_3": _agent3_drift,
    "platoon_agent_4": _agent4_drift,
    "platoon_agent_5": _agent5_drift,
}

BUILTIN_LEADER_DRIFTS = {
    "platoon_leader": _leader_drift,
}


def constant_disturbance(value: float) -> Callable[[float], float]:
    return lambda t: value


def sinusoid_disturbance(amp: float, freq: float) -> Callable[[float], float]:
    return lambda t: amp * math.sin(freq * t)


# ---------------------------------------------------------------------------
# Expression-form drifts for user scenarios: +, -, *, /, **, unary minus,
# sin/cos/tan/exp, the constants pi and e, and the variables s, v, t
# (plus x1..xn for higher-order chains).

_ALLOWED_FUNCS = {"sin": math.sin, "cos": math.cos, "tan": math.tan, "exp": math.exp}
_ALLOWED_CONSTS = {"pi": math.pi, "e": math.e}
_EVAL_GLOBALS = {"__builtins__": {}, **_ALLOWED_FUNCS, **_ALLOWED_CONSTS}
_ALLOWED_NODES = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Add, ast.Sub, ast.Mult, ast.Div,
    ast.Pow, ast.USub, ast.UAdd, ast.Constant, ast.Name, ast.Call, ast.Load,
)


def _check_expression(text: str, variables: set[str]) -> ast.Expression:
    try:
        tree = ast.parse(text, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc.msg}") from exc
    for node in ast.walk(tree):
        if not isinstance(node, _ALLOWED_NODES):
            raise ValueError(f"expression {text!r} uses unsupported syntax: {type(node).__name__}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
                raise ValueError(f"expression {text!r} calls an unsupported function")
            if node.keywords:
                raise ValueError("keyword arguments are not supported in expressions")
        if isinstance(node, ast.Name):
            if node.id not in variables and node.id not in _ALLOWED_FUNCS and node.id not in _ALLOWED_CONSTS:
                raise ValueError(f"expression {text!r} references unknown name {node.id!r}")
        if isinstance(node, ast.Constant) and not isinstance(node.value, (int, float)):
            raise ValueError(f"expression {text!r} contains a non-numeric constant")
    return tree


def _compile(text: str, variables: set[str], filename: str) -> Callable[[dict], float]:
    """Check `text` against the grammar; return its evaluator over a {name: value} dict."""
    code = compile(_check_expression(text, variables), filename, "eval")
    return lambda values: float(eval(code, _EVAL_GLOBALS, values))


def compile_state_expression(text: str, order: int) -> Callable[[np.ndarray, float], float]:
    """Compile a drift expression over s, v (aliases of x1, x2), x1..xn, and t."""
    names = {"t"} | {f"x{k}" for k in range(1, order + 1)}
    if order >= 1:
        names.add("s")
    if order >= 2:
        names.add("v")
    evaluate = _compile(text, names, "<drift>")

    def drift(x, t):
        values = {"t": t, "s": x[0]}
        if order >= 2:
            values["v"] = x[1]
        for k in range(order):
            values[f"x{k + 1}"] = x[k]
        return evaluate(values)

    return drift


def compile_time_expression(text: str) -> Callable[[float], float]:
    """Compile a disturbance expression in t alone."""
    evaluate = _compile(text, {"t"}, "<disturbance>")
    return lambda t: evaluate({"t": t})
