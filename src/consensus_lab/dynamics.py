"""Brunovsky-chain agent/leader models, the builtin platoon drifts, expressions.

Every model is a chain of n integrators whose last channel is forced:
followers by drift + control + disturbance, the leader by its autonomous
drift.  Drifts are callables f(state, t) -> float; the builtin drifts
hard-code five heterogeneous longitudinal vehicle models (mass, quadratic
drag, road grade) plus a self-regulating leader.  User scenarios may instead
supply drift expressions in a small arithmetic grammar.  Expressions and the
constant and sinusoid disturbances are ``BatchModel``s, which the field
evaluates for a whole group of agents in one numpy call.
"""

import ast
import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

GRAVITY = 9.81
GRADE_AMPLITUDE = 0.05
GRADE_WAVENUMBER = 0.1


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


class BatchModel:
    """A drift or disturbance that numpy evaluates for many agents in one call.

    ``kernel(consts, states, t)`` maps per-agent constant columns (one
    float64 array per entry of ``consts``) and the state columns listed in
    ``columns`` (x1 is column 0) to the model values.  Models with equal
    ``key`` share their kernel, so the field evaluates a group of them once
    over stacked columns.  Calling a model for one agent runs the same
    kernel on one-element columns, so both give the same bits.
    """

    def __init__(self, key, kernel, consts, columns=()):
        self.key = key
        self.kernel = kernel
        self.consts = np.array(consts, dtype=float)
        self.consts.setflags(write=False)   # one model may serve many agents and scenarios
        self.columns = tuple(columns)
        self._own = [self.consts[j:j + 1] for j in range(self.consts.size)]

    def _one(self, states, t) -> float:
        out = self.kernel(self._own, states, t)
        return float(out[0]) if isinstance(out, np.ndarray) else float(out)


class BatchDrift(BatchModel):
    def __call__(self, x, t) -> float:
        x = np.asarray(x, dtype=float)
        return self._one([x[k:k + 1] for k in self.columns], t)


class BatchDisturbance(BatchModel):
    def __call__(self, t) -> float:
        return self._one((), t)


def _constant_kernel(consts, states, t):
    return consts[0]


def _sinusoid_kernel(consts, states, t):
    return consts[0] * np.sin(consts[1] * t)


def constant_disturbance(value: float) -> BatchDisturbance:
    return BatchDisturbance("constant", _constant_kernel, [value])


def sinusoid_disturbance(amp: float, freq: float) -> BatchDisturbance:
    """amp * sin(freq * t)."""
    return BatchDisturbance("sinusoid", _sinusoid_kernel, [amp, freq])


# ---------------------------------------------------------------------------
# Expression-form drifts for user scenarios: +, -, *, /, **, unary minus,
# sin/cos/tan/exp, the constants pi and e, and the variables s, v, t
# (plus x1..xn for higher-order chains).  Expressions evaluate as numpy
# float64: every numeric literal becomes a float64 constant column, so an
# overflow or a complex power gives inf or nan instead of an exception or
# unbounded big-integer work.

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp}
_ALLOWED_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
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


class _LiftConstants(ast.NodeTransformer):
    """Replace the k-th numeric literal by the name _ck; collect literals and names."""

    def __init__(self):
        self.values = []
        self.names = set()

    def visit_Constant(self, node):
        name = ast.Name(id=f"_c{len(self.values)}", ctx=ast.Load())
        self.values.append(node.value)
        return ast.copy_location(name, node)

    def visit_Name(self, node):
        self.names.add(node.id)
        return node


def _expression(cls, text: str, variables: dict, filename: str):
    """A `cls` model of `text`; `variables` maps each state name to its column."""
    lift = _LiftConstants()
    code = compile(lift.visit(_check_expression(text, set(variables) | {"t"})), filename, "eval")
    try:
        consts = [float(v) for v in lift.values]
    except OverflowError:
        raise ValueError(f"expression {text!r} has a constant too large for a float") from None
    used = sorted(lift.names & set(variables))
    columns = sorted({variables[name] for name in used})
    slots = [(name, columns.index(variables[name])) for name in used]
    const_names = [f"_c{j}" for j in range(len(consts))]
    uses_t = "t" in lift.names

    def kernel(consts, states, t):
        env = dict(zip(const_names, consts))
        for name, j in slots:
            env[name] = states[j]
        if uses_t:
            env["t"] = np.float64(t)
        return eval(code, _EVAL_GLOBALS, env)

    # equal bytecode over the lifted names means equal arithmetic: one group
    return cls((cls.__name__, code.co_code, code.co_names), kernel, consts, columns)


# A model holds no state, so every agent and scenario with the same text (a
# fleet's shared drifts, each point of a sweep) shares one compiled model.
@functools.lru_cache(maxsize=1024)
def compile_state_expression(text: str, order: int) -> BatchDrift:
    """Compile a drift expression over s, v (aliases of x1, x2), x1..xn, and t."""
    variables = {f"x{k + 1}": k for k in range(order)}
    variables.update({"s": 0, "v": 1} if order >= 2 else {"s": 0})
    return _expression(BatchDrift, text, variables, "<drift>")


@functools.lru_cache(maxsize=1024)
def compile_time_expression(text: str) -> BatchDisturbance:
    """Compile a disturbance expression in t alone."""
    return _expression(BatchDisturbance, text, {}, "<disturbance>")
