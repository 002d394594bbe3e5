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

from .graph import FieldError, _check, _readonly

GRAVITY = 9.81
GRADE_AMPLITUDE = 0.05
GRADE_WAVENUMBER = 0.1


def _slope_force(s: float) -> float:
    """g sin(grade) on a road whose grade at position s is A sin(k s)."""
    return GRAVITY * math.sin(GRADE_AMPLITUDE * math.sin(GRADE_WAVENUMBER * s))


@dataclass(frozen=True)
class AgentModel:
    """One follower: drift f(x, t) and disturbance w(t); its state fixes the chain order."""

    drift: Callable[[np.ndarray, float], float]
    disturbance: Callable[[float], float]


@dataclass(frozen=True)
class LeaderModel:
    """Leader: autonomous drift f0(x0, t); its state fixes the chain order."""

    drift: Callable[[np.ndarray, float], float]


@dataclass(frozen=True)
class FleetState:
    """Stacked follower states (N, n) and leader state (n,) at t = 0; n >= 2."""

    agents: np.ndarray
    leader: np.ndarray

    def __post_init__(self):
        agents = _readonly(self.agents)
        leader = _readonly(self.leader)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "leader", leader)
        if agents.ndim != 2:
            raise FieldError("agents", "expected an array of state vectors")
        if leader.shape != agents.shape[1:]:
            raise FieldError("leader", "state length must match the agent state length")
        if leader.shape[0] < 2:
            raise FieldError("leader", "chain order must be >= 2")
        _check(self, ("agents", "leader"), lambda a: np.all(np.isfinite(a)), "must be finite")

    @property
    def order(self) -> int:
        return self.agents.shape[1]


# ---------------------------------------------------------------------------
# Builtin platoon drifts: five followers with distinct nonlinearities and a
# self-regulating leader, each a factory of the vehicle mass (the masses sit
# in vehicle_platoon.json).  Control and disturbance enter the library's
# chain with unit gain, i.e. the simulated input is the acceleration command
# (physical force / mass).  Each reads its state as Python floats
# (``x.item``): the same double arithmetic as on numpy scalars, with less
# overhead per operation.


def _agent1_drift(m):
    def f(x, t):
        s, v = x.item(0), x.item(1)
        return v * math.sin(s) / m + math.cos(v) ** 2 - 0.47 * v * v / m - _slope_force(s)
    return f


def _agent2_drift(m):
    def f(x, t):
        s, v = x.item(0), x.item(1)
        return -s * s * v / m + math.cos(v) ** 2 - 0.52 * v * v / m - _slope_force(s)
    return f


def _agent3_drift(m):
    def f(x, t):
        s, v = x.item(0), x.item(1)
        return -s * s * v / m + math.sin(v) ** 2 - 0.57 * v * v / m - _slope_force(s)
    return f


def _agent4_drift(m):
    def f(x, t):
        s, v = x.item(0), x.item(1)
        w = s + v - 1.0
        return (-3.0 * w * w * w / m - v + 0.5 * math.sin(2.0 * t) + math.cos(2.0 * t)
                - 0.65 * v * v / m - _slope_force(s))
    return f


def _agent5_drift(m):
    def f(x, t):
        s, v = x.item(0), x.item(1)
        return math.cos(s) - 0.74 * v * v / m - _slope_force(s)
    return f


def _leader_drift(m):
    def f(x, t):
        s, v = x.item(0), x.item(1)
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
    ``key`` (an expression's is its kernel's source) share their kernel, so
    the field evaluates a group of them once over stacked columns.  Calling
    a model for one agent, ``model(x, t)`` for a drift and ``model(t)`` for
    a disturbance, runs the same kernel on one-element columns, so both
    give the same bits.
    """

    def __init__(self, key, kernel, consts, columns=()):
        self.key = key
        self.kernel = kernel
        self.consts = np.array(consts, dtype=float)
        self.consts.setflags(write=False)   # one model may serve many agents and scenarios
        self.columns = tuple(columns)
        # one agent's constant columns, made once: a view per call costs more than the kernel
        self._own = [self.consts[j:j + 1] for j in range(self.consts.size)]

    def __call__(self, *args) -> float:
        *x, t = args
        x = np.asarray(x[0], dtype=float) if x else None   # a disturbance reads no column
        out = self.kernel(self._own, [x[k:k + 1] for k in self.columns], t)
        return float(out[0]) if isinstance(out, np.ndarray) else float(out)


def _constant_kernel(consts, states, t):
    return consts[0]


def _sinusoid_kernel(consts, states, t):
    return consts[0] * np.sin(consts[1] * t)


def constant_disturbance(value: float) -> BatchModel:
    return BatchModel("constant", _constant_kernel, [value])


def sinusoid_disturbance(amp: float, freq: float) -> BatchModel:
    """amp * sin(freq * t)."""
    return BatchModel("sinusoid", _sinusoid_kernel, [amp, freq])


# ---------------------------------------------------------------------------
# Expression-form drifts for user scenarios: +, -, *, /, **, unary minus,
# sin/cos/tan/exp, the constants pi and e, and the variables s, v, t
# (plus x1..xn for higher-order chains).  Expressions evaluate as numpy
# float64: every numeric literal becomes a float64 constant column, so an
# overflow or a complex power gives inf or nan instead of an exception or
# unbounded big-integer work.

_ALLOWED_FUNCS = {"sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp}
_ALLOWED_CONSTS = {"pi": np.float64(math.pi), "e": np.float64(math.e)}
_KERNEL_GLOBALS = {"__builtins__": {}, "_float64": np.float64, **_ALLOWED_FUNCS, **_ALLOWED_CONSTS}

# symbol, precedence, and the least precedence an operand may have on the
# left and on the right without parentheses (** groups right to left and
# takes a unary operand on its right)
_BINARY_OPS = {ast.Add: ("+", 1, 1, 2), ast.Sub: ("-", 1, 1, 2), ast.Mult: ("*", 2, 2, 3),
               ast.Div: ("/", 2, 2, 3), ast.Pow: ("**", 4, 5, 3)}
_UNARY_OPS = {ast.USub: "-", ast.UAdd: "+"}


def _lift(node, text: str, known: set, values: list, names: set) -> tuple[str, int]:
    """Source of a node of expression `text`, with the k-th numeric literal
    renamed _ck, and the precedence of its outermost operator.

    This is the grammar: the first node outside it raises ValueError.  A name
    must be in `known` and a function name called.  The literals go to
    `values` as floats and the names read to `names`.  An operand is
    parenthesised only where Python's grammar needs it, so the source nests
    no deeper than the text it came from.
    """
    spine = []   # the binary operators down the left operands: a flat sum loops, not recurses
    while isinstance(node, ast.BinOp) and type(node.op) in _BINARY_OPS:
        spine.append(node)
        node = node.left
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY_OPS:
        operand, operand_prec = _lift(node.operand, text, known, values, names)
        source, prec = _UNARY_OPS[type(node.op)] + (operand if operand_prec >= 3 else f"({operand})"), 3
    elif isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_FUNCS:
            raise ValueError(f"expression {text!r} calls an unsupported function")
        if node.keywords:
            raise ValueError("keyword arguments are not supported in expressions")
        if len(node.args) != 1:
            raise ValueError(f"expression {text!r}: {node.func.id}() takes exactly one "
                             f"argument, got {len(node.args)}")
        source, prec = f"{node.func.id}({_lift(node.args[0], text, known, values, names)[0]})", 5
    elif isinstance(node, ast.Constant):
        if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
            raise ValueError(f"expression {text!r} contains a non-numeric constant")
        values.append(float(node.value))   # an int beyond the float range overflows here,
        if math.isinf(values[-1]):         # and a float literal beyond it fails the same way
            raise OverflowError
        source, prec = f"_c{len(values) - 1}", 5
    elif isinstance(node, ast.Name):
        if node.id in _ALLOWED_FUNCS:
            raise ValueError(f"expression {text!r} names the function {node.id}() without calling it")
        if node.id not in known:
            raise ValueError(f"expression {text!r} references unknown name {node.id!r}")
        names.add(node.id)
        source, prec = node.id, 5
    else:   # an operator outside the grammar is named, not the node that applies it
        bad = node.op if isinstance(node, (ast.BinOp, ast.UnaryOp)) else node
        raise ValueError(f"expression {text!r} uses unsupported syntax: {type(bad).__name__}")
    for binop in reversed(spine):   # innermost first: the literals keep their order
        op, op_prec, left_least, right_least = _BINARY_OPS[type(binop.op)]
        right, right_prec = _lift(binop.right, text, known, values, names)
        if prec < left_least:
            source = f"({source})"
        if right_prec < right_least:
            right = f"({right})"
        source, prec = source + op + right, op_prec
    return source, prec


# Expressions that differ only in their literals lift to the same source, so
# they share one kernel: a function of (literals, state columns, t) that
# binds the literals to _c0, _c1, ... and the columns to the state names.
@functools.lru_cache(maxsize=1024)
def _kernel(source: str, filename: str):
    namespace = dict(_KERNEL_GLOBALS)
    exec(compile(source, filename, "exec"), namespace)
    return namespace["kernel"]


def _expression(text: str, variables: dict, filename: str) -> BatchModel:
    """The model of `text`; `variables` maps each state name to its column."""
    values, names, known = [], set(), {*variables, "t", *_ALLOWED_CONSTS}
    try:
        body, _ = _lift(ast.parse(text, mode="eval").body, text, known, values, names)
        used = sorted(names & set(variables))
        source = "\n".join((
            "def kernel(_consts, _states, t):",
            f"    [{', '.join(f'_c{j}' for j in range(len(values)))}] = _consts",
            f"    [{', '.join(used)}] = _states",
            "    t = _float64(t)",
            f"    return {body}"))
        kernel = _kernel(source, filename)
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {text!r}: {exc.msg}") from None
    except (RecursionError, MemoryError):
        raise ValueError("expression is nested too deeply") from None
    except OverflowError:
        raise ValueError(f"expression {text!r} has a constant too large for a float") from None
    # equal sources mean equal arithmetic: one group
    return BatchModel(source, kernel, values, [variables[name] for name in used])


# A model holds no state, so every agent and scenario with the same text (a
# fleet's shared drifts, each point of a sweep) shares one compiled model.
@functools.lru_cache(maxsize=1024)
def compile_state_expression(text: str, order: int) -> BatchModel:
    """Compile a drift expression over s, v (aliases of x1, x2), x1..xn, and t."""
    variables = {f"x{k + 1}": k for k in range(order)}
    variables.update({"s": 0, "v": 1} if order >= 2 else {"s": 0})
    return _expression(text, variables, "<drift>")


@functools.lru_cache(maxsize=1024)
def compile_time_expression(text: str) -> BatchModel:
    """Compile a disturbance expression in t alone."""
    return _expression(text, {}, "<disturbance>")
