import dataclasses
import importlib.util
import itertools
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consensus_lab import controller as ctl
from consensus_lab import dynamics as dyn
from consensus_lab import estimator as nn
from consensus_lab import graph as gr
from consensus_lab import scenario_io as sio
from consensus_lab import sim

import oracles as ref


def zero_model():
    return dyn.AgentModel(drift=lambda x, t: 0.0,
                          disturbance=dyn.constant_disturbance(0.0))


def zero_leader():
    return dyn.LeaderModel(drift=lambda x, t: 0.0)


def one_agent_scenario(model, leader, state, leader_state):
    """A single pinned agent and its leader."""
    n = len(state)
    return sim.Scenario(
        topology=gr.Topology(adjacency=[[0.0]], leader_weights=[1.0],
                             nu1=1.0, nu2=1.0),
        agent_models=(model,),
        leader_model=leader,
        gains=ctl.ControlGains(lambda_bar=ctl.hurwitz_lambda([1.0] * (n - 1)), c=np.zeros(n)),
        offsets=ref.zero_offsets(1, n),
        nn_config=nn.NNConfig(f_basis=nn.gaussian_grid([(-1.0, 1.0)] * n, 1),
                              leader_basis=nn.gaussian_grid([(-1.0, 1.0)] * n, 1),
                              w_basis=nn.fourier_basis((1.0,))),
        initial=dyn.FleetState(agents=[state], leader=leader_state),
        duration=0.0)


def one_agent_field(model, leader, state, leader_state, t):
    """Field rows of a single pinned agent and its leader, plus the context,
    whose workspace holds the evaluated terms."""
    scenario = one_agent_scenario(model, leader, state, leader_state)
    ctx = sim._SimContext([scenario])
    y = sim.initial_state(scenario)
    dx, dx0, _, _, _ = ctx.layout.split(ctx.field(y, t))
    ctx.evaluate(y, t)
    return dx[0, 0], dx0[0], ctx, ctx.faults


def platoon_models():
    scenario, _ = sio.load_scenario("builtin:vehicle_platoon")
    return scenario.leader_model, scenario.agent_models


class TestAgentDerivative:
    def test_pure_chain_structure(self):
        out, _, _, _ = one_agent_field(zero_model(), zero_leader(),
                                       np.array([1.0, 2.0, 3.0]), np.zeros(3), 0.0)
        assert np.array_equal(out[:-1], [2.0, 3.0])

    def test_chain_channels_match_state_shift(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            x = rng.normal(size=n)
            out, _, _, _ = one_agent_field(zero_model(), zero_leader(), x,
                                           rng.normal(size=n), rng.random())
            assert np.array_equal(out[:-1], x[1:])

    def test_fleet_agent5_at_origin(self):
        # cos(0) - 0 - g*sin(alpha(0)) = 1
        drift = dyn.BUILTIN_AGENT_DRIFTS["platoon_agent_5"](1500.0)
        assert drift(np.array([0.0, 0.0]), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_forcing_adds_u_and_w(self):
        model = dyn.AgentModel(drift=lambda x, t: 0.25,
                               disturbance=dyn.constant_disturbance(0.5))
        out, _, ctx, _ = one_agent_field(model, zero_leader(), np.array([0.3, -0.2]),
                                         np.zeros(2), 0.0)
        assert ctx.u[0, 0] != 0.0
        assert out[1] == pytest.approx(0.25 + ctx.u[0, 0] + 0.5)

    def test_non_finite_drift_is_recorded(self):
        model = dyn.AgentModel(drift=lambda x, t: math.inf,
                               disturbance=dyn.constant_disturbance(0.0))
        _, _, _, faults = one_agent_field(model, zero_leader(), np.zeros(2), np.zeros(2), 0.0)
        assert faults == {0: "non-finite drift of agent 1 at t=0.0"}


class TestLeaderDerivative:
    def test_zero_drift_chain(self):
        _, out, _, _ = one_agent_field(zero_model(), zero_leader(), np.zeros(2),
                                       np.array([3.0, 4.0]), 0.0)
        assert np.array_equal(out, [4.0, 0.0])

    def test_non_finite_leader_drift_is_recorded(self):
        leader = dyn.LeaderModel(drift=lambda x, t: -math.inf)
        _, out, _, faults = one_agent_field(zero_model(), leader, np.zeros(2), np.zeros(2), 0.0)
        assert faults == {0: "non-finite leader drift at t=0.0"}
        assert out[-1] == -math.inf


def raises(tag):
    """A drift or disturbance callable that raises ValueError(tag)."""
    def model(*args):
        raise ValueError(tag)
    return model


def non_finite(*args):
    return math.nan


AGENT, DISTURBANCE, LEADER = raises("agent"), raises("disturbance"), raises("leader")


class TestFaultOrder:
    """Per variant the first fault wins: a drift or disturbance callable that
    raises (the drifts of every chain are called first, agents before
    leaders), then a non-finite agent drift or disturbance, then a non-finite
    leader drift."""

    @pytest.mark.parametrize("agent_drift, disturbance, leader_drift, first", [
        (non_finite, None, LEADER, "leader"),
        (AGENT, None, non_finite, "agent"),
        (AGENT, None, LEADER, "agent"),
        (None, DISTURBANCE, LEADER, "leader"),
        (None, DISTURBANCE, non_finite, "disturbance"),
        (non_finite, None, non_finite, "non-finite drift of agent 1 at t=0.0"),
        (None, non_finite, non_finite, "non-finite disturbance of agent 1 at t=0.0"),
        (None, None, non_finite, "non-finite leader drift at t=0.0"),
    ], ids=["leader-raises-over-agent-nan", "agent-raises-over-leader-nan", "agent-raises-first",
            "leader-drift-raises-before-disturbance", "disturbance-raises-over-leader-nan",
            "agent-drift-nan-over-leader-nan", "disturbance-nan-over-leader-nan", "leader-nan"])
    def test_first_fault_wins(self, agent_drift, disturbance, leader_drift, first):
        model = dyn.AgentModel(drift=agent_drift or (lambda x, t: 0.0),
                               disturbance=disturbance or dyn.constant_disturbance(0.0))
        _, _, _, faults = one_agent_field(model, dyn.LeaderModel(drift=leader_drift),
                                          np.zeros(2), np.zeros(2), 0.0)
        fault = faults[0]
        assert (str(fault) if isinstance(fault, ValueError) else fault) == first

    def test_each_variant_is_charged_with_its_own_fault(self):
        base = one_agent_scenario(zero_model(), zero_leader(), np.zeros(2), np.zeros(2))
        bad_leader = dataclasses.replace(base, leader_model=dyn.LeaderModel(drift=LEADER))
        bad_agent = dataclasses.replace(base, agent_models=(
            dyn.AgentModel(drift=non_finite, disturbance=dyn.constant_disturbance(0.0)),))
        bad_both = dataclasses.replace(bad_agent, leader_model=dyn.LeaderModel(drift=non_finite))
        variants = [base, bad_leader, base, bad_agent, bad_both]
        ctx = sim._SimContext(variants)
        ctx.field(sim.initial_state(*variants), 0.5)
        assert set(ctx.faults) == {1, 3, 4}
        assert isinstance(ctx.faults[1], ValueError)
        assert ctx.faults[3] == ctx.faults[4] == "non-finite drift of agent 1 at t=0.5"

    def test_the_field_calls_the_models_twice(self, monkeypatch):
        # the drifts of every chain in one call, the disturbances in another
        calls = []
        call_models = sim._SimContext._call_models
        monkeypatch.setattr(sim._SimContext, "_call_models",
                            lambda ctx, *args: calls.append(1) or call_models(ctx, *args))
        one_agent_field(zero_model(), zero_leader(), np.zeros(2), np.zeros(2), 0.0)
        assert len(calls) == 2

    def test_fleet_leader_at_origin(self):
        # -3*0 + 1 - g*sin(alpha(0)) - 0 + (0 + 6)/2000 - (-1)^2(-1)/(3*2000)
        drift = dyn.BUILTIN_LEADER_DRIFTS["platoon_leader"](2000.0)
        assert drift(np.array([0.0, 0.0]), 0.0) == \
            pytest.approx(1.0 + 6.0 / 2000.0 + 1.0 / 6000.0, abs=1e-12)


class TestBuiltinFleet:
    def test_masses(self):
        # the models keep no mass; each drift must be the builtin built for its mass
        leader, agents = platoon_models()
        x = np.array([1.3, -0.4])
        for i, (a, mass) in enumerate(zip(agents, [1200.0, 1100.0, 1500.0, 1400.0, 1500.0])):
            builtin = dyn.BUILTIN_AGENT_DRIFTS[f"platoon_agent_{i + 1}"](mass)
            assert a.drift(x, 0.7) == builtin(x, 0.7)
        assert leader.drift(x, 0.7) == dyn.BUILTIN_LEADER_DRIFTS["platoon_leader"](2000.0)(x, 0.7)

    def test_constant_disturbance_five(self):
        _, agents = platoon_models()
        for a in agents:
            for t in (0.0, 1.3, 99.0):
                assert a.disturbance(t) == 5.0

    def test_drifts_finite_at_origin(self):
        leader, agents = platoon_models()
        for a in agents:
            assert math.isfinite(a.drift(np.array([0.0, 0.0]), 0.3))
        assert math.isfinite(leader.drift(np.array([0.0, 0.0]), 0.3))

    def test_all_builtin_evaluations_finite_on_box(self):
        leader, agents = platoon_models()
        grid = np.linspace(-100.0, 100.0, 9)
        for s in grid:
            for v in grid:
                x = np.array([s, v])
                for a in agents:
                    assert math.isfinite(a.drift(x, 1.7))
                assert math.isfinite(leader.drift(x, 1.7))


class TestDisturbanceEval:
    def test_zero_descriptor(self):
        model = zero_model()
        assert model.disturbance(5.0) == 0.0

    def test_sinusoid_phase_zero(self):
        model = dyn.AgentModel(drift=lambda x, t: 0.0,
                               disturbance=dyn.sinusoid_disturbance(2.0, 1.0))
        assert model.disturbance(0.0) == 0.0
        assert model.disturbance(math.pi / 2) == pytest.approx(2.0)


class TestFleetState:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            dyn.FleetState(agents=np.array([[np.nan, 0.0]]), leader=np.zeros(2))

    def test_rejects_mismatched_leader(self):
        with pytest.raises(ValueError):
            dyn.FleetState(agents=np.zeros((2, 3)), leader=np.zeros(2))


class TestExpressions:
    def test_state_expression(self):
        f = dyn.compile_state_expression("cos(s) - 0.5*v**2 + 0.1*t", 2)
        x = np.array([1.0, 2.0])
        assert f(x, 3.0) == pytest.approx(math.cos(1.0) - 2.0 + 0.3)

    def test_xk_aliases(self):
        f = dyn.compile_state_expression("x1 + 2*x2", 2)
        assert f(np.array([1.0, 2.0]), 0.0) == pytest.approx(5.0)

    def test_constants(self):
        f = dyn.compile_state_expression("sin(pi/2) + e", 2)
        assert f(np.zeros(2), 0.0) == pytest.approx(1.0 + math.e)

    def test_rejects_unknown_name(self):
        with pytest.raises(ValueError, match="unknown name"):
            dyn.compile_state_expression("q + 1", 2)

    def test_rejects_calls_outside_whitelist(self):
        with pytest.raises(ValueError, match="unsupported"):
            dyn.compile_state_expression("__import__('os')", 2)

    def test_rejects_attribute_access(self):
        with pytest.raises(ValueError, match="unsupported"):
            dyn.compile_state_expression("(1).to_bytes(1, 'big')", 2)

    @pytest.mark.parametrize("text", ["sin", "t + cos", "-tan", "exp(exp)", "2**sin"])
    def test_function_name_must_be_called(self, text):
        # a bare name would reach the field as a numpy function, not a number
        for compile_text, args in ((dyn.compile_state_expression, (text, 2)),
                                   (dyn.compile_time_expression, (text,))):
            with pytest.raises(ValueError, match=r"names the function \w+\(\) without calling it"):
                compile_text(*args)

    @pytest.mark.parametrize("text", ["True*t", "t + False", "-True", "sin(False)", "True"])
    def test_rejects_bool_literals(self, text):
        # a bool is an int to Python, but the grammar's literals are numbers
        for compile_text, args in ((dyn.compile_state_expression, (text.replace("t", "s"), 2)),
                                   (dyn.compile_time_expression, (text,))):
            with pytest.raises(ValueError, match="contains a non-numeric constant"):
                compile_text(*args)

    def test_time_expression(self):
        g = dyn.compile_time_expression("2*sin(t)")
        assert g(math.pi / 2) == pytest.approx(2.0)

    def test_same_text_and_order_share_one_model(self):
        text = "-1.5*v + 0.5*sin(0.7*s)"
        model = dyn.compile_state_expression(text, 2)
        assert dyn.compile_state_expression(text, 2) is model
        assert dyn.compile_state_expression(text, 3) is not model
        assert dyn.compile_time_expression("2*sin(t)") is dyn.compile_time_expression("2*sin(t)")

    def test_shared_model_constants_are_read_only(self):
        model = dyn.compile_state_expression("-1.5*v + 0.5*sin(0.7*s)", 2)
        with pytest.raises(ValueError, match="read-only"):
            model.consts[0] = 2.0
        assert model(np.array([0.0, 1.0]), 0.0) == -1.5

    @pytest.mark.parametrize("text", [
        "-s**2", "(-s)**2", "s**-v", "2**3**2", "(2**3)**2", "s-(v-1)", "s-v-1", "s/(v*2)",
        "s/v*2", "-(s+v)", "s- -v", "+s*-v", "(s**v)**2", "sin(s+v)*cos(-v)**2", "2*-3"])
    def test_lifted_source_keeps_precedence(self, text):
        s, v = 1.7, -0.6
        scope = {"s": s, "v": v, "sin": math.sin, "cos": math.cos}
        assert dyn.compile_state_expression(text, 2)(np.array([s, v]), 0.0) == \
            pytest.approx(eval(text, scope), rel=1e-12)

    def test_long_sum_compiles(self):
        # a fully parenthesised source of 300 terms would nest past the
        # parser's limit of 200 parentheses
        f = dyn.compile_state_expression("s" + "+1" * 300, 2)
        assert f(np.array([0.5, 0.0]), 0.0) == 300.5

    @pytest.mark.parametrize("product", [False, True])
    def test_flat_sum_equals_its_left_to_right_value(self, product):
        # a sum's syntax tree is as deep as the sum is long: 1 200 terms, each
        # a literal or a product with its own literal, keep their order
        s, v = 0.3, -1.7
        coeffs = [0.5 + 0.001 * k for k in range(1200)]
        if product:
            terms = [f"{c!r}*s*v" for c in coeffs]
            values = [c * s * v for c in coeffs]
        else:
            terms = [repr(c) if k % 2 else "s" for k, c in enumerate(coeffs)]
            values = [c if k % 2 else s for k, c in enumerate(coeffs)]
        total = values[0]
        for value in values[1:]:
            total += value
        f = dyn.compile_state_expression("+".join(terms), 2)
        assert f(np.array([s, v]), 0.0) == total

    def test_equal_shapes_share_one_code_object(self):
        # expressions that differ only in their literals share one kernel function
        a = dyn.compile_state_expression("-1.5*v + 0.5*sin(0.7*s)", 2)
        b = dyn.compile_state_expression("-2*v + 0.25*sin(3*s)", 2)
        assert a is not b and a.kernel is b.kernel and a.key == b.key
        assert dyn.compile_state_expression("-1.5*v + 0.5*cos(0.7*s)", 2).kernel is not a.kernel

    @pytest.mark.parametrize("text", ["sin()", "cos(s, v)", "exp(s, v, t)", "tan(sin(), s)"])
    def test_functions_take_exactly_one_argument(self, text):
        with pytest.raises(ValueError, match="takes exactly one argument"):
            dyn.compile_state_expression(text, 2)

    @pytest.mark.parametrize("depth", [1500, 3000, 100_000])
    def test_deep_nesting_is_a_value_error(self, depth):
        with pytest.raises(ValueError, match="nested too deeply"):
            dyn.compile_state_expression("-" * depth + "s", 2)
        with pytest.raises(ValueError, match="nested too deeply"):
            dyn.compile_time_expression("-" * depth + "t")

    def test_aliases_read_their_column(self):
        f = dyn.compile_state_expression("s*x1 + v - x2 + x3*t", 3)
        assert f(np.array([3.0, 2.0, 0.5]), 4.0) == 11.0

    def test_parsed_fleet_shares_compiled_drifts(self):
        doc = bench_fleet_module().fleet_document(1)
        drifts = {id(m.drift) for m in sio.parse_scenario(doc).agent_models}
        texts = {agent["drift"]["expr"] for agent in doc["agents"]}
        assert len(drifts) == len(texts) < len(doc["agents"])


def bench_fleet_module():
    path = Path(__file__).resolve().parents[1] / "bench" / "fleet.py"
    spec = importlib.util.spec_from_file_location("bench_fleet", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGroupedEvaluation:
    def test_fleet_templates_grouped_equal_per_agent_bitwise(self):
        fleet = bench_fleet_module()
        rng = random.Random(4)
        positions = np.linspace(-170.0, 10.0, 37)
        velocities = np.linspace(-3.0, 3.0, 13)
        states = np.array(list(itertools.product(positions, velocities)))
        for template, shared in fleet.TEMPLATES.values():
            coefficients = [shared] + [fleet._own_coefficients(rng, shared) for _ in range(7)]
            models = [dyn.compile_state_expression(template.format(**c), 2) for c in coefficients]
            batches, loose = sim._batches(models)
            assert len(batches) == 1 and not loose
            batch = batches[0]
            for t in (0.0, 0.0135, 0.1, 7.3):
                for x in states:
                    X = np.tile(x, (len(models), 1)) + np.arange(len(models))[:, None] * 0.37
                    grouped = np.empty(len(models))
                    with np.errstate(all="ignore"):
                        grouped[batch.index] = batch.kernel(
                            batch.consts, [X[batch.index, k] for k in batch.columns], t)
                        single = [m(X[i], t) for i, m in enumerate(models)]
                    assert grouped.tolist() == single, (template, x, t)

    def test_disturbances_grouped_equal_per_agent_bitwise(self):
        models = [dyn.sinusoid_disturbance(0.05 + 0.01 * i, 0.5 + 0.37 * i) for i in range(9)]
        batches, _ = sim._batches(models)
        for t in np.linspace(0.0, 40.0, 401):
            grouped = np.empty(len(models))
            grouped[batches[0].index] = batches[0].kernel(batches[0].consts, (), t)
            assert grouped.tolist() == [m(t) for m in models]

    def test_shape_groups_ignore_constants(self):
        shared = [dyn.compile_state_expression(f"-{b}*v + {a}*sin(0.7*s)", 2)
                  for a, b in ((0.5, 1.5), (0.45, 1.2), (2, 3))]
        other = dyn.compile_state_expression("-1.5*v + 0.5*cos(0.7*s)", 2)
        batches, loose = sim._batches(shared + [other, lambda x, t: 0.0])
        assert [b.index.tolist() for b in batches] == [[0, 1, 2], [3]]
        assert [i for i, _ in loose] == [4]


class TestFloatConstants:
    def test_integer_power_tower_is_float(self):
        f = dyn.compile_state_expression("9**9**9*s", 2)
        with np.errstate(all="ignore"):
            assert f(np.array([1.0, 0.0]), 0.0) == math.inf

    def test_fractional_power_of_negative_is_nan(self):
        f = dyn.compile_state_expression("s**0.5", 2)
        with np.errstate(all="ignore"):
            assert math.isnan(f(np.array([-1.0, 0.0]), 0.0))

    def test_constant_beyond_float_range_rejected(self):
        with pytest.raises(ValueError, match="too large"):
            dyn.compile_state_expression("1" + "0" * 400 + "*s", 2)

    @pytest.mark.parametrize("literal", ["1e400", "1.8e308", "9" * 400 + ".0"],
                             ids=["1e400", "1.8e308", "400-nines"])
    def test_float_literal_beyond_float_range_rejected(self, literal):
        # Python reads each of these as inf, which no drift can use
        with pytest.raises(ValueError, match="has a constant too large for a float"):
            dyn.compile_state_expression(f"{literal}*s", 2)
        with pytest.raises(ValueError, match="has a constant too large for a float"):
            dyn.compile_time_expression(f"-{literal}")


# Texts that mix the grammar with what lies outside it: other operators,
# function names used as operands, calls of other arity or target, literals
# beyond the float range or not numbers, and names no model knows.
_LEAVES = st.one_of(
    st.sampled_from(["s", "v", "x1", "x2", "t", "pi", "e", "sin", "cos", "exp", "tan",
                     "q", "x3", "abs", "np", "1e400", "1" + "0" * 400, "1j", "'a'", "None",
                     "True", "..."]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(min_value=0, max_value=10 ** 30).map(str),
)


def _extend(children):
    binary = st.tuples(children, st.sampled_from(
        ["+", "-", "*", "/", "**", "%", "//", "@", "<<", "&", "<", " and ", " if s else "]),
        children).map(lambda p: f"({p[0]}{p[1]}{p[2]})")
    unary = st.tuples(st.sampled_from(["-", "+", "~", "not "]), children).map(
        lambda p: f"({p[0]}{p[1]})")
    call = st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "abs", "np.sin", "q"]),
                     st.lists(children, max_size=2), st.booleans()).map(
        lambda p: f"{p[0]}({', '.join(p[1] + (['x=1'] if p[2] else []))})")
    return st.one_of(binary, unary, call)


EXPRESSION_TEXTS = st.recursive(_LEAVES, _extend, max_leaves=12)


@given(EXPRESSION_TEXTS)
@settings(max_examples=400, deadline=None)
def test_expression_compiles_to_a_working_kernel_or_value_error(text):
    columns = [np.array([0.3, -1.7, 2.5]), np.array([1.1, 0.0, -0.4])]
    for compile_text, args, states in ((dyn.compile_state_expression, (text, 2), columns),
                                       (dyn.compile_time_expression, (text,), [])):
        try:
            model = compile_text(*args)
        except ValueError:
            continue
        consts = [np.full(3, c) for c in model.consts]
        with np.errstate(all="ignore"):
            out = np.broadcast_to(model.kernel(consts, [states[k] for k in model.columns], 0.7),
                                  (3,))
            one = model(np.array([0.3, 1.1]), 0.7) if states else model(0.7)
        assert out.dtype == np.float64, text
        assert type(one) is float, text
