"""Scenario files: JSON schema 1 parsing, validation, and bundled scenarios.

Every validation failure names the offending JSON path (for example
``gains.chi: must be positive``).  Scenario sources are filesystem paths or
``builtin:<name>`` references to the scenarios shipped with the package.
"""

import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from . import controller as ctl
from . import dynamics as dyn
from . import estimator as nn
from . import graph as gr
from . import sim

SCHEMA_VERSION = 1
BUILTIN_PREFIX = "builtin:"

_MISSING = object()


class ScenarioError(ValueError):
    """Scenario file problem, carrying the JSON path of the offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def builtin_scenario_names() -> list[str]:
    files = resources.files("consensus_lab").joinpath("scenarios")
    return sorted(p.name[:-5] for p in files.iterdir() if p.name.endswith(".json"))


def builtin_scenario_text(name: str) -> str:
    ref = resources.files("consensus_lab").joinpath("scenarios").joinpath(f"{name}.json")
    if not ref.is_file():
        raise ScenarioError("", f"unknown builtin scenario {name!r}; "
                                f"available: {', '.join(builtin_scenario_names())}")
    return ref.read_text(encoding="utf-8")


def _require(doc: dict, key: str, path: str):
    if key not in doc:
        raise ScenarioError(f"{path}.{key}" if path else key, "missing required field")
    return doc[key]


def _finite(value, here: str) -> float:
    """A JSON number as a finite float; an integer beyond the float range is not one."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ScenarioError(here, "must be finite")
    return value


def _get_number(doc, key, path, default=_MISSING, minimum=None, positive=False):
    if key not in doc:
        if default is _MISSING:
            raise ScenarioError(f"{path}.{key}" if path else key, "missing required number")
        return default
    value = doc[key]
    here = f"{path}.{key}" if path else key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(here, f"expected a number, got {type(value).__name__}")
    value = _finite(value, here)
    if positive and not value > 0:
        raise ScenarioError(here, "must be positive")
    if minimum is not None and value < minimum:
        raise ScenarioError(here, f"must be >= {minimum}")
    return value


def _get_int(doc, key, path, default=_MISSING, minimum=None):
    if key not in doc:
        if default is _MISSING:
            raise ScenarioError(f"{path}.{key}" if path else key, "missing required integer")
        return default
    value = doc[key]
    here = f"{path}.{key}" if path else key
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(here, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ScenarioError(here, f"must be >= {minimum}")
    return value


def _get_bool(doc, key, path, default=False):
    value = doc.get(key, default)
    if not isinstance(value, bool):
        raise ScenarioError(f"{path}.{key}" if path else key, "expected true or false")
    return value


def _get_array(doc, key, path, default=_MISSING):
    if key not in doc:
        if default is _MISSING:
            raise ScenarioError(f"{path}.{key}" if path else key, "missing required array")
        return default
    value = doc[key]
    here = f"{path}.{key}" if path else key
    if not isinstance(value, list):
        raise ScenarioError(here, f"expected an array, got {type(value).__name__}")
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(here, f"expected numeric entries: {exc}") from None
    except OverflowError:
        raise ScenarioError(here, "entries must be finite") from None
    if arr.size and not np.all(np.isfinite(arr)):
        raise ScenarioError(here, "entries must be finite")
    return arr


def _get_dict(doc, key, path, default=_MISSING):
    if key not in doc:
        if default is _MISSING:
            raise ScenarioError(f"{path}.{key}" if path else key, "missing required object")
        return default
    value = doc[key]
    if not isinstance(value, dict):
        raise ScenarioError(f"{path}.{key}" if path else key,
                            f"expected an object, got {type(value).__name__}")
    return value


def _parse_topology(doc: dict, initial_positions: np.ndarray) -> gr.Topology:
    topo = _get_dict(doc, "topology", "")
    adjacency = _get_array(topo, "adjacency", "topology")
    leader_weights = _get_array(topo, "leader_weights", "topology")
    nu1 = _get_number(topo, "nu1", "topology", default=1.0, positive=True)
    nu2 = _get_number(topo, "nu2", "topology", default=1.0, positive=True)
    undirected = _get_bool(topo, "undirected", "topology", default=True)
    try:
        topology = gr.Topology(
            n_agents=leader_weights.shape[0] if leader_weights.ndim == 1 else 0,
            adjacency=adjacency,
            leader_weights=leader_weights,
            nu1=nu1, nu2=nu2, undirected=undirected,
        )
    except ValueError as exc:
        raise ScenarioError("topology", str(exc)) from None
    if topology.n_agents != initial_positions.shape[0]:
        raise ScenarioError("initial_states.agents",
                            f"got {initial_positions.shape[0]} states for {topology.n_agents} agents")
    if "proximity_psi" in topo:
        psi = _get_number(topo, "proximity_psi", "topology", positive=True)
        topology = gr.proximity_augment(topology, initial_positions, psi)
    return topology


def _parse_drift(spec, path: str, order: int, mass: float, leader: bool):
    registry = dyn.BUILTIN_LEADER_DRIFTS if leader else dyn.BUILTIN_AGENT_DRIFTS
    if isinstance(spec, str):
        name = spec[len(BUILTIN_PREFIX):] if spec.startswith(BUILTIN_PREFIX) else spec
        if name in registry:
            return registry[name](mass), name
        try:
            return dyn.compile_state_expression(spec, order), spec
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None
    if isinstance(spec, dict) and "expr" in spec:
        expr = spec["expr"]
        if not isinstance(expr, str):
            raise ScenarioError(f"{path}.expr", "expected a string expression")
        try:
            return dyn.compile_state_expression(expr, order), expr
        except ValueError as exc:
            raise ScenarioError(f"{path}.expr", str(exc)) from None
    raise ScenarioError(path, "drift must be a builtin name or an expression")


def _parse_disturbance(spec, path: str):
    if spec is None:
        return dyn.constant_disturbance(0.0)
    if isinstance(spec, bool):
        raise ScenarioError(path, "disturbance must be a number or an object")
    if isinstance(spec, (int, float)):
        return dyn.constant_disturbance(_finite(spec, path))
    if isinstance(spec, dict):
        if "constant" in spec:
            return dyn.constant_disturbance(_get_number(spec, "constant", path))
        if "sinusoid" in spec:
            sub = _get_dict(spec, "sinusoid", path)
            amp = _get_number(sub, "amp", f"{path}.sinusoid")
            freq = _get_number(sub, "freq", f"{path}.sinusoid")
            return dyn.sinusoid_disturbance(amp, freq)
        if "expr" in spec:
            expr = spec["expr"]
            if not isinstance(expr, str):
                raise ScenarioError(f"{path}.expr", "expected a string expression")
            try:
                return dyn.compile_time_expression(expr)
            except ValueError as exc:
                raise ScenarioError(f"{path}.expr", str(exc)) from None
    raise ScenarioError(path, "disturbance must be a number, "
                              "{constant: v}, {sinusoid: {amp, freq}}, or {expr: text}")


def _parse_agents(doc: dict, order: int) -> list[dyn.AgentModel]:
    agents_doc = _require(doc, "agents", "")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("agents", "expected a nonempty array of agent objects")
    models = []
    for i, entry in enumerate(agents_doc):
        path = f"agents[{i}]"
        if not isinstance(entry, dict):
            raise ScenarioError(path, "expected an object")
        mass = _get_number(entry, "mass", path, default=1.0, positive=True)
        drift_spec = _require(entry, "drift", path)
        drift, label = _parse_drift(drift_spec, f"{path}.drift", order, mass, leader=False)
        disturbance = _parse_disturbance(entry.get("disturbance"), f"{path}.disturbance")
        label = entry.get("label", label)
        try:
            models.append(dyn.AgentModel(order=order, drift=drift, mass=mass,
                                         disturbance=disturbance, label=str(label)))
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None
    return models


def _parse_leader(doc: dict, order: int) -> dyn.LeaderModel:
    leader_doc = _get_dict(doc, "leader", "")
    mass = _get_number(leader_doc, "mass", "leader", default=1.0, positive=True)
    drift_spec = _require(leader_doc, "drift", "leader")
    drift, label = _parse_drift(drift_spec, "leader.drift", order, mass, leader=True)
    label = leader_doc.get("label", label)
    try:
        return dyn.LeaderModel(order=order, drift=drift, label=str(label))
    except ValueError as exc:
        raise ScenarioError("leader", str(exc)) from None


def _parse_gains(doc: dict, order: int) -> ctl.ControlGains:
    gd = _get_dict(doc, "gains", "")
    if "lambda_bar" in gd:
        lambda_bar = _get_array(gd, "lambda_bar", "gains")
    else:
        xi = _get_array(gd, "lambda_xi", "gains")
        try:
            lambda_bar = ctl.hurwitz_lambda(xi)
        except ValueError as exc:
            raise ScenarioError("gains.lambda_xi", str(exc)) from None
    c = _get_array(gd, "c", "gains")
    obstacles = _get_array(doc, "obstacles", "", default=np.zeros(0))
    kwargs = dict(
        lambda_bar=lambda_bar,
        c=c,
        gamma0=_get_number(gd, "gamma0", "gains", default=0.0, minimum=0.0),
        gamma1=_get_number(gd, "gamma1", "gains", default=0.0, minimum=0.0),
        gamma2=_get_number(gd, "gamma2", "gains", default=0.0, minimum=0.0),
        chi=_get_number(gd, "chi", "gains", default=1.0, positive=True),
        psi_ij=_get_number(gd, "psi_ij", "gains", default=1.0, positive=True),
        psi_i0=_get_number(gd, "psi_i0", "gains", default=1.0, positive=True),
        detect_radius=_get_number(gd, "R", "gains", default=2.0, positive=True),
        obstacle_radius=_get_number(gd, "core_radius", "gains", default=0.5, positive=True),
        alpha_bar=_get_number(gd, "alpha_bar", "gains", default=1.0, positive=True),
        obstacles=obstacles,
        strict_decentralized=_get_bool(doc, "strict_decentralized", ""),
        signless_avoidance=_get_bool(doc, "signless_avoidance", ""),
    )
    for key, name in (("R", "detect_radius"), ("core_radius", "obstacle_radius")):
        if math.isinf(kwargs[name] * kwargs[name]):   # the field uses the squared radii
            raise ScenarioError(f"gains.{key}", "too large: its square overflows a float")
    try:
        gains = ctl.ControlGains(**kwargs)
    except (ValueError, ctl.NotHurwitz) as exc:
        raise ScenarioError("gains", str(exc)) from None
    if gains.order != order:
        raise ScenarioError("gains.c", f"length {gains.order} does not match chain order {order}")
    return gains


def _parse_state_basis(doc, key, path, order) -> nn.BasisSpec:
    here = f"{path}.{key}"
    if key in doc:
        bd = _get_dict(doc, key, path)
        box = _get_array(bd, "box", here)
        if box.ndim != 2 or box.shape != (order, 2):
            raise ScenarioError(f"{here}.box", f"expected {order} [lo, hi] pairs")
        per_axis = bd.get("per_axis", nn.DEFAULT_GRID_PER_AXIS)
        width = bd.get("width")
        if width is not None:
            width = _get_number(bd, "width", here, positive=True)
    else:
        box, per_axis, width = [(-10.0, 10.0)] * order, nn.DEFAULT_GRID_PER_AXIS, None
    entries = per_axis if isinstance(per_axis, list) else [per_axis] * order
    if any(isinstance(v, bool) or not isinstance(v, int) for v in entries):
        raise ScenarioError(f"{here}.per_axis", "expected an integer or list of integers")
    if all(v >= 1 for v in entries) and math.prod(entries) > nn.MAX_GRID_CENTERS:
        raise ScenarioError(f"{here}.per_axis", f"a grid of {math.prod(entries)} centres "
                                                f"exceeds the limit of {nn.MAX_GRID_CENTERS}")
    try:
        return nn.gaussian_grid([(lo, hi) for lo, hi in box], per_axis, width)
    except ValueError as exc:
        raise ScenarioError(here, str(exc)) from None


def _parse_w_basis(doc, path) -> nn.BasisSpec:
    if "w_basis" not in doc:
        return nn.fourier_basis()
    bd = _get_dict(doc, "w_basis", path)
    here = f"{path}.w_basis"
    if "freqs" in bd:
        freqs = _get_array(bd, "freqs", here)
        try:
            return nn.fourier_basis(freqs)
        except ValueError as exc:
            raise ScenarioError(here, str(exc)) from None
    if "centers" in bd:
        centers = _get_array(bd, "centers", here)
        width = _get_number(bd, "width", here, positive=True)
        try:
            return nn.BasisSpec(kind=nn.GAUSSIAN_RBF_TIME, centers=centers, width=width)
        except ValueError as exc:
            raise ScenarioError(here, str(exc)) from None
    raise ScenarioError(here, "expected {freqs: [...]} or {centers: [...], width: w}")


def _parse_nn(doc: dict, order: int) -> nn.NNConfig:
    nd = _get_dict(doc, "nn", "", default={})
    try:
        return nn.NNConfig(
            f_basis=_parse_state_basis(nd, "f_basis", "nn", order),
            leader_basis=_parse_state_basis(nd, "leader_basis", "nn", order),
            w_basis=_parse_w_basis(nd, "nn"),
            gain=_get_number(nd, "F", "nn", default=10.0, positive=True),
            kappa=_get_number(nd, "kappa", "nn", default=0.05, positive=True),
            kappa0=_get_number(nd, "kappa0", "nn", default=0.05, positive=True),
            kappaw=_get_number(nd, "kappaw", "nn", default=0.05, positive=True),
        )
    except ValueError as exc:
        raise ScenarioError("nn", str(exc)) from None


def parse_scenario(doc: dict) -> sim.Scenario:
    """Build a Scenario from a parsed JSON document, with path-anchored errors."""
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario document must be a JSON object")
    schema = _get_int(doc, "schema", "", default=SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"unsupported schema version {schema}")

    init_doc = _get_dict(doc, "initial_states", "")
    agents0 = _get_array(init_doc, "agents", "initial_states")
    leader0 = _get_array(init_doc, "leader", "initial_states")
    if agents0.ndim != 2:
        raise ScenarioError("initial_states.agents", "expected an array of state vectors")
    if leader0.ndim != 1 or leader0.shape[0] != agents0.shape[1]:
        raise ScenarioError("initial_states.leader",
                            "leader state length must match the agent state length")
    order = int(leader0.shape[0])
    if order < 2:
        raise ScenarioError("initial_states.leader", "chain order must be >= 2")

    topology = _parse_topology(doc, agents0[:, 0])
    agent_models = _parse_agents(doc, order)
    if len(agent_models) != topology.n_agents:
        raise ScenarioError("agents", f"got {len(agent_models)} models for "
                                      f"{topology.n_agents} topology agents")
    leader_model = _parse_leader(doc, order)
    gains = _parse_gains(doc, order)
    nn_config = _parse_nn(doc, order)

    off_doc = _get_dict(doc, "offsets", "", default={})
    per_agent = _get_array(off_doc, "agents", "offsets",
                           default=np.zeros((topology.n_agents, order)))
    leader_off = _get_array(off_doc, "leader", "offsets", default=np.zeros(order))
    try:
        offsets = ctl.Offsets(per_agent=per_agent, leader=leader_off)
    except ValueError as exc:
        raise ScenarioError("offsets", str(exc)) from None
    if offsets.per_agent.shape != (topology.n_agents, order):
        raise ScenarioError("offsets.agents", f"expected shape "
                                              f"({topology.n_agents}, {order})")

    sim_doc = _get_dict(doc, "sim", "")
    duration = _get_number(sim_doc, "duration", "sim", minimum=0.0)
    dt = _get_number(sim_doc, "dt", "sim", default=1e-3, positive=True)
    if math.isinf(duration / dt):
        raise ScenarioError("sim.dt", f"too small for a duration of {duration:g}: "
                                      f"the step count overflows")
    record_stride = _get_int(sim_doc, "record_stride", "sim",
                             default=sim.RECORD_STRIDE_DEFAULT, minimum=1)

    try:
        initial = dyn.FleetState(agents=agents0, leader=leader0, time=0.0)
    except ValueError as exc:
        raise ScenarioError("initial_states", str(exc)) from None

    scenario = sim.Scenario(
        topology=topology,
        agent_models=tuple(agent_models),
        leader_model=leader_model,
        gains=gains,
        offsets=offsets,
        nn_config=nn_config,
        initial=initial,
        duration=duration,
        dt=dt,
        record_stride=record_stride,
    )
    try:
        sim.validate_scenario(scenario)
    except ValueError as exc:
        raise ScenarioError("", str(exc)) from None
    return scenario


def parse_bounds(doc: dict, scenario: sim.Scenario, path: str = "bounds") -> sim.CuubBounds:
    """CuubBounds from a JSON object; basis bounds and kappas default from the scenario."""
    if not isinstance(doc, dict):
        raise ScenarioError(path, "bounds document must be a JSON object")
    cfg = scenario.nn_config
    defaults = {
        "phi_f": nn.basis_bound(cfg.f_basis),
        "phi_w": nn.basis_bound(cfg.w_basis),
        "phi_leader": nn.basis_bound(cfg.leader_basis),
        "kappa": cfg.kappa,
        "kappaw": cfg.kappaw,
        "kappa0": cfg.kappa0,
    }
    kwargs = {}
    for name in ("theta_f", "theta_w", "theta_leader", "phi_f", "phi_w", "phi_leader",
                 "eps_f", "eps_w", "eps_leader", "t_m", "t_n", "beta",
                 "kappa", "kappaw", "kappa0", "e0_bound"):
        default = defaults.get(name, sim.CuubBounds.__dataclass_fields__[name].default)
        kwargs[name] = _get_number(doc, name, path, default=default, minimum=0.0)
    if "alpha_bar" in doc:
        kwargs["alpha_bar"] = _get_number(doc, "alpha_bar", path, positive=True)
    try:
        return sim.CuubBounds(**kwargs)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def load_document(source) -> dict:
    """Read and JSON-parse a scenario source (path or builtin: reference)."""
    text_name = str(source)
    if text_name.startswith(BUILTIN_PREFIX):
        text = builtin_scenario_text(text_name[len(BUILTIN_PREFIX):])
    else:
        p = Path(source)
        if not p.exists():
            raise ScenarioError("", f"scenario file not found: {p}")
        try:
            text = p.read_text(encoding="utf-8")
        except OSError as exc:
            raise ScenarioError("", f"cannot read {p}: {exc.strerror or exc}") from None
        except UnicodeDecodeError as exc:
            raise ScenarioError("", f"cannot read {p}: not UTF-8 text (byte {exc.start})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError("", f"JSON parse error at line {exc.lineno} "
                                f"column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ScenarioError("", "JSON parse error: arrays or objects nested too deeply") from None


def load_scenario(source) -> tuple[sim.Scenario, dict]:
    """Load and validate a scenario; returns the object and the raw document."""
    doc = load_document(source)
    return parse_scenario(doc), doc
