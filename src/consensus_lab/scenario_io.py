"""Scenario files: JSON schema 1 parsing, validation, and bundled scenarios.

Every validation failure names the offending JSON path (for example
``gains.chi: must be positive``).  Scenario sources are filesystem paths or
``builtin:<name>`` references to the scenarios shipped with the package.
"""

import contextlib
import dataclasses
import json
import math
from importlib import resources
from pathlib import Path

import numpy as np

from . import controller as ctl
from . import cuub
from . import dynamics as dyn
from . import estimator as nn
from . import graph as gr
from . import sim

SCHEMA_VERSION = 1
BUILTIN_PREFIX = "builtin:"


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


@contextlib.contextmanager
def _at(path: str):
    """Anchor a plain ValueError raised in the block at `path`; a ScenarioError keeps its own."""
    try:
        yield
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _here(path: str, key: str) -> str:
    """The JSON path of `key` inside the object at `path` ("" for the top level)."""
    return f"{path}.{key}" if path else key


def _require(doc: dict, key: str, path: str, what: str = "field"):
    if key not in doc:
        raise ScenarioError(_here(path, key), f"missing required {what}")
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


def _get_number(doc, key, path, minimum=None, positive=False):
    value = _require(doc, key, path, "number")
    here = _here(path, key)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(here, f"expected a number, got {type(value).__name__}")
    value = _finite(value, here)
    if positive and not value > 0:
        raise ScenarioError(here, "must be positive")
    if minimum is not None and value < minimum:
        raise ScenarioError(here, f"must be >= {minimum}")
    return value


def _get_int(doc, key, path, minimum=None):
    value = _require(doc, key, path, "integer")
    here = _here(path, key)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(here, f"expected an integer, got {type(value).__name__}")
    if minimum is not None and value < minimum:
        raise ScenarioError(here, f"must be >= {minimum}")
    return value


def _get_bool(doc, key, path):
    value = doc[key]
    if not isinstance(value, bool):
        raise ScenarioError(_here(path, key), "expected true or false")
    return value


def _get_array(doc, key, path, flat=False):
    value = _require(doc, key, path, "array")
    here = _here(path, key)
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
    if flat and arr.ndim != 1:
        raise ScenarioError(here, "expected a flat array of numbers")
    return arr


def _get_dict(doc, key, path):
    value = _require(doc, key, path, "object")
    if not isinstance(value, dict):
        raise ScenarioError(_here(path, key), f"expected an object, got {type(value).__name__}")
    return value


def _given(get, doc, path, keys, names=None, **check) -> dict:
    """get(doc, key, path, **check) of each of keys that doc holds, in keys
    order, by its dataclass field name (names maps a key to a different
    one).  A key doc lacks is left out, so its dataclass default applies."""
    names = names or {}
    return {names.get(key, key): get(doc, key, path, **check) for key in keys if key in doc}


def _parse_topology(doc: dict, initial_positions: np.ndarray) -> gr.Topology:
    topo = _get_dict(doc, "topology", "")
    adjacency = _get_array(topo, "adjacency", "topology")
    leader_weights = _get_array(topo, "leader_weights", "topology", flat=True)
    if leader_weights.size == 0:
        raise ScenarioError("topology.leader_weights", "lists no agent")
    kwargs = _given(_get_number, topo, "topology", ("nu1", "nu2"), positive=True)
    kwargs.update(_given(_get_bool, topo, "topology", ("undirected",)))
    with _at("topology"):
        topology = gr.Topology(adjacency=adjacency, leader_weights=leader_weights, **kwargs)
    if topology.n_agents != initial_positions.shape[0]:
        raise ScenarioError("initial_states.agents",
                            f"got {initial_positions.shape[0]} states for {topology.n_agents} agents")
    if "proximity_psi" in topo:
        psi = _get_number(topo, "proximity_psi", "topology", positive=True)
        topology = gr.proximity_augment(topology, initial_positions, psi)
    return topology


def _compile_expression(path: str, text, compile_text, *args):
    """compile_text(text, *args) for the expression at `path`, failing with that path."""
    if not isinstance(text, str):
        raise ScenarioError(path, "expected a string expression")
    with _at(path):
        return compile_text(text, *args)


def _parse_drift(obj: dict, path: str, order: int, leader: bool):
    """The drift of the agent or leader object at `path`; a builtin is built for its mass."""
    mass = _get_number(obj, "mass", path, positive=True) if "mass" in obj else 1.0
    spec = _require(obj, "drift", path)
    path = f"{path}.drift"
    registry = dyn.BUILTIN_LEADER_DRIFTS if leader else dyn.BUILTIN_AGENT_DRIFTS
    if isinstance(spec, str):
        name = spec[len(BUILTIN_PREFIX):] if spec.startswith(BUILTIN_PREFIX) else spec
        if name in registry:
            return registry[name](mass)
    elif isinstance(spec, dict) and "expr" in spec:
        spec, path = spec["expr"], f"{path}.expr"
    else:
        raise ScenarioError(path, "drift must be a builtin name or an expression")
    return _compile_expression(path, spec, dyn.compile_state_expression, order)


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
            return _compile_expression(f"{path}.expr", spec["expr"], dyn.compile_time_expression)
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
        drift = _parse_drift(entry, path, order, leader=False)
        disturbance = _parse_disturbance(entry.get("disturbance"), f"{path}.disturbance")
        models.append(dyn.AgentModel(drift=drift, disturbance=disturbance))
    return models


def _parse_leader(doc: dict, order: int) -> dyn.LeaderModel:
    leader_doc = _get_dict(doc, "leader", "")
    drift = _parse_drift(leader_doc, "leader", order, leader=True)
    return dyn.LeaderModel(drift=drift)


def _parse_gains(doc: dict) -> ctl.ControlGains:
    gd = _get_dict(doc, "gains", "")
    if "lambda_bar" in gd:
        lambda_bar = _get_array(gd, "lambda_bar", "gains")
    else:
        xi = _get_array(gd, "lambda_xi", "gains")
        with _at("gains.lambda_xi"):
            lambda_bar = ctl.hurwitz_lambda(xi)
    kwargs = dict(lambda_bar=lambda_bar, c=_get_array(gd, "c", "gains"))
    kwargs.update(_given(_get_array, doc, "", ("obstacles",), flat=True))
    kwargs.update(_given(_get_number, gd, "gains", ("gamma0", "gamma1", "gamma2"), minimum=0.0))
    radii = {"R": "detect_radius", "core_radius": "obstacle_radius"}
    kwargs.update(_given(_get_number, gd, "gains", ("chi", "psi_ij", "psi_i0", *radii, "alpha_bar"),
                         radii, positive=True))
    kwargs.update(_given(_get_bool, doc, "", ("strict_decentralized", "signless_avoidance")))
    for key, name in radii.items():
        radius = kwargs.get(name, 0.0)
        if math.isinf(radius * radius):   # the field uses the squared radii
            raise ScenarioError(f"gains.{key}", "too large: its square overflows a float")
    with _at("gains"):
        return ctl.ControlGains(**kwargs)


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
    with _at(here):
        return nn.gaussian_grid([(lo, hi) for lo, hi in box], per_axis, width)


def _parse_w_basis(doc, path) -> nn.BasisSpec:
    if "w_basis" not in doc:
        return nn.fourier_basis()
    bd = _get_dict(doc, "w_basis", path)
    here = f"{path}.w_basis"
    if "freqs" in bd:
        freqs = _get_array(bd, "freqs", here)
        with _at(f"{here}.freqs"):
            return nn.fourier_basis(freqs)
    if "centers" in bd:
        centers = _get_array(bd, "centers", here)
        width = _get_number(bd, "width", here, positive=True)
        with _at(here):
            return nn.BasisSpec(kind=nn.GAUSSIAN_RBF_TIME, centers=centers, width=width)
    raise ScenarioError(here, "expected {freqs: [...]} or {centers: [...], width: w}")


def _parse_nn(doc: dict, order: int) -> nn.NNConfig:
    nd = _get_dict(doc, "nn", "") if "nn" in doc else {}
    with _at("nn"):
        return nn.NNConfig(
            f_basis=_parse_state_basis(nd, "f_basis", "nn", order),
            leader_basis=_parse_state_basis(nd, "leader_basis", "nn", order),
            w_basis=_parse_w_basis(nd, "nn"),
            **_given(_get_number, nd, "nn", ("F", "kappa", "kappa0", "kappaw"), {"F": "gain"},
                     positive=True),
        )


def parse_scenario(doc: dict) -> sim.Scenario:
    """Build a Scenario from a parsed JSON document, with path-anchored errors.

    A number that overflows while the scenario is built or validated fails
    an explicit check that names its JSON path, so numpy's overflow and
    invalid-value warnings are silenced here rather than printed.
    """
    with np.errstate(all="ignore"):
        return _parse_scenario(doc)


def _parse_scenario(doc: dict) -> sim.Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario document must be a JSON object")
    schema = _get_int(doc, "schema", "") if "schema" in doc else SCHEMA_VERSION
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
    leader_model = _parse_leader(doc, order)
    gains = _parse_gains(doc)
    nn_config = _parse_nn(doc, order)

    off_doc = _get_dict(doc, "offsets", "") if "offsets" in doc else {}
    per_agent = (_get_array(off_doc, "agents", "offsets") if "agents" in off_doc
                 else np.zeros((topology.n_agents, order)))
    leader_off = _get_array(off_doc, "leader", "offsets") if "leader" in off_doc else np.zeros(order)
    with _at("offsets"):
        offsets = ctl.Offsets(per_agent=per_agent, leader=leader_off)

    sim_doc = _get_dict(doc, "sim", "")
    duration = _get_number(sim_doc, "duration", "sim", minimum=0.0)
    steps = _given(_get_number, sim_doc, "sim", ("dt",), positive=True)
    steps.update(_given(_get_int, sim_doc, "sim", ("record_stride",), minimum=1))

    with _at("initial_states"):
        initial = dyn.FleetState(agents=agents0, leader=leader0)

    with _at(""):   # a Scenario checks its cross-field invariants when it is built
        return sim.Scenario(
            topology=topology,
            agent_models=tuple(agent_models),
            leader_model=leader_model,
            gains=gains,
            offsets=offsets,
            nn_config=nn_config,
            initial=initial,
            duration=duration,
            **steps,
        )


def parse_bounds(doc: dict, scenario: sim.Scenario, path: str = "bounds") -> cuub.CuubBounds:
    """CuubBounds from a JSON object whose keys are its field names; basis
    bounds and kappas default from the scenario, the rest from CuubBounds."""
    if not isinstance(doc, dict):
        raise ScenarioError(path, "bounds document must be a JSON object")
    names = [f.name for f in dataclasses.fields(cuub.CuubBounds)]
    for key in doc:
        if key not in names:
            raise ScenarioError(_here(path, key), "unknown field")
    cfg = scenario.nn_config
    kwargs = {
        "phi_f": nn.basis_bound(cfg.f_basis),
        "phi_w": nn.basis_bound(cfg.w_basis),
        "phi_leader": nn.basis_bound(cfg.leader_basis),
        "kappa": cfg.kappa,
        "kappaw": cfg.kappaw,
        "kappa0": cfg.kappa0,
    }
    kwargs.update(_given(_get_number, doc, path, [n for n in names if n != "alpha_bar"],
                         minimum=0.0))
    kwargs.update(_given(_get_number, doc, path, ("alpha_bar",), positive=True))
    with _at(path):
        return cuub.CuubBounds(**kwargs)


def load_document(source) -> dict:
    """Read and JSON-parse a scenario source (path or builtin: reference)."""
    text_name = str(source)
    if text_name.startswith(BUILTIN_PREFIX):
        text = builtin_scenario_text(text_name[len(BUILTIN_PREFIX):])
    else:
        p = Path(source)
        if not p.exists():
            raise ScenarioError("", f"file not found: {p}")
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
