"""Scenario files: JSON schema 1 parsing and bundled scenarios.

The parser reads each JSON object through one _Reader, which checks JSON
types (number, integer, bool, array, object, finite) and refuses a key that
nothing reads; the dataclass constructors check the values.  Each refusal
names the offending JSON path (for example ``gains.chi: must be positive``):
a constructor's FieldError names its field, which the parser anchors at the
key the document wrote for it.  Scenario sources are filesystem paths or
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
def _at(path: str, **paths):
    """Anchor a ValueError raised in the block at `path`: a FieldError at its
    field's JSON path, which is paths[field] where given, else path.field.
    A ScenarioError keeps its own."""
    try:
        yield
    except ScenarioError:
        raise
    except gr.FieldError as exc:
        raise ScenarioError(paths.get(exc.field, _here(path, exc.field)), exc.reason) from None
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def _here(path: str, key: str) -> str:
    """The JSON path of `key` inside the object at `path` ("" for the top level)."""
    return f"{path}.{key}" if path else key


class _Reader:
    """One JSON object of a document and its JSON path.

    Each getter checks the JSON type of its key and records the key as read;
    `names` maps a key to the dataclass field it fills where the two differ.
    The readers of one document list their objects, paths and read keys in
    one shared `opened`, whose walk after the parse refuses an unread key.
    """

    def __init__(self, doc: dict, path: str, opened: list, names=None):
        self.doc, self.path, self.opened, self.names = doc, path, opened, names or {}
        self.read = set()
        opened.append((doc, path, self.read))   # not self: a cycle would outlive the parse

    def __contains__(self, key: str) -> bool:
        return key in self.doc

    def here(self, key: str) -> str:
        return _here(self.path, key)

    def accept(self, *keys):
        """Declare keys that the object may hold and that nothing here reads."""
        self.read.update(keys)

    def get(self, key: str, default=None):
        self.read.add(key)
        return self.doc.get(key, default)

    def require(self, key: str, what: str = "field"):
        if key not in self.doc:
            raise ScenarioError(self.here(key), f"missing required {what}")
        return self.get(key)

    def typed(self, key: str, noun: str, *types):
        """The value at key if it is one of types; JSON true and false are bools only."""
        value = self.require(key, noun)
        if isinstance(value, bool) is not (bool in types) or not isinstance(value, types):
            article = "an" if noun[0] in "aeiou" else "a"
            raise ScenarioError(self.here(key), f"expected {article} {noun}, "
                                                f"got {type(value).__name__}")
        return value

    def number(self, key: str) -> float:
        """The number at key as a finite float; an integer beyond the float range is not one."""
        try:
            value = float(self.typed(key, "number", int, float))
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise ScenarioError(self.here(key), "must be finite")
        return value

    def integer(self, key: str) -> int:
        return self.typed(key, "integer", int)

    def boolean(self, key: str) -> bool:
        return self.typed(key, "boolean", bool)

    def array(self, key: str) -> np.ndarray:
        value, here = self.typed(key, "array", list), self.here(key)
        try:
            arr = np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(here, f"expected numeric entries: {exc}") from None
        except OverflowError:
            raise ScenarioError(here, "entries must be finite") from None
        if arr.size and not np.all(np.isfinite(arr)):
            raise ScenarioError(here, "entries must be finite")
        return arr

    def object(self, key: str, names=None, optional=False) -> "_Reader":
        """The reader of the object at key; an optional one the document lacks reads as {}."""
        if optional and key not in self.doc:
            return _Reader({}, self.here(key), self.opened, names)
        return _Reader(self.typed(key, "object", dict), self.here(key), self.opened, names)

    def expression(self, key: str, compile_text, *args):
        """compile_text(text, *args) of the expression string at key, failing with its path."""
        text = self.typed(key, "string expression", str)
        with _at(self.here(key)):
            return compile_text(text, *args)

    def given(self, get, *keys) -> dict:
        """get(key) of each of keys that the object holds, in keys order, by
        its dataclass field name.  A key the object lacks is left out, so its
        dataclass default applies."""
        return {self.names.get(key, key): get(key) for key in keys if key in self.doc}

    def at(self, **paths):
        """_at(path), with a FieldError anchored at the key read so far for its field."""
        fields = {field: self.here(key) for key, field in self.names.items() if key in self.read}
        return _at(self.path, **{**fields, **paths})

    def refuse_unread(self):
        """Refuse the first key that no getter read, in the order the objects were opened."""
        for doc, path, read in self.opened:
            for key in doc:
                if key not in read:
                    raise ScenarioError(_here(path, key), "unknown field")


def _parse_topology(root: _Reader, initial_positions: np.ndarray) -> gr.Topology:
    topo = root.object("topology", {"proximity_psi": "psi_threshold"})
    kwargs = dict(adjacency=topo.array("adjacency"), leader_weights=topo.array("leader_weights"),
                  **topo.given(topo.number, "nu1", "nu2"), **topo.given(topo.boolean, "undirected"))
    with topo.at():
        topology = gr.Topology(**kwargs)
    if "proximity_psi" in topo:
        psi = topo.number("proximity_psi")
        with topo.at(first_states="initial_states.agents"):
            topology = gr.proximity_augment(topology, initial_positions, psi)
    return topology


def _parse_drift(obj: _Reader, order: int, leader: bool):
    """The drift of an agent or leader object; a builtin is built for its mass."""
    obj.accept("label")   # an annotation that nothing reads
    mass = obj.number("mass") if "mass" in obj else 1.0
    if not mass > 0:   # only the builtin drift factories read it
        raise ScenarioError(obj.here("mass"), "must be positive")
    spec = obj.require("drift")
    if isinstance(spec, dict) and "expr" in spec:
        return obj.object("drift").expression("expr", dyn.compile_state_expression, order)
    if not isinstance(spec, str):
        raise ScenarioError(obj.here("drift"), "drift must be a builtin name or an expression")
    registry = dyn.BUILTIN_LEADER_DRIFTS if leader else dyn.BUILTIN_AGENT_DRIFTS
    builtin = registry.get(spec.removeprefix(BUILTIN_PREFIX))
    if builtin:
        return builtin(mass)
    return obj.expression("drift", dyn.compile_state_expression, order)


def _parse_disturbance(agent: _Reader):
    spec = agent.get("disturbance")
    if spec is None:
        return dyn.constant_disturbance(0.0)
    if isinstance(spec, (int, float)):   # a bool is refused as no number
        return dyn.constant_disturbance(agent.number("disturbance"))
    if isinstance(spec, dict):
        sd = agent.object("disturbance")
        if "constant" in sd:
            return dyn.constant_disturbance(sd.number("constant"))
        if "sinusoid" in sd:
            sub = sd.object("sinusoid")
            return dyn.sinusoid_disturbance(sub.number("amp"), sub.number("freq"))
        if "expr" in sd:
            return sd.expression("expr", dyn.compile_time_expression)
    raise ScenarioError(agent.here("disturbance"), "disturbance must be a number, {constant: v}, "
                                                   "{sinusoid: {amp, freq}}, or {expr: text}")


def _parse_agents(root: _Reader, order: int) -> list[dyn.AgentModel]:
    agents_doc = root.require("agents")
    if not isinstance(agents_doc, list) or not agents_doc:
        raise ScenarioError("agents", "expected a nonempty array of agent objects")
    models = []
    for i, entry in enumerate(agents_doc):
        if not isinstance(entry, dict):
            raise ScenarioError(f"agents[{i}]", "expected an object")
        agent = _Reader(entry, f"agents[{i}]", root.opened)
        models.append(dyn.AgentModel(drift=_parse_drift(agent, order, leader=False),
                                     disturbance=_parse_disturbance(agent)))
    return models


def _parse_gains(root: _Reader) -> ctl.ControlGains:
    gd = root.object("gains", {"lambda_xi": "lambda_bar", "R": "detect_radius",
                               "core_radius": "obstacle_radius"})
    if "lambda_bar" in gd:
        lambda_bar = gd.array("lambda_bar")
    else:
        with _at(gd.here("lambda_xi")):
            lambda_bar = ctl.hurwitz_lambda(gd.array("lambda_xi"))
    kwargs = dict(lambda_bar=lambda_bar, c=gd.array("c"), **root.given(root.array, "obstacles"))
    kwargs.update(gd.given(gd.number, "gamma0", "gamma1", "gamma2", "chi", "psi_ij", "psi_i0",
                           "R", "core_radius", "alpha_bar"))
    kwargs.update(root.given(root.boolean, "strict_decentralized", "signless_avoidance"))
    # the radius-order rule names core_radius, or R where only R is given
    paths = {} if "core_radius" in gd else {"obstacle_radius": "gains.R"}
    with gd.at(obstacles="obstacles", **paths):
        return ctl.ControlGains(**kwargs)


def _parse_state_basis(nd: _Reader, key: str, order: int) -> nn.BasisSpec:
    bd = nd.object(key, optional=True)
    if key in nd:
        box = bd.array("box")
        if box.shape != (order, 2):
            raise ScenarioError(bd.here("box"), f"expected {order} [lo, hi] pairs")
    else:
        box = [(-10.0, 10.0)] * order
    per_axis = bd.get("per_axis", nn.DEFAULT_GRID_PER_AXIS)
    width = None if bd.get("width") is None else bd.number("width")
    entries = per_axis if isinstance(per_axis, list) else [per_axis]
    if any(isinstance(v, bool) or not isinstance(v, int) for v in entries):
        raise ScenarioError(bd.here("per_axis"), "expected an integer or list of integers")
    with bd.at():
        return nn.gaussian_grid(box, per_axis, width)


def _parse_w_basis(nd: _Reader) -> nn.BasisSpec:
    if "w_basis" not in nd:
        return nn.fourier_basis()
    bd = nd.object("w_basis", {"freqs": "centers"})
    if "freqs" in bd:
        freqs = bd.array("freqs")
        with bd.at():
            return nn.fourier_basis(freqs)
    if "centers" in bd:
        centers, width = bd.array("centers"), bd.number("width")
        with bd.at():
            return nn.BasisSpec(kind=nn.GAUSSIAN_RBF_TIME, centers=centers, width=width)
    raise ScenarioError(bd.path, "expected {freqs: [...]} or {centers: [...], width: w}")


def _parse_nn(root: _Reader, order: int) -> nn.NNConfig:
    nd = root.object("nn", {"F": "gain"}, optional=True)
    kwargs = dict(f_basis=_parse_state_basis(nd, "f_basis", order),
                  leader_basis=_parse_state_basis(nd, "leader_basis", order),
                  w_basis=_parse_w_basis(nd),
                  **nd.given(nd.number, "F", "kappa", "kappa0", "kappaw"))
    with nd.at():
        return nn.NNConfig(**kwargs)


def parse_scenario(doc: dict) -> sim.Scenario:
    """Build a Scenario from a parsed JSON document, with path-anchored errors.

    Every key of the document is read, declared as an annotation that
    nothing reads (`description`, an agent's or the leader's `label`), or
    refused as an unknown field once the rest is parsed.  An embedded
    `bounds` is then checked with `parse_bounds`, which diagnose calls again.
    A number that overflows while the scenario is built or validated fails
    an explicit check that names its JSON path, so numpy's overflow and
    invalid-value warnings are silenced here rather than printed.
    """
    if not isinstance(doc, dict):
        raise ScenarioError("", "scenario document must be a JSON object")
    root = _Reader(doc, "", [])
    root.accept("description", "bounds")
    with np.errstate(all="ignore"):
        scenario = _parse_scenario(root)
    root.refuse_unread()
    if "bounds" in doc:
        parse_bounds(doc["bounds"], scenario)
    return scenario


def _parse_scenario(root: _Reader) -> sim.Scenario:
    schema = root.integer("schema") if "schema" in root else SCHEMA_VERSION
    if schema != SCHEMA_VERSION:
        raise ScenarioError("schema", f"unsupported schema version {schema}")

    init = root.object("initial_states")
    with init.at():
        initial = dyn.FleetState(agents=init.array("agents"), leader=init.array("leader"))
    order = initial.order

    topology = _parse_topology(root, initial.agents[:, 0])
    agent_models = _parse_agents(root, order)
    leader_model = dyn.LeaderModel(drift=_parse_drift(root.object("leader"), order, leader=True))
    gains = _parse_gains(root)
    nn_config = _parse_nn(root, order)

    off = root.object("offsets", {"agents": "per_agent"}, optional=True)
    given = off.given(off.array, "agents", "leader")
    with off.at():
        offsets = ctl.Offsets(**{"per_agent": np.zeros((topology.n_agents, order)),
                                 "leader": np.zeros(order), **given})

    sd = root.object("sim")
    duration = sd.number("duration")
    steps = {**sd.given(sd.number, "dt"), **sd.given(sd.integer, "record_stride")}

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
    bd = _Reader(doc, path, [])
    cfg = scenario.nn_config
    kwargs = {
        "phi_f": nn.basis_bound(cfg.f_basis),
        "phi_w": nn.basis_bound(cfg.w_basis),
        "phi_leader": nn.basis_bound(cfg.leader_basis),
        "kappa": cfg.kappa,
        "kappaw": cfg.kappaw,
        "kappa0": cfg.kappa0,
        **bd.given(bd.number, *(f.name for f in dataclasses.fields(cuub.CuubBounds))),
    }
    with bd.at():
        bounds = cuub.CuubBounds(**kwargs)
    bd.refuse_unread()
    return bounds


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
