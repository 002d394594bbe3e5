"""Mutated bundled scenarios: every input ends in exit code 0, 1 or 2.

Each example applies a few mutations to a bundled document (dropped keys,
values of the wrong type, extreme numbers, directed adjacencies, added keys
that nothing reads), then runs ``check`` and a two-step ``run``, or
``diagnose`` and a two-point ``sweep``, through ``cli.main``.  None may
raise, and a failure is reported in at most one line.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from unittest import mock
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from consensus_lab import cli
from consensus_lab import scenario_io as sio

BUNDLED = {name: sio.builtin_scenario_text(name) for name in sio.builtin_scenario_names()}

EXTREME_NUMBERS = [10 ** 400, -10 ** 400, 1e308, -1e308, 1e200, 1e-320, -1e-320,
                   0, 0.0, -1, 2 ** 63, 0.5]
WRONG_TYPES = ["x", "", None, True, [], {}, [1.0, "a"], [[1.0], [2.0, 3.0]], [[1.0], [2.0]],
               {"expr": "s"}]

numbers = st.one_of(st.sampled_from(EXTREME_NUMBERS),
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.integers(-10 ** 6, 10 ** 6))
# fresh copies: a later mutation may write into a drawn list or object
values = st.one_of(numbers, st.sampled_from(WRONG_TYPES).map(copy.deepcopy))


def _paths(node, prefix=()):
    """The path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _pick(doc, draw):
    """The container and key of a value drawn from anywhere below the root."""
    path = draw(st.sampled_from(list(_paths(doc))))
    for key in path[:-1]:
        doc = doc[key]
    return doc, path[-1]


def _drop(doc, draw):
    parent, key = _pick(doc, draw)
    del parent[key]


def _replace(doc, draw):
    parent, key = _pick(doc, draw)
    parent[key] = draw(values)


def _direct(doc, draw):
    topology = doc.get("topology")
    if not isinstance(topology, dict) or not isinstance(topology.get("adjacency"), list):
        return
    adjacency = topology["adjacency"]
    topology["undirected"] = False
    n = len(adjacency)
    if n < 2:
        return
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i != j and isinstance(adjacency[i], list) and j < len(adjacency[i]):
            adjacency[i][j] = draw(st.one_of(st.floats(0.0, 100.0), st.sampled_from([0, 1e308])))


def _objects(node):
    """Every object at or below node."""
    if isinstance(node, dict):
        yield node
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _objects(child)


def _misspell(doc, draw):
    """Add a key that nothing reads to an object drawn from the document."""
    obj = draw(st.sampled_from(list(_objects(doc))))
    obj[draw(st.sampled_from(["gama1", "kapa", "widht", "lable", "x"]))] = draw(values)


@st.composite
def mutated_documents(draw):
    doc = json.loads(BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))])
    for _ in range(draw(st.integers(1, 3))):
        draw(st.sampled_from([_drop, _replace, _replace, _direct, _misspell]))(doc, draw)
    return doc


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@given(mutated_documents())
@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_document_ends_in_an_exit_code(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["check", "--scenario", str(path)],
                     ["run", "--scenario", str(path), "--out", str(Path(tmp) / "out"),
                      "--duration", "0.01", "--dt", "0.005"]):
            code, err = _main(argv)
            assert code in (0, 1, 2), (argv[0], code, err)
            assert len(err.strip().splitlines()) <= 1, (argv[0], err)


SWEEP_PARAMS = ["nn.kappa", "gains.gamma1", "gains.psi_ij", "topology.nu1", "sim.dt",
                "sim.record_stride", "kappa", "F"]
SWEEP_VALUES = ["0", "-0.0", "1", "2", "0.5", "-1", "1e308", "1e-300", "inf", "nan", "x"]


@given(mutated_documents(), st.sampled_from(SWEEP_PARAMS),
       st.lists(st.sampled_from(SWEEP_VALUES), min_size=2, max_size=2))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_mutated_document_diagnoses_and_sweeps(doc, param, values):
    # a sweep has no --duration: two steps of the mutated document, unless
    # its sim section is gone
    if isinstance(doc.get("sim"), dict):
        doc["sim"].update(duration=0.01, dt=0.005)
    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.dict(os.environ, {cli.THREADS_ENV: "1"}):
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        # --values=: a list that starts with "-" would be read as an option
        for argv in (["diagnose", "--scenario", str(path)],
                     ["sweep", "--scenario", str(path), "--param", param,
                      f"--values={','.join(values)}", "--out", str(Path(tmp) / "out")]):
            code, err = _main(argv)
            assert code in (0, 1, 2), (argv[0], code, err)
            assert len(err.strip().splitlines()) <= 1, (argv[0], err)
