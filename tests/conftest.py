import dataclasses
import time

import pytest

from consensus_lab import scenario_io as sio
from consensus_lab import sim

import oracles


class BundledRuns:
    """Lazily computed, session-cached simulations of the bundled scenarios."""

    # run with and without their potentials as one stacked integration
    # (oracles.run_many), which gives each the trace it gives alone
    AVOIDANCE_STUDIES = ("close_pair", "obstacle_gate")

    def __init__(self):
        self._scenarios = {}
        self._traces = {}
        self._elapsed = {}

    def scenario(self, name: str) -> sim.Scenario:
        if name not in self._scenarios:
            self._scenarios[name], _ = sio.load_scenario(f"builtin:{name}")
        return self._scenarios[name]

    def trace(self, key: str) -> sim.Trace:
        if key not in self._traces:
            name = key.split(":")[0]
            keys = [name, f"{name}:no_avoidance"] if name in self.AVOIDANCE_STUDIES else [key]
            scenarios = [self._variant(k) for k in keys]
            start = time.perf_counter()
            traces = oracles.run_many(scenarios)   # of one scenario: a solo run, timed alone
            elapsed = time.perf_counter() - start
            for k, trace in zip(keys, traces):
                self._traces[k] = trace
                self._elapsed[k] = elapsed
        return self._traces[key]

    def elapsed(self, key: str) -> float:
        self.trace(key)
        return self._elapsed[key]

    def _variant(self, key: str) -> sim.Scenario:
        if key.endswith(":no_avoidance"):
            base = self.scenario(key.split(":")[0])
            gains = dataclasses.replace(base.gains, gamma0=0.0, gamma1=0.0, gamma2=0.0)
            return dataclasses.replace(base, gains=gains)
        return self.scenario(key)


@pytest.fixture(scope="session")
def bundled() -> BundledRuns:
    return BundledRuns()
