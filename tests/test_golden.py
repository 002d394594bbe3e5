"""Golden outputs: SHA-256 digests of the files the CLI writes for fixed short runs.

Runs are deterministic, so each file is a function of the code, of numpy and
of the SIMD kernels numpy picks for exp, sin and cos on this CPU (kernels for
different instruction sets can differ in the last bit).  The digests were
taken in GOLDEN_ENV; in any other environment the tests skip.  A change that
keeps every output byte-identical keeps these digests.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from consensus_lab import cli
from consensus_lab import scenario_io as sio

GOLDEN_ENV = {"numpy": "2.4.6", "machine": "x86_64",
              "simd": {"exp": "X86_V4", "sin": "X86_V4", "cos": "X86_V4"}}

# name -> (CLI arguments before --out, {file: sha256})
GOLDEN = {
    "vehicle_platoon": (
        ["run", "--scenario", "builtin:vehicle_platoon", "--duration", "2"], {
            "trace.csv": "60375c690b957a47d9068431d8940a6e006e1ecf3879a9c5585e908a1a6c185e",
            "summary.json": "30be280c6d0fd13f12fbe3dc5df67a0101478e1892df63222a58fe2930f1af6d",
            "fig_positions.csv": "a8a80234e77bcdcc308097e7f9111cf7539152e2e32caa4a4d1dcc2d041b9dc0",
            "fig_velocities.csv": "f67dc9e08a3ad9cce13c908250ffba9546e419be296065ab50f205e996aa4f04",
            "fig_pos_error.csv": "e5329fb62bf73932bb238afadcb44a9956638318c9d8af654258da93d11e343c",
            "fig_vel_error.csv": "9672a322bb0f0130042edb4b1f338a77f84d402542a83ab960d314069bc55f76",
            "fig_controls.csv": "1919d4188e04abbdc398c85518e115c7d30691f2bf6ec6013bea777980e9d287",
        }),
    "close_pair": (
        ["run", "--scenario", "builtin:close_pair", "--duration", "1"], {
            "trace.csv": "b291664c23324ea7388bdb5a4d73f739aa7d3a0f15b94b38fb5cb20f2c423667",
            "summary.json": "051e097a288d4c30dad6bc1c28a8aa50bf3faf25e96fb34f90cc4d278ba41e45",
            "fig_positions.csv": "7bb64622ec2a9a8da10f663fa725485542a71f84152a11c79eb97ce2e765c0fd",
            "fig_velocities.csv": "29e4445f4c2f32d0b5619a02d1ddb9a1db7c35f100064d2b9c4e04b1f337a325",
            "fig_pos_error.csv": "3eab34c271634161412733e7d7a89583a3de9383ffcfa9fb139244b9f1730ac8",
            "fig_vel_error.csv": "63f0c33cf9be6fc7dc38a0cb4e3903eb0ea43336751f5252f1f4e6c407ce168e",
            "fig_controls.csv": "d86950a81a6867bdeaa86482fed068b6712d4585fb3cd577d06f37fb488facba",
        }),
    "obstacle_gate": (
        ["run", "--scenario", "builtin:obstacle_gate", "--duration", "6"], {
            "trace.csv": "809e084345ab91c8569e5e7ec33dff2081519d4a6ab03ffb83f75908693b4742",
            "summary.json": "ca3547a7bb86f8194e782a17c259ed9ec28f2cde9d691af1a235e27338896782",
            "fig_positions.csv": "6497cfee9a445590403185c7dba5aaf995a20bbb97220763b9ce078382fccc54",
            "fig_velocities.csv": "6536f64d976b9ad4e99c54838e4bd428fbd0c3591d4dcb7914c8efb3840fadd9",
            "fig_pos_error.csv": "cca04c1a219b98dcb35779a4998f419a8d44355238eeaa963872501bd587217c",
            "fig_vel_error.csv": "eb22b297118fe9f726d67aae72b341fde46059f36c0b29b543218bd4f778f524",
            "fig_controls.csv": "524a8fb90012ed1ca6f3f65dd82c0714bf217067a89d92793855a0d7235ec6c0",
        }),
    # two stacked points of a 1 s close_pair: per-variant kappa columns
    "sweep_kappa": (
        ["sweep", "--scenario", "{close_pair_1s}", "--param", "nn.kappa", "--values", "0.5,2"], {
            "sweep.csv": "dfc8b648600e87fde5b687dc8dc6c2cc151ad50422e26009f2a868df99ad1d7b",
        }),
}


def environment() -> dict:
    try:
        from numpy.lib import introspect
        info = introspect.opt_func_info(func_name="exp|sin|cos", signature="float64")
        simd = {name: info[name]["dd"]["current"] for name in ("exp", "sin", "cos")}
    except (ImportError, AttributeError, KeyError):
        simd = None
    return {"numpy": np.__version__, "machine": platform.machine(), "simd": simd}


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_outputs_match_golden_digests(name, tmp_path, monkeypatch):
    env = environment()
    if env != GOLDEN_ENV:
        pytest.skip(f"digests were taken with {GOLDEN_ENV}, this is {env}: "
                    f"exp/sin/cos may differ in the last bit")
    monkeypatch.setenv(cli.THREADS_ENV, "1")
    doc = json.loads(sio.builtin_scenario_text("close_pair"))
    doc["sim"]["duration"] = 1.0
    close_pair_1s = tmp_path / "close_pair_1s.json"
    close_pair_1s.write_text(json.dumps(doc), encoding="utf-8")
    argv, files = GOLDEN[name]
    argv = [a.format(close_pair_1s=close_pair_1s) for a in argv]
    out = tmp_path / "out"
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert {f: digest(out / f) for f in files} == files
