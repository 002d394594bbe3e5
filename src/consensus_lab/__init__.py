"""Deterministic leader-follower consensus simulation with adaptive estimation.

Modules:
    graph       -- topology, Laplacian/pinning matrices, graph Lyapunov certificate
    dynamics    -- Brunovsky-chain models, builtin platoon drifts, drift expressions
    estimator   -- bounded bases and the estimator configuration
    controller  -- offsets, gains, Hurwitz synthesis and check
    sim         -- the vectorised closed-loop field, RK4 integration, traces,
                   metrics, stability diagnostics
    scenario_io -- JSON scenario files and the bundled scenarios
    cli         -- `consensus-lab` command-line front end
"""

__version__ = "0.1.0"
