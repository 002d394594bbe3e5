"""Seeded generator for the N=200 `fleet200` scenario document.

`fleet_document(seed)` is a pure function of the seed: the same seed gives
the same JSON document, byte for byte once dumped.  Only numbers that do not
change the amount of work vary with the seed (coefficients, start jitter,
which agents share an expression, where the obstacles sit), so every seed
costs the same number of steps, expression evaluations and interactions.

Shape of the fleet:

- 200 second-order agents on an undirected chain, every 25th agent pinned
  to the leader (8 pinned agents);
- drift expressions from four templates, each bounded for positions down to
  about -160 (positions only enter through sin, cos or a decaying exp);
  half the agents share one of four exact expression texts, the other half
  carry their own coefficients;
- sinusoid disturbances on every agent;
- targets spaced SPACING apart with PSI_IJ > SPACING, so every neighbour pair
  is inside the pairwise-avoidance radius;
- obstacles midway between neighbouring targets, inside the detection radius
  of both neighbours, with every agent starting at least 2 core radii away
  from every obstacle.
"""

import json
import random

N_AGENTS = 200
PIN_EVERY = 25
SPACING = 0.8
START_JITTER = 0.08
N_OBSTACLES = 8
CORE_RADIUS = 0.15
DETECT_RADIUS = 0.5
PSI_IJ = 0.9
DURATION = 0.1
DT = 1e-3
RECORD_STRIDE = 5

# name -> (expression template, coefficients of the shared exact text)
TEMPLATES = {
    "damped_sin": ("-{b}*v + {a}*sin({c}*s)", dict(a=0.5, b=1.5, c=0.7)),
    "damped_cos_t": ("-{b}*v + {a}*cos({c}*s + t) - {d}*v*v", dict(a=0.4, b=1.2, c=0.3, d=0.1)),
    "coupled": ("-{b}*v + {a}*sin(v)*cos({c}*s)", dict(a=0.6, b=2.0, c=0.5)),
    "bump": ("-{b}*v + {a}*exp(-{c}*s*s) + {d}*sin(2*t)", dict(a=0.8, b=1.0, c=0.01, d=0.3)),
}
SHARED_PER_TEMPLATE = 25    # agents per template that use the shared exact text
OWN_PER_TEMPLATE = 25       # agents per template with their own coefficients


def _own_coefficients(rng: random.Random, shared: dict) -> dict:
    return {k: round(v * rng.uniform(0.8, 1.2), 6) for k, v in shared.items()}


def fleet_document(seed: int) -> dict:
    """The fleet200 scenario document for `seed`; raises if a safety rule fails."""
    rng = random.Random(seed)
    slots = []
    for name in TEMPLATES:
        slots += [(name, True)] * SHARED_PER_TEMPLATE + [(name, False)] * OWN_PER_TEMPLATE
    rng.shuffle(slots)

    agents = []
    for i, (name, shared) in enumerate(slots):
        template, coeffs = TEMPLATES[name]
        text = template.format(**(coeffs if shared else _own_coefficients(rng, coeffs)))
        agents.append({
            "drift": {"expr": text},
            "mass": 1.0,
            "disturbance": {"sinusoid": {"amp": round(rng.uniform(0.05, 0.3), 6),
                                         "freq": round(rng.uniform(0.5, 3.0), 6)}},
            "label": f"{name}_{i + 1}",
        })

    targets = [-(i + 1) * SPACING for i in range(N_AGENTS)]
    starts = [[round(x + rng.uniform(-START_JITTER, START_JITTER), 6),
               round(rng.uniform(-0.05, 0.05), 6)] for x in targets]
    gaps = sorted(rng.sample(range(0, N_AGENTS - 1, 2), N_OBSTACLES))
    obstacles = [round(-(k + 1.5) * SPACING, 6) for k in gaps]
    for x, _v in starts:
        for ob in obstacles:
            if abs(x - ob) < 2 * CORE_RADIUS:
                raise ValueError(f"agent start {x} is within 2 core radii of obstacle {ob}")

    adjacency = [[0] * N_AGENTS for _ in range(N_AGENTS)]
    for i in range(N_AGENTS - 1):
        adjacency[i][i + 1] = adjacency[i + 1][i] = 1
    leader_weights = [1 if i % PIN_EVERY == 0 else 0 for i in range(N_AGENTS)]
    low = min(targets) - 10.0

    return {
        "schema": 1,
        "description": f"Generated fleet of {N_AGENTS} agents (seed {seed}).",
        "topology": {"adjacency": adjacency, "leader_weights": leader_weights,
                     "nu1": 1.0, "nu2": 1.0, "undirected": True},
        "agents": agents,
        "leader": {"drift": {"expr": "-2*v - s + 0.2*sin(t)"}, "mass": 1.0, "label": "leader"},
        "initial_states": {"agents": starts, "leader": [0.0, 0.0]},
        "offsets": {"agents": [[x, 0.0] for x in targets], "leader": [0.0, 0.0]},
        "gains": {"lambda_xi": [2.0], "c": [12.0, 9.0], "gamma0": 0.2, "gamma1": 0.5,
                  "gamma2": 0.5, "chi": 0.1, "psi_ij": PSI_IJ, "psi_i0": 0.4,
                  "R": DETECT_RADIUS, "core_radius": CORE_RADIUS, "alpha_bar": 1.0},
        "obstacles": obstacles,
        "nn": {"f_basis": {"box": [[low, 10.0], [-2.0, 2.0]], "per_axis": [7, 5], "width": 30.0},
               "leader_basis": {"box": [[-2.0, 2.0], [-1.0, 1.0]], "per_axis": [6, 4],
                                "width": 1.0},
               "w_basis": {"freqs": [2.0, 1.0]},
               "F": 8.0, "kappa": 0.005, "kappa0": 0.005, "kappaw": 0.005},
        "sim": {"dt": DT, "duration": DURATION, "record_stride": RECORD_STRIDE},
    }


def expression_sharing(doc: dict) -> dict:
    """How many agents share an exact drift text with another agent."""
    texts = [a["drift"]["expr"] for a in doc["agents"]]
    counts = {}
    for text in texts:
        counts[text] = counts.get(text, 0) + 1
    shared = sum(c for c in counts.values() if c > 1)
    return {"agents": len(texts), "distinct_texts": len(counts),
            "agents_sharing_a_text": shared, "shared_frac": shared / len(texts)}


def write_fleet(seed: int, path) -> dict:
    """Write the document for `seed` to `path`; returns the document."""
    doc = fleet_document(seed)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return doc
