"""Output checks for the benchmark operations, and a self-test of the checks.

Every check returns a list of problems; an empty list means the output
passed.  Run ``python3 bench/checks.py`` to see each check accept a good
output and reject a perturbed one and a nonzero exit; run_bench.py runs the
same self-test before it measures anything.

Platoon reference tolerance.  ROADMAP item 2a allows drift evaluations to
change in the last digit (numpy and math transcendentals can differ by one
ulp).  Perturbing every drift value of the 1 s platoon run at random by -1,
0 or +1 ulp moved no summary number by more than 2e-15 absolute (3 trials,
numpy 2.4.6, Python 3.11.7).  The check allows |got - ref| <= ABS_TOL +
REL_TOL * |ref| with both at 1e-9: six orders of magnitude above that drift,
so reordered sums and vectorised drifts pass.  A relative change of 1e-7 in
gains.c[0] or of 1e-6 in nn.F is caught.  Terms that do not act on this
horizon cannot be caught by any output: no pair comes within psi_ij, so the
avoidance gains are idle, and a 1e-6 change in kappa moves nothing by 1e-9.
The settling time is a recorded instant, so a threshold crossing may move by
one record interval (dt * record_stride = 0.01 s); it gets that tolerance.
"""

import copy
import json
import math
import sys
from pathlib import Path

ABS_TOL = 1e-9
REL_TOL = 1e-9
SWEEP_HEADER = "value,settling_time,ultimate_bound,min_pair_distance"


def check_exit(rc) -> list:
    return [] if rc == 0 else [f"exit status {rc!r}, expected 0"]


def _close(got, ref, where, problems, abs_tol=ABS_TOL, rel_tol=REL_TOL):
    if isinstance(ref, list):
        if not isinstance(got, list) or len(got) != len(ref):
            problems.append(f"{where}: shape differs from the reference")
            return
        for i, (g, r) in enumerate(zip(got, ref)):
            _close(g, r, f"{where}[{i}]", problems, abs_tol, rel_tol)
        return
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        problems.append(f"{where}: {got!r} is not a number")
    elif math.isinf(ref) or math.isnan(ref):
        if not (got == ref or (math.isnan(ref) and math.isnan(got))):
            problems.append(f"{where}: {got!r}, reference {ref!r}")
    elif not abs(got - ref) <= abs_tol + rel_tol * abs(ref):
        problems.append(f"{where}: {got!r} differs from reference {ref!r}")


def check_platoon_summary(summary: dict, reference: dict) -> list:
    """summary.json of the platoon run against the committed reference summary."""
    problems = []
    if summary.get("aborted") is not None:
        return [f"run aborted: {summary['aborted']}"]
    ref = reference["summary"]
    for key, value in ref.items():
        if key not in summary:
            problems.append(f"{key}: missing")
        elif key == "records":
            if summary[key] != value:
                problems.append(f"records: {summary[key]!r}, reference {value!r}")
        elif key == "settling_time":
            _close(summary[key], value, key, problems, abs_tol=reference["record_interval_s"])
        elif key != "aborted":
            _close(summary[key], value, key, problems)
    return problems


def check_fleet_outputs(trace_text: str, summary: dict, expected_records: int) -> list:
    """fleet200 invariants: no abort, every trace value finite, agents never touch."""
    problems = []
    if summary.get("aborted") is not None:
        problems.append(f"run aborted: {summary['aborted']}")
    lines = trace_text.splitlines()
    if len(lines) - 1 != expected_records:
        problems.append(f"trace.csv has {len(lines) - 1} records, expected {expected_records}")
    width = len(lines[0].split(",")) if lines else 0
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != width:
            problems.append(f"trace.csv row {row} has {len(cells)} cells, header has {width}")
            break
        try:
            bad = [c for c in cells if not math.isfinite(float(c))]
        except ValueError as exc:
            problems.append(f"trace.csv row {row}: {exc}")
            break
        if bad:
            problems.append(f"trace.csv row {row} has non-finite values {bad[:3]}")
            break
    min_pair = summary.get("min_pair_distance")
    if not isinstance(min_pair, (int, float)) or not min_pair > 0:
        problems.append(f"min_pair_distance is {min_pair!r}, expected > 0")
    return problems


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def check_sweep_rows(text: str, values: list) -> list:
    """One problem list per sweep point: its row exists, echoes its value, is finite."""
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return [["sweep.csv header is missing or wrong"] for _ in values]
    rows = lines[1:]
    out = []
    for i, value in enumerate(values):
        if i >= len(rows):
            out.append([f"point {i}: no row"])
            continue
        cells = rows[i].split(",")
        problems = []
        if len(cells) != 4:
            problems.append(f"point {i}: {len(cells)} cells, expected 4")
        elif cells[0] != _fmt(value):
            problems.append(f"point {i}: value {cells[0]}, expected {_fmt(value)}")
        else:
            try:
                nums = [float(c) for c in cells[1:]]
            except ValueError as exc:
                nums = []
                problems.append(f"point {i}: {exc}")
            if nums and not all(math.isfinite(x) for x in nums):
                problems.append(f"point {i}: non-finite result {cells[1:]}")
            elif nums and not nums[2] > 0:
                problems.append(f"point {i}: min_pair_distance {nums[2]!r}, expected > 0")
        out.append(problems)
    if len(rows) > len(values):
        out[-1].append(f"sweep.csv has {len(rows)} rows for {len(values)} points")
    return out


def check_same_bytes(digests: dict, reference: dict) -> list:
    """Outputs of a repeat must be byte-identical to the first run's."""
    problems = []
    for name in sorted(set(digests) | set(reference)):
        if digests.get(name) != reference.get(name):
            problems.append(f"{name}: bytes differ from the first run of the same inputs")
    return problems


def load_reference(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def self_test(reference: dict) -> list:
    """Cases each check got wrong: a good output rejected or a bad one accepted."""
    wrong = []

    def expect(name, problems, accept):
        if bool(problems) == accept:
            wrong.append(f"{name}: {'rejected' if accept else 'accepted'} ({problems})")

    expect("exit 0", check_exit(0), True)
    expect("exit 2", check_exit(2), False)
    expect("exit None (traceback)", check_exit(None), False)

    good = copy.deepcopy(reference["summary"])
    good["aborted"] = None
    expect("platoon reference", check_platoon_summary(good, reference), True)
    near = copy.deepcopy(good)
    near["ultimate_bound"][0] *= 1 + 1e-12
    expect("platoon last-digit drift", check_platoon_summary(near, reference), True)
    off = copy.deepcopy(good)
    off["ultimate_bound"][0] *= 1 + 1e-6
    expect("platoon perturbed bound", check_platoon_summary(off, reference), False)
    late = copy.deepcopy(good)
    late["settling_time"] += 2 * reference["record_interval_s"]
    expect("platoon settling two records late", check_platoon_summary(late, reference), False)
    fewer = copy.deepcopy(good)
    fewer["records"] -= 1
    expect("platoon record count", check_platoon_summary(fewer, reference), False)
    expect("platoon aborted", check_platoon_summary(dict(good, aborted="x"), reference), False)

    header = "t,x1_1,x2_1,min_pair_distance,min_obstacle_distance"
    rows = ["0,1,2,0.5,0.4", "0.005,1.5,2,0.5,0.4"]
    fleet_ok = {"aborted": None, "min_pair_distance": 0.5}
    trace = "\n".join([header] + rows) + "\n"
    expect("fleet good", check_fleet_outputs(trace, fleet_ok, 2), True)
    expect("fleet nan", check_fleet_outputs(trace.replace("1.5", "nan"), fleet_ok, 2), False)
    expect("fleet inf", check_fleet_outputs(trace.replace("1.5", "inf"), fleet_ok, 2), False)
    expect("fleet short trace", check_fleet_outputs(trace, fleet_ok, 3), False)
    expect("fleet touching agents",
           check_fleet_outputs(trace, dict(fleet_ok, min_pair_distance=0.0), 2), False)
    expect("fleet aborted", check_fleet_outputs(trace, dict(fleet_ok, aborted="x"), 2), False)

    values = [0.5, 1.25]
    sweep = "\n".join([SWEEP_HEADER, "0.5,1.2,0.1,0.2", "1.25,1.3,0.1,0.2"]) + "\n"
    expect("sweep good", sum(check_sweep_rows(sweep, values), []), True)
    expect("sweep nan", sum(check_sweep_rows(sweep.replace("1.3", "nan"), values), []), False)
    expect("sweep wrong value", sum(check_sweep_rows(sweep, [0.5, 1.5]), []), False)
    expect("sweep missing row", sum(check_sweep_rows(sweep, values + [2.0]), []), False)
    expect("sweep extra row", sum(check_sweep_rows(sweep, values[:1]), []), False)

    expect("same bytes", check_same_bytes({"a": "1"}, {"a": "1"}), True)
    expect("changed bytes", check_same_bytes({"a": "2"}, {"a": "1"}), False)
    expect("missing file", check_same_bytes({}, {"a": "1"}), False)
    return wrong


if __name__ == "__main__":
    ref_path = Path(__file__).resolve().parent / "reference" / "platoon_summary.json"
    failures = self_test(load_reference(ref_path))
    for line in failures:
        print(f"FAIL {line}")
    print(f"self-test: {'FAILED' if failures else 'passed'}")
    sys.exit(1 if failures else 0)
