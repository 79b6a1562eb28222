"""Correctness gate of the benchmark, run by run.py as a helper process.

    python check.py WORKLOAD CONFIG_JSON

Imports the library from the checkout and prepares what the reports are
compared with: the stored reference tables for the exact workloads, and the
exact oracle for the Monte Carlo window sweep.  Then it prints ``ready``.
For each report path read from standard input it prints one JSON line:
``null`` when the report passes, else the reason it fails.

The gate runs in its own process so that the benchmark process stays small.
A child's peak RSS from ``wait4`` includes the resident set of the process
that started it, so the heavy imports must not live in the one that spawns
the timed calls.
"""

import json
import sys
from pathlib import Path

from jsonschema import ValidationError
from tiltlab.exact import conditional_block_law
from tiltlab.experiments import build_baseline, build_constraint
from tiltlab.montecarlo import WindowSchedule
from tiltlab.reports import validate_report_dict
from tiltlab.simplex import product_block_law, tv_distance
from tiltlab.tilting import MomentConstraint, solve_moment_equality

EXACT_TOLERANCE = 1e-12
MC_MAX_STANDARD_ERRORS = 4.0


def compare_tables(tables: dict, reference: dict) -> str | None:
    if sorted(tables) != sorted(reference):
        return f"tables {sorted(tables)} != reference {sorted(reference)}"
    for name, ref in reference.items():
        got = tables[name]
        if got["columns"] != ref["columns"] or len(got["rows"]) != len(ref["rows"]):
            return f"table {name}: shape differs from the reference"
        for r, (row, ref_row) in enumerate(zip(got["rows"], ref["rows"])):
            for col, a, b in zip(ref["columns"], row, ref_row):
                numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
                if (abs(a - b) <= EXACT_TOLERANCE) if numeric else (a == b):
                    continue
                return f"table {name} row {r} {col}: {a!r} vs reference {b!r}"
    return None


def window_oracle(config: dict) -> dict[int, float]:
    """Exact TV between the windowed conditional block law and the tilted
    product law at each grid point, from the type-class oracle."""
    p = build_baseline(config["baseline"])
    h = build_constraint(config["constraint"], p.alphabet).function
    alpha = float(config["constraint"]["target"])
    m = int(config["m"])
    values = h.table[:, 0]
    amplitude = config.get("amplitude") or 0.5 * float(values.max() - values.min())
    schedule = WindowSchedule(amplitude=amplitude, exponent=config.get("exponent", 0.25))
    star = product_block_law(solve_moment_equality(p, h, [alpha]).tilted, m)
    oracle = {}
    for n in config["n_grid"]:
        windowed = MomentConstraint(h, "equality", [alpha], epsilon=schedule.epsilon(n))
        oracle[n] = tv_distance(conditional_block_law(p, windowed, n, m), star)
    return oracle


def check(report: dict, reference: dict | None, oracle: dict | None) -> str | None:
    """Why a report fails the gate, or None when it passes."""
    try:
        validate_report_dict(report)
    except ValidationError as exc:
        return f"report fails the schema: {exc.message}"
    if reference is not None:
        return compare_tables(report["tables"], reference)
    if oracle is not None:
        table = report["tables"]["sweep"]
        col = {c: i for i, c in enumerate(table["columns"])}
        for row in table["rows"]:
            n, tv, se = row[col["n"]], row[col["tv_estimate"]], row[col["se"]]
            if not abs(tv - oracle[n]) <= MC_MAX_STANDARD_ERRORS * se:
                return f"n={n}: tv {tv:.6f} is {abs(tv - oracle[n]) / se:.2f} SE from the oracle {oracle[n]:.6f}"
    return None


def main() -> int:
    workload, config_path = sys.argv[1], Path(sys.argv[2])
    config = json.loads(config_path.read_text())
    reference_path = Path(__file__).resolve().parent / "reference" / f"{workload}.json"
    reference = json.loads(reference_path.read_text())["tables"] if reference_path.exists() else None
    oracle = window_oracle(config) if config["experiment"] == "windows" else None
    print("ready", flush=True)
    for line in sys.stdin:
        report = json.loads(Path(line.strip()).read_text())
        print(json.dumps(check(report, reference, oracle)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
