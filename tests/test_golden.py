"""Golden reports: the exact bytes that ``tiltlab`` writes to stdout for a
fixed set of runs, so that any change of a report byte fails here and, once
the files are rewritten, shows as a diff of ``tests/golden/``.

The runs are the subcommands at their defaults in both formats, the
benchmark workload configs, read in place, and a few configs that reach the
paths the defaults miss: k > 2 and non-integer h in the samplers, the exact
oracle's large-n mixture and the sweep's TV over a die block's sums.
``versions.json`` records the Python and numpy that wrote the files; a
mismatch names both, since floating-point bytes may move with either.

Rewrite the files with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import contextlib
import io
import json
import platform
from pathlib import Path

import numpy as np
import pytest

from tiltlab.cli import main
from tiltlab.reports import EXPERIMENTS

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIGS = GOLDEN / "configs"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"
VERSIONS = GOLDEN / "versions.json"


def golden_runs() -> dict[str, list[str]]:
    """The argv of each golden run, keyed by the name of its file."""
    runs = {f"{name}.{fmt}": [name, "--format", fmt] for name in EXPERIMENTS for fmt in ("json", "csv")}
    for path in sorted(WORKLOADS.glob("*.json")):
        runs[f"workload-{path.stem}.json"] = [json.loads(path.read_text())["experiment"], "--config", str(path)]
    runs["windows-m2.json"] = ["windows", "--m", "2"]
    runs["windows-m3-rejection.json"] = ["windows", "--m", "3", "--method", "rejection"]
    for method in ("rejection", "tilt-importance"):
        runs[f"windows-die-{method}.json"] = ["windows", "--config", str(CONFIGS / "windows-die.json"), "--method", method]
    runs["windows-k3-non-integer-h.json"] = ["windows", "--config", str(CONFIGS / "windows-k3-non-integer-h.json")]
    runs["bernoulli-m7.json"] = ["bernoulli", "--m", "7", "--n-grid", "400:600:100"]
    runs["bernoulli-p0.8.json"] = ["bernoulli", "--baseline-p", "0.8"]
    runs["theorem1-halfspace-m7.json"] = [
        "theorem1", "--kind", "halfspace", "--target", "0.75", "--m", "7", "--n-grid", "400:600:100"
    ]
    runs["theorem1-die-halfspace.json"] = ["theorem1", "--config", str(CONFIGS / "theorem1-die-halfspace.json")]
    return runs


def running_versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def report_bytes(argv: list[str]) -> bytes:
    """What ``tiltlab <argv>`` writes to stdout.  The exit code is not
    compared: a JSON report holds each check's verdict, and the k = 3 window
    holds its baseline mean, so its sweep fails the tv-trend check."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        main(argv)
    return out.getvalue().encode()


GOLDEN_RUNS = golden_runs()


@pytest.mark.parametrize("name, argv", GOLDEN_RUNS.items(), ids=list(GOLDEN_RUNS))
def test_report_bytes_equal_the_golden_file(name, argv):
    expected = (GOLDEN / name).read_bytes()
    if report_bytes(argv) != expected:
        stored, running = json.loads(VERSIONS.read_text()), running_versions()
        pytest.fail(
            f"tiltlab {' '.join(argv)} no longer writes tests/golden/{name}; "
            f"the file was written under {stored}, this run is under {running}"
        )


def test_every_golden_file_has_a_run():
    files = {path.name for path in GOLDEN.glob("*.*")} - {VERSIONS.name}
    assert files == set(GOLDEN_RUNS)


if __name__ == "__main__":
    for name, argv in GOLDEN_RUNS.items():
        (GOLDEN / name).write_bytes(report_bytes(argv))
    VERSIONS.write_text(json.dumps(running_versions(), indent=2) + "\n")
