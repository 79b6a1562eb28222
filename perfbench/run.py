"""Benchmark of the tiltlab command-line experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run it from the root of a source checkout, the directory that holds
``src/tiltlab``.  A workload is one ``tiltlab <experiment> --config
<workload>.json`` call (configs in ``perfbench/workloads``).  The benchmark
is a closed loop with one client: it starts one fresh interpreter at a time
through ``child.py``, with BLAS threads pinned to 1, waits for it, has
``check.py`` check its report, and starts the next until ``--seconds`` have
passed.

``--trace 0`` reports the end-to-end metrics, each the median over the
calls of the run: ``setup_s`` (``import tiltlab.cli``), ``run_s``
(``tiltlab.cli.main`` up to the written report), ``wall_s`` (process spawn
to exit) and ``peak_rss_mb`` (the child's peak resident set).  ``--trace 1``
reports the per-layer metrics: one ``-X importtime`` child for the import
breakdown, then untraced and traced calls in turn; the traced ones give
self times and counts per layer, and their difference in ``run_s`` is the
tracing overhead.  Calls that fail the correctness gate are counted in
``failed``.  See NOTES.md for why each workload and metric is there.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Workload and metric names, units and order come from the benchmark declaration.
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in DECLARED["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
# Only the Monte Carlo workloads consume the seed; the exact ones are
# checked against stored reference tables instead.
SEEDED = ("mc-coin-rejection", "gsm-two-moment")
# Reserved for re-checking a claimed gain on inputs nobody tuned against:
# use --held-out only when confirming a result, never while writing a change.
HELD_OUT_SEED = 104729

MIN_CALLS = 3
CHILD_TIMEOUT_S = 60.0

# Environment of every child: BLAS pinned to one thread, so a call uses one
# core, and the library imported from this checkout only.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": str(SRC),
}
PASSED_THROUGH_ENV = ("PATH", "HOME", "LANG", "LC_ALL")

IMPORT_MODULES = {
    "import.numpy_s": "numpy",
    "import.scipy_optimize_s": "scipy.optimize",
    "import.scipy_stats_s": "scipy.stats",
    "import.scipy_special_s": "scipy.special",
    "import.jsonschema_s": "jsonschema",
}

# Self time of a traced span goes to the metric of its function, else of its
# module.  Helpers that other layers call inside their own loops are charged
# to the caller's metric instead.
SPAN_METRIC = {
    "exact.convergence_sweep": "exact.block_mixture_s",
    "exact.conditional_block_law": "exact.block_mixture_s",
    "exact.hypergeometric_block_law": "exact.block_mixture_s",
    "exact.hypergeometric_tv_check": "exact.block_mixture_s",
    "simplex.product_block_law": "simplex.product_block_law_s",
}
MODULE_METRIC = {
    "tilting": "tilting.i_project_s",
    "simplex": "simplex.tv_distance_s",
    "exact": "exact.conditional_weights_s",
    "montecarlo": "montecarlo.window_sweep_s",
    "scale_mixtures": "scale_mixtures.condition_s",
    "reports": "reports.serialize_s",
}
CALLER_METRIC = {"tilting.open_window_mask", "simplex.entropy", "simplex.kl_divergence"}
# These add up to the traced call's run_s.
ACCOUNTED = sorted({*SPAN_METRIC.values(), *MODULE_METRIC.values(), "experiments.unattributed_s"})


@dataclass
class Call:
    """One finished child: its timings, resource use and gate verdict."""

    kind: str
    rc: int
    wall_s: float
    rss_mb: float
    timings: dict
    report: dict | None = None
    failure: str | None = None
    layers: dict[str, float] = field(default_factory=dict)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--held-out", action="store_true",
        help=f"use the reserved seed {HELD_OUT_SEED} in place of --seed",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def child_env() -> dict[str, str]:
    env = {key: os.environ[key] for key in PASSED_THROUGH_ENV if key in os.environ}
    env.update(CHILD_ENV)
    return env


def machine_record(args: argparse.Namespace, seed: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            probe = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=False
            )
            commit = probe.stdout.strip() or None
        except OSError:
            pass
    return {
        "workload": args.workload,
        "seed": seed,
        "held_out": args.held_out,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": commit,
        "child_env": CHILD_ENV,
        "loop": "closed, one client, one child process at a time",
    }


def spawn(cmd: list[str], env: dict, log_path: Path) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall seconds, peak RSS MiB)."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        finally:
            timer.cancel()
            if proc.returncode is None and proc.poll() is None:
                proc.kill()
                proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def run_call(kind: str, stem: Path, config_path: Path, experiment: str, checker: Checker) -> Call:
    """Time one CLI call in a fresh child, then gate its report."""
    timings_path, report_path = stem.with_suffix(".timings.json"), stem.with_suffix(".report.json")
    spans_path = stem.with_suffix(".spans.json")
    head = [sys.executable, str(BENCH / "child.py"), str(timings_path)]
    if kind == "traced":
        head += ["--trace", str(spans_path)]
    cmd = head + ["--", experiment, "--config", str(config_path), "--out", str(report_path)]
    rc, wall, rss = spawn(cmd, child_env(), stem.with_suffix(".log"))
    timings = json.loads(timings_path.read_text()) if timings_path.exists() else {}
    call = Call(kind, rc, wall, rss, timings)
    if report_path.exists():
        call.report = json.loads(report_path.read_text())
    call.failure = gate(call, report_path, checker)
    if kind == "traced" and call.failure is None:
        call.layers = layer_metrics(call, spans_path)
    return call


# ----------------------------------------------------------------- gate


class Checker:
    """The check.py helper process: started once per run, asked once per call.

    Its import of the library also warms up a fresh checkout (bytecode,
    shared libraries in the page cache) before the first timed call.
    """

    def __init__(self, workload: str, config_path: Path, log_path: Path):
        self._log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "check.py"), workload, str(config_path)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log,
            text=True,
        )
        self.log_path = log_path
        self._expect("ready")

    def _expect(self, what: str) -> str:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise SystemExit(f"error: the gate process ended before {what}:\n{self.log_path.read_text()}")
        return line

    def verdict(self, report_path: Path) -> str | None:
        self.proc.stdin.write(f"{report_path}\n")
        self.proc.stdin.flush()
        return json.loads(self._expect("a verdict"))

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()


def gate(call: Call, report_path: Path, checker: Checker) -> str | None:
    """Why this call failed the correctness gate, or None when it passed."""
    if call.rc != 0:
        return f"exit code {call.rc}"
    if not call.timings or not Path(call.timings["tiltlab"]).resolve().is_relative_to(SRC.resolve()):
        return "child did not run the library from this checkout"
    if call.report is None:
        return "no report written"
    return checker.verdict(report_path)


# ----------------------------------------------------------------- per-layer


def import_breakdown(log_text: str) -> dict[str, float]:
    """Import time of the watched packages and the library's own self time,
    in seconds, from ``python -X importtime`` output.

    A package's time is the cumulative time on its own line.  A package
    reached through ``scipy``'s lazy attribute loading (``from scipy import
    stats``) gets no line of its own, only its submodules do; its time is
    then the sum of its outermost submodule lines.
    """
    rows = []  # (depth, self seconds, cumulative seconds, name), children first
    for line in log_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), int(self_us) / 1e6, int(cum_us) / 1e6, name.strip()))
    parent = [-1] * len(rows)
    stack: list[int] = []
    for i in range(len(rows) - 1, -1, -1):
        while stack and rows[stack[-1]][0] >= rows[i][0]:
            stack.pop()
        parent[i] = stack[-1] if stack else -1
        stack.append(i)

    def within(name: str, package: str) -> bool:
        return name == package or name.startswith(package + ".")

    def package_time(package: str) -> float:
        for _, _, cumulative, name in rows:
            if name == package:
                return cumulative
        total = 0.0
        for i, (_, _, cumulative, name) in enumerate(rows):
            if not within(name, package):
                continue
            j = parent[i]
            while j >= 0 and not within(rows[j][3], package):
                j = parent[j]
            if j < 0:
                total += cumulative
        return total

    out = {metric: package_time(module) for metric, module in IMPORT_MODULES.items()}
    out["import.tiltlab_self_s"] = sum(self_s for _, self_s, _, name in rows if within(name, "tiltlab"))
    return out


def layer_metrics(call: Call, spans_path: Path) -> dict[str, float]:
    """Self time per layer and counts of one traced call."""
    trace = json.loads(spans_path.read_text())
    for error in trace["errors"]:
        print(f"counter error: {error}", file=sys.stderr)
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {name: 0.0 for name in PER_LAYER_UNITS if not name.startswith("import.")}
    owner: list[str] = []
    for i, (name, parent, start, end) in enumerate(spans):
        if name in CALLER_METRIC and parent >= 0:
            metric = owner[parent]
        else:
            metric = SPAN_METRIC.get(name, MODULE_METRIC[name.split(".", 1)[0]])
        owner.append(metric)
        out[metric] += (end - start) - covered[i]
    names = [span[0] for span in spans]
    out["tilting.i_project_calls"] = names.count("tilting.i_project")
    out["tilting.moment_map_calls"] = names.count("tilting.moment_map")
    counts = trace["counts"]
    out["exact.types_enumerated"] = counts.get("types_enumerated", 0)
    out["exact.types_feasible"] = counts.get("types_feasible", 0)
    out["exact.feasible_ratio"] = ratio(out["exact.types_feasible"], out["exact.types_enumerated"])
    out["exact.types_per_s"] = ratio(out["exact.types_enumerated"], out["exact.conditional_weights_s"])
    out["simplex.block_words"] = counts.get("block_words", 0)
    traced_s = sum((end - start) - covered[i] for i, (_, _, start, end) in enumerate(spans))
    out["experiments.unattributed_s"] = call.timings["run_s"] - traced_s

    report = call.report
    config = report["config"]
    if report["experiment"] == "windows":
        table = report["tables"]["sweep"]
        col = {c: i for i, c in enumerate(table["columns"])}
        samples = config["samples"]
        out["montecarlo.proposals"] = samples * len(table["rows"])
        out["montecarlo.accepted"] = sum(round(r[col["acceptance_rate"]] * samples) for r in table["rows"])
        out["montecarlo.min_ess"] = min(r[col["ess"]] for r in table["rows"])
        out["montecarlo.acceptance_ratio"] = ratio(out["montecarlo.accepted"], out["montecarlo.proposals"])
        coords = samples * sum(r[col["n"]] for r in table["rows"])
        out["montecarlo.coords_per_s"] = ratio(coords, out["montecarlo.window_sweep_s"])
    if report["experiment"] == "gsm":
        table = report["tables"]["conditioning"]
        out["scale_mixtures.accepted"] = table["rows"][0][table["columns"].index("accepted")]
        out["scale_mixtures.normals_drawn"] = config["samples"] * config["gsm_n"]
        out["scale_mixtures.acceptance_ratio"] = ratio(out["scale_mixtures.accepted"], config["samples"])
    return out


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def per_layer(calls: list[Call], imports: dict[str, float]) -> dict[str, float]:
    """Import breakdown, medians of the traced calls' layer metrics, and the
    tracing overhead; zero for a layer the workload never reaches."""
    traced = [c for c in calls if c.layers]
    plain = [c for c in calls if c.kind == "plain" and c.failure is None]
    out = {name: 0.0 for name in PER_LAYER_UNITS}
    out.update(imports)
    for name in traced[0].layers if traced else ():
        out[name] = statistics.median(c.layers[name] for c in traced)
    if traced and plain:
        out["trace.overhead_s"] = statistics.median(c.timings["run_s"] for c in traced) - statistics.median(
            c.timings["run_s"] for c in plain
        )
    return out


# ----------------------------------------------------------------- main


def end_to_end(calls: list[Call]) -> dict[str, float]:
    good = [c for c in calls if c.failure is None] or calls
    return {
        "setup_s": statistics.median(c.timings.get("setup_s", math.nan) for c in good),
        "run_s": statistics.median(c.timings.get("run_s", math.nan) for c in good),
        "wall_s": statistics.median(c.wall_s for c in good),
        "peak_rss_mb": statistics.median(c.rss_mb for c in good),
    }


def describe(call: Call, index: int) -> str:
    t = call.timings
    verdict = "ok" if call.failure is None else f"FAILED: {call.failure}"
    return (
        f"call {index} {call.kind}: wall {call.wall_s:.4f} s, setup {t.get('setup_s', math.nan):.4f} s, "
        f"run {t.get('run_s', math.nan):.4f} s, peak rss {call.rss_mb:.1f} MiB, {verdict}"
    )


def measure(args: argparse.Namespace, seed: int, workdir: Path, deadline: float) -> tuple[list[Call], dict]:
    config = json.loads((BENCH / "workloads" / f"{args.workload}.json").read_text())
    if args.workload in SEEDED:
        config["seed"] = seed
    config_path = workdir / f"{args.workload}.json"
    config_path.write_text(json.dumps(config, indent=2))
    experiment = config["experiment"]

    checker = Checker(args.workload, config_path, workdir / "check.log")
    imports: dict = {}
    calls: list[Call] = []
    kinds = ("plain", "traced") if args.trace else ("plain",)
    per_kind = 2 if args.trace else MIN_CALLS
    try:
        if args.trace:
            log = workdir / "importtime.log"
            spawn([sys.executable, "-X", "importtime", "-c", "import tiltlab.cli"], child_env(), log)
            imports = import_breakdown(log.read_text())
        while True:
            now = time.perf_counter()
            if calls and now > deadline:
                break
            if len(calls) >= per_kind * len(kinds):
                # Start a call only if it should end closer to the deadline
                # than stopping now would, so runs last --seconds on average.
                expected = statistics.median(c.wall_s for c in calls) + 0.2
                if now + expected / 2 > deadline:
                    break
            kind = kinds[len(calls) % len(kinds)]
            call = run_call(kind, workdir / f"call-{len(calls)}", config_path, experiment, checker)
            calls.append(call)
            print(describe(call, len(calls) - 1), flush=True)
    finally:
        checker.close()
    return calls, imports


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "tiltlab" / "cli.py").is_file():
        print(f"error: no tiltlab sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    seed = HELD_OUT_SEED if args.held_out else args.seed

    print("setup " + json.dumps(machine_record(args, seed), sort_keys=True), flush=True)
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH / ".work"))
    try:
        calls, imports = measure(args, seed, workdir, started + args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(c.failure is not None for c in calls)
    if args.trace:
        values, units = per_layer(calls, imports), PER_LAYER_UNITS
        for call in calls:
            if call.layers:
                spans = sum(call.layers[name] for name in ACCOUNTED)
                print(f"accounting: layer self times + unattributed = {spans:.4f} s, "
                      f"run_s = {call.timings['run_s']:.4f} s", flush=True)
    else:
        values, units = end_to_end(calls), END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
