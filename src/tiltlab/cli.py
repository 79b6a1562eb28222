"""Command-line front end.

One subcommand per experiment, each with a zero-argument default; flags
override values from an optional ``--config`` JSON file.  Exit codes:
0 when every report check passes, 1 when any check fails, 2 on
configuration or feasibility errors, 3 when the moment solver fails on a
feasible target.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .exact import EmptyConstraintError, EnumerationCapError, NonUniqueProjectionError
from .experiments import run_experiment
from .montecarlo import METHODS, LowEffectiveSampleError, ZeroAcceptanceError
from .reports import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    Report,
    config_from_dict,
    config_to_dict,
    default_config,
    merge_overrides,
    render_csv,
    report_to_json,
)
from .tilting import InfeasibleConstraintError, SolverError

__all__ = ["main", "build_parser"]

_CONFIG_ERRORS = (
    ConfigError,
    InfeasibleConstraintError,
    EmptyConstraintError,
    EnumerationCapError,
    NonUniqueProjectionError,
    ZeroAcceptanceError,
    LowEffectiveSampleError,
    ValueError,
)


def _parse_grid(text: str) -> tuple[int, ...]:
    """Accept "20,40,60" or "20:400:20" (inclusive stop)."""
    if ":" in text:
        parts = [int(v) for v in text.split(":")]
        if len(parts) == 2:
            start, stop, step = parts[0], parts[1], 1
        elif len(parts) == 3:
            start, stop, step = parts
        else:
            raise argparse.ArgumentTypeError(f"bad grid {text!r}")
        return tuple(range(start, stop + 1, step))
    return tuple(int(v) for v in text.split(","))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _parse_pair(text: str) -> tuple[float, float]:
    values = _parse_floats(text)
    if len(values) != 2:
        raise argparse.ArgumentTypeError(f"expected two comma-separated values, got {text!r}")
    return values  # type: ignore[return-value]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tiltlab",
        description="Exponential tilting and exact conditioning experiments.",
    )
    sub = parser.add_subparsers(dest="experiment", metavar="|".join(EXPERIMENTS))
    sub.required = True

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", type=Path, help="JSON config file; flags override it")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--format", choices=("json", "csv"), default=None)
        p.add_argument("--out", type=Path, default=None, help="write the report here")

    p_dice = sub.add_parser("dice", help="tilt a fair die to a target mean")
    common(p_dice)
    p_dice.add_argument("--target", type=float, default=None, help="target mean (default 4.5)")

    p_conc = sub.add_parser("dice-concentration", help="entropy concentration of multinomial types")
    common(p_conc)
    p_conc.add_argument("--big-n", dest="block_size", metavar="BIG_N", type=int, default=None, help="type size N (default 1000)")
    p_conc.add_argument("--interval", type=_parse_pair, default=None, help="entropy interval lo,hi")

    p_ber = sub.add_parser("bernoulli", help="coin projection and exact convergence sweep")
    common(p_ber)
    p_ber.add_argument("--baseline-p", dest="baseline_p", type=float, default=None)
    p_ber.add_argument("--target", type=float, default=None, help="halfspace target (default 0.75)")
    p_ber.add_argument("--n-grid", dest="n_grid", type=_parse_grid, default=None)
    p_ber.add_argument("--m", type=int, default=None)

    p_thm = sub.add_parser("theorem1", help="exact convergence sweep for a configured model")
    common(p_thm)
    p_thm.add_argument("--baseline-p", dest="baseline_p", type=float, default=None)
    p_thm.add_argument("--target", type=float, default=None)
    p_thm.add_argument("--kind", choices=("equality", "halfspace"), default=None)
    p_thm.add_argument("--n-grid", dest="n_grid", type=_parse_grid, default=None)
    p_thm.add_argument("--m", type=int, default=None)

    p_win = sub.add_parser("windows", help="Monte Carlo shrinking-window sweep")
    common(p_win)
    p_win.add_argument("--baseline-p", dest="baseline_p", type=float, default=None)
    p_win.add_argument("--target", type=float, default=None)
    p_win.add_argument("--n-grid", dest="n_grid", type=_parse_grid, default=None)
    p_win.add_argument("--m", type=int, default=None)
    p_win.add_argument("--method", choices=METHODS, default=None)
    p_win.add_argument("--gamma", dest="exponent", type=float, default=None, help="window exponent in (0, 0.5)")
    p_win.add_argument("--amplitude", type=float, default=None, help="window amplitude (default half the statistic range)")

    p_gsm = sub.add_parser("gsm", help="two-moment conditioning of a Gaussian scale mixture")
    common(p_gsm)
    p_gsm.add_argument("--targets", dest="gsm_targets", metavar="TARGETS", type=_parse_pair, default=None, help="target mean,variance")
    p_gsm.add_argument("--epsilon", dest="gsm_epsilon", metavar="EPSILON", type=float, default=None)
    p_gsm.add_argument("--n", dest="gsm_n", type=int, default=None)
    p_gsm.add_argument("--block", dest="gsm_block", type=int, default=None)

    p_cf = sub.add_parser("cf-check", help="radial characteristic-function identity")
    common(p_cf)
    p_cf.add_argument("--t-grid", dest="t_grid", type=_parse_floats, default=None)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    base = default_config(args.experiment)
    if args.config is not None:
        raw = json.loads(Path(args.config).read_text())
        raw.setdefault("experiment", args.experiment)
        if raw["experiment"] != args.experiment:
            raise ConfigError(
                f"config file is for {raw['experiment']!r} but the {args.experiment!r} subcommand was invoked"
            )
        # File values overlay the experiment defaults, then get re-validated.
        base = config_from_dict({**config_to_dict(base), **raw})

    overrides: dict = {}
    # Flags whose destination is named after the config field they set.
    for key in (
        "seed", "samples", "format", "m", "n_grid", "t_grid", "method", "exponent", "amplitude",
        "interval", "block_size", "gsm_targets", "gsm_epsilon", "gsm_n", "gsm_block",
    ):
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    if getattr(args, "out", None) is not None:
        overrides["out"] = str(args.out)

    baseline = dict(base.baseline)
    constraint = dict(base.constraint)
    if getattr(args, "baseline_p", None) is not None:
        baseline = {"kind": "bernoulli", "p": args.baseline_p}
    if getattr(args, "target", None) is not None:
        constraint = {**constraint, "target": args.target}
    if getattr(args, "kind", None) is not None:
        constraint = {**constraint, "kind": args.kind}
    if baseline:
        overrides["baseline"] = baseline
    if constraint:
        overrides["constraint"] = constraint
    return merge_overrides(base, overrides)


def _emit(report: Report, config: ExperimentConfig) -> None:
    if config.format == "csv":
        text = render_csv(report.tables[report.primary_table])
    else:
        text = report_to_json(report)
    if config.out:
        Path(config.out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _config_from_args(args)
        report = run_experiment(config)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    _emit(report, config)
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  {check.detail}" if check.detail else ""
        print(f"{status}  {check.name} [{check.invariant}] margin={check.margin:.3g}{detail}", file=sys.stderr)
    print(f"wall-clock: {report.wall_clock:.2f}s", file=sys.stderr)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
