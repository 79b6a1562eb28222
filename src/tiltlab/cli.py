"""Command-line front end.

One subcommand per experiment, each with a zero-argument default; flags
override values from an optional ``--config`` JSON file.  Exit codes:
0 when every report check passes, 1 when any check fails, 2 on the typed
errors of ``_CONFIG_ERRORS``, 3 when the moment solver fails on a feasible
target.  Any other exception is a fault and keeps its traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
from pathlib import Path

from .experiments import run_experiment
from .montecarlo import METHODS, LowEffectiveSampleError
from .reports import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    Report,
    config_from_dict,
    config_to_dict,
    default_config,
    render_csv,
    report_to_json,
)
from .simplex import EnumerationCapError
from .tilting import InfeasibleConstraintError, SolverError

__all__ = ["main", "build_parser"]

_CONFIG_ERRORS = (ConfigError, InfeasibleConstraintError, EnumerationCapError, LowEffectiveSampleError)


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
        p.add_argument("--seed", type=int)
        p.add_argument("--samples", type=int)
        p.add_argument("--format", choices=("json", "csv"))
        p.add_argument("--out", type=Path, help="write the report here")

    def sweep(p: argparse.ArgumentParser, target_help: str | None = None, kind: bool = False) -> None:
        p.add_argument("--baseline-p", type=float)
        p.add_argument("--target", type=float, help=target_help)
        if kind:
            p.add_argument("--kind", choices=("equality", "halfspace"))
        p.add_argument("--n-grid", type=_parse_grid)
        p.add_argument("--m", type=int)

    p_dice = sub.add_parser("dice", help="tilt a fair die to a target mean")
    common(p_dice)
    p_dice.add_argument("--target", type=float, help="target mean (default 4.5)")

    p_conc = sub.add_parser("dice-concentration", help="entropy concentration of multinomial types")
    common(p_conc)
    p_conc.add_argument("--big-n", dest="block_size", metavar="BIG_N", type=int, help="type size N (default 1000)")
    p_conc.add_argument("--interval", type=_parse_pair, help="entropy interval lo,hi")

    p_ber = sub.add_parser("bernoulli", help="coin projection and exact convergence sweep")
    common(p_ber)
    sweep(p_ber, target_help="halfspace target (default 0.75)")

    p_thm = sub.add_parser("theorem1", help="exact convergence sweep for a configured model")
    common(p_thm)
    sweep(p_thm, kind=True)

    p_win = sub.add_parser("windows", help="Monte Carlo shrinking-window sweep")
    common(p_win)
    sweep(p_win)
    p_win.add_argument("--method", choices=METHODS)
    p_win.add_argument("--gamma", dest="exponent", type=float, help="window exponent in (0, 0.5)")
    p_win.add_argument("--amplitude", type=float, help="window amplitude (default half the statistic range)")

    p_gsm = sub.add_parser("gsm", help="two-moment conditioning of a Gaussian scale mixture")
    common(p_gsm)
    p_gsm.add_argument("--targets", dest="gsm_targets", metavar="TARGETS", type=_parse_pair, help="target mean,variance")
    p_gsm.add_argument("--epsilon", dest="gsm_epsilon", metavar="EPSILON", type=float)
    p_gsm.add_argument("--n", dest="gsm_n", type=int)
    p_gsm.add_argument("--block", dest="gsm_block", type=int)

    p_cf = sub.add_parser("cf-check", help="radial characteristic-function identity")
    common(p_cf)
    p_cf.add_argument("--t-grid", type=_parse_floats)

    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """The experiment's defaults, then the ``--config`` file, then the flags,
    validated once as a whole."""
    raw = config_to_dict(default_config(args.experiment))
    if args.config is not None:
        try:
            raw.update(json.loads(Path(args.config).read_text()))
        except (OSError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if raw["experiment"] != args.experiment:
            raise ConfigError(
                f"config file is for {raw['experiment']!r} but the {args.experiment!r} subcommand was invoked"
            )

    # Each flag that sets a config field has that field's name as its destination.
    flags = {key: value for key, value in vars(args).items() if value is not None}
    raw.update((f.name, flags[f.name]) for f in fields(ExperimentConfig) if f.name in flags)
    if "out" in flags:
        raw["out"] = str(flags["out"])
    if "baseline_p" in flags:
        raw["baseline"] = {"kind": "bernoulli", "p": flags["baseline_p"]}
    for key in ("target", "kind"):
        # A spec that is not an object is left for the config to reject.
        if key in flags and isinstance(raw["constraint"], dict):
            raw["constraint"] = {**raw["constraint"], key: flags[key]}
    return config_from_dict(raw)


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
