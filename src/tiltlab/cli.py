"""Command-line front end.

One subcommand per experiment, each with a zero-argument default; flags
(exact names, as ``--flag value`` or ``--flag=value``) override values from
an optional ``--config`` JSON file.  Exit codes: 0 when every report check
passes, 1 when any check fails, 2 on a usage error or the typed errors of
``_CONFIG_ERRORS``, 3 when the moment solver fails on a feasible target.
Any other exception is a fault and keeps its traceback.
"""

from __future__ import annotations

import json
import sys
from dataclasses import fields
from pathlib import Path
from types import SimpleNamespace
from typing import NoReturn

from .experiments import run_experiment
from .montecarlo import METHODS, LowEffectiveSampleError
from .reports import (
    FORMATS, ConfigError, ExperimentConfig, Report, config_from_dict, config_to_dict, default_config, render_csv,
    report_to_json,
)
from .simplex import EnumerationCapError
from .tilting import InfeasibleConstraintError, SolverError

__all__ = ["main", "parse_args"]

_CONFIG_ERRORS = (ConfigError, InfeasibleConstraintError, EnumerationCapError, LowEffectiveSampleError)


def _parse_grid(text: str) -> tuple[int, ...]:
    """Accept "20,40,60" or "20:400:20" (inclusive stop)."""
    if ":" not in text:
        return tuple(int(v) for v in text.split(","))
    parts = [int(v) for v in text.split(":")]
    start, stop, step = parts if len(parts) == 3 else (*parts, 1)
    return tuple(range(start, stop + 1, step))


def _parse_floats(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# Each flag's destination, a parse function that raises ValueError on bad text, and its
# help.  A destination is a config field or one of config, baseline_p, target and kind.
_FLAGS = {
    "--config": ("config", Path, "JSON config file; flags override it"),
    "--seed": ("seed", int, "random seed"),
    "--samples": ("samples", int, "number of Monte Carlo samples"),
    "--format": ("format", str, "report format: " + " or ".join(FORMATS)),
    "--out": ("out", Path, "write the report here, not to standard output"),
    "--baseline-p": ("baseline_p", float, "success probability p of a Bernoulli baseline"),
    "--target": ("target", float, "constraint target"),
    "--kind": ("kind", str, "constraint kind: equality or halfspace"),
    "--n-grid": ("n_grid", _parse_grid, "sizes n, as 20,40,60 or 20:400:20 (inclusive)"),
    "--m": ("m", int, "block length m"),
    "--method": ("method", str, "sampler: " + " or ".join(METHODS)),
    "--gamma": ("exponent", float, "window exponent in (0, 0.5)"),
    "--amplitude": ("amplitude", float, "window amplitude (default half the statistic range)"),
    "--big-n": ("block_size", int, "type size N"),
    "--interval": ("interval", _parse_floats, "entropy interval lo,hi"),
    "--targets": ("gsm_targets", _parse_floats, "target mean,variance"),
    "--epsilon": ("gsm_epsilon", float, "half-width of the two moment windows"),
    "--n": ("gsm_n", int, "sequence length n"),
    "--block": ("gsm_block", int, "length of the conditioned block"),
    "--t-grid": ("t_grid", _parse_floats, "comma-separated points t"),
}
# Each subcommand's help line and its flags, in help order.
_COMMANDS = {
    name: (summary, ("--config", "--seed", "--samples", "--format", "--out", *flags.split()))
    for name, (summary, flags) in {
        "dice": ("tilt a fair die to a target mean", "--target"),
        "dice-concentration": ("entropy concentration of multinomial types", "--big-n --interval"),
        "bernoulli": ("coin projection and exact convergence sweep", "--baseline-p --target --n-grid --m"),
        "theorem1": ("exact convergence sweep for a configured model", "--baseline-p --target --kind --n-grid --m"),
        "windows": ("Monte Carlo shrinking-window sweep", "--baseline-p --target --n-grid --m --method --gamma --amplitude"),
        "gsm": ("two-moment conditioning of a Gaussian scale mixture", "--targets --epsilon --n --block"),
        "cf-check": ("radial characteristic-function identity", "--t-grid"),
    }.items()
}


def _help(names: list[str]) -> str:
    text = "usage: tiltlab EXPERIMENT [-h] [--flag VALUE | --flag=VALUE ...]\n"
    for name in names:
        summary, flags = _COMMANDS[name]
        text += f"\n{name}: {summary}\n" + "".join(f"  {f + ' ' + f[2:].upper():<26}{_FLAGS[f][2]}\n" for f in flags)
    return text


def _exit(code: int, text: str) -> NoReturn:
    (sys.stderr if code else sys.stdout).write(text)
    raise SystemExit(code)


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The experiment ``argv[0]`` and its flags' destinations, None where not given."""
    if argv[:1] in (["-h"], ["--help"]):
        _exit(0, _help(list(_COMMANDS)))
    if not argv or argv[0] not in _COMMANDS:
        _exit(2, f"tiltlab: error: expected one of {'|'.join(_COMMANDS)}, got {(argv or [''])[0]!r}\n")
    name, tokens = argv[0], iter(argv[1:])
    flags = _COMMANDS[name][1]
    values = {_FLAGS[flag][0]: None for flag in flags}
    for token in tokens:
        if token in ("-h", "--help"):
            _exit(0, _help([name]))
        flag, has_value, text = token.partition("=")
        if flag not in flags:
            _exit(2, f"tiltlab {name}: error: unrecognized argument {token!r}\n")
        if not has_value:
            text = next(tokens, None)
            if text is None or text.startswith("--"):
                _exit(2, f"tiltlab {name}: error: argument {flag} needs a value\n")
        dest, parse, _ = _FLAGS[flag]
        try:
            values[dest] = parse(text)
        except ValueError:
            _exit(2, f"tiltlab {name}: error: argument {flag}: invalid value {text!r}\n")
    return SimpleNamespace(experiment=name, **values)


def _config_from_args(args: SimpleNamespace) -> ExperimentConfig:
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
        try:
            Path(config.out).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report to {config.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        config = _config_from_args(args)
        report = run_experiment(config)
        _emit(report, config)
    except _CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        detail = f"  {check.detail}" if check.detail else ""
        print(f"{status}  {check.name} [{check.invariant}] margin={check.margin:.3g}{detail}", file=sys.stderr)
    print(f"wall-clock: {report.wall_clock:.2f}s", file=sys.stderr)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
