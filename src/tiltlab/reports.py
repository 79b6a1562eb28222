"""Experiment configuration and serialized reports.

Configurations round-trip losslessly through JSON (``parse(serialize(c))``
equals ``c``), reports validate against the schema shipped in
``schemas/report.schema.json``, and serialized output is byte-identical
across runs of the same configuration and seed.  Wall-clock time is kept
out of the serialized artifact for that reason; runners print it to the
console instead.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field, fields
from functools import partial
from importlib import resources
from types import MappingProxyType

from . import __version__
from .montecarlo import METHODS

__all__ = [
    "EXPERIMENTS",
    "ExperimentConfig",
    "CheckResult",
    "Table",
    "Report",
    "ConfigError",
    "default_config",
    "config_to_dict",
    "config_from_dict",
    "render_csv",
    "report_to_json",
    "validate_report_dict",
]

# The zero-argument config of each experiment, as the values that differ
# from the field defaults.  Its keys are the experiments, in CLI order.
_COIN_SWEEP = dict(
    baseline={"kind": "bernoulli", "p": 0.5},
    constraint={"kind": "halfspace", "target": 0.75},
    n_grid=tuple(range(20, 401, 20)),
)
_DEFAULTS: dict[str, dict] = {
    "dice": dict(baseline={"kind": "uniform", "k": 6}, constraint={"kind": "equality", "target": 4.5}),
    "dice-concentration": dict(baseline={"kind": "uniform", "k": 6}),
    "bernoulli": _COIN_SWEEP,
    "theorem1": _COIN_SWEEP,
    "windows": dict(
        baseline={"kind": "bernoulli", "p": 0.5},
        constraint={"kind": "equality", "target": 0.75},
        n_grid=(25, 50, 100, 150),
        samples=4 * 10**5,
    ),
    "gsm": dict(samples=12000),
    "cf-check": dict(t_grid=(0.0, 0.5, 1.0, 2.0)),
}
EXPERIMENTS = tuple(_DEFAULTS)
_GRID_EXPERIMENTS = ("bernoulli", "theorem1", "windows")

FORMATS = ("json", "csv")
CSV_SIGNIFICANT_DIGITS = 12


def _is_a(value, kinds) -> bool:
    """isinstance, with a bool counted as no number."""
    return isinstance(value, kinds) and not isinstance(value, bool)


class ConfigError(ValueError):
    """A configuration that cannot be run."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment run.

    ``baseline`` and ``constraint`` are small declarative specs
    (e.g. ``{"kind": "uniform", "k": 6}`` and
    ``{"kind": "halfspace", "target": 0.75}``), stored as read-only
    mappings; grids are stored as tuples, so a config cannot be changed
    after it is validated.
    """

    experiment: str
    baseline: Mapping[str, object] = field(default_factory=dict)
    constraint: Mapping[str, object] = field(default_factory=dict)
    n_grid: tuple[int, ...] = ()
    m: int = 1
    t_grid: tuple[float, ...] = ()
    samples: int = 10**5
    method: str = "tilt-importance"
    seed: int = 0
    out: str | None = None
    format: str = "json"
    interval: tuple[float, float] = (1.786, 1.792)
    block_size: int = 1000
    amplitude: float | None = None
    exponent: float = 0.25
    gsm_targets: tuple[float, float] = (0.0, 1.0)
    gsm_epsilon: float = 0.1
    gsm_n: int = 200
    gsm_block: int = 5

    def __post_init__(self) -> None:
        # JSON gives lists and dicts; keep read-only copies.
        store = partial(object.__setattr__, self)
        for name in ("baseline", "constraint"):
            spec = getattr(self, name)
            if not isinstance(spec, Mapping):
                raise ConfigError(f"{name} must be a JSON object, got {spec!r}")
            store(name, MappingProxyType(dict(spec)))
        store("n_grid", tuple(self.n_grid))
        if not all(_is_a(v, int) for v in self.n_grid):
            raise ConfigError(f"n grid entries must be integers, got {self.n_grid}")
        for name in ("t_grid", "interval", "gsm_targets"):
            values = tuple(getattr(self, name))
            if not all(_is_a(v, (int, float)) for v in values):
                raise ConfigError(f"{name} entries must be numbers, got {values}")
            store(name, tuple(float(v) for v in values))
        for name in ("samples", "m", "seed", "block_size", "gsm_n", "gsm_block"):
            if not _is_a(getattr(self, name), int):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
        for name in ("exponent", "gsm_epsilon", "amplitude"):
            value = getattr(self, name)
            if not (_is_a(value, (int, float)) or (name == "amplitude" and value is None)):
                raise ConfigError(f"{name} must be a number, got {value!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigError(f"out must be a string or null, got {self.out!r}")

        for name in ("interval", "gsm_targets"):
            if len(getattr(self, name)) != 2:
                raise ConfigError(f"{name} needs two values, got {getattr(self, name)}")
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}")
        if self.format not in FORMATS:
            raise ConfigError(f"unknown format {self.format!r}; choose from {FORMATS}")
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; choose from {METHODS}")
        if self.experiment in _GRID_EXPERIMENTS and not self.n_grid:
            raise ConfigError(f"experiment {self.experiment} needs a nonempty n grid")
        if self.experiment == "cf-check" and not self.t_grid:
            raise ConfigError("cf-check needs a nonempty t grid")
        if self.samples < 1:
            raise ConfigError(f"samples must be >= 1, got {self.samples}")
        if self.m < 1:
            raise ConfigError(f"block length m must be >= 1, got {self.m}")
        if self.n_grid and min(self.n_grid) < 1:
            raise ConfigError(f"n grid entries must be >= 1, got {min(self.n_grid)}")
        if self.experiment in _GRID_EXPERIMENTS and self.m > min(self.n_grid):
            raise ConfigError(f"block length m={self.m} exceeds the smallest grid size n={min(self.n_grid)}")
        if self.block_size < 1:
            raise ConfigError(f"type size N must be >= 1, got {self.block_size}")
        if not self.interval[0] < self.interval[1]:
            raise ConfigError(f"interval needs lo < hi, got {self.interval}")
        if not all(math.isfinite(t) for t in self.t_grid):
            raise ConfigError(f"t grid entries must be finite, got {self.t_grid}")
        if self.gsm_n < 2 or not 1 <= self.gsm_block <= self.gsm_n:
            raise ConfigError(f"gsm needs n >= 2 and 1 <= block <= n, got n={self.gsm_n}, block={self.gsm_block}")
        if not self.gsm_epsilon > 0:
            raise ConfigError(f"gsm epsilon must be > 0, got {self.gsm_epsilon}")
        if not self.gsm_targets[1] > 0:
            raise ConfigError(f"gsm target variance must be > 0, got {self.gsm_targets[1]}")
        if not all(math.isfinite(v) for v in (*self.gsm_targets, self.gsm_epsilon)):
            raise ConfigError(f"gsm targets and epsilon must be finite, got {self.gsm_targets} and {self.gsm_epsilon}")


def default_config(experiment: str) -> ExperimentConfig:
    """The zero-argument configuration of an experiment."""
    return ExperimentConfig(experiment=experiment, **_DEFAULTS.get(experiment, {}))


def config_to_dict(config: ExperimentConfig) -> dict:
    """A JSON-serializable view of a config."""
    out: dict = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, MappingProxyType):
            value = dict(value)
        elif isinstance(value, tuple):
            value = list(value)
        out[f.name] = value
    return out


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build and validate a config from its dict form; inverse of :func:`config_to_dict`."""
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        return ExperimentConfig(**raw)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class CheckResult:
    """One pass/fail verdict; ``invariant`` names the module property it
    instantiates and ``margin`` is the slack by which it holds (>= 0 passes)."""

    name: str
    invariant: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class Table:
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class Report:
    """A full experiment result: config echo, tables, checks.

    ``wall_clock`` is carried for console display but never serialized, so
    repeated runs of the same config and seed produce byte-identical files.
    """

    experiment: str
    config: ExperimentConfig
    tables: dict[str, Table]
    checks: tuple[CheckResult, ...]
    primary_table: str
    wall_clock: float = 0.0
    version: str = __version__

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {
            "version": self.version,
            "experiment": self.experiment,
            "config": config_to_dict(self.config),
            "tables": {
                name: {"columns": list(t.columns), "rows": [list(r) for r in t.rows]}
                for name, t in self.tables.items()
            },
            "checks": [
                {
                    "name": c.name,
                    "invariant": c.invariant,
                    "passed": c.passed,
                    "margin": c.margin,
                    "detail": c.detail,
                }
                for c in self.checks
            ],
        }


def _format_cell(value) -> object:
    if isinstance(value, bool) or not isinstance(value, float):
        return value
    return f"{value:.{CSV_SIGNIFICANT_DIGITS}g}"


def render_csv(table: Table) -> str:
    """RFC-style quoted CSV with a header row; floats carry 12 significant
    digits."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(table.columns)
    for row in table.rows:
        writer.writerow([_format_cell(v) for v in row])
    return buffer.getvalue()


def report_to_json(report: Report) -> str:
    return json.dumps(report.to_json_dict(), sort_keys=True, indent=2) + "\n"


def _schema() -> dict:
    text = resources.files("tiltlab").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def validate_report_dict(raw: dict) -> None:
    """Raise jsonschema.ValidationError if ``raw`` is not a valid report."""
    # Imported here: no CLI run validates a report, so the CLI never pays for it.
    import jsonschema

    jsonschema.validate(raw, _schema())
