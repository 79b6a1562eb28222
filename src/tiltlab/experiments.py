"""Experiment runners: one function per CLI subcommand.

Each runner takes an :class:`~tiltlab.reports.ExperimentConfig`, executes
the owning module's operations, and returns a :class:`~tiltlab.reports.Report`
whose checks each name the module invariant they instantiate.  The
runners are the library's input boundary: a spec they cannot build, a
baseline that is not strictly positive or a window sweep that cannot start
raises :class:`~tiltlab.reports.ConfigError` before any work, keeping the
library's message.  Past it, only the library's typed errors are expected.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import numpy as np

from .exact import (
    conditional_block_law,
    convergence_sweep,
    entropy_concentration,
)
from .montecarlo import MIN_SAMPLES, WindowSchedule, rate_fit, window_sweep
from .reports import CheckResult, ConfigError, ExperimentConfig, Report, Table, default_config
from .scale_mixtures import MixingLaw, condition_two_moments, radial_cf_check
from .simplex import Alphabet, Distribution, entropy
from .tilting import MomentConstraint, MomentFunction, i_project

__all__ = ["run_experiment", "RUNNERS"]

# The closed-form solution of the mean-4.5 tilt of a fair six-sided die
# (multiplier in the exp(+lambda*h) convention; the same law is often quoted
# with multiplier -0.37105 under the exp(-lambda*h) convention).
DICE_REFERENCE_MULTIPLIER = 0.371048938081
DICE_REFERENCE_LAW = (
    0.054353168,
    0.078771546,
    0.114159977,
    0.165446803,
    0.239774440,
    0.347494066,
)
DICE_REFERENCE_ENTROPY = 1.613581098
DICE_REFERENCE_DIVERGENCE = 0.178178371


@contextmanager
def _spec_boundary(name: str):
    """Raise any failure to build the ``name`` spec as a ConfigError that
    keeps the library's message."""
    try:
        yield
    except KeyError as exc:
        raise ConfigError(f"{name} spec has no {exc} entry") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def build_baseline(spec: dict) -> Distribution:
    """The strictly positive baseline law of a spec, or ConfigError."""
    with _spec_boundary("baseline"):
        kind = spec.get("kind")
        if kind == "uniform":
            k = spec["k"]
            if type(k) is not int:
                raise ValueError(f"uniform baseline needs an integer k, got {k!r}")
            p = Distribution.uniform(Alphabet.of_size(k))
        elif kind == "bernoulli":
            p = Distribution.bernoulli(float(spec["p"]))
        elif kind == "masses":
            values = np.asarray(spec["values"], dtype=float)
            p = Distribution(Alphabet.of_size(len(values)), values)
        else:
            raise ValueError(f"unknown baseline kind {kind!r}")
        if not p.strictly_positive:
            raise ValueError("baseline law must be strictly positive")
    return p


def _moment_function(spec: dict, alphabet: Alphabet) -> MomentFunction:
    h_spec = spec.get("h", "labels")
    if h_spec == "labels":
        return MomentFunction.from_labels(alphabet)
    return MomentFunction(alphabet, np.asarray(h_spec, dtype=float))


def build_constraint(spec: dict, alphabet: Alphabet) -> MomentConstraint:
    """The moment constraint of a spec on ``alphabet``, or ConfigError."""
    with _spec_boundary("constraint"):
        if spec.get("kind") is None:
            raise ValueError("constraint needs a kind")
        epsilon = spec.get("epsilon")
        return MomentConstraint(
            function=_moment_function(spec, alphabet),
            kind=spec["kind"],
            target=spec["target"],
            epsilon=None if epsilon is None else float(epsilon),
        )


def _check(name: str, invariant: str, margin: float, detail: str = "") -> CheckResult:
    return CheckResult(
        name=name, invariant=invariant, passed=bool(margin >= 0), margin=float(margin), detail=detail
    )


def _is_default_model(config: ExperimentConfig) -> bool:
    """Are the baseline and constraint the experiment's defaults: the
    Brandeis die of ``dice``, the fair-coin benchmark of ``bernoulli`` and
    ``theorem1``?  Reference values and calibrated bounds hold only there."""
    default = default_config(config.experiment)
    return (config.baseline, config.constraint) == (default.baseline, default.constraint)


def run_dice(config: ExperimentConfig) -> Report:
    """Tilt a die so its mean matches the target and report the law."""
    p = build_baseline(config.baseline)
    constraint = build_constraint(config.constraint, p.alphabet)
    solution = i_project(p, constraint)
    law = solution.tilted
    h_entropy = entropy(law)
    h_max = math.log(p.alphabet.size)
    lam = float(solution.multiplier[0])

    tilt_table = Table(
        columns=("symbol", "probability"),
        rows=tuple((label, float(mass)) for label, mass in zip(p.alphabet.labels, law.masses)),
    )
    summary = Table(
        columns=("multiplier", "entropy", "max_entropy", "divergence", "residual", "status"),
        rows=((lam, h_entropy, h_max, solution.divergence, solution.residual, solution.status),),
    )

    checks = [
        _check(
            "solver-residual",
            "tilting: moment residual <= 1e-10",
            1e-10 - solution.residual,
            f"residual {solution.residual:.3e}",
        ),
        _check(
            "dual-identity",
            "tilting: divergence equals lam . mean - log-partition within 1e-9",
            1e-9
            - abs(
                solution.divergence
                - (solution.multiplier @ (law.masses @ constraint.function.table) - solution.log_partition)
            ),
        ),
    ]
    if _is_default_model(config):
        checks.append(
            _check(
                "multiplier",
                "tilting: |multiplier| matches the known mean-4.5 die solution to 1e-4",
                1e-4 - abs(abs(lam) - abs(DICE_REFERENCE_MULTIPLIER)),
                f"multiplier {lam:.6f} (sign convention: exp(+lambda*h))",
            )
        )
        worst = max(abs(a - b) for a, b in zip(law.masses, DICE_REFERENCE_LAW))
        checks.append(
            _check(
                "tilted-law",
                "tilting: each tilted probability matches the known solution to 1e-3",
                1e-3 - worst,
            )
        )
        checks.append(
            _check(
                "tilted-entropy",
                "simplex: entropy of the tilted law matches the known value to 1e-4",
                1e-4 - abs(h_entropy - DICE_REFERENCE_ENTROPY),
                f"entropy {h_entropy:.6f}",
            )
        )
        checks.append(
            _check(
                "divergence",
                "tilting: divergence from uniform matches the known value to 1e-4",
                1e-4 - abs(solution.divergence - DICE_REFERENCE_DIVERGENCE),
            )
        )
    checks.append(
        _check(
            "max-entropy",
            "simplex: entropy is bounded by ln k",
            h_max + 1e-12 - h_entropy,
            f"ln {p.alphabet.size} = {h_max:.6f}",
        )
    )
    return Report(
        experiment="dice",
        config=config,
        tables={"tilt": tilt_table, "summary": summary},
        checks=tuple(checks),
        primary_table="tilt",
    )


def _chi2_quantile(level: float, df: int) -> float:
    """The chi-square(df) quantile at ``level``, by the formula of scipy.stats.chi2.ppf."""
    from scipy.special import gammaincinv  # imported here: only dice-concentration needs scipy
    return float(2 * gammaincinv(df / 2, level))


def run_dice_concentration(config: ExperimentConfig) -> Report:
    """Entropy concentration of multinomial types around the maximum."""
    p = build_baseline(config.baseline)
    report = entropy_concentration(
        p,
        n_per_sample=config.block_size,
        samples=config.samples,
        seed=config.seed,
        interval=config.interval,
    )
    q95 = report.q95
    chi2_q95 = _chi2_quantile(0.95, p.alphabet.size - 1)
    table = Table(
        columns=("n_per_sample", "samples", "interval_lo", "interval_hi", "coverage", "q95_2n_dh", "chi2_q95", "seed"),
        rows=(
            (
                report.n_per_sample,
                report.samples,
                report.interval[0],
                report.interval[1],
                report.coverage,
                q95,
                chi2_q95,
                report.seed,
            ),
        ),
    )
    checks = [
        _check(
            "interval-coverage",
            "exact: entropy-interval coverage is 0.95 +- 0.015",
            0.015 - abs(report.coverage - 0.95),
            f"coverage {report.coverage:.4f}",
        ),
        _check(
            "chi-square-quantile",
            "exact: the 95th percentile of 2*N*delta_h is within 10% of the chi-square quantile",
            0.10 * chi2_q95 - abs(q95 - chi2_q95),
            f"q95 {q95:.3f} vs chi2 {chi2_q95:.3f}",
        ),
    ]
    return Report(
        experiment="dice-concentration",
        config=config,
        tables={"concentration": table},
        checks=tuple(checks),
        primary_table="concentration",
    )


def _sweep_table(records) -> Table:
    return Table(
        columns=("n", "m", "tv", "envelope_thm", "envelope_alt", "bad_mass", "delta"),
        rows=tuple(
            (r.n, r.m, r.tv, r.envelope_thm, r.envelope_alt, r.bad_mass, r.delta) for r in records
        ),
    )


def _sweep_checks(records, n0_limit: int | None = None) -> list[CheckResult]:
    """Envelope and bad-mass verdicts for an exact convergence sweep.

    n0 is the smallest grid point from which, onward, the constant-free
    envelope bounds the exact distance and the bad mass is non-increasing.
    ``n0_limit`` adds a bound check on the reported n0; it is calibrated to
    the fair-coin benchmark and only applied there.
    """
    n0 = None
    for i in range(len(records)):
        tail = records[i:]
        envelope_ok = all(r.tv <= r.envelope_alt + 2 * r.bad_mass + 1e-12 for r in tail)
        monotone_ok = all(a.bad_mass >= b.bad_mass - 1e-15 for a, b in zip(tail, tail[1:]))
        if envelope_ok and monotone_ok:
            n0 = records[i].n
            break
    checks = [
        _check(
            "envelope-from-n0",
            "exact: tv <= m*sqrt(ln n / n) + m(m-1)/(2n) + 2*bad_mass and "
            "non-increasing bad mass from some grid point on",
            -1.0 if n0 is None else float(sum(r.n >= n0 for r in records)),
            "no grid point works onward" if n0 is None else f"holds from n0 = {n0}",
        )
    ]
    if n0 is not None and n0_limit is not None:
        checks.append(
            _check(
                "n0-bound",
                f"exact: the reported n0 is at most {n0_limit}",
                float(n0_limit - n0),
                f"n0 = {n0}",
            )
        )
    return checks


def run_theorem1(config: ExperimentConfig) -> Report:
    """Exact convergence sweep of the conditional block law toward the
    projected product law."""
    p = build_baseline(config.baseline)
    constraint = build_constraint(config.constraint, p.alphabet)
    records = convergence_sweep(p, constraint, config.m, list(config.n_grid))
    checks = _sweep_checks(records, n0_limit=40 if _is_default_model(config) else None)
    return Report(
        experiment="theorem1",
        config=config,
        tables={"records": _sweep_table(records)},
        checks=tuple(checks),
        primary_table="records",
    )


def run_bernoulli(config: ExperimentConfig) -> Report:
    """Project a coin onto a mean constraint and verify convergence of the
    exact conditional law toward the projection."""
    p = build_baseline(config.baseline)
    constraint = build_constraint(config.constraint, p.alphabet)
    solution = i_project(p, constraint)
    summary = Table(
        columns=("multiplier", "status", "p_star_1", "divergence", "residual"),
        rows=(
            (
                float(solution.multiplier[0]),
                solution.status,
                float(solution.tilted.masses[-1]),
                solution.divergence,
                solution.residual,
            ),
        ),
    )
    checks = [
        _check(
            "projection-feasible",
            "tilting: the projected law satisfies the constraint to 1e-10",
            1e-10 - solution.residual if solution.status == "active" else 0.0,
            f"status {solution.status}",
        ),
    ]

    defaults = _is_default_model(config)
    tables = {"summary": summary}
    if defaults:
        block = conditional_block_law(p, constraint, n=4, m=1)
        head = block.mass((1,))
        checks.append(
            _check(
                "exact-n4",
                "exact: conditional head probability at n=4 equals 4/5 exactly",
                1e-12 - abs(head - 0.8),
                f"Pr(X1=1 | mean >= 3/4, n=4) = {head:.12f}",
            )
        )
    records = convergence_sweep(p, constraint, config.m, list(config.n_grid))
    tables["records"] = _sweep_table(records)
    checks.extend(_sweep_checks(records, n0_limit=40 if defaults else None))
    if defaults and records and records[-1].n >= 400:
        checks.append(
            _check(
                "limit-tv",
                "exact: tv to the projected law at the largest grid size is below 0.02",
                0.02 - records[-1].tv,
                f"tv(n={records[-1].n}) = {records[-1].tv:.5f}",
            )
        )
    positive = [(r.n, r.tv) for r in records if r.tv > 0]
    fit = rate_fit(positive) if len(positive) >= 4 else None
    if fit is not None:
        tables["rate"] = Table(
            columns=("slope", "intercept", "residual_rms"),
            rows=((fit.slope, fit.intercept, fit.residual_rms),),
        )
        checks.append(
            _check(
                "rate-slope",
                "montecarlo: fitted log-log slope of the exact sweep is at most -0.3",
                -0.3 - fit.slope,
                f"slope {fit.slope:.3f}",
            )
        )
    return Report(
        experiment="bernoulli",
        config=config,
        tables=tables,
        checks=tuple(checks),
        primary_table="records",
    )


def run_windows(config: ExperimentConfig) -> Report:
    """Monte Carlo shrinking-window sweep against the tilted product law."""
    p = build_baseline(config.baseline)
    spec = config.constraint
    if spec.get("kind") is None:
        raise ConfigError("constraint needs a kind")
    if spec["kind"] != "equality":
        raise ConfigError(f"windows condition on equality windows, got constraint kind {spec['kind']!r}")
    if "epsilon" in spec:
        raise ConfigError("windows take each window's half-width from the schedule, not from the constraint's epsilon")
    if config.samples < MIN_SAMPLES:
        raise ConfigError(f"samples must be >= {MIN_SAMPLES}, got {config.samples}")
    with _spec_boundary("constraint"):
        h = _moment_function(spec, p.alphabet)
        span = float(h.table[:, 0].max() - h.table[:, 0].min())
        amplitude = config.amplitude if config.amplitude is not None else 0.5 * span
        schedule = WindowSchedule(amplitude=amplitude, exponent=config.exponent)
        # The widest window, at the smallest n, must sit inside the statistic's range.
        widest = MomentConstraint(h, "equality", spec["target"], epsilon=schedule.epsilon(min(config.n_grid)))
    points = window_sweep(
        p,
        h,
        float(widest.target[0]),
        schedule,
        list(config.n_grid),
        config.m,
        config.samples,
        seed=config.seed,
        method=config.method,
    )
    table = Table(
        columns=("n", "epsilon", "tv_estimate", "se", "acceptance_rate", "ess", "method", "seed"),
        rows=tuple(
            (pt.n, pt.epsilon, pt.tv_estimate, pt.std_error, pt.acceptance_rate, pt.ess, pt.method, pt.seed)
            for pt in points
        ),
    )
    first, last = points[0], points[-1]
    allowance = math.hypot(first.std_error, last.std_error)
    checks = [
        _check(
            "tv-trend",
            "montecarlo: tv decreases along a shrinking-window schedule (1 SE allowance)",
            (first.tv_estimate - last.tv_estimate) + allowance,
            f"tv {first.tv_estimate:.4f} -> {last.tv_estimate:.4f}",
        ),
        _check(
            "ess-floor",
            "montecarlo: effective sample size >= 50 for every published estimate",
            min(pt.ess for pt in points) - 50.0,
        ),
    ]
    return Report(
        experiment="windows",
        config=config,
        tables={"sweep": table},
        checks=tuple(checks),
        primary_table="sweep",
    )


def _default_gsm_mixing() -> MixingLaw:
    return MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 4.0, 0.5)])


def run_gsm(config: ExperimentConfig) -> Report:
    """Two-moment window conditioning of a Gaussian scale mixture."""
    report = condition_two_moments(
        _default_gsm_mixing(),
        targets=config.gsm_targets,
        epsilon=config.gsm_epsilon,
        n=config.gsm_n,
        block=config.gsm_block,
        samples=config.samples,
        seed=config.seed,
    )
    table = Table(
        columns=("n", "epsilon", "ks", "accepted", "seed"),
        rows=((report.n, report.epsilon, report.ks_statistic, report.accepted, report.seed),),
    )
    checks = [
        _check(
            "ks-distance",
            "scale_mixtures: pooled conditioned coordinates are within KS 0.05 of the target Gaussian",
            0.05 - report.ks_statistic,
            f"ks {report.ks_statistic:.4f} from {report.pooled} pooled points",
        ),
        _check(
            "accepted-floor",
            "scale_mixtures: at least 2000 accepted blocks",
            float(report.accepted - 2000),
            f"accepted {report.accepted} of {report.samples}",
        ),
    ]
    return Report(
        experiment="gsm",
        config=config,
        tables={"conditioning": table},
        checks=tuple(checks),
        primary_table="conditioning",
    )


def run_cf_check(config: ExperimentConfig) -> Report:
    """Radial characteristic-function identity for two mixing laws."""
    mixings = {
        "point": MixingLaw.point(0.0, 1.0),
        "two-atom": MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 2.0, 0.5)]),
    }
    tables = {}
    checks = []
    tolerance_extra = 1e-3
    for name, mixing in mixings.items():
        report = radial_cf_check(mixing, config.t_grid, config.samples, config.seed)
        tables[name] = Table(
            columns=("t", "empirical", "exact", "deviation"),
            rows=tuple(
                (t, e, x, abs(e - x))
                for t, e, x in zip(report.t_grid, report.empirical, report.exact)
            ),
        )
        bound = 4.0 / math.sqrt(config.samples) + tolerance_extra
        checks.append(
            _check(
                f"cf-{name}",
                "scale_mixtures: max CF deviation <= 4/sqrt(samples) + 1e-3",
                bound - report.max_deviation,
                f"max deviation {report.max_deviation:.5f} (bound {bound:.5f})",
            )
        )
    return Report(
        experiment="cf-check",
        config=config,
        tables=tables,
        checks=tuple(checks),
        primary_table="point",
    )


RUNNERS = {
    "dice": run_dice,
    "dice-concentration": run_dice_concentration,
    "bernoulli": run_bernoulli,
    "theorem1": run_theorem1,
    "windows": run_windows,
    "gsm": run_gsm,
    "cf-check": run_cf_check,
}


def run_experiment(config: ExperimentConfig) -> Report:
    """Dispatch a config to its runner and stamp the wall-clock time."""
    start = time.perf_counter()
    report = RUNNERS[config.experiment](config)
    elapsed = time.perf_counter() - start
    object.__setattr__(report, "wall_clock", elapsed)
    return report
