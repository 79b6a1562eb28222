"""Monte Carlo conditioning, and sweeps along shrinking-window schedules.

Two samplers estimate the conditional law of the first m coordinates of an
i.i.d. sequence given a :class:`~tiltlab.tilting.MomentConstraint`: an
equality, a halfspace or an open window on the empirical mean of h.

* rejection: simulate from the baseline and keep the sequences that meet
  the constraint,
* tilt-importance: simulate from the I-projection of the baseline onto
  the constraint's closed box of means (:func:`~tiltlab.tilting.i_project`:
  the baseline itself when its mean is in the box, otherwise the tilt to
  its nearest point, where the conditional law of the sum piles up), keep
  the sequences that meet it, and undo the tilt with self-normalized
  inverse likelihood-ratio weights exp(-lam . S + n*M(lam)), S the h-sum.

Importance proposals turn a rare event into a typical one, which is what
makes far-from-baseline targets tractable.  The weights still thin out as
n grows, but slowly: the effective sample size falls roughly like n^(-1/2),
not exponentially in n.

A sequence is reduced to its type, the row of its symbol counts, and kept
when :meth:`~tiltlab.tilting.MomentConstraint.holds_for_counts` accepts
it.  The exact oracle reduces its types the same way, so both condition on
the identical event, and a type's verdict does not depend on its symbols'
order.  Every estimate reads the accepted proposals only through the
weighted counts of their first-m words.

On two symbols a proposal is summed up by its cell (a, t): a heads among
the first m symbols and t among the other n - m.  The cell counts of N
i.i.d. proposals are exactly Multinomial(N, Binom(m, p1)(a) *
Binom(n - m, p1)(t)), so the sampler draws that histogram, not the
proposals.  A cell's verdict and weight are those of its head count a + t,
tabulated once over the n + 1 rows (n - j, j), and an accepted cell's
count is split uniformly over the C(m, a) words with a heads, which is the
law of an i.i.d. word given its head count.  Neither the time nor the
memory grows with N.  On more symbols each proposal draws its first m
symbols and, in one multinomial draw, the symbol counts of the other
n - m, which have the same joint law as materializing them.

All randomness flows through counter-based streams keyed by (seed, stream
id), so estimates are bit-identical across runs for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .rng import stream
from .simplex import BlockLaw, Distribution, check_word_cap, product_block_law, tv_distance, word_index
from .tilting import MomentConstraint, MomentFunction, i_project, solve_moment_equality

__all__ = [
    "WindowSchedule",
    "McEstimate",
    "WindowSweepPoint",
    "RateFit",
    "LowEffectiveSampleError",
    "sample_conditional_blocks",
    "window_sweep",
    "rate_fit",
]

METHODS = ("rejection", "tilt-importance")
_METHOD_STREAM = {"rejection": 1, "tilt-importance": 2}
MIN_SAMPLES = 10**3
MIN_ESS = 50.0
_CHUNK_CELLS = 5 * 10**4  # array cells per chunk of draws


class LowEffectiveSampleError(RuntimeError):
    """Too little effective sample mass to publish an estimate; no accepted
    draw at all is an effective sample size of 0."""


@dataclass(frozen=True)
class WindowSchedule:
    """Shrinking windows epsilon(n) = amplitude * n^(-exponent).

    The exponent must lie in (0, 1/2): that keeps n * epsilon(n)^2 growing,
    so the window stays wide on the CLT scale while still shrinking onto
    the target.
    """

    amplitude: float
    exponent: float

    def __post_init__(self) -> None:
        if self.amplitude <= 0:
            raise ValueError(f"amplitude must be > 0, got {self.amplitude}")
        if not (0 < self.exponent < 0.5):
            raise ValueError(
                f"exponent must lie in (0, 0.5) so that n*eps^2 diverges, got {self.exponent}"
            )

    def epsilon(self, n: int) -> float:
        return self.amplitude * n ** (-self.exponent)


@dataclass(frozen=True)
class McEstimate:
    """Self-normalized estimate of the law of the first m coordinates.

    ``block`` is the weighted empirical law of the accepted first-m words;
    ``std_errors[i]`` is the weighted sampling standard error of the mass
    of word i in its word order.  With equal weights it reduces to sample
    std over the square root of the accepted count.  ``ess`` is the
    effective sample size 1 / sum of squared normalized weights, and
    exactly the accepted count under rejection.
    """

    block: BlockLaw
    std_errors: np.ndarray = field(repr=False)
    accepted: int
    ess: float

    def estimate_for(self, word: tuple[int, ...]) -> tuple[float, float]:
        """(estimate, standard error) for one word; (0, 0) if never seen."""
        i = word_index(word, self.block.alphabet.size, self.block.m)
        return float(self.block.masses[i]), float(self.std_errors[i])


@dataclass(frozen=True)
class WindowSweepPoint:
    """One grid point of a Monte Carlo shrinking-window sweep.

    ``tv_estimate`` is the plug-in distance of the weighted empirical block
    law to the m-fold product of the target tilt; plug-in TV of an
    empirical law is upward-biased, so it is reported together with a
    delta-method standard error rather than corrected.
    """

    n: int
    epsilon: float
    tv_estimate: float
    std_error: float
    acceptance_rate: float
    ess: float
    method: str
    seed: int


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of ln(tv) against ln(n)."""

    slope: float
    intercept: float
    residual_rms: float


def _binomial_pmf(trials: int, p0: float, p1: float) -> np.ndarray:
    """Binomial(trials, p1) over 0..trials.  The masses follow the ratio
    pmf(j + 1) / pmf(j) = (trials - j) / (j + 1) * p1 / p0 out from the
    mode, where the unnormalized mass is 1, so none overflows, and are then
    normalized.  The odds take both masses, so a head mass that rounds to 1
    still gives finite odds.  The pmf shares no code with the exact oracle's
    tables, so the sampler stays an independent check of it.
    """
    odds = p1 / p0
    mode = min(trials, int((trials + 1) * p1))
    j = np.arange(trials + 1.0)
    up = np.cumprod((trials - j[mode:trials]) / (j[mode:trials] + 1) * odds)
    down = np.cumprod(j[mode:0:-1] / (trials - j[mode:0:-1] + 1) / odds)
    mass = np.concatenate([down[::-1], [1.0], up])
    return mass / math.fsum(mass)


def _weights(tilts: np.ndarray, logz: float, n: int) -> np.ndarray:
    """Inverse likelihood ratios exp(-lam . S + n*M(lam)) of whole sequences
    with tilts lam . S of their h-sums S, scaled so that the largest is 1."""
    log_w = -tilts + n * logz
    return np.exp(np.maximum(log_w - log_w.max(initial=-np.inf), -700.0))


def _cell_law(law: Distribution, n: int, m: int) -> np.ndarray:
    """Two symbols: the law of a proposal's cell (a, t), a heads among the
    first m symbols and t among the other n - m, shape (m + 1, n - m + 1)."""
    p0, p1 = law.masses.tolist()
    return np.outer(_binomial_pmf(m, p0, p1), _binomial_pmf(n - m, p0, p1))


def _cell_table(c: MomentConstraint, n: int, m: int, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two symbols: each cell's verdict and tilt, those of its head count
    a + t, from the n + 1 rows (n - j, j)."""
    heads = np.arange(n + 1)
    types = np.stack([n - heads, heads], axis=1)
    cell_heads = np.add.outer(np.arange(m + 1), np.arange(n - m + 1))
    return c.holds_for_counts(types)[cell_heads], ((types @ c.function.table) @ lam)[cell_heads]


def _histogram_sums(
    rng: np.random.Generator, law: Distribution, c: MomentConstraint, n: int, m: int, samples: int, lam: np.ndarray, logz: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """Two symbols: the proposals' cell counts, one multinomial draw.  An
    accepted cell's count is split over the C(m, a) words with a heads by a
    multinomial, in row blocks of at most ``_CHUNK_CELLS`` cells."""
    counts = rng.multinomial(samples, _cell_law(law, n, m).ravel())
    holds, tilts = _cell_table(c, n, m, lam)
    counts *= holds.ravel()
    cells = np.flatnonzero(counts)
    weights = _weights(tilts.ravel()[cells], logz, n)
    first_heads = cells // (n - m + 1)
    word_heads = sum((np.arange(2**m) >> bit) & 1 for bit in range(m))
    mass, mass_sq = np.zeros(2**m), np.zeros(2**m)
    for a in range(m + 1):
        words = np.flatnonzero(word_heads == a)
        rows = np.flatnonzero(first_heads == a)
        for block in np.array_split(rows, max(1, -(-rows.size * words.size // _CHUNK_CELLS))):
            split = rng.multinomial(counts[cells[block]], np.full(words.size, 1.0 / words.size))
            mass[words] += weights[block] @ split
            mass_sq[words] += weights[block] ** 2 @ split
    return mass, mass_sq, int(counts.sum())


def _proposal_sums(
    rng: np.random.Generator, law: Distribution, c: MomentConstraint, n: int, m: int, samples: int, lam: np.ndarray, logz: float
) -> tuple[np.ndarray, np.ndarray, int]:
    """More symbols: each proposal draws its first m symbols and the symbol
    counts of the other n - m, one multinomial draw, in chunks of at most
    ``_CHUNK_CELLS`` cells of m + k each; its type is the counts plus the
    first m symbols'."""
    k = law.alphabet.size
    cum = np.cumsum(law.masses)
    cum[-1] = 1.0
    chunk_rows = max(1, _CHUNK_CELLS // (m + k))
    kept_words, kept_tilts = [], []
    for start in range(0, samples, chunk_rows):
        rows = min(chunk_rows, samples - start)
        first = np.searchsorted(cum, rng.random((rows, m)), side="right")
        types = rng.multinomial(n - m, law.masses, size=rows)  # zero trials use no draws
        for symbol, tally in enumerate(types.T):  # each tally is a view into types
            for column in first.T:
                tally += column == symbol
        keep = c.holds_for_counts(types)
        kept_words.append(word_index(first[keep], k, m))
        kept_tilts.append((types[keep] @ c.function.table) @ lam)
    word_idx = np.concatenate(kept_words)
    weights = _weights(np.concatenate(kept_tilts), logz, n)
    mass = np.bincount(word_idx, weights=weights, minlength=k**m)
    weights **= 2
    return mass, np.bincount(word_idx, weights=weights, minlength=k**m), word_idx.size


class _Draws(NamedTuple):
    """The accepted draws summed per first-m word, in the word order of
    :class:`BlockLaw`: ``mass`` adds their self-normalized weights and
    ``mass_sq`` the squares of those weights."""

    mass: np.ndarray
    mass_sq: np.ndarray
    accepted: int
    ess: float


def _conditioned_draws(
    p: Distribution,
    c: MomentConstraint,
    n: int,
    m: int,
    samples: int,
    method: str,
    seed: int,
    stream_index: int,
) -> _Draws:
    """The accepted draws of ``samples`` proposals, summed per first-m word."""
    if p.alphabet != c.function.alphabet:
        raise ValueError("constraint and baseline live on different alphabets")
    if not p.strictly_positive:
        raise ValueError("baseline law must be strictly positive")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    check_word_cap(p.alphabet.size, m)

    if method == "rejection":
        proposal, lam, logz = p, np.zeros(c.function.dimension), 0.0
    else:
        solution = i_project(p, c)
        proposal, lam, logz = solution.tilted, solution.multiplier, solution.log_partition

    rng = stream(seed, _METHOD_STREAM[method] + 2 * stream_index)
    sums = _histogram_sums if p.alphabet.size == 2 else _proposal_sums
    mass, mass_sq, accepted = sums(rng, proposal, c, n, m, samples, lam, logz)
    if accepted == 0:
        raise LowEffectiveSampleError(
            f"0 of {samples} proposals met the constraint at n = {n}; "
            "try the tilt-importance method or a wider event"
        )
    total = mass.sum()
    mass /= total
    mass_sq /= total**2
    ess = float(accepted) if method == "rejection" else 1.0 / float(mass_sq.sum())
    if ess < MIN_ESS:
        raise LowEffectiveSampleError(
            f"effective sample size {ess:.1f} < {MIN_ESS:.0f} at n = {n}; "
            "increase samples or lower n (whole-sequence importance weights "
            "thin out as n grows)"
        )
    return _Draws(mass, mass_sq, accepted, ess)


def sample_conditional_blocks(
    p: Distribution,
    c: MomentConstraint,
    n: int,
    m: int,
    samples: int,
    method: str = "rejection",
    seed: int = 0,
) -> McEstimate:
    """Estimate the law of the first m coordinates of an n-long i.i.d.
    sequence from ``p``, conditioned on the constraint ``c``: its h-mean
    meets :meth:`~tiltlab.tilting.MomentConstraint.holds`.

    ``samples`` is the number of proposal sequences.  Raises ValueError
    when ``c`` lives on another alphabet than ``p``, and
    :class:`LowEffectiveSampleError` when the effective sample size is
    below 50, no proposal meeting ``c`` included.
    """
    draws = _conditioned_draws(p, c, n, m, samples, method, seed, stream_index=0)
    block = BlockLaw(p.alphabet, m, draws.mass)
    w_sq, sq_total = draws.mass_sq, draws.mass_sq.sum()
    # Weighted Bessel-corrected sampling variance of each indicator mean;
    # reduces to var(indicator, ddof=1)/accepted for equal weights.
    variances = (w_sq * (1.0 - block.masses) ** 2 + (sq_total - w_sq) * block.masses**2) / (1.0 - sq_total)
    return McEstimate(
        block=block,
        std_errors=np.sqrt(np.maximum(variances, 0.0)),
        accepted=draws.accepted,
        ess=draws.ess,
    )


def window_sweep(
    p: Distribution,
    h: MomentFunction,
    alpha: float,
    schedule: WindowSchedule,
    n_grid: list[int],
    m: int,
    samples: int,
    seed: int = 0,
    method: str = "tilt-importance",
) -> list[WindowSweepPoint]:
    """Condition on shrinking windows (alpha - eps_n, alpha + eps_n) along
    ``n_grid`` and estimate the distance to the product law of the tilt
    whose mean is alpha.

    The standard error of each TV estimate is the delta method's: with
    g_w = sign(phat_w - q_w) / 2 the TV's gradient in the estimated word
    masses phat, it is sqrt(sum_i w_i^2 (g[word_i] - sum_w g_w phat_w)^2)
    over the accepted draws i and their self-normalized weights w_i.  It
    holds for both methods.  It leaves out the plug-in bias, which matters
    only on words whose mass lies within a few standard errors of the
    product law's.
    """
    product = product_block_law(solve_moment_equality(p, h, [alpha]).tilted, m)

    points = []
    for i, n in enumerate(n_grid):
        eps = schedule.epsilon(n)
        c = MomentConstraint(h, "equality", [alpha], epsilon=eps)
        draws = _conditioned_draws(p, c, n, m, samples, method, seed, stream_index=i)
        block = BlockLaw(p.alphabet, m, draws.mass)
        tv = tv_distance(block, product)
        g = 0.5 * np.sign(block.masses - product.masses)
        se = math.sqrt(draws.mass_sq @ (g - g @ block.masses) ** 2)
        points.append(
            WindowSweepPoint(
                n=n,
                epsilon=float(eps),
                tv_estimate=float(tv),
                std_error=se,
                acceptance_rate=draws.accepted / samples,
                ess=draws.ess,
                method=method,
                seed=seed,
            )
        )
    return points


def rate_fit(records: list[tuple[int, float]]) -> RateFit:
    """Ordinary least squares of ln(tv) on ln(n).

    Needs at least 4 grid points and strictly positive tv values (a zero or
    negative estimate usually means the sample budget was too small).
    """
    if len(records) < 4:
        raise ValueError(f"rate fit needs >= 4 points, got {len(records)}")
    ns = np.array([n for n, _ in records], dtype=float)
    tvs = np.array([tv for _, tv in records], dtype=float)
    if np.any(tvs <= 0):
        raise ValueError("nonpositive tv entry; increase the sample budget")
    x = np.log(ns)
    y = np.log(tvs)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return RateFit(
        slope=float(slope),
        intercept=float(intercept),
        residual_rms=float(np.sqrt((resid**2).mean())),
    )
