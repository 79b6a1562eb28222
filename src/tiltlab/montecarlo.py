"""Monte Carlo window conditioning with shrinking-window schedules.

Two samplers estimate the conditional law of the first m coordinates of an
i.i.d. sequence given a windowed :class:`~tiltlab.tilting.MomentConstraint`:
the empirical mean of its scalar statistic lies in the open window.

* rejection: simulate from the baseline and keep sequences whose mean
  lands in the window,
* tilt-importance: simulate from the I-projection of the baseline onto
  the closed window (:func:`~tiltlab.tilting.i_project`: the baseline
  itself when its mean is in the window, otherwise the tilt to the nearest
  endpoint, where the conditional law of the sum piles up), keep the
  windowed sequences, and undo the tilt with self-normalized inverse
  likelihood-ratio weights exp(-lam*S + n*M(lam)).

Importance proposals turn the rare window event into a typical one, which
is what makes far-from-baseline targets tractable.  The weights still thin
out as n grows, but slowly: the effective sample size falls roughly like
n^(-1/2), not exponentially in n.  Both samplers draw only
the first m coordinates explicitly; the remaining n-m coordinates enter the
window statistic through their symbol counts, which have the same joint law
as materializing the tail.  On two symbols the tail's head count takes one
uniform per sequence, an O(1) Walker/Vose alias-table draw from
Binomial(n-m, p1); on more symbols the counts are one multinomial draw per
sequence.

A sequence is reduced to its type, the row of its symbol counts (the first
m symbols' counts plus the tail's), and kept when
:meth:`~tiltlab.tilting.MomentConstraint.holds_for_counts` accepts it.  The
exact oracle reduces its types the same way, so both condition on the
identical event, and a type's verdict does not depend on its symbols' order.
On two symbols the type is the head count j, so the verdicts and the
statistic are tabulated once per call over the n + 1 rows (n - j, j).

All randomness flows through counter-based streams keyed by (seed, stream
id), so estimates are bit-identical across runs for a fixed configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .rng import stream
from .simplex import Alphabet, BlockLaw, Distribution, check_word_cap, product_block_law, tv_distance, word_index
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
_CHUNK_CELLS = 4 * 10**6  # simulated coordinates per chunk; rows scale as 1/n


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
    effective sample size 1 / sum of squared normalized weights (the
    accepted count under rejection).
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


def _binomial_alias(trials: int, p0: float, p1: float) -> tuple[np.ndarray, np.ndarray]:
    """Walker/Vose alias table of Binomial(trials, p1) over its K = trials + 1
    cells: a draw picks cell j uniformly, keeps j with probability
    ``prob[j]`` and otherwise gives ``alias[j]``, so value j has mass
    (prob[j] + sum of 1 - prob[i] over the cells i aliased to j) / K.

    The masses follow the ratio pmf(j + 1) / pmf(j) = (trials - j) / (j + 1)
    * p1 / p0 out from the mode, where the unnormalized mass is 1, so none
    overflows, and are then normalized.  The odds take both masses, so a
    head mass that rounds to 1 still gives finite odds.  They share no code
    with the exact oracle's tables, so the sampler stays an independent
    check of it.
    """
    size = trials + 1
    odds = p1 / p0
    mode = min(trials, int(size * p1))
    mass = [0.0] * size
    mass[mode] = 1.0
    for j in range(mode, trials):
        mass[j + 1] = mass[j] * (trials - j) / (j + 1) * odds
    for j in range(mode, 0, -1):
        mass[j - 1] = mass[j] * j / (trials - j + 1) / odds
    total = math.fsum(mass)
    scaled = [size * x / total for x in mass]
    prob = np.ones(size)
    alias = np.arange(size)
    small = [j for j in range(size) if scaled[j] < 1.0]
    large = [j for j in range(size) if scaled[j] >= 1.0]
    while small and large:
        j, donor = small.pop(), large.pop()
        prob[j], alias[j] = scaled[j], donor
        scaled[donor] = (scaled[donor] + scaled[j]) - 1.0
        (small if scaled[donor] < 1.0 else large).append(donor)
    # A cell left in either list holds mass 1 up to rounding and keeps prob 1.
    return prob, alias


_Draw = Callable[[np.random.Generator, int], np.ndarray]


class _TypeSampler(NamedTuple):
    """``tail(rng, rows)`` draws the types of the last n - m symbols of
    ``rows`` proposals; ``holds`` and ``statistic`` give a type's verdict and
    its sum of h."""

    tail: _Draw
    holds: Callable[[np.ndarray], np.ndarray]
    statistic: Callable[[np.ndarray], np.ndarray]


def _type_sampler(law: Distribution, c: MomentConstraint, n: int, m: int) -> _TypeSampler:
    """Type draws and verdicts for proposals from ``law``.  On two symbols a
    type is the head count j, and its verdict and sum of h are looked up in
    tables over the n + 1 rows (n - j, j), built once with
    :meth:`~tiltlab.tilting.MomentConstraint.holds_for_counts`; the tail's
    head count takes one uniform per row, the alias-table draw of
    :func:`_binomial_alias`.  More symbols take ``rng.multinomial``, whose
    table over tail count rows would have C(n - m + k - 1, k - 1) cells,
    and reduce each count row on its own.
    """
    values = c.function.table[:, 0]
    trials = n - m
    if law.alphabet.size != 2:
        def multinomial(rng: np.random.Generator, rows: int) -> np.ndarray:
            return rng.multinomial(trials, law.masses, size=rows)  # zero trials use no draws
        return _TypeSampler(multinomial, c.holds_for_counts, lambda counts: counts @ values)
    heads = np.arange(n + 1)
    types = np.stack([n - heads, heads], axis=1)
    prob, alias = _binomial_alias(trials, *law.masses.tolist())
    upper = np.arange(trials + 1) + prob  # u*K below cell j's upper end keeps j

    def tail(rng: np.random.Generator, rows: int) -> np.ndarray:
        u = rng.random(rows) * (trials + 1)
        cell = u.astype(np.intp)  # floor, since u >= 0
        return np.where(u < upper[cell], cell, alias[cell])

    return _TypeSampler(tail, c.holds_for_counts(types).take, (types @ values).take)


def _draw_window_batch(
    rng: np.random.Generator, law: Distribution, m: int, rows: int, tail: _Draw
) -> tuple[np.ndarray, np.ndarray]:
    """First-m symbols and whole-sequence types for one chunk: the types from
    ``tail`` plus the first m symbols.  On two symbols a symbol is
    ``u >= p0``, equal bit for bit to ``searchsorted`` on the cumulative
    masses [p0, 1.0], and adds to the head count."""
    u = rng.random((rows, m))
    types = tail(rng, rows)
    if law.alphabet.size == 2:
        first = u >= law.masses[0]
        for column in first.T:
            types += column
        return first, types
    cum = np.cumsum(law.masses)
    cum[-1] = 1.0
    first = np.searchsorted(cum, u, side="right")
    for symbol, tally in enumerate(types.T):  # each tally is a view into types
        for column in first.T:
            tally += column == symbol
    return first, types


def _conditioned_draws(
    p: Distribution,
    c: MomentConstraint,
    n: int,
    m: int,
    samples: int,
    method: str,
    seed: int,
    stream_index: int,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Accepted draws in proposal order: encoded first-m words, their
    self-normalized weights and the weights' effective sample size."""
    if p.alphabet != c.function.alphabet:
        raise ValueError("constraint and baseline live on different alphabets")
    if not p.strictly_positive:
        raise ValueError("baseline law must be strictly positive")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    lo, hi = c.window
    if samples < MIN_SAMPLES:
        raise ValueError(f"samples must be >= {MIN_SAMPLES}, got {samples}")
    if not (1 <= m <= n):
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    check_word_cap(p.alphabet.size, m)

    if method == "rejection":
        proposal, lam, logz = p, 0.0, 0.0
    else:
        solution = i_project(p, c)
        proposal = solution.tilted
        lam = float(solution.multiplier[0])
        logz = solution.log_partition

    rng = stream(seed, _METHOD_STREAM[method] + 2 * stream_index)
    chunk_rows = min(samples, max(1, _CHUNK_CELLS // max(n, 1)))
    sampler = _type_sampler(proposal, c, n, m)
    kept_words: list[np.ndarray] = []
    kept_sums: list[np.ndarray] = []
    remaining = samples
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        remaining -= rows
        first, types = _draw_window_batch(rng, proposal, m, rows, sampler.tail)
        keep = sampler.holds(types)
        if keep.any():
            kept_words.append(word_index(first[keep], p.alphabet.size, m))
            if method != "rejection":  # only the importance weights read the statistic
                kept_sums.append(sampler.statistic(types[keep]))

    del first, types, keep  # release the last chunk before the accepted draws are joined
    if not kept_words:
        raise LowEffectiveSampleError(
            f"0 of {samples} proposals landed in ({lo}, {hi}); "
            "try the tilt-importance method or a wider window"
        )
    word_idx = np.concatenate(kept_words)
    del kept_words  # release the chunk copies before the weights are built
    if method == "rejection":
        weights = np.full(word_idx.size, 1.0 / word_idx.size)
    else:
        sums = np.concatenate(kept_sums)
        del kept_sums
        # Inverse likelihood ratio of the whole sequence, self-normalized.
        log_w = -lam * sums + n * logz
        log_w -= log_w.max()
        weights = np.exp(np.maximum(log_w, -700.0))
        weights /= weights.sum()
    ess = 1.0 / float((weights**2).sum())
    if ess < MIN_ESS:
        raise LowEffectiveSampleError(
            f"effective sample size {ess:.1f} < {MIN_ESS:.0f} at n = {n}; "
            "increase samples or lower n (whole-sequence importance weights "
            "thin out as n grows)"
        )
    return word_idx, weights, ess


def _law_from(word_idx: np.ndarray, weights: np.ndarray, alphabet: Alphabet, m: int) -> BlockLaw:
    mass = np.bincount(word_idx, weights=weights, minlength=alphabet.size**m)
    return BlockLaw(alphabet, m, mass / mass.sum())


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
    sequence from ``p``, conditioned on the windowed constraint ``c``: its
    h-mean lies in the open window ``c.window``.

    ``samples`` is the number of proposal sequences.  Raises ValueError
    when ``c`` carries no window or lives on another alphabet than ``p``,
    and :class:`LowEffectiveSampleError` when the effective sample size is
    below 50, nothing landing in the window included.
    """
    word_idx, weights, ess = _conditioned_draws(p, c, n, m, samples, method, seed, stream_index=0)
    block = _law_from(word_idx, weights, p.alphabet, m)
    sq_total = 1.0 / ess  # the sum of squared weights
    w_sq = np.bincount(word_idx, weights=weights**2, minlength=block.masses.size)
    # Weighted Bessel-corrected sampling variance of each indicator mean;
    # reduces to var(indicator, ddof=1)/accepted for equal weights.
    variances = (w_sq * (1.0 - block.masses) ** 2 + (sq_total - w_sq) * block.masses**2) / (1.0 - sq_total)
    return McEstimate(
        block=block,
        std_errors=np.sqrt(np.maximum(variances, 0.0)),
        accepted=int(word_idx.size),
        ess=ess,
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
        word_idx, weights, ess = _conditioned_draws(p, c, n, m, samples, method, seed, stream_index=i)
        block = _law_from(word_idx, weights, p.alphabet, m)
        tv = tv_distance(block, product)
        g = 0.5 * np.sign(block.masses - product.masses)
        weights **= 2  # in place: nothing reads the weights again, and they can fill 8 MB
        w_sq = np.bincount(word_idx, weights=weights, minlength=g.size)
        se = math.sqrt(w_sq @ (g - g @ block.masses) ** 2)
        points.append(
            WindowSweepPoint(
                n=n,
                epsilon=float(eps),
                tv_estimate=float(tv),
                std_error=se,
                acceptance_rate=word_idx.size / samples,
                ess=ess,
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
