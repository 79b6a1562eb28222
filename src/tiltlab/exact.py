"""Exact finite-sample conditioning by enumeration of type classes.

A type is the count vector of a length-n sequence: a row of symbol counts
whose sum is n.  Enumerating all types of a given size makes three exact
computations possible on small alphabets:

* the multinomial probability of each type and its entropy-based sandwich
  bounds (Sanov / method-of-types estimates),
* the law of the first m coordinates of a uniformly random sequence with a
  given type (a multiple hypergeometric, i.e. sampling without
  replacement), together with its collision-coupling distance bound
  m(m-1)/(2n) from the i.i.d. product of the type's frequencies,
* the exact conditional block law given that the empirical measure
  satisfies a moment constraint, as the Sanov-weighted mixture of those
  hypergeometric laws.

Conditioned on a constraint, the types grow one symbol at a time and a
prefix grows on only while some completion can still meet the constraint,
so the cost tracks the feasible types rather than all C(n+k-1, k-1).

These are the verification oracles against which both the tilt solver's
limit law and the Monte Carlo samplers are checked.  Everything here but
:func:`entropy_concentration`, which samples types, is deterministic and
exact up to floating point; all weights are accumulated in log-domain
because type probabilities decay exponentially.

The per-type functions take an integer count table with one type per row
and return one value per row; the two hypergeometric functions take one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterator

import numpy as np

from .rng import stream
from .simplex import Alphabet, BlockLaw, Distribution, EnumerationCapError, check_word_cap, product_block_law, tv_distance
from .tilting import LATTICE_TOL, InfeasibleConstraintError, MomentConstraint, i_project

__all__ = [
    "ConditionalWeights",
    "ConvergenceRecord",
    "enumerate_types",
    "type_log_prob",
    "sanov_bounds_check",
    "conditional_weights",
    "hypergeometric_block_law",
    "hypergeometric_tv_check",
    "conditional_block_law",
    "convergence_sweep",
    "entropy_concentration",
    "EntropyConcentrationReport",
]

DEFAULT_TYPE_CAP = 5 * 10**7
WEIGHT_SUM_TOL = 1e-10
SANOV_SLACK_TOL = 1e-9  # rounding slack of each side of the Sanov sandwich, in nats
COUPLING_TV_TOL = 1e-12  # rounding slack of the collision-coupling TV bound
FEASIBLE_PROBE_LIMIT = 400  # largest size probed for the smallest feasible n
# Rows per block of the type table and per table of prefixes grown for it, and
# 4 times the cells per (type, count class) table of the block mixture: a few
# hundred KiB of temporaries, so neither raises the peak resident set.
_BLOCK_ROWS = 1 << 12


@dataclass(frozen=True)
class ConditionalWeights:
    """The conditional law of the type given that it satisfies a constraint.

    ``types`` is a read-only (T, k) integer count table: row i holds the
    symbol counts of the i-th feasible type of size n, in lexicographic
    order.  ``weights[i]`` is Pr(type = types[i] | constraint holds); they
    sum to 1.  ``event_log_prob`` is the log-probability of the
    conditioning event itself under the baseline.
    """

    constraint: MomentConstraint
    n: int
    types: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    event_log_prob: float = 0.0

    def __post_init__(self) -> None:
        types = np.array(self.types)
        weights = np.array(self.weights, dtype=float)
        if types.shape != (len(weights), self.constraint.function.alphabet.size):
            raise ValueError("one count row of length k per weight required")
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if abs(float(weights.sum()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights sum to {weights.sum()}, expected 1")
        types.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "types", types)
        object.__setattr__(self, "weights", weights)


@dataclass(frozen=True)
class TvCheck:
    """Outcome of a total-variation bound check."""

    passed: bool
    tv: float
    bound: float


@dataclass(frozen=True)
class ConvergenceRecord:
    """One grid point of an exact convergence sweep.

    ``tv`` is the exact distance between the conditional block law and the
    m-fold product of the projected law; ``envelope_thm`` is the fitted
    C*(m/n^(1/3) + m^2/n) display envelope, ``envelope_alt`` the
    constant-free m*sqrt(ln n / n) + m(m-1)/(2n) envelope, and
    ``bad_mass`` the conditional weight of types farther than ``delta``
    from the projection in L1.
    """

    n: int
    m: int
    tv: float
    envelope_thm: float
    envelope_alt: float
    bad_mass: float
    delta: float


def _type_rows(counts, alphabet: Alphabet, p: Distribution | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``counts`` as a (T, k) table of types on ``alphabet``, and each row's
    size n, after checking the table and, when given, that ``p`` is a strictly
    positive law on the same alphabet."""
    if p is not None:
        if p.alphabet.labels != alphabet.labels:
            raise ValueError("types and baseline live on different alphabets")
        if not p.strictly_positive:
            raise ValueError("baseline law must be strictly positive")
    counts = np.asarray(counts)
    if counts.dtype.kind not in "iu":
        raise ValueError(f"counts must be nonnegative integers, got dtype {counts.dtype}")
    if counts.ndim != 2 or counts.shape[1] != alphabet.size:
        raise ValueError(f"count table has shape {counts.shape}, expected (T, {alphabet.size})")
    counts = counts.astype(np.int64, copy=False)
    if counts.min(initial=0) < 0:
        raise ValueError("counts must be nonnegative integers")
    n = counts @ np.ones(alphabet.size, dtype=np.int64)  # a product, not sum(axis=1): several times faster
    if n.min(initial=1) < 1:
        raise ValueError("type size n must be >= 1")
    return counts, n


def type_space_size(k: int, n: int) -> int:
    """Number of types of size n on k symbols: C(n+k-1, k-1)."""
    return math.comb(n + k - 1, k - 1)


def enumerate_types(k: int, n: int) -> Iterator[np.ndarray]:
    """Every type of size ``n`` on k symbols as int64 rows of counts, in
    lexicographic order and in blocks of at most ``_BLOCK_ROWS`` rows.

    The rows grow one symbol at a time: a prefix with r counts left has the
    children 0..r, and the last symbol takes what is left.  Refuses upfront,
    before any allocation, when C(n+k-1, k-1) exceeds ``DEFAULT_TYPE_CAP``.
    """
    return _types(k, n, None)


def _types(k: int, n: int, c: MomentConstraint | None) -> Iterator[np.ndarray]:
    """The blocks of :func:`enumerate_types`, after its cap check; given a
    constraint ``c``, only the prefixes that some completion can bring into
    ``c``'s box of sums grow, so the rows are a superset of the types that
    meet ``c``, in the same order, and a size with none may yield no block."""
    if n < 1:
        raise ValueError(f"type size must be >= 1, got {n}")
    count = type_space_size(k, n)
    if count > DEFAULT_TYPE_CAP:
        raise EnumerationCapError(f"{count} types of size {n} on {k} symbols exceed the cap of {DEFAULT_TYPE_CAP}")
    return _grow(np.empty((1, 0), dtype=np.int64), np.array([n]), k, None if c is None else _reachable(c, n))


def _reachable(c: MomentConstraint, n: int) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Which prefixes of size-n types, with their counts left, some completion
    can bring into n times ``c``'s closed box of means, :attr:`~MomentConstraint.bounds`,
    widened by 4n times the tolerance of :meth:`MomentConstraint.holds`, far
    more than the rounding of any sum.  A prefix of j symbols with sums s of h
    and r counts left reaches s + r [min, max] of h over the symbols from j on."""
    h = c.function.table
    lo, hi = c.bounds
    slack = 4 * n * LATTICE_TOL * max(1.0, float(np.abs(h).max()))
    lo, hi = n * lo - slack, n * hi + slack
    least = np.minimum.accumulate(h[::-1])[::-1]  # least[j]: min of h over the symbols j..k-1
    most = np.maximum.accumulate(h[::-1])[::-1]

    def keep(prefixes: np.ndarray, left: np.ndarray) -> np.ndarray:
        j = prefixes.shape[1]
        sums = prefixes @ h[:j]
        left = left[:, None]
        return np.all((sums + left * most[j] >= lo) & (sums + left * least[j] <= hi), axis=1)

    return keep


def _grow(prefixes: np.ndarray, left: np.ndarray, k: int, keep: Callable | None) -> Iterator[np.ndarray]:
    """Blocks of every type that extends a row of ``prefixes`` by its ``left``
    counts, in lexicographic order, growing only the children that ``keep``
    (None: all) accepts.  The prefixes are cut into runs whose children fill
    one block; a prefix with more children is a run of its own."""
    if prefixes.shape[1] == k - 1:
        yield np.column_stack((prefixes, left))
        return
    ends = np.cumsum(left + 1)
    start = 0
    while start < len(left):
        first = ends[start] - left[start] - 1  # children of the prefixes before this run
        stop = max(start + 1, int(np.searchsorted(ends, first + _BLOCK_ROWS, side="right")))
        sizes = left[start:stop] + 1
        total = int(ends[stop - 1] - first)
        for lo in range(0, total, _BLOCK_ROWS):  # more than once only for a run of one prefix
            hi = min(lo + _BLOCK_ROWS, total)
            repeats = sizes if stop - start > 1 else hi - lo
            counts = np.arange(lo, hi) - np.repeat(ends[start:stop] - sizes - first, repeats)
            children = np.column_stack((np.repeat(prefixes[start:stop], repeats, axis=0), counts))
            rest = np.repeat(left[start:stop], repeats) - counts
            if keep is not None:
                grown = keep(children, rest)
                children, rest = children[grown], rest[grown]
            if len(rest):
                yield from _grow(children, rest, k, keep)
        start = stop


@lru_cache(maxsize=None)
def _log_factorials(size: int) -> np.ndarray:
    """ln i! for i < ``size``, a power of two so that few tables are made, by ``math.lgamma``."""
    table = np.array([math.lgamma(i + 1.0) for i in range(size)])
    table.flags.writeable = False  # one cached table serves every caller
    return table


def type_log_prob(counts, p: Distribution) -> np.ndarray:
    """Exact multinomial log-probability of each row of counts under ``p``."""
    counts, n = _type_rows(counts, p.alphabet, p)
    log_factorial = _log_factorials(1 << int(n.max(initial=0)).bit_length())
    return log_factorial[n] - log_factorial[counts].sum(axis=1) + (counts * np.log(p.masses)).sum(axis=1)


def _divergences(freq: np.ndarray, p: Distribution) -> np.ndarray:
    """D(q||p) in nats of each row q of frequencies, with 0 ln 0 = 0;
    ``p`` must be strictly positive."""
    return (freq * (np.log(np.where(freq > 0, freq, 1.0)) - np.log(p.masses))).sum(axis=1)


def sanov_bounds_check(counts, p: Distribution) -> np.ndarray:
    """Check the type-probability sandwich on each row, in log-domain.

        (n+1)^(-k) exp(-n D(Q||P))  <=  Pr(type = Q)  <=  exp(-n D(Q||P))

    where Q is the row's frequency view, and return whether each row passes.
    A side passes when its log-scale slack, the margin by which it holds, is
    at least -``SANOV_SLACK_TOL``.
    """
    counts, n = _type_rows(counts, p.alphabet, p)
    log_prob = type_log_prob(counts, p)
    divergence = n * _divergences(counts / n[:, None], p)
    upper_slack = -divergence - log_prob
    lower_slack = log_prob - (-p.alphabet.size * np.log(n + 1) - divergence)
    return (upper_slack >= -SANOV_SLACK_TOL) & (lower_slack >= -SANOV_SLACK_TOL)


def conditional_weights(p: Distribution, c: MomentConstraint, n: int) -> ConditionalWeights:
    """Exact Sanov weights: the multinomial law of the type, conditioned on
    the constraint and renormalized in log-domain.

    Raises :class:`InfeasibleConstraintError` when no size-n type is feasible,
    naming the smallest feasible size up to ``FEASIBLE_PROBE_LIMIT`` if one
    exists.
    """
    k = p.alphabet.size
    _type_rows(np.empty((0, k), dtype=int), c.function.alphabet, p)  # checks p before enumerating
    blocks = [block[c.holds_for_counts(block)] for block in _types(k, n, c)]
    rows = np.concatenate([np.empty((0, k), dtype=np.int64), *blocks])
    if not len(rows):
        hint = ""
        smallest = _smallest_feasible_n(k, c)
        if smallest is not None:
            hint = f"; smallest feasible size is n = {smallest}"
        raise InfeasibleConstraintError(f"no type of size {n} satisfies the constraint{hint}")
    log_probs = type_log_prob(rows, p)
    top = log_probs.max()
    total = top + np.log(np.exp(log_probs - top).sum())
    weights = np.exp(log_probs - total)
    weights /= weights.sum()
    return ConditionalWeights(constraint=c, n=n, types=rows, weights=weights, event_log_prob=float(total))


def _smallest_feasible_n(k: int, c: MomentConstraint) -> int | None:
    for n in range(1, FEASIBLE_PROBE_LIMIT + 1):
        if type_space_size(k, n) > 10**6:
            return None
        if any(c.holds_for_counts(block).any() for block in _types(k, n, c)):
            return n
    return None


@lru_cache(maxsize=64)
def _word_classes(k: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The count classes of length-m words (the types of size m, as rows of
    counts, in lexicographic order) and each word's class index, in the word
    order of BlockLaw; refuses more than ``DEFAULT_WORD_CAP`` words.

    The (k^m, k) table of each word's symbol counts, in a small integer
    dtype, grows one leading symbol at a time: the words of length i + 1
    starting with symbol j count one j more than the words of length i.  A
    stable sort of its rows and the boundaries of the runs of equal rows
    give the classes and each word's index.
    """
    check_word_cap(k, m)
    tally = np.zeros((1, k), dtype=np.min_scalar_type(m))
    for _ in range(m):
        tally = (np.eye(k, dtype=tally.dtype)[:, None] + tally).reshape(-1, k)
    order = np.lexsort(tally.T[::-1])
    ranked = tally[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    classes = ranked[first]
    classes.flags.writeable = inverse.flags.writeable = False  # one cached pair serves every caller
    return classes, inverse


def _hypergeometric_mixture(k: int, rows: np.ndarray, weights, n: int, m: int) -> np.ndarray:
    """Word masses of the ``weights``-mixture of sampling without
    replacement from each type (row of counts) of size n.

    A word's mass prod_j (n_j)_{c_j} / (n)_m depends only on its symbol
    counts c, so each block of types gets one table of falling-factorial
    products over (type, count class), built one symbol at a time; its rows
    are weighted and added to the total in type order, and the total is
    then expanded to the words.  The products are int64 while n^m < 2^62,
    where none overflows, and Python ints past that, so the division by
    (n)_m rounds each exact product once either way.
    """
    classes, inverse = _word_classes(k, m)
    denom = math.prod(range(n, n - m, -1))
    dtype = np.int64 if n**m < 2**62 else object
    rows = np.asarray(rows).astype(dtype)
    weights = np.asarray(weights, dtype=float)
    steps = np.arange(m).astype(dtype)
    block = max(1, _BLOCK_ROWS * 4 // len(classes))
    total = np.zeros(len(classes))
    for start in range(0, len(rows), block):
        pool = np.maximum(rows[start : start + block, :, None] - steps, 0)
        falling = np.ones((len(pool), k, m + 1), dtype=dtype)  # falling[t, j, c] = (n_j)_c of type t
        falling[:, :, 1:] = np.cumprod(pool, axis=2)
        products = falling[:, 0, classes[:, 0]]
        for j in range(1, k):
            products *= falling[:, j, classes[:, j]]
        weighted = weights[start : start + block, None] * np.asarray(products / denom, dtype=float)
        weighted[0] += total
        total = np.add.accumulate(weighted, axis=0)[-1]  # sequential, unlike add.reduce
    return total[inverse]


def hypergeometric_block_law(alphabet: Alphabet, counts, m: int) -> BlockLaw:
    """Exact law of the first m coordinates of a uniform sequence whose
    type is the row ``counts``.

    The mass of a word is prod_j (n_j)_{c_j} / (n)_m with c_j the word's
    symbol counts: sampling without replacement from the pool of counts.
    """
    (row,), (n,) = _type_rows(np.asarray(counts)[None], alphabet)
    if m < 1:
        raise ValueError(f"block length must be >= 1, got {m}")
    if m > n:
        raise ValueError(f"block length {m} exceeds the type size {n}")
    return BlockLaw(alphabet, m, _hypergeometric_mixture(alphabet.size, [row], [1.0], int(n), m))


def hypergeometric_tv_check(counts, m: int) -> TvCheck:
    """Check the collision-coupling bound TV <= m(m-1)/(2n) on the type
    ``counts`` (one row) of size n."""
    counts = np.asarray(counts)
    alphabet = Alphabet.of_size(counts.size)
    law = hypergeometric_block_law(alphabet, counts, m)
    n = int(counts.sum())
    tv = tv_distance(law, product_block_law(Distribution(alphabet, counts / n), m))
    bound = m * (m - 1) / (2 * n)
    return TvCheck(passed=bool(tv <= bound + COUPLING_TV_TOL), tv=float(tv), bound=float(bound))


def conditional_block_law(
    p: Distribution,
    c: MomentConstraint,
    n: int,
    m: int,
) -> BlockLaw:
    """Exact conditional law of the first m coordinates given the constraint.

    Mixture of the per-type sampling-without-replacement laws under the
    exact conditional type weights.
    """
    weights = conditional_weights(p, c, n)
    return _block_from_weights(weights, m)


def _block_from_weights(weights: ConditionalWeights, m: int) -> BlockLaw:
    alphabet = weights.constraint.function.alphabet
    if m > weights.n:
        raise ValueError(f"block length {m} exceeds the sequence length {weights.n}")
    total = _hypergeometric_mixture(alphabet.size, weights.types, weights.weights, weights.n, m)
    return BlockLaw(alphabet, m, total / total.sum())


def convergence_sweep(
    p: Distribution,
    c: MomentConstraint,
    m: int,
    n_grid: list[int],
) -> list[ConvergenceRecord]:
    """Exact distance of the conditional block law to the projected product
    law along a grid of sample sizes, with both rate envelopes.

    ``delta`` is pinned to n^(-1/3); ``bad_mass`` is the conditional weight
    of types farther than delta from the projection in L1.  The display
    envelope constant is fitted as the max of tv over the constant-free
    rate shape across the grid.
    """
    star = i_project(p, c).tilted
    target_block = product_block_law(star, m)

    raw: list[tuple[int, float, float, float]] = []
    for n in n_grid:
        weights = conditional_weights(p, c, n)
        block = _block_from_weights(weights, m)
        tv = tv_distance(block, target_block)
        delta = n ** (-1.0 / 3.0)
        dists = np.abs(weights.types / n - star.masses).sum(axis=1)
        bad_mass = float(weights.weights[dists > delta].sum())
        raw.append((n, tv, delta, bad_mass))

    shape = [m / n ** (1.0 / 3.0) + m * m / n for n, *_ in raw]
    const = max(tv / s for (_, tv, *_), s in zip(raw, shape)) if raw else 0.0
    records = []
    for (n, tv, delta, bad_mass), s in zip(raw, shape):
        records.append(
            ConvergenceRecord(
                n=n,
                m=m,
                tv=float(tv),
                envelope_thm=float(const * s),
                envelope_alt=float(m * math.sqrt(math.log(n) / n) + m * (m - 1) / (2 * n)),
                bad_mass=bad_mass,
                delta=float(delta),
            )
        )
    return records


@dataclass(frozen=True)
class EntropyConcentrationReport:
    """Monte Carlo coverage of an entropy interval for multinomial types.

    ``delta_h`` is the divergence of the sampled frequency vector from the
    baseline (for a uniform baseline this equals ln k minus the entropy);
    ``q95`` is its 95th percentile on the 2 N delta_h scale, which is
    approximately chi-squared with k-1 degrees of freedom for large N.
    """

    n_per_sample: int
    samples: int
    seed: int
    interval: tuple[float, float]
    coverage: float
    q95: float


def entropy_concentration(
    p: Distribution,
    n_per_sample: int,
    samples: int,
    seed: int,
    interval: tuple[float, float],
) -> EntropyConcentrationReport:
    """Sample multinomial types of size N and report how the entropy of the
    empirical frequencies concentrates.

    Returns the fraction of sampled entropies inside ``interval`` and the
    empirical 95th percentile of 2 N delta_h.
    """
    if n_per_sample < 1 or samples < 1:
        raise ValueError("n_per_sample and samples must be >= 1")
    rng = stream(seed, 0)
    counts = rng.multinomial(n_per_sample, p.masses, size=samples)
    freq = counts / n_per_sample
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(freq > 0, freq * np.log(freq), 0.0)
        plogq = np.where(freq > 0, freq * np.log(p.masses)[None, :], 0.0)
    entropies = -plogp.sum(axis=1)
    delta_h = (plogp - plogq).sum(axis=1)
    lo, hi = interval
    coverage = float(((entropies >= lo) & (entropies <= hi)).mean())
    return EntropyConcentrationReport(
        n_per_sample=n_per_sample,
        samples=samples,
        seed=seed,
        interval=(float(lo), float(hi)),
        coverage=coverage,
        q95=float(np.quantile(2.0 * n_per_sample * delta_h, 0.95)),
    )
