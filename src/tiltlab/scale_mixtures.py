"""Exchangeable Gaussian location-scale mixtures and moment conditioning.

A mixing law G draws a latent pair (M, V) once per sequence; the
coordinates are then conditionally i.i.d. N(M, V).  Sequences are
exchangeable but not i.i.d. across the mixture, and the latent pair is
recoverable as the almost-sure limit of the empirical mean and variance.

Two checks connect this to the discrete tilting machinery:

* the characteristic function of a single coordinate is the closed-form
  variance-mixture integral of Gaussian CFs (radial symmetry), checked
  against its Monte Carlo estimate;
* conditioning a long sequence on its empirical mean and variance lying in
  small windows around (m, v) drives the pooled law of leading coordinates
  to N(m, v) -- the two-moment analogue of window conditioning on finite
  alphabets, measured with a Kolmogorov-Smirnov distance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .montecarlo import LowEffectiveSampleError
from .rng import stream

__all__ = [
    "MixingLaw",
    "RealSample",
    "CfCheckReport",
    "TwoMomentReport",
    "sample_gsm",
    "empirical_limits",
    "radial_cf_check",
    "condition_two_moments",
]

_STREAM_SAMPLE = 10
_STREAM_CF = 11
_STREAM_CONDITION = 12
# Rows per sampling tile are this over (block + 1), the cells drawn per row:
# small enough for a tile's arrays to stay in cache.
_TILE_CELLS = 2**16


@dataclass(frozen=True)
class MixingLaw:
    """A law for the latent (mean, variance) pair of a Gaussian mixture.

    Kinds: "point" (a single pair), "finite-discrete" (finitely many
    weighted pairs), "inverse-gamma" (variance inverse-gamma distributed,
    mean fixed).  All variances must be strictly positive.
    """

    kind: str
    atoms: tuple[tuple[float, float, float], ...] = ()  # (mean, variance, weight)
    shape: float = 0.0
    scale: float = 0.0
    mean: float = 0.0

    def __post_init__(self) -> None:
        if self.kind in ("point", "finite-discrete"):
            if not self.atoms:
                raise ValueError("discrete mixing laws need at least one atom")
            if any(v <= 0 for _, v, _ in self.atoms):
                raise ValueError("variance atoms must be strictly positive")
            if any(w < 0 for *_, w in self.atoms):
                raise ValueError("atom weights must be nonnegative")
            total = sum(w for *_, w in self.atoms)
            if abs(total - 1.0) > 1e-12:
                raise ValueError(f"atom weights sum to {total}, expected 1")
            if self.kind == "point" and len(self.atoms) != 1:
                raise ValueError("a point mixing law has exactly one atom")
        elif self.kind == "inverse-gamma":
            if self.shape <= 0 or self.scale <= 0:
                raise ValueError("inverse-gamma mixing needs shape > 0 and scale > 0")
        else:
            raise ValueError(f"unknown mixing kind {self.kind!r}")

    @classmethod
    def point(cls, mean: float, variance: float) -> "MixingLaw":
        return cls(kind="point", atoms=((mean, variance, 1.0),))

    @classmethod
    def discrete(cls, atoms: list[tuple[float, float, float]]) -> "MixingLaw":
        return cls(kind="finite-discrete", atoms=tuple(atoms))

    @classmethod
    def inverse_gamma(cls, shape: float, scale: float, mean: float = 0.0) -> "MixingLaw":
        return cls(kind="inverse-gamma", shape=shape, scale=scale, mean=mean)

    def draw_latents(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` independent (mean, variance) pairs."""
        if self.kind == "inverse-gamma":
            variances = self.scale / rng.gamma(self.shape, 1.0, size=size)
            return np.full(size, self.mean), variances
        means = np.array([a[0] for a in self.atoms])
        variances = np.array([a[1] for a in self.atoms])
        weights = np.array([a[2] for a in self.atoms])
        idx = rng.choice(len(self.atoms), size=size, p=weights / weights.sum())
        return means[idx], variances[idx]

    def cf_real(self, t: float) -> float:
        """Real part of the characteristic function of one coordinate."""
        if self.kind == "inverse-gamma":
            if t == 0.0:
                return math.cos(t * self.mean)
            return math.cos(t * self.mean) * _inverse_gamma_laplace(self.shape, 0.5 * self.scale * t * t)
        return sum(
            w * math.cos(t * m) * math.exp(-0.5 * v * t * t) for m, v, w in self.atoms
        )


def _inverse_gamma_laplace(shape: float, bs: float) -> float:
    """E exp(-sV) for V ~ InvGamma(shape, b), as a function of bs = b * s > 0.

    The closed form is f_a = 2 (bs)^{a/2} K_a(2 sqrt(bs)) / Gamma(a).  It is
    evaluated directly at orders up to 2 and carried up to ``shape`` by the
    recurrence f_{v+1} = f_v + bs f_{v-1} / (v (v - 1)), which follows from
    K_{v+1} = K_{v-1} + (2v/z) K_v.  Its terms are all positive, and no Bessel
    value of a large order is formed, so nothing overflows.
    """
    z = 2.0 * math.sqrt(bs)

    def direct(order: float) -> float:
        scaled = special.kve(order, z)  # K_order(z) e^z
        if math.isinf(scaled):
            # Only for order near 2 and bs below about 1e-300, where
            # f = 1 - bs / (order - 1) rounds to 1.
            return 1.0
        return math.exp(
            math.log(2.0) + 0.5 * order * math.log(bs) + math.log(scaled) - z - special.gammaln(order)
        )

    if shape <= 2.0:
        return direct(shape)
    order = shape - math.ceil(shape) + 2.0  # in (1, 2], a whole number of steps below shape
    lower, value = direct(order - 1.0), direct(order)
    for _ in range(math.ceil(shape) - 2):
        lower, value = value, value + bs * lower / (order * (order - 1.0))
        order += 1.0
    return value


@dataclass(frozen=True)
class RealSample:
    """One simulated sequence, with the latent pair that generated it."""

    values: np.ndarray = field(repr=False)
    seed: int = 0
    latent: tuple[float, float] = (0.0, 1.0)

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return int(self.values.size)


def sample_gsm(g: MixingLaw, n: int, seed: int = 0) -> RealSample:
    """Simulate one exchangeable sequence: draw (M, V) once, then n
    conditionally i.i.d. N(M, V) coordinates."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = stream(seed, _STREAM_SAMPLE)
    means, variances = g.draw_latents(rng, 1)
    mean, variance = float(means[0]), float(variances[0])
    values = mean + math.sqrt(variance) * rng.standard_normal(n)
    return RealSample(values=values, seed=seed, latent=(mean, variance))


def empirical_limits(s: RealSample) -> tuple[float, float]:
    """Empirical mean and (biased, 1/n) empirical variance of a sequence."""
    if s.n < 2:
        raise ValueError("variance needs at least 2 observations")
    mean = float(s.values.mean())
    variance = float(((s.values - mean) ** 2).mean())
    return mean, variance


@dataclass(frozen=True)
class CfCheckReport:
    """Empirical vs closed-form characteristic function on a t-grid."""

    t_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    exact: tuple[float, ...]
    max_deviation: float
    max_imaginary: float
    samples: int
    seed: int


def radial_cf_check(
    g: MixingLaw,
    t_grid: tuple[float, ...] = (0.0, 0.5, 1.0, 2.0),
    samples: int = 10**5,
    seed: int = 0,
) -> CfCheckReport:
    """Compare the Monte Carlo characteristic function of one coordinate
    against the closed-form variance-mixture integral.

    Each draw carries a fresh latent pair, so the empirical CF targets the
    mixture (not a single Gaussian).  Reports the worst absolute deviation
    of the real part over the grid and the largest imaginary part (which
    should vanish for centered mixings).
    """
    rng = stream(seed, _STREAM_CF)
    means, variances = g.draw_latents(rng, samples)
    x = means + np.sqrt(variances) * rng.standard_normal(samples)
    empirical = []
    exact = []
    max_imag = 0.0
    for t in t_grid:
        empirical.append(float(np.cos(t * x).mean()))
        max_imag = max(max_imag, abs(float(np.sin(t * x).mean())))
        exact.append(g.cf_real(t))
    deviations = [abs(a - b) for a, b in zip(empirical, exact)]
    return CfCheckReport(
        t_grid=tuple(float(t) for t in t_grid),
        empirical=tuple(empirical),
        exact=tuple(exact),
        max_deviation=max(deviations),
        max_imaginary=max_imag,
        samples=samples,
        seed=seed,
    )


@dataclass(frozen=True)
class TwoMomentReport:
    """Outcome of conditioning on empirical mean and variance windows.

    ``ks_statistic`` is the one-sample Kolmogorov-Smirnov distance of the
    pooled leading coordinates of the accepted sequences from the Gaussian
    with the target moments.
    """

    targets: tuple[float, float]
    epsilon: float
    n: int
    block: int
    samples: int
    accepted: int
    acceptance_rate: float
    pooled: int
    ks_statistic: float
    seed: int


def _ks_normal(sample: np.ndarray, mean: float, sd: float) -> float:
    """One-sample Kolmogorov-Smirnov distance of ``sample`` from N(mean, sd^2).

    The two one-sided distances of the sorted sample's CDF values from the
    empirical step function, as ``scipy.stats.kstest`` computes them,
    without its p-value.
    """
    cdf = special.ndtr((np.sort(sample) - mean) / sd)
    size = cdf.size
    d_plus = (np.arange(1.0, size + 1) / size - cdf).max()
    d_minus = (cdf - np.arange(0.0, size) / size).max()
    return float(max(d_plus, d_minus))


def _draw_tile(g: MixingLaw, n: int, block: int, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
    """One tile of :func:`_accepted_blocks`' draws: the first ``block`` coordinates
    of ``rows`` sequences, and each one's empirical mean and (1/n) variance."""
    rest = n - block
    means, variances = g.draw_latents(rng, rows)
    scales = np.sqrt(variances)
    lead = means[:, None] + scales[:, None] * rng.standard_normal((rows, block))
    total = lead.sum(axis=1)
    squares = np.square(lead - total[:, None] / block).sum(axis=1)
    if rest:
        tail = rest * means + math.sqrt(rest) * scales * rng.standard_normal(rows)
        if rest >= 2:
            squares += variances * rng.chisquare(rest - 1, rows)
        squares += (block * rest / n) * np.square(total / block - tail / rest)
        total += tail
    return lead, total / n, squares / n


def _accepted_blocks(
    g: MixingLaw,
    targets: tuple[float, float],
    epsilon: float,
    n: int,
    block: int,
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Draw ``samples`` sequences of length ``n``; return the first ``block``
    coordinates of those whose empirical mean and variance lie in the open
    windows, one row per accepted sequence in draw order.

    Given the latent pair (M, V), the other r = n - block coordinates enter
    the two statistics only through their sum, N(rM, rV), and their own sum of
    squared deviations, V chi^2_{r-1}, independent of each other and of the
    block by Cochran's theorem, so only these are drawn.  Each tile of rows
    draws, in order: the latent pairs, the block's normals row by row, one
    normal per row for the tail sum and, if r >= 2, one chi-square per row for
    its sum of squares.  The sums of squares pool as
    SS_block + SS_tail + (block r / n) (mean_block - mean_tail)^2.
    """
    target_mean, target_var = targets
    tile_rows = max(1, _TILE_CELLS // (block + 1))
    collected = [np.empty((0, block))]
    for start in range(0, samples, tile_rows):
        lead, emp_mean, emp_var = _draw_tile(g, n, block, min(tile_rows, samples - start), rng)
        keep = (np.abs(emp_mean - target_mean) < epsilon) & (np.abs(emp_var - target_var) < epsilon)
        collected.append(lead[keep])
    return np.concatenate(collected)


def condition_two_moments(
    g: MixingLaw,
    targets: tuple[float, float],
    epsilon: float,
    n: int,
    block: int,
    samples: int,
    seed: int = 0,
) -> TwoMomentReport:
    """Rejection-condition sequences on empirical mean in (m-eps, m+eps)
    and empirical variance in (v-eps, v+eps); pool the first ``block``
    coordinates of accepted sequences and measure their KS distance from
    N(m, v).
    """
    target_mean, target_var = targets
    if target_var <= 0:
        raise ValueError(f"target variance must be > 0, got {target_var}")
    if epsilon <= 0:
        raise ValueError(f"window half-width must be > 0, got {epsilon}")
    if not (1 <= block <= n):
        raise ValueError(f"need 1 <= block <= n, got block={block}, n={n}")
    if n < 2 or samples < 1:
        raise ValueError("need n >= 2 and samples >= 1")

    blocks = _accepted_blocks(g, targets, epsilon, n, block, samples, stream(seed, _STREAM_CONDITION))
    accepted = len(blocks)
    if accepted == 0:
        raise LowEffectiveSampleError(
            f"0 of {samples} sequences satisfied both windows around {targets} "
            f"(half-width {epsilon}); the acceptance probability is below "
            f"{1.0 / samples:.2e} -- widen the windows or move the targets"
        )
    pooled = blocks.ravel()
    ks = _ks_normal(pooled, target_mean, math.sqrt(target_var))
    return TwoMomentReport(
        targets=(float(target_mean), float(target_var)),
        epsilon=float(epsilon),
        n=n,
        block=block,
        samples=samples,
        accepted=accepted,
        acceptance_rate=accepted / samples,
        pooled=int(pooled.size),
        ks_statistic=float(ks),
        seed=seed,
    )
