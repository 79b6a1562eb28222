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
  alphabets, measured with a Kolmogorov-Smirnov distance.  Given its mean and
  variance a sequence is uniform on a sphere, whatever the mixing law, so
  only accepted sequences get leading coordinates drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .montecarlo import LowEffectiveSampleError
from .rng import stream

__all__ = [
    "MixingLaw",
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
_KS_STRIDE = 64  # the KS distance evaluates the normal CDF at every 64th sorted point first


@dataclass(frozen=True)
class MixingLaw:
    """A finite law for the latent (mean, variance) pair of a Gaussian
    mixture: weighted atoms (mean, variance, weight).  All variances must be
    strictly positive and the weights must sum to 1."""

    atoms: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("mixing laws need at least one atom")
        if any(v <= 0 for _, v, _ in self.atoms):
            raise ValueError("variance atoms must be strictly positive")
        if any(w < 0 for *_, w in self.atoms):
            raise ValueError("atom weights must be nonnegative")
        total = sum(w for *_, w in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom weights sum to {total}, expected 1")

    @classmethod
    def point(cls, mean: float, variance: float) -> "MixingLaw":
        return cls(((mean, variance, 1.0),))

    @classmethod
    def discrete(cls, atoms: list[tuple[float, float, float]]) -> "MixingLaw":
        return cls(tuple(atoms))

    def draw_latents(self, rng: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        """Draw ``size`` independent (mean, variance) pairs."""
        means = np.array([a[0] for a in self.atoms])
        variances = np.array([a[1] for a in self.atoms])
        weights = np.array([a[2] for a in self.atoms])
        idx = rng.choice(len(self.atoms), size=size, p=weights / weights.sum())
        return means[idx], variances[idx]

    def cf_real(self, t: float) -> float:
        """Real part of the characteristic function of one coordinate."""
        return sum(
            w * math.cos(t * m) * math.exp(-0.5 * v * t * t) for m, v, w in self.atoms
        )


def sample_gsm(g: MixingLaw, n: int, seed: int = 0) -> np.ndarray:
    """Simulate one exchangeable sequence, as a read-only array: draw (M, V)
    once, then n conditionally i.i.d. N(M, V) coordinates."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = stream(seed, _STREAM_SAMPLE)
    means, variances = g.draw_latents(rng, 1)
    values = float(means[0]) + math.sqrt(float(variances[0])) * rng.standard_normal(n)
    values.flags.writeable = False
    return values


def empirical_limits(values: np.ndarray) -> tuple[float, float]:
    """Empirical mean and (biased, 1/n) empirical variance of a sequence."""
    if values.size < 2:
        raise ValueError("variance needs at least 2 observations")
    mean = float(values.mean())
    variance = float(((values - mean) ** 2).mean())
    return mean, variance


@dataclass(frozen=True)
class CfCheckReport:
    """Empirical vs closed-form characteristic function on a t-grid."""

    t_grid: tuple[float, ...]
    empirical: tuple[float, ...]
    exact: tuple[float, ...]
    max_deviation: float


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
    of the real part over the grid.
    """
    rng = stream(seed, _STREAM_CF)
    means, variances = g.draw_latents(rng, samples)
    x = means + np.sqrt(variances) * rng.standard_normal(samples)
    empirical = [float(np.cos(t * x).mean()) for t in t_grid]
    exact = [g.cf_real(t) for t in t_grid]
    deviations = [abs(a - b) for a, b in zip(empirical, exact)]
    return CfCheckReport(
        t_grid=tuple(float(t) for t in t_grid),
        empirical=tuple(empirical),
        exact=tuple(exact),
        max_deviation=max(deviations),
    )


@dataclass(frozen=True)
class TwoMomentReport:
    """Outcome of conditioning on empirical mean and variance windows.

    ``ks_statistic`` is the one-sample Kolmogorov-Smirnov distance of the
    pooled leading coordinates of the accepted sequences from the Gaussian
    with the target moments.
    """

    epsilon: float
    n: int
    samples: int
    accepted: int
    pooled: int
    ks_statistic: float
    seed: int


# Cephes ndtr.c's fits for erf and erfc, highest degree first; a leading 1.0 makes polevl act as p1evl.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2, 9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996732e2


def _polevl(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """The polynomial at each x by Horner's rule, in Cephes ``polevl``'s order."""
    value = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        value = value * x + c
    return value


def _ndtr(a: np.ndarray) -> np.ndarray:
    """The standard normal CDF, bit for bit as Cephes ``ndtr`` (and so
    ``scipy.special.ndtr``) computes it, with libm's ``exp`` from ``math``."""
    x = a * math.sqrt(0.5)
    z = np.abs(x)
    y = np.empty_like(z)
    inner = z < 1.0  # erf(x) = x T(x^2) / U(x^2); below sqrt(1/2), ndtr is 0.5 + 0.5 erf(x)
    w = x[inner]
    erf = w * _polevl(w * w, _ERF_T) / _polevl(w * w, _ERF_U)
    y[inner] = np.where(z[inner] < math.sqrt(0.5), 0.5 + 0.5 * erf, 0.5 * (1.0 - np.abs(erf)))
    w = np.minimum(z[~inner], 27.0)  # erfc(z) = exp(-z^2) P(z) / Q(z), and 0 once z^2 > MAXLOG (as 27^2 is)
    e = np.array([math.exp(v) if v >= -_MAXLOG else 0.0 for v in (-w * w).tolist()])
    p = np.where(w < 8.0, _polevl(w, _ERFC_P), _polevl(w, _ERFC_R))
    y[~inner] = 0.5 * (e * p / np.where(w < 8.0, _polevl(w, _ERFC_Q), _polevl(w, _ERFC_S)))
    return np.where((z >= math.sqrt(0.5)) & (x > 0), 1.0 - y, y)


def _ks_normal(sample: np.ndarray, mean: float, sd: float) -> float:
    """One-sample Kolmogorov-Smirnov distance of ``sample`` from N(mean, sd^2),
    bit for bit as ``scipy.stats.kstest``: the largest gap max((i+1)/n - F_i,
    F_i - i/n) at a sorted point i.  F is evaluated at every ``_KS_STRIDE``-th
    point first.  F and i/n rise, so a point strictly between two such knots
    a < b has a gap below max((b+1)/n - F_a, F_b - a/n), with 1/n to spare for
    rounding; F is evaluated inside a segment only if that reaches the largest gap."""
    z = (np.sort(sample) - mean) / sd
    size = z.size
    knots = np.append(np.arange(0, size - 1, _KS_STRIDE), size - 1)
    cdf = _ndtr(z[knots])
    best = np.maximum((knots + 1.0) / size - cdf, cdf - knots / size).max()
    reach = np.maximum((knots[1:] + 1.0) / size - cdf[:-1], cdf[1:] - knots[:-1] / size) >= best
    rows = np.minimum(knots[:-1][reach, None] + np.arange(1, _KS_STRIDE), size - 1).ravel()
    cdf = _ndtr(z[rows])
    return float(np.maximum((rows + 1.0) / size - cdf, cdf - rows / size).max(initial=best))


def _row_statistics(g: MixingLaw, n: int, rows: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Stage 1 of :func:`_accepted_blocks`: the mean and (1/n) variance of ``rows`` sequences."""
    means, variances, weights = np.array(g.atoms).T
    counts = rng.multinomial(rows, weights / weights.sum())
    means, variances = np.repeat(means, counts), np.repeat(variances, counts) / n
    return means + np.sqrt(variances) * rng.standard_normal(rows), variances * rng.chisquare(n - 1, rows)


def _sphere_blocks(mean: np.ndarray, var: np.ndarray, n: int, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Stage 2 of :func:`_accepted_blocks`: fill ``out`` with the first coordinates given each row's statistics."""
    block, rest = out.shape[1], n - out.shape[1]
    z = rng.standard_normal(out=out)
    total = np.einsum("ij->i", z)
    deviations = z - (total / block)[:, None]
    squares = np.einsum("ij,ij->i", deviations, deviations)
    if rest:
        tail = math.sqrt(rest) * rng.standard_normal(len(z))
        if rest >= 2:
            squares += rng.chisquare(rest - 1, len(z))
        squares += (block * rest / n) * np.square(total / block - tail / rest)
        total += tail
    scale = np.sqrt(n * var / squares)
    z *= scale[:, None]
    z += (mean - scale * total / n)[:, None]
    return z


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

    Given the latent pair (M, V), the mean and (1/n) variance are independent,
    N(M, V/n) and (V/n) chi^2_{n-1}, and given both the sequence is
    mean + sqrt(n variance) U with U uniform on the unit sphere of the sum-zero
    hyperplane, whatever the mixing law.  So stage 1 draws, tile by tile, the
    atom counts (one multinomial; rows come grouped by atom), then one normal
    and one chi-square per row.  Stage 2 then draws U for the accepted rows
    only, tile by tile, as Z - mean(Z) normalised for a standard normal Z: the
    block's normals (row-major), one tail-sum normal N(0, r) per row and, if
    r = n - block >= 2, one tail chi^2_{r-1} per row, pooled by Cochran's
    theorem as SS_block + SS_tail + (block r / n) (mean_block - mean_tail)^2.
    """
    target_mean, target_var = targets
    tile_rows = max(1, _TILE_CELLS // (block + 1))
    kept = []
    for start in range(0, samples, tile_rows):
        emp_mean, emp_var = _row_statistics(g, n, min(tile_rows, samples - start), rng)
        keep = (np.abs(emp_mean - target_mean) < epsilon) & (np.abs(emp_var - target_var) < epsilon)
        kept.append((emp_mean[keep], emp_var[keep]))
    emp_mean, emp_var = (np.concatenate(part) for part in zip(*kept))
    lead = np.empty((emp_mean.size, block))
    for start in range(0, emp_mean.size, tile_rows):
        rows = slice(start, start + tile_rows)
        _sphere_blocks(emp_mean[rows], emp_var[rows], n, rng, lead[rows])
    return lead


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
        epsilon=float(epsilon),
        n=n,
        samples=samples,
        accepted=accepted,
        pooled=int(pooled.size),
        ks_statistic=float(ks),
        seed=seed,
    )
