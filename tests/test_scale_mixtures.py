import math

import numpy as np
import pytest
from scipy import integrate, stats

from tiltlab import montecarlo, scale_mixtures
from tiltlab.experiments import _default_gsm_mixing
from tiltlab.montecarlo import rate_fit
from tiltlab.reports import default_config
from tiltlab.rng import stream
from tiltlab.scale_mixtures import (
    MixingLaw,
    RealSample,
    ZeroAcceptanceError,
    _accepted_blocks,
    _ks_normal,
    condition_two_moments,
    empirical_limits,
    radial_cf_check,
    sample_gsm,
)

TWO_ATOM = MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 4.0, 0.5)])


# ------------------------------------------------------------------- mixing


def test_mixing_law_validation():
    with pytest.raises(ValueError, match="positive"):
        MixingLaw.point(0.0, -1.0)
    with pytest.raises(ValueError, match="sum"):
        MixingLaw.discrete([(0.0, 1.0, 0.6), (0.0, 2.0, 0.6)])
    with pytest.raises(ValueError, match="shape"):
        MixingLaw.inverse_gamma(-1.0, 2.0)


# ----------------------------------------------------------------- sampling


def test_sample_gsm_deterministic():
    a = sample_gsm(TWO_ATOM, 100, seed=12)
    b = sample_gsm(TWO_ATOM, 100, seed=12)
    assert np.array_equal(a.values, b.values)
    assert a.latent == b.latent


def test_point_mixing_empirical_moments():
    sample = sample_gsm(MixingLaw.point(0.0, 1.0), 10**5, seed=1)
    mean, variance = empirical_limits(sample)
    assert abs(mean) < 0.02
    assert abs(variance - 1.0) < 0.02


def test_two_atom_variances_cluster():
    variances = []
    for seed in range(300):
        sample = sample_gsm(TWO_ATOM, 10**4, seed=seed)
        variances.append(empirical_limits(sample)[1])
    variances = np.array(variances)
    low = variances[variances < 2.5]
    high = variances[variances >= 2.5]
    assert low.size > 0 and high.size > 0
    assert abs(low.mean() - 1.0) < 0.1
    assert abs(high.mean() - 4.0) < 0.1


def test_per_sequence_limits_track_latent_draw():
    # Each sequence's empirical moments sit on its own latent draw (not the
    # mixture averages); allow one 3-sigma excursion across the seeds.
    hits = 0
    for seed in range(20):
        sample = sample_gsm(TWO_ATOM, 10**5, seed=seed)
        mean, variance = empirical_limits(sample)
        m_lat, v_lat = sample.latent
        mean_ok = abs(mean - m_lat) <= 3 * math.sqrt(v_lat / sample.n)
        var_ok = abs(variance - v_lat) <= 3 * math.sqrt(2.0 / sample.n) * v_lat
        hits += mean_ok and var_ok
    assert hits >= 19


def test_point_mixing_passes_normality_ks():
    passed = 0
    for seed in range(20):
        sample = sample_gsm(MixingLaw.point(0.0, 1.0), 2000, seed=seed)
        if stats.kstest(sample.values, "norm").pvalue > 0.01:
            passed += 1
    assert passed >= 18


def test_empirical_limits_degenerate():
    constant = RealSample(values=np.full(10, 2.5))
    mean, variance = empirical_limits(constant)
    assert mean == 2.5 and variance == 0.0
    with pytest.raises(ValueError):
        empirical_limits(RealSample(values=np.array([1.0])))


# ------------------------------------------------------ characteristic function


def test_cf_closed_forms():
    assert MixingLaw.point(0.0, 1.0).cf_real(1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    pair = MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 2.0, 0.5)])
    assert pair.cf_real(1.0) == pytest.approx(0.5 * math.exp(-0.5) + 0.5 * math.exp(-1.0), abs=1e-12)
    assert pair.cf_real(0.0) == pytest.approx(1.0, abs=1e-15)


def test_cf_check_point_and_two_atom():
    for mixing in (MixingLaw.point(0.0, 1.0), MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 2.0, 0.5)])):
        report = radial_cf_check(mixing, (0.0, 0.5, 1.0, 2.0), samples=4 * 10**4, seed=2)
        assert report.max_deviation <= 4.0 / math.sqrt(report.samples) + 1e-3
        assert report.empirical[0] == pytest.approx(1.0, abs=1e-12)
        assert report.max_imaginary < 0.02


def test_cf_check_inverse_gamma_quadrature():
    mixing = MixingLaw.inverse_gamma(3.0, 2.0)
    report = radial_cf_check(mixing, (0.0, 0.5, 1.0, 2.0), samples=10**5, seed=3)
    assert report.max_deviation <= 4.0 / math.sqrt(report.samples) + 1e-3


@pytest.mark.parametrize("shape", [0.5, 1.5, 3.0, 7.5])
@pytest.mark.parametrize("scale", [0.5, 2.0, 5.0])
def test_inverse_gamma_cf_matches_quadrature(shape, scale):
    mixing = MixingLaw.inverse_gamma(shape, scale, mean=0.3)
    density = stats.invgamma(shape, scale=scale).pdf
    for t in (0.1, 0.5, 1.0, 2.0):
        value, _ = integrate.quad(
            lambda v: math.exp(-0.5 * v * t * t) * density(v), 0.0, np.inf,
            epsabs=1e-13, epsrel=1e-12, limit=200,
        )
        assert abs(mixing.cf_real(t) - math.cos(0.3 * t) * value) <= 1e-10
    assert mixing.cf_real(0.0) == 1.0
    assert MixingLaw.inverse_gamma(shape, scale).cf_real(0.0) == 1.0


def test_inverse_gamma_cf_large_shapes_against_bessel_reference():
    # Shapes far above 2 take the order recurrence; K_a itself overflows a
    # double at these shapes and small t.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for shape, scale, t in [(50.0, 2.0, 1e-9), (50.0, 2.0, 1.0), (200.0, 2.0, 1.0), (1000.5, 1000.0, 0.1), (3.0000001, 1.0, 0.7)]:
        bs = mpmath.mpf(scale) * mpmath.mpf(t) ** 2 / 2
        exact = 2 * bs ** (mpmath.mpf(shape) / 2) * mpmath.besselk(shape, 2 * mpmath.sqrt(bs)) / mpmath.gamma(shape)
        assert MixingLaw.inverse_gamma(shape, scale).cf_real(t) == pytest.approx(float(exact), abs=1e-13)


# ----------------------------------------------------- two-moment conditioning


def _untiled_blocks(g, targets, epsilon, n, block, samples, rng):
    """The sampler as it was before tiling: one (rows, n) draw per chunk."""
    target_mean, target_var = targets
    chunk_rows = max(1, scale_mixtures._CHUNK_CELLS // n)
    collected = []
    accepted = 0
    remaining = samples
    while remaining > 0:
        rows = min(chunk_rows, remaining)
        remaining -= rows
        means, variances = g.draw_latents(rng, rows)
        x = means[:, None] + np.sqrt(variances)[:, None] * rng.standard_normal((rows, n))
        emp_mean = x.mean(axis=1)
        emp_var = ((x - emp_mean[:, None]) ** 2).mean(axis=1)
        keep = (
            (np.abs(emp_mean - target_mean) < epsilon)
            & (np.abs(emp_var - target_var) < epsilon)
        )
        if keep.any():
            accepted += int(keep.sum())
            collected.append(x[keep, :block].ravel())
    return accepted, np.concatenate(collected)


@pytest.mark.parametrize(
    "mixing, epsilon, n, block, samples, chunk_cells, tile_cells",
    [
        # fewer samples than one tile holds
        (TWO_ATOM, 0.2, 50, 5, 500, None, None),
        # rows not a multiple of the tile, with an inverse-gamma mixing
        (MixingLaw.inverse_gamma(3.0, 2.0, mean=0.1), 0.2, 50, 3, 3000, None, None),
        # many chunks, each ending in a partial tile; nonzero latent means
        (MixingLaw.discrete([(0.1, 1.0, 0.5), (-0.1, 4.0, 0.5)]), 0.3, 40, 4, 203, 1000, 300),
        # chunks smaller than a tile: the tile shrinks to the chunk
        (TWO_ATOM, 0.3, 40, 4, 203, 1000, 4096),
        # rows longer than a tile holds: one-row tiles, 61-row chunks
        (TWO_ATOM, 0.02, 2**16 + 1, 2, 130, None, None),
        # windows that accept every row
        (TWO_ATOM, 50.0, 50, 10, 3000, None, None),
    ],
)
def test_tiled_sampler_is_bit_identical_to_untiled(monkeypatch, mixing, epsilon, n, block, samples, chunk_cells, tile_cells):
    if chunk_cells is not None:
        monkeypatch.setattr(scale_mixtures, "_CHUNK_CELLS", chunk_cells)
        monkeypatch.setattr(scale_mixtures, "_TILE_CELLS", tile_cells)
    args = (mixing, (0.0, 1.0), epsilon, n, block, samples)
    accepted, pooled = _untiled_blocks(*args, stream(9, scale_mixtures._STREAM_CONDITION))
    blocks = _accepted_blocks(*args, stream(9, scale_mixtures._STREAM_CONDITION))
    assert accepted > 0
    assert len(blocks) == accepted
    assert np.array_equal(blocks.ravel(), pooled)
    if epsilon == 50.0:
        assert accepted == samples


@pytest.mark.parametrize(
    "sample, mean, sd",
    [
        (np.random.default_rng(41).normal(0.3, 1.7, 1), 0.3, 1.7),
        (np.random.default_rng(42).normal(0.3, 1.7, 2), 0.3, 1.7),
        (np.random.default_rng(43).normal(0.0, 1.0, 1000), 0.1, 1.2),
        (np.random.default_rng(44).standard_t(3, 50_000), 0.0, 1.0),
        # ties: values rounded to one decimal
        (np.round(np.random.default_rng(45).normal(0.0, 1.0, 5000), 1), 0.0, 1.0),
    ],
)
def test_ks_statistic_equals_scipy_kstest(sample, mean, sd):
    assert _ks_normal(sample, mean, sd) == stats.kstest(sample, "norm", args=(mean, sd)).statistic


def test_ks_statistic_of_default_gsm_run_equals_scipy_kstest():
    config = default_config("gsm")
    args = (_default_gsm_mixing(), config.gsm_targets, config.gsm_epsilon, config.gsm_n, config.gsm_block, config.samples)
    pooled = _accepted_blocks(*args, stream(config.seed, scale_mixtures._STREAM_CONDITION)).ravel()
    mean, variance = config.gsm_targets
    expected = stats.kstest(pooled, "norm", args=(mean, math.sqrt(variance))).statistic
    assert _ks_normal(pooled, mean, math.sqrt(variance)) == expected
    assert condition_two_moments(*args, seed=config.seed).ks_statistic == expected


# ----------------------------------------------------- two-moment conditioning


def test_condition_two_moments_selects_unit_variance_component():
    report = condition_two_moments(TWO_ATOM, (0.0, 1.0), 0.1, 200, 5, 12000, seed=0)
    assert report.accepted >= 2000
    assert report.ks_statistic < 0.05


def test_condition_two_moments_wide_window_keeps_mixture():
    # Windows that accept everything: the pooled law is the two-atom
    # mixture, whose exact KS distance from N(0,1) is 0.0807 at the
    # maximizing point, so a large KS must show up.
    report = condition_two_moments(TWO_ATOM, (0.0, 1.0), 50.0, 50, 10, 4000, seed=1)
    assert report.acceptance_rate == 1.0
    assert report.ks_statistic > 0.05


def test_condition_two_moments_zero_acceptance():
    with pytest.raises(ZeroAcceptanceError, match="acceptance probability"):
        condition_two_moments(TWO_ATOM, (25.0, 1.0), 0.05, 100, 2, 2000, seed=2)


def test_zero_acceptance_is_one_error_class():
    # The CLI maps this one class to exit 2 for both the window samplers and
    # the Gaussian-mixture conditioning.
    assert ZeroAcceptanceError is montecarlo.ZeroAcceptanceError


def test_condition_two_moments_ks_shrinks_along_schedule():
    # epsilon halves while n*eps^2 doubles: the window sharpens on the CLT
    # scale and the pooled law tightens onto the target Gaussian.
    settings = [(0.4, 100), (0.2, 800), (0.1, 6400)]
    ks = [
        condition_two_moments(TWO_ATOM, (0.0, 1.0), eps, n, 10, 4000, seed=5).ks_statistic
        for eps, n in settings
    ]
    noise = 1.0 / math.sqrt(4000 * 10 / 4)
    assert ks[-1] < ks[0] + noise
    assert ks[-1] < 0.05


# ------------------------------------------------------ variance recovery rate


def test_variance_recovery_error_scales_like_root_n():
    mixing = MixingLaw.point(0.0, 1.0)
    records = []
    for i, n in enumerate((64, 256, 1024, 4096)):
        errors = []
        for r in range(200):
            sample = sample_gsm(mixing, n, seed=10_000 + 1000 * i + r)
            errors.append(abs(empirical_limits(sample)[1] - 1.0))
        records.append((n, float(np.mean(errors))))
    fit = rate_fit(records)
    assert -0.65 < fit.slope < -0.35
