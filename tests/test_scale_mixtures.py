import math
import warnings

import numpy as np
import pytest
from scipy import special, stats

from tiltlab import montecarlo, scale_mixtures
from tiltlab.experiments import _default_gsm_mixing
from tiltlab.montecarlo import rate_fit
from tiltlab.reports import default_config
from tiltlab.rng import stream
from tiltlab.scale_mixtures import (
    MixingLaw,
    _accepted_blocks,
    _ks_normal,
    _row_statistics,
    _sphere_blocks,
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


# ----------------------------------------------------------------- sampling


def test_sample_gsm_deterministic():
    a = sample_gsm(TWO_ATOM, 100, seed=12)
    b = sample_gsm(TWO_ATOM, 100, seed=12)
    assert np.array_equal(a, b)
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 0.0


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
        # the latent pair sample_gsm drew: the first draw of its keyed stream
        (m_lat,), (v_lat,) = TWO_ATOM.draw_latents(stream(seed, scale_mixtures._STREAM_SAMPLE), 1)
        mean_ok = abs(mean - m_lat) <= 3 * math.sqrt(v_lat / sample.size)
        var_ok = abs(variance - v_lat) <= 3 * math.sqrt(2.0 / sample.size) * v_lat
        hits += mean_ok and var_ok
    assert hits >= 19


def test_point_mixing_passes_normality_ks():
    passed = 0
    for seed in range(20):
        sample = sample_gsm(MixingLaw.point(0.0, 1.0), 2000, seed=seed)
        if stats.kstest(sample, "norm").pvalue > 0.01:
            passed += 1
    assert passed >= 18


def test_empirical_limits_degenerate():
    mean, variance = empirical_limits(np.full(10, 2.5))
    assert mean == 2.5 and variance == 0.0
    with pytest.raises(ValueError):
        empirical_limits(np.array([1.0]))


# ------------------------------------------------------ characteristic function


def test_cf_closed_forms():
    assert MixingLaw.point(0.0, 1.0).cf_real(1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    pair = MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 2.0, 0.5)])
    assert pair.cf_real(1.0) == pytest.approx(0.5 * math.exp(-0.5) + 0.5 * math.exp(-1.0), abs=1e-12)
    assert pair.cf_real(0.0) == pytest.approx(1.0, abs=1e-15)


def test_cf_check_point_and_two_atom():
    for mixing in (MixingLaw.point(0.0, 1.0), MixingLaw.discrete([(0.0, 1.0, 0.5), (0.0, 2.0, 0.5)])):
        report = radial_cf_check(mixing, (0.0, 0.5, 1.0, 2.0), samples=4 * 10**4, seed=2)
        assert report.max_deviation <= 4.0 / math.sqrt(4 * 10**4) + 1e-3
        assert report.empirical[0] == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------- two-moment conditioning


ACCEPT_ALL = 1e3  # window half-width that no row's mean or variance reaches


def _full_draw_sample(g, targets, epsilon, n, block, samples, rng, chunk_rows=10_000):
    """Reference sampler: draws all n coordinates of every sequence.

    Returns the first ``block`` coordinates, the empirical mean and the
    (1/n) empirical variance of the accepted sequences, in draw order.
    """
    target_mean, target_var = targets
    kept = []
    for start in range(0, samples, chunk_rows):
        rows = min(chunk_rows, samples - start)
        means, variances = g.draw_latents(rng, rows)
        x = means[:, None] + np.sqrt(variances)[:, None] * rng.standard_normal((rows, n))
        emp_mean = x.mean(axis=1)
        emp_var = ((x - emp_mean[:, None]) ** 2).mean(axis=1)
        keep = (np.abs(emp_mean - target_mean) < epsilon) & (np.abs(emp_var - target_var) < epsilon)
        kept.append((x[keep, :block], emp_mean[keep], emp_var[keep]))
    return [np.concatenate(part) for part in zip(*kept)]


def _tiled_sample(g, targets, epsilon, n, block, samples, seed):
    """The library sampler's accepted rows with their statistics, checked
    to be the rows that ``_accepted_blocks`` returns for the same stream:
    stage 1 over every tile of proposals, then stage 2 over tiles of the
    accepted rows, each tile at most ``_TILE_CELLS // (block + 1)`` rows."""
    target_mean, target_var = targets
    rng = stream(seed, scale_mixtures._STREAM_CONDITION)
    tile_rows = max(1, scale_mixtures._TILE_CELLS // (block + 1))
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
    rng = stream(seed, scale_mixtures._STREAM_CONDITION)
    assert np.array_equal(_accepted_blocks(g, targets, epsilon, n, block, samples, rng), lead)
    return lead, emp_mean, emp_var


# an atom of weight 0, far from the others: no row may come from it
ZERO_WEIGHT_ATOM = MixingLaw.discrete([(0.0, 1.0, 0.5), (50.0, 9.0, 0.0), (0.0, 4.0, 0.5)])


@pytest.mark.parametrize(
    "mixing, targets, epsilon, n, block",
    [
        # the criterion-8 setting
        (TWO_ATOM, (0.0, 1.0), 0.1, 200, 5),
        # three variance atoms with a common nonzero latent mean
        (MixingLaw.discrete([(0.1, 0.5, 0.3), (0.1, 1.0, 0.4), (0.1, 2.0, 0.3)]), (0.1, 1.0), 0.2, 50, 3),
        # latent means that differ between atoms
        (MixingLaw.discrete([(0.1, 1.0, 0.5), (-0.1, 4.0, 0.5)]), (0.0, 1.5), 0.3, 40, 4),
        # a one-coordinate tail (no chi-square draw), every row accepted
        (TWO_ATOM, (0.0, 1.0), ACCEPT_ALL, 12, 11),
        # the whole sequence is the block, a weight-0 atom, and the shortest sequences
        (ZERO_WEIGHT_ATOM, (0.0, 1.0), ACCEPT_ALL, 10, 10),
        (TWO_ATOM, (0.0, 1.0), 0.5, 2, 1),
        (TWO_ATOM, (0.0, 1.0), 0.5, 2, 2),
    ],
)
def test_sufficient_statistic_sampler_matches_full_draws_in_law(mixing, targets, epsilon, n, block):
    samples = 2 * 10**5
    new = _tiled_sample(mixing, targets, epsilon, n, block, samples, seed=31)
    ref = _full_draw_sample(mixing, targets, epsilon, n, block, samples, np.random.default_rng(32))
    accepted = np.array([len(new[0]), len(ref[0])])
    assert accepted.min() >= 2000
    rate = accepted.sum() / (2 * samples)
    assert abs(accepted[0] - accepted[1]) <= 4 * math.sqrt(2 * samples * rate * (1 - rate)) + 1
    # the leading coordinate, the row mean and the row variance of accepted rows,
    # the last block coordinate and the product of the first two
    pairs = [(new[0][:, 0], ref[0][:, 0]), (new[1], ref[1]), (new[2], ref[2]), (new[0][:, -1], ref[0][:, -1])]
    if block >= 2:
        pairs.append((new[0][:, 0] * new[0][:, 1], ref[0][:, 0] * ref[0][:, 1]))
    for new_values, ref_values in pairs:
        assert stats.ks_2samp(new_values, ref_values).pvalue > 1e-3


def _pit_ks(lead, emp_mean, emp_var, n):
    """KS distance from uniform of the first coordinates' probability integral
    transforms: given the row's mean and (1/n) variance, T = (X_1 - mean) /
    sqrt((n - 1) variance) has (T + 1) / 2 ~ Beta((n - 2) / 2, (n - 2) / 2)."""
    t = (lead[:, 0] - emp_mean) / np.sqrt((n - 1) * emp_var)
    pit = stats.beta.cdf((t + 1) / 2, (n - 2) / 2, (n - 2) / 2)
    return stats.kstest(pit, "uniform").statistic, pit


@pytest.mark.parametrize("sampler", ["sphere", "full-draw"])
def test_first_coordinate_pit_is_exact_beta_over_seeds_0_to_99(sampler):
    # The criterion-8 setting on every seed 0-99.  Each seed's KS distance
    # stays below 2.2 / sqrt(accepted) (a per-seed level of about 1e-4), and
    # the pooled transforms below 1.95 / sqrt(pooled) (a level of 1e-3).
    args = (TWO_ATOM, (0.0, 1.0), 0.1, 200, 5, 12000)
    pits = []
    for seed in range(100):
        if sampler == "sphere":
            rows = _tiled_sample(*args, seed=seed)
        else:
            rows = _full_draw_sample(*args, np.random.default_rng(1000 + seed))
        ks, pit = _pit_ks(*rows, n=200)
        assert ks < 2.2 / math.sqrt(pit.size), seed
        pits.append(pit)
    pooled = np.concatenate(pits)
    assert stats.kstest(pooled, "uniform").statistic < 1.95 / math.sqrt(pooled.size)


@pytest.mark.parametrize("n, block", [(2, 1), (2, 2), (10, 3), (10, 9), (10, 10), (200, 5)])
def test_combined_statistics_have_exact_first_two_moments(n, block):
    # Point mixing: the row mean is N(M, V/n) and n * variance / V is
    # chi^2_{n-1}, so E mean = M, Var mean = V/n, E var = (n-1)V/n and
    # Var var = 2(n-1)V^2/n^2.  Each is checked within 4 standard errors.
    m, v, rows = 0.3, 2.0, 2 * 10**5
    rng = stream(17, scale_mixtures._STREAM_CONDITION)
    emp_mean, emp_var = _row_statistics(MixingLaw.point(m, v), n, rows, rng)
    for values, mean, variance in [
        (emp_mean, m, v / n),
        (emp_var, (n - 1) * v / n, 2 * (n - 1) * v * v / n**2),
    ]:
        centred = values - values.mean()
        assert abs(values.mean() - mean) <= 4 * values.std() / math.sqrt(rows)
        moment_se = math.sqrt(max(np.mean(centred**4) - np.mean(centred**2) ** 2, 0.0) / rows)
        assert abs(np.mean(centred**2) - variance) <= 4 * moment_se
    # The row mean and row variance of a Gaussian sample are independent.
    assert abs(np.corrcoef(emp_mean, emp_var)[0, 1]) <= 4 / math.sqrt(rows)
    # A point uniform on the sum-zero unit sphere has E U_i = 0, E U_i^2 = 1/n
    # and E U_i U_j = -1/(n(n-1)), so given the row mean m and variance v a
    # block coordinate has mean m and variance v, and two have covariance -v/(n-1).
    lead = _sphere_blocks(np.full(rows, m), np.full(rows, v), n, rng, np.empty((rows, block))) - m
    products = [(lead[:, 0], 0.0), (lead[:, -1] ** 2, v)]
    if block >= 2:
        products.append((lead[:, 0] * lead[:, 1], -v / (n - 1)))
    for values, expected in products:
        assert abs(values.mean() - expected) <= 4 * values.std() / math.sqrt(rows) + 1e-12


@pytest.mark.parametrize("n", [2, 3, 10, 200])
def test_whole_sequence_blocks_have_their_row_statistics(n):
    # With block == n the block is the whole sequence, so its own empirical
    # mean and variance are the statistics it was drawn for.
    rng = np.random.default_rng(19)
    emp_mean, emp_var = rng.normal(0.0, 2.0, 500), rng.gamma(2.0, 1.0, 500)
    rows = _sphere_blocks(emp_mean, emp_var, n, rng, np.empty((500, n)))
    limits = np.array([empirical_limits(row) for row in rows])
    np.testing.assert_allclose(limits[:, 0], emp_mean, rtol=0, atol=1e-12 * (1 + np.abs(emp_mean)).max())
    np.testing.assert_allclose(limits[:, 1], emp_var, rtol=1e-12)


@pytest.mark.parametrize("n, block", [(2, 1), (2, 2), (10, 8), (10, 9), (10, 10)])
def test_tile_draws_in_documented_order(n, block):
    # Stage 1: the atom counts, one mean normal per row, one chi-square per
    # row.  Stage 2, for the accepted rows: the block's normals row-major, one
    # tail-sum normal per row, then one chi-square per row only when the tail
    # has two coordinates or more.
    g = MixingLaw.discrete([(0.2, 1.0, 0.5), (-0.3, 3.0, 0.5)])
    rows, rest = 37, n - block
    rng, replay = np.random.default_rng(5), np.random.default_rng(5)
    lead = _accepted_blocks(g, (0.0, 1.0), 1.0, n, block, rows, rng)
    counts = replay.multinomial(rows, [0.5, 0.5])
    means, variances = np.repeat([0.2, -0.3], counts), np.repeat([1.0, 3.0], counts) / n
    emp_mean = means + np.sqrt(variances) * replay.standard_normal(rows)
    emp_var = variances * replay.chisquare(n - 1, rows)
    keep = (np.abs(emp_mean) < 1.0) & (np.abs(emp_var - 1.0) < 1.0)
    emp_mean, emp_var, accepted = emp_mean[keep], emp_var[keep], int(keep.sum())
    assert 0 < accepted < rows
    z = replay.standard_normal((accepted, block))
    tail_sum = math.sqrt(rest) * replay.standard_normal(accepted) if rest else 0.0
    tail_ss = replay.chisquare(rest - 1, accepted) if rest >= 2 else 0.0
    assert replay.random() == rng.random()
    # direct form: the normal vector's deviations from its own mean, scaled to
    # the sphere of radius sqrt(n variance) about the row mean
    overall = (z.sum(axis=1) + tail_sum) / n
    deviations = z - overall[:, None]
    radius = np.sqrt((deviations**2).sum(axis=1) + tail_ss + (rest * (tail_sum / rest - overall) ** 2 if rest else 0.0))
    expected = emp_mean[:, None] + (np.sqrt(n * emp_var) / radius)[:, None] * deviations
    np.testing.assert_allclose(lead, expected, rtol=1e-12, atol=1e-12)


def test_empty_stage_two_draws_nothing():
    # The V = 4 atom of the default law is never accepted at the criterion-8
    # windows; with no accepted row, stage 2 draws nothing.
    rng = np.random.default_rng(7)
    emp_mean, emp_var = _row_statistics(MixingLaw.point(0.0, 4.0), 200, 5000, rng)
    keep = (np.abs(emp_mean) < 0.1) & (np.abs(emp_var - 1.0) < 0.1)
    assert not keep.any()
    state = rng.bit_generator.state
    assert _sphere_blocks(emp_mean[keep], emp_var[keep], 200, rng, np.empty((0, 5))).shape == (0, 5)
    assert rng.bit_generator.state == state
    assert _accepted_blocks(MixingLaw.point(0.0, 4.0), (0.0, 1.0), 0.1, 200, 5, 5000, rng).shape == (0, 5)


@pytest.mark.parametrize(
    "mixing, n, block",
    [(ZERO_WEIGHT_ATOM, 200, 5), (ZERO_WEIGHT_ATOM, 10, 10), (TWO_ATOM, 2, 1), (TWO_ATOM, 2, 2), (TWO_ATOM, 10, 10)],
)
def test_edge_laws_and_lengths_condition_without_warnings(mixing, n, block):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = condition_two_moments(mixing, (0.0, 1.0), 0.5, n, block, 4000, seed=8)
        lead = _accepted_blocks(mixing, (0.0, 1.0), ACCEPT_ALL, n, block, 4000, np.random.default_rng(8))
    assert report.accepted > 0 and np.isfinite(report.ks_statistic)
    # no row comes from the weight-0 atom, whose mean is 50
    assert lead.shape == (4000, block) and np.abs(lead).max() < 25.0


@pytest.mark.parametrize(
    "n, block, samples",
    [
        (10, 10, 500),  # no tail: no tail draws at all
        (10, 9, 500),  # a one-coordinate tail: no chi-square draw (df 0 would raise)
        (2, 1, 300),
        (2, 2, 300),
        (200, 5, 7),  # fewer samples than one tile
        (200, 5, 2 * (scale_mixtures._TILE_CELLS // 6) + 3),  # not a multiple of the tile
        (2**16 + 1, 2**16, 3),  # a block longer than a tile: one-row tiles
    ],
)
def test_accept_all_windows_return_every_row(n, block, samples):
    lead, _, _ = _tiled_sample(TWO_ATOM, (0.0, 1.0), ACCEPT_ALL, n, block, samples, seed=3)
    assert lead.shape == (samples, block)


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


def test_ndtr_equals_scipy_bit_for_bit():
    # Random points, and each branch edge of Cephes ndtr after the scaling
    # x = a / sqrt(2): |x| = 1/sqrt(2) (erf or erfc), |x| = 1 (erfc by erf),
    # |x| = 8 (the two erfc fits) and x^2 = MAXLOG (erfc underflows to 0).
    rng = np.random.default_rng(46)
    points = [rng.normal(0.0, 4.0, 100_000), rng.uniform(-40.0, 40.0, 20_000), np.array([0.0, np.inf, -np.inf])]
    for edge in (math.sqrt(0.5), 1.0, 8.0, math.sqrt(scale_mixtures._MAXLOG)):
        a = edge / math.sqrt(0.5)
        near = a * (1.0 + np.arange(-200, 201) * 1e-15)
        points += [near, -near, np.nextafter(a, [0.0, np.inf]), -np.nextafter(a, [0.0, np.inf])]
    a = np.concatenate(points)
    values = scale_mixtures._ndtr(a)
    assert np.array_equal(values, special.ndtr(a))
    past = np.square(a * math.sqrt(0.5)) > scale_mixtures._MAXLOG
    assert 0 < past.sum() < len(a) and set(values[past].tolist()) == {0.0, 1.0}


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
    assert report.accepted == report.samples
    assert report.ks_statistic > 0.05


def test_condition_two_moments_zero_acceptance():
    with pytest.raises(montecarlo.LowEffectiveSampleError, match="acceptance probability"):
        condition_two_moments(TWO_ATOM, (25.0, 1.0), 0.05, 100, 2, 2000, seed=2)


def test_zero_acceptance_is_one_error_class():
    # The CLI maps this one class to exit 2 for both the window samplers and
    # the Gaussian-mixture conditioning: no accepted draw is an effective
    # sample size of 0.
    assert not hasattr(montecarlo, "ZeroAcceptanceError")
    assert not hasattr(scale_mixtures, "ZeroAcceptanceError")
    assert scale_mixtures.LowEffectiveSampleError is montecarlo.LowEffectiveSampleError


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
