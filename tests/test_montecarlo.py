import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tiltlab import montecarlo
from tiltlab.exact import conditional_block_law, enumerate_types
from tiltlab.montecarlo import (
    LowEffectiveSampleError,
    WindowSchedule,
    rate_fit,
    sample_conditional_blocks,
    window_sweep,
)
from tiltlab.rng import stream
from tiltlab.simplex import Alphabet, Distribution, EnumerationCapError, product_block_law, tv_distance, word_index
from tiltlab.tilting import InfeasibleConstraintError, MomentConstraint, MomentFunction, i_project

COIN = Distribution.bernoulli(0.5)
COIN_H = MomentFunction.from_labels(COIN.alphabet)

# Pr(X1=1 | 0.70 < mean < 0.80, n=100) for a fair coin: exact binomial sums
# over S in 71..79 (open window excludes the lattice endpoints).
WINDOW_ORACLE = 0.7161413808782501


# ------------------------------------------------------------------ schedule


def test_schedule_validation():
    with pytest.raises(ValueError, match="exponent"):
        WindowSchedule(amplitude=0.5, exponent=0.6)
    with pytest.raises(ValueError, match="amplitude"):
        WindowSchedule(amplitude=-1.0, exponent=0.25)
    schedule = WindowSchedule(amplitude=0.5, exponent=0.25)
    assert schedule.epsilon(16) == pytest.approx(0.25)


# ------------------------------------------------------------------ sampling


def window(target: float, epsilon: float, h: MomentFunction = COIN_H) -> MomentConstraint:
    """The open window (target - epsilon, target + epsilon) on the h-mean."""
    return MomentConstraint(h, "equality", [target], epsilon=epsilon)


def test_fixed_seed_is_bit_identical():
    a = sample_conditional_blocks(COIN, window(0.5, 0.15), 40, 2, 2000, seed=9)
    b = sample_conditional_blocks(COIN, window(0.5, 0.15), 40, 2, 2000, seed=9)
    assert np.array_equal(a.block.masses, b.block.masses)
    assert np.array_equal(a.std_errors, b.std_errors)
    assert a.accepted == b.accepted
    c = sample_conditional_blocks(COIN, window(0.5, 0.15), 40, 2, 2000, seed=10)
    assert not np.array_equal(a.block.masses, c.block.masses)


def test_vacuous_window_recovers_baseline():
    for method in ("rejection", "tilt-importance"):
        est = sample_conditional_blocks(COIN, window(0.5, 0.45), 60, 1, 40000, method=method, seed=2)
        value, se = est.estimate_for((1,))
        assert abs(value - 0.5) <= 3 * se
    assert est.block.masses.sum() == pytest.approx(1.0, abs=1e-12)


def test_estimates_agree_across_methods():
    rej = sample_conditional_blocks(COIN, window(0.75, 0.15), 50, 1, 10**5, "rejection", seed=4)
    imp = sample_conditional_blocks(COIN, window(0.75, 0.15), 50, 1, 10**5, "tilt-importance", seed=4)
    v_r, se_r = rej.estimate_for((1,))
    v_i, se_i = imp.estimate_for((1,))
    assert abs(v_r - v_i) <= 3 * math.hypot(se_r, se_i)


def test_rejection_se_matches_sample_std():
    est = sample_conditional_blocks(COIN, window(0.75, 0.15), 50, 1, 20000, "rejection", seed=8)
    value, se = est.estimate_for((1,))
    n_acc = est.accepted
    expected = math.sqrt(value * (1 - value) * n_acc / (n_acc - 1)) / math.sqrt(n_acc)
    assert se == pytest.approx(expected, rel=1e-12)
    assert est.ess == pytest.approx(n_acc)


def test_importance_matches_exact_window_oracle():
    est = sample_conditional_blocks(COIN, window(0.75, 0.05), 100, 1, 2 * 10**5, "tilt-importance", seed=0)
    value, se = est.estimate_for((1,))
    assert abs(value - WINDOW_ORACLE) <= 3 * se
    assert est.ess >= 50


def test_window_oracle_constant_matches_package_oracle():
    windowed = MomentConstraint(COIN_H, "equality", [0.75], epsilon=0.05)
    block = conditional_block_law(COIN, windowed, 100, 1)
    assert block.mass((1,)) == pytest.approx(WINDOW_ORACLE, abs=1e-12)


def test_importance_beats_rejection_acceptance_in_rare_regime():
    # The same proposal budget: rejection keeps about 1 in 60,000 sequences,
    # the proposal tilted to the window's near end about half of them.
    imp = sample_conditional_blocks(COIN, window(0.75, 0.05), 100, 1, 6 * 10**6, "tilt-importance", seed=1)
    rej = sample_conditional_blocks(COIN, window(0.75, 0.05), 100, 1, 6 * 10**6, "rejection", seed=1)
    assert imp.accepted > 1000 * rej.accepted


def test_zero_acceptance_raises_with_advice():
    # No accepted draw is an effective sample size of 0.
    with pytest.raises(LowEffectiveSampleError, match="tilt-importance"):
        sample_conditional_blocks(COIN, window(0.95, 0.01), 100, 1, 1000, "rejection", seed=3)


@pytest.mark.parametrize("n, m", [(5, 1), (1, 1)])
def test_constraint_on_another_alphabet_is_refused(n, m):
    # A statistic on three symbols cannot condition a coin: at n = 5 it would
    # fail on a shape mismatch, and at n = m = 1 it would condition on the
    # wrong statistic without a word.
    c = window(2.0, 0.5, MomentFunction.from_labels(Alphabet.of_size(3)))
    for method in ("rejection", "tilt-importance"):
        with pytest.raises(ValueError, match="constraint and baseline live on different alphabets"):
            sample_conditional_blocks(COIN, c, n, m, 2000, method)


def test_low_effective_sample_raises():
    with pytest.raises(LowEffectiveSampleError):
        sample_conditional_blocks(COIN, window(0.75, 0.05), 100, 1, 10**5, "rejection", seed=5)


def test_sampler_words_keep_the_block_law_word_order(monkeypatch):
    # The words (0, 2) and (2, 0) are drawn 3:1.  An encoder in another word
    # order than BlockLaw's swaps their masses; an exchangeable law, being
    # symmetric, would not show it.
    die3 = Distribution.uniform(Alphabet.of_size(3))
    rows = np.array([(0, 2), (0, 2), (0, 2), (2, 0)])

    def fixed_batch(rng, law, m, count, tail_counts):
        return np.resize(rows, (count, 2)), np.tile([0, 10, 0], (count, 1))  # mean 2

    monkeypatch.setattr(montecarlo, "_draw_window_batch", fixed_batch)
    c = window(2.0, 0.5, MomentFunction.from_labels(die3.alphabet))
    est = sample_conditional_blocks(die3, c, 10, 2, 4000, "rejection")
    word_idx, weights, _ = montecarlo._conditioned_draws(die3, c, 10, 2, 4000, "rejection", 0, 0)
    swept = montecarlo._law_from(word_idx, weights, die3.alphabet, 2)
    expected = {(0, 2): 0.75, (2, 0): 0.25}
    for word in itertools.product(range(3), repeat=2):
        mass = pytest.approx(expected.get(word, 0.0), abs=1e-12)
        assert est.block.mass(word) == mass
        assert swept.mass(word) == mass
        assert est.estimate_for(word)[0] == mass


def test_word_cap_is_checked_before_sampling():
    with pytest.raises(EnumerationCapError, match=r"^k\^m = 1048576 words exceeds the cap of 1000000$"):
        sample_conditional_blocks(COIN, window(0.5, 0.15), 20, 20, 2000)


def test_window_must_be_inside_value_range():
    # The window (0.5, 1.5) is refused when the constraint is built.
    with pytest.raises(ValueError, match="window"):
        sample_conditional_blocks(COIN, window(1.0, 0.5), 20, 1, 2000)


@pytest.mark.parametrize("kind, target", [("equality", 0.75), ("halfspace", 0.75)])
def test_unwindowed_constraint_is_refused(kind, target):
    with pytest.raises(ValueError, match="no window"):
        sample_conditional_blocks(COIN, MomentConstraint(COIN_H, kind, [target]), 20, 1, 2000)


class WordStream:
    """Stands in for the generator of ``_draw_window_batch`` on a uniform law
    and for its tail draw: its uniforms pick the first m symbols of each
    word, and ``tail_types`` returns the type of the rest, its symbol counts
    or on two symbols its head count."""

    def __init__(self, words: np.ndarray, m: int, k: int):
        self.words, self.m, self.k = words, m, k

    def random(self, shape):
        return (self.words[:, : self.m] + 0.5) / self.k

    def tail_types(self, rng, rows):
        assert rng is self and rows == len(self.words)
        return type_keys((self.words[:, self.m :, None] == np.arange(self.k)).sum(axis=1))


def type_keys(counts: np.ndarray) -> np.ndarray:
    """The sampler's types of count rows: the head counts on two symbols."""
    return counts[:, 1] if counts.shape[1] == 2 else counts


@st.composite
def window_events(draw):
    """A statistic on k <= 4 symbols, a size n, an open window (lo, hi) whose
    endpoints are often lattice means, a block length m and a seed."""
    k = draw(st.integers(2, 4), label="k")
    n = draw(st.integers(1, 30), label="n")
    values = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k), label="values")
    assume(len(set(values)) > 1)
    denominator = draw(st.sampled_from([1, 3, 10]), label="denominator")
    h = MomentFunction(Alphabet.of_size(k), np.array(values) / denominator)
    table = h.table[:, 0]
    lattice = np.unique(np.concatenate(list(enumerate_types(k, n))) @ table / n)
    inside = lattice[(lattice > table.min()) & (lattice < table.max())]
    endpoint = st.floats(float(table.min()), float(table.max()))
    if inside.size:
        endpoint = st.one_of(st.sampled_from(inside.tolist()), endpoint)
    lo, hi = sorted([draw(endpoint, label="lo"), draw(endpoint, label="hi")])
    return h, n, lo, hi, draw(st.integers(1, n), label="m"), draw(st.integers(0, 2**32 - 1), label="seed")


# The type (0, 3, 4) has mean 0, and the window's upper end less the
# tolerance of `holds` computes to -2.2e-17.  Seed 0 writes that type with
# first symbol 1.  That symbol's value plus the tail's counts times the
# values gave the mean -1.6e-17, against the oracle's -3.2e-17, so a
# sampler that summed that way dropped a type that the oracle kept.
FALSIFYING_EVENT = (MomentFunction(Alphabet.of_size(3), [0.0, -0.4, 0.3]), 7, -0.3428571428571429, 1e-12, 1, 0)


@settings(max_examples=100, deadline=None)
@given(window_events())
@example(FALSIFYING_EVENT)
def test_sampler_and_oracle_condition_on_the_same_event(event):
    # Every type of size n is written as one randomly ordered word, and the
    # words, in random order, go through the sampler's batch draw.  It must
    # return the types (count rows, or head counts on two symbols), and the
    # verdict on each must be the oracle's, whatever the order of the words
    # and of their symbols.  The verdicts on two symbols come from a table
    # over the head counts, which must equal the oracle's on every row, as
    # the tabulated sums of h must equal each row's own.
    h, n, lo, hi, m, seed = event
    table = h.table[:, 0]
    target, epsilon = 0.5 * (lo + hi), 0.5 * (hi - lo)
    assume(epsilon > 0 and table.min() < target - epsilon and target + epsilon < table.max())
    c = MomentConstraint(h, "equality", [target], epsilon=epsilon)

    k = h.alphabet.size
    counts = np.concatenate(list(enumerate_types(k, n)))
    rng = np.random.default_rng(seed)
    sorted_words = np.repeat(np.tile(np.arange(k), len(counts)), counts.ravel()).reshape(len(counts), n)
    words = np.take_along_axis(sorted_words, rng.random(sorted_words.shape).argsort(axis=1), axis=1)
    order = rng.permutation(len(counts))
    words_in = WordStream(words[order], m, k)
    law = Distribution.uniform(h.alphabet)
    first, types = montecarlo._draw_window_batch(words_in, law, m, len(counts), words_in.tail_types)
    sampler = montecarlo._type_sampler(law, c, n, m)
    assert np.array_equal(first, words[order, :m])
    assert np.array_equal(types, type_keys(counts[order]))
    assert np.array_equal(sampler.holds(types), c.holds_for_counts(counts)[order])
    assert np.array_equal(sampler.holds(type_keys(counts)), c.holds_for_counts(counts))
    assert np.array_equal(sampler.statistic(type_keys(counts)), counts @ table)


@pytest.mark.parametrize("trials", [0, 1, 24, 99, 149, 1000])
def test_binomial_alias_table_holds_the_binomial_law(trials):
    # Value j's mass is its own cell's kept share plus the shares given away
    # by the cells aliased to j, over the trials + 1 cells.  In the last law
    # the head mass rounds to 1, so 1 - p1 is 0 and only p0 gives the odds.
    for p0, p1 in [(1 - p1, p1) for p1 in (0.5, 0.75, 0.1, 1e-3)] + [(1e-17, 1.0)]:
        prob, alias = montecarlo._binomial_alias(trials, p0, p1)
        assert np.all((prob >= 0) & (prob <= 1))
        mass = prob.copy()
        np.add.at(mass, alias, 1.0 - prob)
        mass /= trials + 1
        exact = [math.comb(trials, j) * p1**j * p0 ** (trials - j) for j in range(trials + 1)]
        np.testing.assert_allclose(mass, exact, rtol=0, atol=1e-13)


def test_two_symbol_tail_draw_matches_the_multinomial():
    # 2e5 rows of each draw over 25 head counts: the two histograms lie
    # about 0.004 apart in TV when both draws have the same law.
    law, rows = Distribution.bernoulli(0.3), 200_000
    heads = montecarlo._type_sampler(law, window(0.5, 0.25), 25, 1).tail(np.random.default_rng(0), rows)
    assert heads.shape == (rows,)
    assert np.all((heads >= 0) & (heads <= 24))
    multinomial = np.random.default_rng(1).multinomial(24, law.masses, size=rows)
    gap = np.bincount(heads, minlength=25) - np.bincount(multinomial[:, 1], minlength=25)
    assert 0.5 * np.abs(gap).sum() / rows < 0.01


def test_two_symbol_tail_draw_reads_one_uniform_per_row():
    # Each head count is its uniform's cell or that cell's alias, and a
    # shorter second chunk reads the stream where the first left it.
    prob, alias = montecarlo._binomial_alias(99, 0.25, 0.75)
    draw = montecarlo._type_sampler(Distribution.bernoulli(0.75), window(0.5, 0.25), 100, 1).tail
    rng, twin = np.random.default_rng(3), np.random.default_rng(3)
    for rows in (1000, 300):
        drawn = draw(rng, rows)
        x = twin.random(rows) * 100
        cell = x.astype(int)
        assert np.array_equal(drawn, np.where(x < cell + prob[cell], cell, alias[cell]))


def count_row_draws(p, c, n, m, samples, method, seed, stream_index):
    """The two-symbol sampler written as a loop over count rows: each
    proposal's first m symbols by ``searchsorted``, its full row of symbol
    tallies and its own ``holds_for_counts`` verdict and sum of h.  It reads
    the same uniforms as ``_conditioned_draws`` and returns the same values."""
    if method == "rejection":
        proposal, lam, logz = p, 0.0, 0.0
    else:
        solution = i_project(p, c)
        proposal, lam, logz = solution.tilted, float(solution.multiplier[0]), solution.log_partition
    rng = stream(seed, montecarlo._METHOD_STREAM[method] + 2 * stream_index)
    chunk_rows = min(samples, max(1, montecarlo._CHUNK_CELLS // n))
    prob, alias = montecarlo._binomial_alias(n - m, *proposal.masses.tolist())
    cum = np.cumsum(proposal.masses)
    cum[-1] = 1.0
    words, sums = [], []
    for start in range(0, samples, chunk_rows):
        rows = min(chunk_rows, samples - start)
        first = np.searchsorted(cum, rng.random((rows, m)), side="right")
        x = rng.random(rows) * (n - m + 1)
        cell = x.astype(np.intp)
        heads = np.where(x < cell + prob[cell], cell, alias[cell])
        counts = np.stack([n - m - heads, heads], axis=1)
        for symbol, tally in enumerate(counts.T):
            for column in first.T:
                tally += column == symbol
        keep = c.holds_for_counts(counts)
        words.append(word_index(first[keep], 2, m))
        sums.append(counts[keep] @ c.function.table[:, 0])
    word_idx, sums = np.concatenate(words), np.concatenate(sums)
    if method == "rejection":
        weights = np.full(word_idx.size, 1.0 / word_idx.size)
    else:
        log_w = -lam * sums + n * logz
        log_w -= log_w.max()
        weights = np.exp(np.maximum(log_w, -700.0))
        weights /= weights.sum()
    return word_idx, weights, 1.0 / float((weights**2).sum())


# Both ends of the first window are lattice means at n = 13 (4 and 9 heads),
# so rows sit on its open ends, where the tolerance of `holds` decides.
LATTICE_ENDS = (-0.3 + 4 / 13, -0.3 + 9 / 13)


@pytest.mark.parametrize("method", ["rejection", "tilt-importance"])
@pytest.mark.parametrize(
    "m, n, ends", [(1, 13, LATTICE_ENDS), (2, 13, LATTICE_ENDS), (3, 13, (0.0, 0.5)), (2, 2, (0.0, 0.5)), (3, 3, (0.0, 0.5))]
)
def test_head_count_draws_equal_the_count_row_loop(monkeypatch, method, m, n, ends):
    # Chunks of 3000 // n rows leave a shorter last chunk of the 2500
    # proposals, and n = m draws no tail symbol.  At n = m = 1 no mean lies
    # strictly inside the value range, so no window has an accepted draw.
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 3000)
    law = Distribution.bernoulli(0.3)
    c = window(0.5 * (ends[0] + ends[1]), 0.5 * (ends[1] - ends[0]), MomentFunction(law.alphabet, [-0.3, 0.7]))
    got = montecarlo._conditioned_draws(law, c, n, m, 2500, method, seed=5, stream_index=1)
    want = count_row_draws(law, c, n, m, 2500, method, seed=5, stream_index=1)
    assert np.array_equal(got[0], want[0])
    assert np.array_equal(got[1], want[1])
    assert got[2] == want[2]


# -------------------------------------------------------------------- sweeps


def test_window_sweep_shrinking_trend():
    schedule = WindowSchedule(amplitude=0.5, exponent=0.25)
    points = window_sweep(
        COIN, COIN_H, 0.75, schedule, [25, 50, 100, 150], m=1, samples=4 * 10**5, seed=0
    )
    assert [pt.n for pt in points] == [25, 50, 100, 150]
    assert all(pt.epsilon == pytest.approx(0.5 * pt.n**-0.25) for pt in points)
    first, last = points[0], points[-1]
    allowance = math.hypot(first.std_error, last.std_error)
    assert last.tv_estimate < first.tv_estimate + allowance
    assert all(pt.ess >= 50 for pt in points)


def test_window_sweep_degenerate_weights_raise():
    # Whole-sequence importance weights thin out as n grows; at n = 10^5 a
    # thousand proposals leave an effective sample size of about 5, and the
    # sweep must refuse to publish such an estimate.
    schedule = WindowSchedule(amplitude=0.5, exponent=0.25)
    with pytest.raises(LowEffectiveSampleError, match="effective sample size"):
        window_sweep(COIN, COIN_H, 0.75, schedule, [10**5], m=1, samples=1000, seed=0)


def test_window_sweep_reaches_large_n_within_4_se_of_the_exact_oracle():
    # The default schedule of `windows` out to n = 10^4: the proposal tilted
    # to each window's near end keeps the weights usable, and every point
    # agrees with the exact conditional law.
    schedule = WindowSchedule(amplitude=0.5, exponent=0.25)
    grid = [25, 50, 100, 150, 200, 400, 1600, 10**4]
    points = window_sweep(COIN, COIN_H, 0.75, schedule, grid, m=1, samples=4 * 10**5, seed=0)
    product = product_block_law(Distribution.bernoulli(0.75), 1)
    for pt in points:
        exact = conditional_block_law(COIN, window(0.75, pt.epsilon), pt.n, 1)
        assert abs(pt.tv_estimate - tv_distance(exact, product)) <= 4 * pt.std_error
        assert pt.ess >= 50


def test_window_sweep_standard_error_is_calibrated():
    # z = (tv_estimate - exact tv) / std_error over 400 fixed seeds and two
    # windows per method.  For a calibrated SE the SD of these 800 z-scores
    # is 1 with a sampling error of 1/sqrt(2 * 799) = 0.025, and the band is
    # 4 of those wide on each side.  The delta-method SE reads 1.00
    # (rejection) and 0.98 (tilt-importance) here; the 10-batch SE that it
    # replaced, t-distributed with 9 degrees of freedom, read 1.13 and 1.12.
    schedule = WindowSchedule(amplitude=0.5, exponent=0.25)
    grid, m = [25, 50], 2
    product = product_block_law(Distribution.bernoulli(0.75), m)
    exact = {n: tv_distance(conditional_block_law(COIN, window(0.75, schedule.epsilon(n)), n, m), product) for n in grid}
    for method in ("rejection", "tilt-importance"):
        z = [
            (pt.tv_estimate - exact[pt.n]) / pt.std_error
            for seed in range(400)
            for pt in window_sweep(COIN, COIN_H, 0.75, schedule, grid, m, 2 * 10**4, seed=seed, method=method)
        ]
        assert 0.9 <= np.std(z, ddof=1) <= 1.1, method


def test_window_sweep_unreachable_target_is_a_typed_infeasibility():
    schedule = WindowSchedule(amplitude=0.5, exponent=0.25)
    with pytest.raises(InfeasibleConstraintError, match="not reachable by a tilt"):
        window_sweep(COIN, COIN_H, 1.0, schedule, [25], m=1, samples=2000, seed=0)


def test_window_sweep_fixed_window_plateaus():
    # A nearly constant window that does not contain the baseline mean: the
    # conditional law stabilizes away from the tilt at the window center.
    schedule = WindowSchedule(amplitude=0.15, exponent=0.01)
    points = window_sweep(
        COIN, COIN_H, 0.75, schedule, [50, 100, 200], m=1,
        samples=2 * 10**5, seed=0, method="rejection",
    )
    assert min(pt.tv_estimate for pt in points) > 0.05


# ------------------------------------------------------------------ rate fit


def test_rate_fit_exact_cube_root_law():
    records = [(n, n ** (-1 / 3)) for n in (50, 100, 200, 400, 800)]
    fit = rate_fit(records)
    assert fit.slope == pytest.approx(-1 / 3, abs=1e-9)
    assert fit.residual_rms < 1e-12


def test_rate_fit_sqrt_log_law_slope():
    ns = np.unique(np.geomspace(50, 5000, 12).astype(int))
    records = [(int(n), math.sqrt(math.log(n) / n)) for n in ns]
    fit = rate_fit(records)
    assert -0.5 < fit.slope < -0.4


def test_rate_fit_requires_four_points():
    with pytest.raises(ValueError, match=">= 4"):
        rate_fit([(10, 0.1), (20, 0.05), (40, 0.02)])


def test_rate_fit_rejects_nonpositive_tv():
    with pytest.raises(ValueError, match="sample budget"):
        rate_fit([(10, 0.1), (20, 0.05), (40, 0.0), (80, 0.01)])
