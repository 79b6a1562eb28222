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
    words = np.array([(0, 2), (0, 2), (0, 2), (2, 0)])

    class FixedStream:  # every tail is all middle symbols, so every mean is 2
        def random(self, shape):
            return (np.resize(words, shape) + 0.5) / 3

        def multinomial(self, trials, pvals, size):
            return np.tile([0, trials, 0], (size, 1))

    monkeypatch.setattr(montecarlo, "stream", lambda seed, stream_id: FixedStream())
    c = window(2.0, 0.5, MomentFunction.from_labels(die3.alphabet))
    est = sample_conditional_blocks(die3, c, 10, 2, 4000, "rejection")
    expected = {(0, 2): 0.75, (2, 0): 0.25}
    for word in itertools.product(range(3), repeat=2):
        mass = pytest.approx(expected.get(word, 0.0), abs=1e-12)
        assert est.block.mass(word) == mass
        assert est.estimate_for(word)[0] == mass


def test_word_cap_is_checked_before_sampling():
    with pytest.raises(EnumerationCapError, match=r"^k\^m = 1048576 words exceeds the cap of 1000000$"):
        sample_conditional_blocks(COIN, window(0.5, 0.15), 20, 20, 2000)


def test_window_must_be_inside_value_range():
    # The window (0.5, 1.5) is refused when the constraint is built.
    with pytest.raises(ValueError, match="window"):
        sample_conditional_blocks(COIN, window(1.0, 0.5), 20, 1, 2000)


DIE = Distribution.uniform(Alphabet.of_size(6))
DIE_H = MomentFunction.from_labels(DIE.alphabet)
DIE_H2 = MomentFunction(DIE.alphabet, [[1, 0], [2, 1], [3, 0], [4, 1], [5, 0], [6, 1]])

# Equalities, a halfspace and a d = 2 equality, each with (n, m).  The die
# equality is at m = 1: rejection keeps about 150 of the 2e5 proposals,
# too few for a 4-SE band on each of the 36 words of m = 2.
EVENTS = {
    "coin-equality": (COIN, MomentConstraint(COIN_H, "equality", [0.75]), 24, 3),
    "coin-halfspace": (COIN, MomentConstraint(COIN_H, "halfspace", [0.75]), 40, 2),
    "die-equality": (DIE, MomentConstraint(DIE_H, "equality", [4.5]), 24, 1),
    "die-face-and-even": (DIE, MomentConstraint(DIE_H2, "equality", [4.5, 0.5]), 12, 1),
}


@pytest.mark.parametrize("method", ["rejection", "tilt-importance"])
@pytest.mark.parametrize("event", EVENTS)
def test_sampler_matches_the_exact_block_law_on_every_event_kind(event, method):
    # Over seeds 0-19 the z-scores of the words had SDs 0.94-1.11 per event
    # and method, and none exceeded 3.2 in size.  On an equality of integer
    # statistics every accepted proposal has the same sum of h, so the same
    # weight, and the ESS is the accepted count up to rounding.
    p, c, n, m = EVENTS[event]
    est = sample_conditional_blocks(p, c, n, m, 2 * 10**5, method, seed=0)
    exact = conditional_block_law(p, c, n, m)
    assert np.all(np.abs(est.block.masses - exact.masses) <= 4 * est.std_errors)
    if c.kind == "equality":
        assert est.ess == pytest.approx(est.accepted, rel=1e-12)


class WordStream:
    """Stands in for the generator of the per-proposal path on a uniform
    law: its uniforms pick the first m symbols of each word, and its
    multinomial draw gives the symbol counts of the rest."""

    def __init__(self, words: np.ndarray, m: int, k: int):
        self.words, self.m, self.k = words, m, k

    def random(self, shape):
        assert shape == (len(self.words), self.m)
        return (self.words[:, : self.m] + 0.5) / self.k

    def multinomial(self, trials, pvals, size):
        assert trials == self.words.shape[1] - self.m and size == len(self.words)
        return (self.words[:, self.m :, None] == np.arange(self.k)).sum(axis=1)


@st.composite
def moment_events(draw):
    """A statistic on k <= 4 symbols, a size n, a constraint on its mean, a
    block length m and a seed.  The constraint is an open window (lo, hi), a
    halfspace or an equality; its ends or its target are often lattice
    means, and an equality's target always is."""
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
    kind = draw(st.sampled_from(["window", "halfspace", "equality"]), label="kind")
    if kind == "window":
        lo, hi = sorted([draw(endpoint, label="lo"), draw(endpoint, label="hi")])
        target, epsilon = 0.5 * (lo + hi), 0.5 * (hi - lo)
        assume(epsilon > 0 and table.min() < target - epsilon and target + epsilon < table.max())
        c = window(target, epsilon, h)
    elif kind == "halfspace":
        c = MomentConstraint(h, "halfspace", [draw(endpoint, label="target")])
    else:
        c = MomentConstraint(h, "equality", [draw(st.sampled_from(lattice.tolist()), label="target")])
    return c, n, draw(st.integers(1, n), label="m"), draw(st.integers(0, 2**32 - 1), label="seed")


# The type (0, 3, 4) has mean 0, and the window's upper end less the
# tolerance of `holds` computes to -2.2e-17.  Seed 0 writes that type with
# first symbol 1.  That symbol's value plus the tail's counts times the
# values gave the mean -1.6e-17, against the oracle's -3.2e-17, so a
# sampler that summed that way dropped a type that the oracle kept.
FALSIFYING_ENDS = (-0.3428571428571429, 1e-12)
FALSIFYING_EVENT = (
    window(0.5 * sum(FALSIFYING_ENDS), 0.5 * (FALSIFYING_ENDS[1] - FALSIFYING_ENDS[0]), MomentFunction(Alphabet.of_size(3), [0.0, -0.4, 0.3])),
    7,
    1,
    0,
)


@settings(max_examples=100, deadline=None)
@given(moment_events())
@example(FALSIFYING_EVENT)
def test_sampler_and_oracle_condition_on_the_same_event(event):
    # Every type of size n is written as one randomly ordered word, and the
    # words, in random order, are the proposals of the per-proposal path.
    # It must keep the words of the types that the oracle keeps, whatever
    # the order of the words and of their symbols, and weigh each by its
    # type's own sum of h: a small multiplier keeps every weight near 1, so
    # a wrong sum moves a word's mass far beyond rounding.  On two symbols
    # the verdict and tilt of each word's cell (a, t) must be its type's.
    # The block length is capped so that the k^m word table stays small.
    c, n, m, seed = event
    h = c.function
    k = h.alphabet.size
    m = min(m, 12 // (k - 1))
    counts = np.concatenate(list(enumerate_types(k, n)))
    rng = np.random.default_rng(seed)
    sorted_words = np.repeat(np.tile(np.arange(k), len(counts)), counts.ravel()).reshape(len(counts), n)
    order = rng.permutation(len(counts))
    words = np.take_along_axis(sorted_words, rng.random(sorted_words.shape).argsort(axis=1), axis=1)[order]
    holds, sums = c.holds_for_counts(counts)[order], (counts @ h.table)[order]

    law, lam = Distribution.uniform(h.alphabet), np.array([1e-3])
    mass, mass_sq, accepted = montecarlo._proposal_sums(WordStream(words, m, k), law, c, n, m, len(words), lam, 0.0)
    weights = montecarlo._weights(sums[holds] @ lam, 0.0, n)
    first = word_index(words[holds, :m], k, m)
    assert accepted == holds.sum()
    np.testing.assert_allclose(mass, np.bincount(first, weights=weights, minlength=k**m), rtol=1e-12, atol=0)
    np.testing.assert_allclose(mass_sq, np.bincount(first, weights=weights**2, minlength=k**m), rtol=1e-12, atol=0)
    if k == 2:
        cell_holds, cell_tilts = montecarlo._cell_table(c, n, m, lam)
        cell = words[:, :m].sum(axis=1), words[:, m:].sum(axis=1)
        assert np.array_equal(cell_holds[cell], holds)
        assert np.array_equal(cell_tilts[cell], sums @ lam)


# (p0, p1) laws; in the last one the head mass rounds to 1, so 1 - p1 is 0
# and only p0 gives the odds.
BINOMIAL_LAWS = [(1 - p1, p1) for p1 in (0.5, 0.75, 0.1, 1e-3)] + [(1e-17, 1.0)]


def binomial(trials: int, p0: float, p1: float) -> list[float]:
    return [math.comb(trials, j) * p1**j * p0 ** (trials - j) for j in range(trials + 1)]


@pytest.mark.parametrize("trials", [0, 1, 24, 99, 149, 1000])
def test_binomial_pmf_holds_the_binomial_law(trials):
    for p0, p1 in BINOMIAL_LAWS:
        pmf = montecarlo._binomial_pmf(trials, p0, p1)
        np.testing.assert_allclose(pmf, binomial(trials, p0, p1), rtol=0, atol=1e-13)


@pytest.mark.parametrize("n, m", [(1, 1), (6, 6), (25, 1), (150, 1), (40, 3), (300, 7)])
def test_cell_law_is_the_product_of_two_binomials(n, m):
    # Cell (a, t) holds a heads among the first m symbols and t among the
    # other n - m; at n = m the tail has no trials.
    for p0, p1 in BINOMIAL_LAWS:
        cell_law = montecarlo._cell_law(Distribution(COIN.alphabet, [p0, p1]), n, m)
        exact = np.outer(binomial(m, p0, p1), binomial(n - m, p0, p1))
        np.testing.assert_allclose(cell_law, exact, rtol=0, atol=1e-13)


@pytest.mark.parametrize("method", ["rejection", "tilt-importance"])
@pytest.mark.parametrize("m, n, ends", [(1, 10, (0.1, 0.5)), (2, 10, (0.1, 0.5)), (3, 10, (0.15, 0.45)), (2, 2, (0.1, 0.5)), (3, 3, (0.1, 0.5))])
def test_cell_law_gives_the_enumerated_accepted_mass(method, m, n, ends):
    # Each first-m word's expected accepted mass per proposal, from the cell
    # law split evenly over the C(m, a) words with a heads and weighted by
    # exp(-lam*S + n*M(lam)), is the baseline probability of the sequences
    # that start with that word and meet the window, summed over all 2^n
    # sequences.  At n = 10 both ends of the window (0.1, 0.5) are lattice
    # means (4 and 8 heads), where the tolerance of `holds` decides.
    law = Distribution.bernoulli(0.3)
    c = window(0.5 * (ends[0] + ends[1]), 0.5 * (ends[1] - ends[0]), MomentFunction(law.alphabet, [-0.3, 0.7]))
    proposal, lam, logz = law, np.zeros(1), 0.0
    if method == "tilt-importance":
        solution = i_project(law, c)
        proposal, lam, logz = solution.tilted, solution.multiplier, solution.log_partition
    cell_holds, cell_tilts = montecarlo._cell_table(c, n, m, lam)
    cell_mass = montecarlo._cell_law(proposal, n, m) * cell_holds * np.exp(-cell_tilts + n * logz)
    word_heads = np.array([sum(word) for word in itertools.product(range(2), repeat=m)])
    per_word = (cell_mass.sum(axis=1) / [math.comb(m, a) for a in range(m + 1)])[word_heads]

    sequences = np.array(list(itertools.product(range(2), repeat=n)))
    counts = np.stack([n - sequences.sum(axis=1), sequences.sum(axis=1)], axis=1)
    probability = law.masses[sequences].prod(axis=1) * c.holds_for_counts(counts)
    enumerated = np.bincount(word_index(sequences[:, :m], 2, m), weights=probability, minlength=2**m)
    np.testing.assert_allclose(per_word, enumerated, rtol=0, atol=1e-12)


def count_row_draws(p, c, n, m, samples, method, seed, stream_index):
    """The two-symbol sampler written as a loop over count rows: one
    multinomial draw of the cell histogram, then for each cell (a, t) its own
    row of symbol tallies (n - a - t, a + t), its own ``holds_for_counts``
    verdict and sum of h, and its own multinomial split over the words with
    a heads.  It reads the same stream as ``_conditioned_draws`` and returns
    the same per-word sums."""
    if method == "rejection":
        proposal, lam, logz = p, 0.0, 0.0
    else:
        solution = i_project(p, c)
        proposal, lam, logz = solution.tilted, float(solution.multiplier[0]), solution.log_partition
    rng = stream(seed, montecarlo._METHOD_STREAM[method] + 2 * stream_index)
    counts = rng.multinomial(samples, montecarlo._cell_law(proposal, n, m).ravel()).reshape(m + 1, n - m + 1)
    words = [[word_index(w, 2, m) for w in itertools.product(range(2), repeat=m) if sum(w) == a] for a in range(m + 1)]
    kept = []
    for a in range(m + 1):
        for t in range(n - m + 1):
            row = np.array([[n - a - t, a + t]])
            if counts[a, t] > 0 and c.holds_for_counts(row)[0]:
                kept.append((a, int(counts[a, t]), -lam * float(row[0] @ c.function.table[:, 0]) + n * logz))
    top = max((log_w for _, _, log_w in kept), default=0.0)
    mass, mass_sq = np.zeros(2**m), np.zeros(2**m)
    for a, count, log_w in kept:
        weight = math.exp(max(log_w - top, -700.0))
        split = rng.multinomial(count, np.full(len(words[a]), 1.0 / len(words[a])))
        mass[words[a]] += weight * split
        mass_sq[words[a]] += weight**2 * split
    total = mass.sum()
    return mass / total, mass_sq / total**2, sum(count for _, count, _ in kept)


# Both ends of the first window are lattice means at n = 13 (4 and 9 heads),
# so rows sit on its open ends, where the tolerance of `holds` decides.
LATTICE_ENDS = (-0.3 + 4 / 13, -0.3 + 9 / 13)


@pytest.mark.parametrize("method", ["rejection", "tilt-importance"])
@pytest.mark.parametrize(
    "m, n, ends", [(1, 13, LATTICE_ENDS), (2, 13, LATTICE_ENDS), (3, 13, (0.0, 0.5)), (2, 2, (0.0, 0.5)), (3, 3, (0.0, 0.5))]
)
def test_head_count_draws_equal_the_count_row_loop(monkeypatch, method, m, n, ends):
    # The word split runs in blocks of at most 4 cells, so several blocks
    # read the stream one after another; n = m leaves the tail no trials.
    monkeypatch.setattr(montecarlo, "_CHUNK_CELLS", 4)
    law = Distribution.bernoulli(0.3)
    c = window(0.5 * (ends[0] + ends[1]), 0.5 * (ends[1] - ends[0]), MomentFunction(law.alphabet, [-0.3, 0.7]))
    got = montecarlo._conditioned_draws(law, c, n, m, 2500, method, seed=5, stream_index=1)
    mass, mass_sq, accepted = count_row_draws(law, c, n, m, 2500, method, seed=5, stream_index=1)
    assert got.accepted == accepted
    np.testing.assert_allclose(got.mass, mass, rtol=1e-12, atol=0)
    np.testing.assert_allclose(got.mass_sq, mass_sq, rtol=1e-12, atol=0)
    if method == "rejection":
        assert got.ess == float(accepted)
    else:
        assert got.ess == pytest.approx(1.0 / mass_sq.sum(), rel=1e-12)


@pytest.mark.parametrize("method", ["rejection", "tilt-importance"])
def test_histogram_draw_matches_the_exact_block_law(method):
    # Every one of the 8 words of m = 3 carries at least 3% of the
    # conditional law, so a word split that misplaced or skewed the counts
    # of a cell would leave some word many standard errors off the oracle.
    law = Distribution.bernoulli(0.3)
    c = window(0.3, 0.15, MomentFunction(law.alphabet, [-0.3, 0.7]))
    est = sample_conditional_blocks(law, c, 10, 3, 2 * 10**5, method, seed=0)
    exact = conditional_block_law(law, c, 10, 3)
    assert exact.masses.min() > 0.03
    assert np.all(np.abs(est.block.masses - exact.masses) <= 4 * est.std_errors)


@pytest.mark.parametrize("k", [2, 3])
def test_rejection_ess_is_the_accepted_count(k):
    # At these accepted counts (26,060 and 22,054) the squared weights
    # 1/A^2, summed one by one or per word, do not add up to 1/A exactly,
    # so the reciprocal of either sum would miss A by an ulp.
    law = Distribution.uniform(Alphabet.of_size(k))
    h = MomentFunction.from_labels(law.alphabet)
    center = float(h.table[:, 0].mean())
    est = sample_conditional_blocks(law, window(center + 0.1, 0.2, h), 40, 2, 30_011, "rejection", seed=6)
    assert est.ess == float(est.accepted)


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
    # 4 of those wide on each side.  The delta-method SE reads 0.995
    # (rejection) and 0.991 (tilt-importance) here; the 10-batch SE that it
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
