import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from tiltlab import exact
from tiltlab.exact import (
    EnumerationCapError,
    conditional_block_law,
    conditional_weights,
    convergence_sweep,
    entropy_concentration,
    enumerate_types,
    hypergeometric_block_law,
    hypergeometric_tv_check,
    sanov_bounds_check,
    type_log_prob,
    type_space_size,
)
from tiltlab.simplex import Alphabet, Distribution, product_block_law, tv_distance
from tiltlab.tilting import LATTICE_TOL, InfeasibleConstraintError, MomentConstraint, MomentFunction, i_project

RNG = np.random.default_rng(40318)

COIN = Distribution.bernoulli(0.5)
COIN_H = MomentFunction.from_labels(COIN.alphabet)
MEAN_AT_LEAST_3_4 = MomentConstraint(COIN_H, "halfspace", [0.75])

# Exact conditional head probability Pr(X1=1 | mean >= 3/4) at n=400 for a
# fair coin, from the closed-form binomial sums evaluated in exact rational
# arithmetic:  sum_{S>=300} C(400,S) (S/400) / sum_{S>=300} C(400,S).
HEAD_PROB_N400 = 0.751220126060068

# inf over {q >= 0.75, 2|q - 0.75| > 0.1} of D(Ber(q)||Ber(1/2)) minus the
# projected divergence; the infimum sits at q = 0.8.
BER_KL_GAP_01 = 0.061932721080620534


def bernoulli_divergence(q: float, p: float = 0.5) -> float:
    return q * math.log(q / p) + (1 - q) * math.log((1 - q) / (1 - p))


# Plain-Python references for one row of counts, independent of the table code.


def reference_log_prob(row, p: Distribution) -> float:
    """Multinomial log-probability of one type under ``p``."""
    n = sum(row)
    return math.lgamma(n + 1) + sum(c * math.log(q) - math.lgamma(c + 1) for c, q in zip(row, p.masses.tolist()))


def reference_divergence(row, p: Distribution) -> float:
    """D(row / n || p) in nats, n = sum(row), for a row of counts or of
    nonnegative weights, with 0 ln 0 = 0."""
    n = sum(row)
    return sum(c / n * math.log(c / n / q) for c, q in zip(row, p.masses.tolist()) if c)


def reference_satisfies(row, c: MomentConstraint) -> bool:
    """Does the type's mean, computed term by term, satisfy the constraint?"""
    n = sum(row)
    table = c.function.table.tolist()
    means = [sum(count * h[d] for count, h in zip(row, table)) / n for d in range(len(table[0]))]
    tol = 1e-12 * max(1.0, max(abs(v) for h in table for v in h))
    if c.epsilon is not None:
        target = float(c.target[0])
        return target - c.epsilon + tol < means[0] < target + c.epsilon - tol
    if c.kind == "halfspace":
        return means[0] >= float(c.target[0]) - tol
    return all(abs(mean - target) <= tol for mean, target in zip(means, c.target.tolist()))


def all_types(k: int, n: int) -> np.ndarray:
    return np.concatenate(list(enumerate_types(k, n)))


# -------------------------------------------------------------- enumeration


def test_enumerate_types_k2_n2():
    types = all_types(2, 2).tolist()
    assert types == [[0, 2], [1, 1], [2, 0]]


def test_enumerate_types_k3_n2_count_and_order():
    types = all_types(3, 2).tolist()
    assert len(types) == 6 == type_space_size(3, 2)
    assert types == sorted(types)


def test_enumerate_types_rejects_empty():
    with pytest.raises(ValueError, match=">= 1"):
        list(enumerate_types(6, 0))


def test_enumerate_types_cap():
    with pytest.raises(EnumerationCapError, match="exceed"):
        enumerate_types(30, 30)


def test_type_class_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        type_log_prob([[-1, 3]], COIN)
    with pytest.raises(ValueError, match="shape"):
        sanov_bounds_check([1, 1], COIN)
    with pytest.raises(ValueError, match="shape"):
        hypergeometric_block_law(Alphabet.of_size(3), (1, 1), 1)
    with pytest.raises(ValueError, match=">= 1"):
        type_log_prob([[1, 1], [0, 0]], COIN)
    with pytest.raises(ValueError, match="strictly positive"):
        type_log_prob([[1, 1]], Distribution.bernoulli(0.0))
    with pytest.raises(ValueError, match="strictly positive"):
        conditional_weights(Distribution.bernoulli(0.0), MEAN_AT_LEAST_3_4, 4)


# ------------------------------------------------------- type probabilities


def test_type_log_prob_balanced_pair():
    assert type_log_prob([[1, 1]], COIN)[0] == pytest.approx(math.log(0.5), abs=1e-12)


def test_type_log_prob_single_sequence():
    # Rows of different sizes share one table: each row's size is its sum.
    ns = (3, 10, 25)
    log_probs = type_log_prob([[n, 0] for n in ns], COIN)
    for n, log_prob in zip(ns, log_probs):
        assert log_prob == pytest.approx(-n * math.log(2), abs=1e-10)


def test_sanov_upper_bound_tight_for_point_type(monkeypatch):
    # The upper side's slack is within 1e-9 of 0: the row passes when each
    # side needs a slack of at least -1e-9 (the default) and fails when it
    # needs at least +1e-9.
    assert sanov_bounds_check([[12, 0]], COIN).tolist() == [True]
    monkeypatch.setattr(exact, "SANOV_SLACK_TOL", -1e-9)
    assert sanov_bounds_check([[12, 0]], COIN).tolist() == [False]


@pytest.mark.parametrize("k,n", [(2, 10), (3, 15)])
def test_sanov_bounds_exhaustive_small(k, n):
    p = Distribution(Alphabet.of_size(k), RNG.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
    table = all_types(k, n)
    assert sanov_bounds_check(table, p).all()
    # The two terms of each side's slack, against their plain-Python values.
    log_probs, divergences = type_log_prob(table, p), exact._divergences(table / n, p)
    for row, log_prob, divergence in zip(table.tolist(), log_probs, divergences):
        assert log_prob == pytest.approx(reference_log_prob(row, p), rel=0, abs=1e-12)
        assert n * divergence == pytest.approx(n * reference_divergence(row, p), rel=0, abs=1e-12)


def test_type_probabilities_sum_to_one():
    for k, n in [(2, 23), (3, 17), (4, 12)]:
        p = Distribution(Alphabet.of_size(k), RNG.dirichlet(np.ones(k)) * 0.9 + 0.1 / k)
        table = all_types(k, n)
        log_probs = type_log_prob(table, p)
        np.testing.assert_allclose(
            log_probs, [reference_log_prob(row, p) for row in table.tolist()], rtol=0, atol=1e-12
        )
        assert float(np.exp(log_probs).sum()) == pytest.approx(1.0, abs=1e-9)


# ------------------------------------------------------ conditional weights


def test_conditional_weights_coin_n4():
    weights = conditional_weights(COIN, MEAN_AT_LEAST_3_4, 4)
    table = {tuple(row): w for row, w in zip(weights.types.tolist(), weights.weights)}
    assert set(table) == {(1, 3), (0, 4)}
    assert table[(1, 3)] == pytest.approx(0.8, abs=1e-12)
    assert table[(0, 4)] == pytest.approx(0.2, abs=1e-12)
    assert weights.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_conditional_weights_vacuous_constraint():
    vacuous = MomentConstraint(COIN_H, "halfspace", [0.0])
    weights = conditional_weights(COIN, vacuous, 6)
    assert len(weights.types) == 7
    for row, w in zip(weights.types.tolist(), weights.weights):
        assert w == pytest.approx(math.exp(reference_log_prob(row, COIN)), abs=1e-12)
    assert weights.event_log_prob == pytest.approx(0.0, abs=1e-12)


def test_conditional_weights_single_feasible_type():
    die = Distribution.uniform(Alphabet.of_size(6))
    h = MomentFunction.from_labels(die.alphabet)
    c = MomentConstraint(h, "halfspace", [6.0])
    weights = conditional_weights(die, c, 5)
    assert len(weights.types) == 1
    assert weights.types[0].tolist() == [0, 0, 0, 0, 0, 5]
    assert weights.weights[0] == pytest.approx(1.0)


def test_conditional_weights_empty_names_smallest_feasible_n():
    third = MomentConstraint(COIN_H, "equality", [1 / 3])
    with pytest.raises(InfeasibleConstraintError, match="n = 3"):
        conditional_weights(COIN, third, 4)


# ------------------------------------------------- hypergeometric block law


def test_block_laws_refuse_more_words_than_the_cap():
    # 2^20 words: refused before any word is materialized.
    message = r"^k\^m = 1048576 words exceeds the cap of 1000000$"
    with pytest.raises(EnumerationCapError, match=message):
        hypergeometric_block_law(COIN.alphabet, (10, 10), 20)
    with pytest.raises(EnumerationCapError, match=message):
        conditional_block_law(COIN, MEAN_AT_LEAST_3_4, 20, 20)


def test_hypergeometric_one_of_each():
    block = hypergeometric_block_law(COIN.alphabet, (1, 1), 2)
    assert block.mass((0, 1)) == pytest.approx(0.5, abs=1e-15)
    assert block.mass((1, 0)) == pytest.approx(0.5, abs=1e-15)
    assert block.mass((0, 0)) == 0.0  # repeats impossible without replacement


def test_hypergeometric_point_type():
    block = hypergeometric_block_law(COIN.alphabet, (7, 0), 3)
    assert block.mass((0, 0, 0)) == pytest.approx(1.0, abs=1e-15)


def test_hypergeometric_m1_is_frequency_view():
    block = hypergeometric_block_law(Alphabet.of_size(3), (2, 3, 5), 1)
    np.testing.assert_allclose([block.mass((i,)) for i in range(3)], [0.2, 0.3, 0.5], atol=1e-15)


def test_hypergeometric_masses_follow_the_shared_word_order():
    # Word masses depend on the word's symbol counts, so a word mapped to
    # the wrong count class shows here; k = 3 has classes that k = 2 lacks.
    counts = (2, 3, 4)
    law = hypergeometric_block_law(Alphabet.of_size(3), counts, 3)
    for i, word in enumerate(itertools.product(range(3), repeat=3)):
        falling = math.prod(math.perm(counts[s], word.count(s)) for s in range(3))
        assert law.masses[i] == law.mass(word) == pytest.approx(falling / math.perm(9, 3), rel=1e-15, abs=0)


def test_hypergeometric_block_longer_than_type_raises():
    with pytest.raises(ValueError, match="exceeds"):
        hypergeometric_block_law(COIN.alphabet, (1, 1), 3)


def test_collision_bound_equality_case():
    check = hypergeometric_tv_check((1, 1), 2)
    assert check.passed
    assert check.tv == pytest.approx(0.5, abs=1e-12)
    assert check.bound == pytest.approx(0.5, abs=1e-15)


def test_collision_bound_m1_is_zero():
    check = hypergeometric_tv_check((4, 4, 2), 1)
    assert check.tv == pytest.approx(0.0, abs=1e-15)
    assert check.bound == 0.0


def test_collision_bound_small_slice():
    for n in (10, 20):
        for m in (2, 3):
            for row in all_types(3, n):
                assert hypergeometric_tv_check(row, m).passed


# ----------------------------------------------------- conditional block law


def test_conditional_block_law_coin_n4():
    block = conditional_block_law(COIN, MEAN_AT_LEAST_3_4, 4, 1)
    assert block.mass((1,)) == pytest.approx(0.8, abs=1e-14)


def test_conditional_block_law_vacuous_matches_baseline():
    vacuous = MomentConstraint(COIN_H, "halfspace", [0.0])
    block = conditional_block_law(COIN, vacuous, 9, 1)
    assert block.mass((1,)) == pytest.approx(0.5, abs=1e-12)
    # The unconditioned mixture telescopes to the i.i.d. law for any m.
    two = conditional_block_law(COIN, vacuous, 9, 2)
    assert tv_distance(two, product_block_law(COIN, 2)) <= 1 / 9


def test_conditional_block_law_marginal_consistency():
    two = conditional_block_law(COIN, MEAN_AT_LEAST_3_4, 12, 2)
    one = conditional_block_law(COIN, MEAN_AT_LEAST_3_4, 12, 1)
    for s in range(2):
        collapsed = sum(two.mass((s, u)) for u in range(2))
        assert collapsed == pytest.approx(one.mass((s,)), abs=1e-10)


def test_conditional_block_law_n400_head_probability():
    block = conditional_block_law(COIN, MEAN_AT_LEAST_3_4, 400, 1)
    assert block.mass((1,)) == pytest.approx(HEAD_PROB_N400, abs=1e-12)
    assert abs(block.mass((1,)) - 0.75) < 0.02


# ----------------------------------------------------------- exact sweeps


def test_convergence_sweep_coin():
    grid = list(range(20, 401, 20))
    records = convergence_sweep(COIN, MEAN_AT_LEAST_3_4, 1, grid)
    tvs = [r.tv for r in records]
    assert all(tv > 0 for tv in tvs)
    assert tvs[-1] < tvs[0] / 2
    # decreasing beyond small-n noise
    assert all(a >= b for a, b in zip(tvs[1:], tvs[2:]))
    # bad mass vanishes along the grid
    assert records[-1].bad_mass < 1e-6
    bads = [r.bad_mass for r in records if r.n >= 40]
    assert all(a >= b for a, b in zip(bads, bads[1:]))
    for r in records:
        assert r.tv <= r.envelope_alt + 2 * r.bad_mass + 1e-12
        assert r.tv <= r.envelope_thm + 1e-12
        assert r.delta == pytest.approx(r.n ** (-1 / 3))


def test_fixed_window_sweep_converges_to_the_i_projection():
    # The window (0.65, 0.85) does not hold the baseline mean 0.5, so the
    # conditional law piles up at its near end: the limit is the tilt to
    # 0.65, not to the midpoint, and the exact distance falls like 1/n.
    window = MomentConstraint(COIN_H, "equality", [0.75], epsilon=0.1)
    assert i_project(COIN, window).tilted.masses[1] == pytest.approx(0.65, abs=1e-10)
    for r in convergence_sweep(COIN, window, 1, [400, 1600, 6400]):
        assert r.n * r.tv <= 3.0


def test_convergence_sweep_vacuous_constraint():
    vacuous = MomentConstraint(COIN_H, "halfspace", [0.0])
    records = convergence_sweep(COIN, vacuous, 2, [10, 20, 40])
    for r in records:
        assert r.tv <= r.m * (r.m - 1) / (2 * r.n) + 1e-12


def test_type_class_size_bounded_by_entropy():
    # ln of the number of sequences in a type class is at most n times the
    # entropy of its frequency vector (method-of-types count bound).
    from scipy.special import gammaln

    from tiltlab.simplex import entropy

    for k, n in [(2, 30), (3, 12), (4, 9)]:
        for row in all_types(k, n):
            counts = row.astype(float)
            log_count = gammaln(n + 1) - gammaln(counts + 1).sum()
            assert log_count <= n * entropy(Distribution(Alphabet.of_size(k), counts / n)) + 1e-9


# -------------------------------------------------------------------- kl gap


def kl_gap_per_type_loop(p, c, delta, grid_density):
    """The divergence gap of the constraint set outside an L1 ball around the
    projection,

        inf { D(Q||P) - D(P*||P) : Q feasible, ||Q - P*||_1 > delta },

    over the feasible lattice of denominator ``grid_density``, as a plain
    loop.  Each far lattice point is shrunk along the segment toward the
    projection onto the L1 sphere of radius delta: the segment stays
    feasible by convexity, and shrinking never increases the divergence."""
    projection = i_project(p, c)
    star = projection.tilted.masses.tolist()
    best = math.inf
    for row in brute_force_types(p.alphabet.size, grid_density):
        if not reference_satisfies(row, c):
            continue
        freq = [count / grid_density for count in row]
        dist = sum(abs(f - s) for f, s in zip(freq, star))
        if dist > delta:
            q = [s + delta / dist * (f - s) for f, s in zip(freq, star)]
            best = min(best, reference_divergence(q, p) - projection.divergence)
    return math.inf if math.isinf(best) else max(0.0, best)


def test_kl_gap_matches_scalar_scan():
    gap = kl_gap_per_type_loop(COIN, MEAN_AT_LEAST_3_4, 0.1, grid_density=200)
    assert gap == pytest.approx(BER_KL_GAP_01, abs=1e-8)
    assert gap == pytest.approx(
        bernoulli_divergence(0.8) - bernoulli_divergence(0.75), abs=1e-8
    )


def test_bad_mass_bounded_by_gap_envelope():
    # The conditional mass outside the delta ball obeys the concentration
    # envelope (n+1)^k exp(-n * gap(delta)) built from the divergence gap.
    for n in (40, 100, 200):
        records = convergence_sweep(COIN, MEAN_AT_LEAST_3_4, 1, [n])
        delta = records[0].delta
        gap = kl_gap_per_type_loop(COIN, MEAN_AT_LEAST_3_4, delta, grid_density=max(200, 2 * n))
        envelope = (n + 1) ** 2 * math.exp(-n * gap)
        assert records[0].bad_mass <= envelope + 1e-15


# ------------------------------------------------------ entropy concentration


def test_entropy_concentration_headline_interval():
    die = Distribution.uniform(Alphabet.of_size(6))
    report = entropy_concentration(die, 1000, 20000, seed=3, interval=(1.786, 1.792))
    assert abs(report.coverage - 0.95) < 0.02


def test_entropy_concentration_full_range_interval():
    die = Distribution.uniform(Alphabet.of_size(6))
    report = entropy_concentration(die, 500, 2000, seed=1, interval=(0.0, math.log(6)))
    assert report.coverage == 1.0


def test_entropy_concentration_quantile_scaling():
    die = Distribution.uniform(Alphabet.of_size(6))
    small = entropy_concentration(die, 300, 20000, seed=5, interval=(0, 2))
    large = entropy_concentration(die, 3000, 20000, seed=6, interval=(0, 2))
    # delta_h quantiles scale like 1/N, so the 2*N*delta_h quantiles agree.
    ratio = (small.q95 / (2 * 300)) / (large.q95 / (2 * 3000))
    assert abs(ratio - 10.0) < 1.5


# ------------------------------------------- array oracle vs per-type loops


def brute_force_types(k: int, n: int) -> list[tuple[int, ...]]:
    # The first k-1 counts range freely; the last one is what is left of n.
    return [
        head + (n - sum(head),)
        for head in itertools.product(range(n + 1), repeat=k - 1)
        if sum(head) <= n
    ]


def assert_matches_per_type_loop(p: Distribution, c: MomentConstraint, n: int) -> None:
    """conditional_weights equals a plain loop over the types, with each
    type's feasibility and log-probability computed in plain Python.

    The log-probabilities agree with the plain-Python ones to 1e-12.  The
    weights are held to 1e-15 against ``type_log_prob`` on the reference
    types, since at that scale any two log-domain roundings differ (both
    the table code and an exact rational reference are up to 1.5e-15 apart).
    """
    types = [row for row in brute_force_types(p.alphabet.size, n) if reference_satisfies(row, c)]
    if not types:
        with pytest.raises(InfeasibleConstraintError):
            conditional_weights(p, c, n)
        return
    log_probs = type_log_prob(types, p)
    np.testing.assert_allclose(log_probs, [reference_log_prob(row, p) for row in types], rtol=0, atol=1e-12)
    event = logsumexp(log_probs)
    reference = np.exp(log_probs - event)
    weights = conditional_weights(p, c, n)
    table = all_types(p.alphabet.size, n)
    feasible = table[c.holds_for_counts(table)]
    assert weights.types.tolist() == [list(row) for row in types] == feasible.tolist()
    assert weights.types.dtype == feasible.dtype
    with pytest.raises(ValueError, match="read-only"):
        weights.types[0, 0] = 0
    np.testing.assert_allclose(weights.weights, reference / reference.sum(), rtol=0, atol=1e-15)
    assert weights.event_log_prob == pytest.approx(event, abs=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
def test_type_table_matches_brute_force(k, monkeypatch):
    # Small blocks make every table span several of them.  On two symbols,
    # a size past the block gives one prefix more children than a block holds.
    monkeypatch.setattr(exact, "_BLOCK_ROWS", 7)
    for n in [*range(1, 13), *([15, 21, 22] if k <= 2 else [])]:
        blocks = list(enumerate_types(k, n))
        assert all(len(block) <= 7 and block.dtype == np.int64 for block in blocks)
        assert [tuple(row) for row in np.concatenate(blocks).tolist()] == brute_force_types(k, n)


def test_log_factorial_table_is_no_farther_from_mpmath_than_gammaln():
    # Summed absolute error against 40-digit log-factorials, at every n up
    # to 2,000 and at 2,000 sizes up to 2e5.
    ns = np.concatenate([np.arange(2001), np.random.default_rng(2).integers(2001, 200_001, 2000)])
    table = exact._log_factorials(1 << 18)[ns]
    with mpmath.workdps(40):
        reference = [mpmath.loggamma(n + 1) for n in ns.tolist()]

        def error(values):
            return float(sum(abs(mpmath.mpf(v) - r) for v, r in zip(values.tolist(), reference)))

        assert error(table) <= error(gammaln(ns + 1.0))


def test_type_table_cap_refused_before_any_block(monkeypatch):
    with pytest.raises(EnumerationCapError):
        enumerate_types(30, 30)
    # C(21, 1) = 21 coin types of size 20 exceed a cap of 20.
    monkeypatch.setattr(exact, "DEFAULT_TYPE_CAP", 20)
    with pytest.raises(EnumerationCapError):
        conditional_weights(COIN, MEAN_AT_LEAST_3_4, 20)


RAND4 = Distribution(Alphabet.of_size(4), np.array([0.1, 0.2, 0.3, 0.4]))
RAND4_H = MomentFunction(RAND4.alphabet, np.array([0.3, 1.7, 2.2, -0.4]))
DIE = Distribution.uniform(Alphabet.of_size(6))
DIE_H = MomentFunction.from_labels(DIE.alphabet)
DIE_H2 = MomentFunction(DIE.alphabet, np.array([[1, 0], [2, 1], [3, 0], [4, 1], [5, 0], [6, 1]]))


@pytest.mark.parametrize(
    "p,c,n",
    [
        (DIE, MomentConstraint(DIE_H, "equality", [4.5]), 12),
        (DIE, MomentConstraint(DIE_H2, "equality", [4.5, 0.5]), 12),
        (DIE, MomentConstraint(DIE_H, "halfspace", [4.0]), 9),
        (DIE, MomentConstraint(DIE_H, "equality", [4.5], epsilon=0.3), 10),
        (RAND4, MomentConstraint(RAND4_H, "equality", [1.0], epsilon=0.2), 11),
        (RAND4, MomentConstraint(RAND4_H, "halfspace", [1.2]), 11),
    ],
    ids=["equality-d1", "equality-d2", "halfspace", "window", "window-rational", "halfspace-rational"],
)
def test_conditional_weights_match_per_type_loop(p, c, n):
    assert_matches_per_type_loop(p, c, n)


@pytest.mark.parametrize(
    "p,c,n,m",
    [
        (DIE, MomentConstraint(DIE_H, "equality", [4.5]), 12, 3),
        (RAND4, MomentConstraint(RAND4_H, "equality", [1.0], epsilon=0.2), 11, 4),
        (COIN, MEAN_AT_LEAST_3_4, 40, 5),
    ],
)
def test_block_mixture_matches_per_type_hypergeometric_laws(p, c, n, m):
    weights = conditional_weights(p, c, n)
    block = exact._block_from_weights(weights, m)
    words = list(itertools.product(range(p.alphabet.size), repeat=m))
    mixture = np.zeros(len(words))
    for row, w in zip(weights.types.tolist(), weights.weights):
        law = hypergeometric_block_law(p.alphabet, row, m)
        mixture += w * np.array([law.mass(word) for word in words])
    mixture /= mixture.sum()
    np.testing.assert_allclose([block.mass(word) for word in words], mixture, rtol=0, atol=1e-15)


def test_block_mixture_big_int_path_matches_int64_path():
    # At m = 7, n^m crosses 2^62 near n = 463: n = 400 takes int64
    # products and n = 700 exact Python ints.
    for n in (400, 700):
        counts = (n // 4, n - n // 4)
        law = hypergeometric_block_law(COIN.alphabet, counts, 7)
        for word in itertools.product(range(2), repeat=7):
            ones = sum(word)
            expected = math.perm(counts[1], ones) * math.perm(counts[0], 7 - ones) / math.perm(n, 7)
            assert law.mass(word) == pytest.approx(expected, rel=1e-15, abs=0)


def per_type_mixture(k, rows, weights, n, m):
    """The block mixture written as a loop over types: each word's count
    class from its sorted digits, an int64 falling-factorial product per
    (type, class) while n^m < 2^62 and exact Python ints past that, and each
    type's weighted masses added to the total in type order."""
    digits = np.arange(k**m)[:, None] // k ** np.arange(m - 1, -1, -1) % k
    sorted_words, inverse = np.unique(np.sort(digits, axis=1), axis=0, return_inverse=True)
    classes = (sorted_words[:, :, None] == np.arange(k)).sum(axis=1)
    denom = math.prod(range(n, n - m, -1))
    total = np.zeros(len(classes))
    if n**m < 2**62:
        steps, symbols = np.arange(m), np.arange(k)
        falling = np.ones((k, m + 1), dtype=np.int64)  # falling[j, c] = (n_j)_c
        for row, w in zip(np.asarray(rows, dtype=np.int64), weights):
            np.cumprod(np.maximum(row[:, None] - steps, 0), axis=1, out=falling[:, 1:])
            total += w * (falling[symbols, classes].prod(axis=1) / denom)
    else:
        for row, w in zip(np.asarray(rows).tolist(), weights):
            masses = [
                math.prod(math.prod(range(nj, nj - cj, -1)) for nj, cj in zip(row, counts)) / denom
                for counts in classes.tolist()
            ]
            total += w * np.array(masses)
    return total[inverse.ravel()]


def random_types(rng, k, n, rows):
    """``rows`` random types of size n on k symbols, from sorted cut points."""
    cuts = np.sort(rng.integers(0, n + 1, size=(rows, k - 1)), axis=1)
    return np.diff(np.column_stack([np.zeros(rows, dtype=int), cuts, np.full(rows, n)]), axis=1)


@pytest.mark.parametrize("block_rows", [1, 5, exact._BLOCK_ROWS])
def test_block_mixture_table_equals_the_per_type_loop(block_rows, monkeypatch):
    # Bit for bit, over several ragged blocks of types, for int64 products
    # (n^m < 2^62) and Python-int ones (n^m >= 2^62) on either side of the
    # switch, on sizes past 2^53 where the products round when divided.
    rng = np.random.default_rng(24)
    die = conditional_weights(DIE, MomentConstraint(DIE_H, "equality", [4.5]), 24)
    cases = [(6, die.types, die.weights, 24, 5)]
    for k, n, m, rows in [(2, 40, 5, 301), (3, 2000, 4, 257), (2, 463, 7, 103), (2, 464, 7, 103),
                          (3, 1_664_510, 3, 67), (3, 1_664_511, 3, 67), (4, 10**6, 6, 29)]:
        weights = rng.random(rows)
        cases.append((k, random_types(rng, k, n, rows), weights / weights.sum(), n, m))
    monkeypatch.setattr(exact, "_BLOCK_ROWS", block_rows)  # after the enumeration above
    for k, rows, weights, n, m in cases:
        expected = per_type_mixture(k, rows, weights, n, m)
        assert np.array_equal(exact._hypergeometric_mixture(k, rows, weights, n, m), expected)


@st.composite
def random_problem(draw):
    k = draw(st.integers(2, 4))
    masses = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    p = Distribution(Alphabet.of_size(k), masses / masses.sum())
    h = MomentFunction(p.alphabet, np.array(draw(st.permutations(range(k))), dtype=float))
    target = draw(st.floats(0.2, k - 1.2))
    kind = draw(st.sampled_from(["equality", "halfspace", "window"]))
    if kind == "window":
        c = MomentConstraint(h, "equality", [target], epsilon=draw(st.floats(0.05, 0.1)))
    elif kind == "equality":
        # Land the target on the lattice of some size so the event is not empty.
        n0 = draw(st.integers(1, 15))
        c = MomentConstraint(h, "equality", [round(target * n0) / n0])
    else:
        c = MomentConstraint(h, "halfspace", [target])
    return p, c, draw(st.integers(1, 15))


@settings(max_examples=60, deadline=None)
@given(random_problem())
def test_conditional_weights_property_random_baselines(problem):
    p, c, n = problem
    assert_matches_per_type_loop(p, c, n)


@st.composite
def growth_problem(draw):
    """A constraint on k = 2..5 symbols, with an integer or real h table,
    whose target, or a window end, sits on the mean of a type of some size
    up to 15, or a fraction of the tolerance of ``holds`` or twice it away;
    and a size n up to 15, which may have no feasible type."""
    k = draw(st.integers(2, 5))
    kind = draw(st.sampled_from(["equality", "equality-2d", "halfspace", "window"]))
    d = 2 if kind == "equality-2d" else 1
    values = st.integers(-3, 6) if draw(st.booleans()) else st.floats(-5, 5)
    table = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=k, max_size=k)), dtype=float)
    assume(np.all(table.max(axis=0) > table.min(axis=0)))
    h = MomentFunction(Alphabet.of_size(k), table)
    n0 = draw(st.integers(1, 15))
    cuts = sorted(draw(st.lists(st.integers(0, n0), min_size=k - 1, max_size=k - 1)))
    row = np.diff([0, *cuts, n0])
    tol = LATTICE_TOL * max(1.0, float(np.abs(table).max()))
    target = row @ table / n0 + draw(st.sampled_from([0.0, -0.5, 0.5, -1.0, 1.0, 2.0])) * tol
    if kind == "window":
        epsilon = draw(st.floats(0.05, 2.0))
        target = target + draw(st.sampled_from([-1, 0, 1])) * epsilon
        assume(table.min() < target[0] - epsilon and target[0] + epsilon < table.max())
        c = MomentConstraint(h, "equality", target, epsilon=epsilon)
    else:
        c = MomentConstraint(h, "halfspace" if kind == "halfspace" else "equality", target)
    return c, draw(st.integers(1, 15))


@settings(max_examples=300, deadline=None)
@given(growth_problem(), st.sampled_from([3, 7]))
def test_pruned_growth_equals_the_filtered_full_enumeration(problem, block_rows):
    # The types that the pruned growth yields and that meet the constraint
    # are exactly those of the full table, in its order; no block is empty.
    # A size with none is a typed error whose hint names the smallest size,
    # up to 15, with a feasible type in the full table.
    c, n = problem
    k = c.function.alphabet.size
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(exact, "_BLOCK_ROWS", block_rows)
        patch.setattr(exact, "FEASIBLE_PROBE_LIMIT", 15)
        full = all_types(k, n)
        expected = full[c.holds_for_counts(full)]
        blocks = list(exact._types(k, n, c))
        assert all(0 < len(block) <= block_rows for block in blocks)
        pruned = np.concatenate([np.empty((0, k), dtype=np.int64), *blocks])
        assert np.array_equal(pruned[c.holds_for_counts(pruned)], expected)
        if not len(expected):
            smallest = next((size for size in range(1, 16) if c.holds_for_counts(all_types(k, size)).any()), None)
            hint = "" if smallest is None else f"; smallest feasible size is n = {smallest}"
            with pytest.raises(InfeasibleConstraintError) as error:
                conditional_weights(Distribution.uniform(c.function.alphabet), c, n)
            assert str(error.value) == f"no type of size {n} satisfies the constraint{hint}"


def test_pruned_growth_grows_few_infeasible_types():
    # At n = 24, 1,105 of the 118,755 die types have mean 4.5 and 140 have
    # means (4.5, 0.5); the last symbol's count is fixed by the others, so
    # growth yields just the feasible types.
    for h, target, feasible in [(DIE_H, [4.5], 1105), (DIE_H2, [4.5, 0.5], 140)]:
        c = MomentConstraint(h, "equality", target)
        rows = np.concatenate(list(exact._types(6, 24, c)))
        assert len(rows) == c.holds_for_counts(rows).sum() == feasible


@pytest.mark.parametrize("k,m", [(2, 1), (3, 4), (6, 5), (2, 19), (64, 1)])
def test_word_classes_are_the_distinct_count_rows_of_the_words(k, m):
    # (64, 1) has (m+1)^k = 2^64 > 2^63: a base-(m+1) integer key of the
    # counts would overflow there.
    classes, inverse = exact._word_classes(k, m)
    words = np.indices((k,) * m, dtype=np.uint8).reshape(m, -1)  # the first coordinate varies slowest
    counts = np.stack([(words == j).sum(axis=0) for j in range(k)], axis=1)
    assert np.array_equal(classes[inverse], counts)
    assert len(classes) == math.comb(m + k - 1, m) == len(np.unique(classes, axis=0))
