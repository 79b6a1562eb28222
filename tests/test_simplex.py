import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tiltlab.simplex import (
    Alphabet,
    BlockLaw,
    Distribution,
    EnumerationCapError,
    entropy,
    kl_divergence,
    product_block_law,
    tv_distance,
)

RNG = np.random.default_rng(20260810)


def random_law(k: int) -> Distribution:
    return Distribution(Alphabet.of_size(k), RNG.dirichlet(np.ones(k)))


# ---------------------------------------------------------------- validation


def test_alphabet_requires_two_distinct_symbols():
    with pytest.raises(ValueError):
        Alphabet(("a",))
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))


def test_negative_mass_rejected():
    with pytest.raises(ValueError, match="negative"):
        Distribution(Alphabet.of_size(2), np.array([1.1, -0.1]))


def test_mass_sum_renormalize_band_warns():
    masses = np.array([0.5, 0.5 + 3e-10])
    with pytest.warns(UserWarning, match="renormalizing"):
        p = Distribution(Alphabet.of_size(2), masses)
    assert abs(p.masses.sum() - 1.0) < 1e-15


def test_mass_sum_far_off_rejected():
    with pytest.raises(ValueError, match="beyond tolerance"):
        Distribution(Alphabet.of_size(2), np.array([0.5, 0.51]))


def test_strictly_positive_flag():
    assert Distribution.bernoulli(0.3).strictly_positive
    assert not Distribution(Alphabet.of_size(3), np.eye(3)[1]).strictly_positive


# ------------------------------------------------------------------- entropy


def test_entropy_uniform_six_faces():
    die = Distribution.uniform(Alphabet.of_size(6))
    assert entropy(die) == pytest.approx(1.79176, abs=1e-5)
    assert entropy(die) == pytest.approx(math.log(6), abs=1e-12)


def test_entropy_point_mass_is_zero():
    assert entropy(Distribution(Alphabet.of_size(4), np.eye(4)[2])) == 0.0


def test_entropy_of_mean_45_die_tilt():
    # Exact tilt of the fair die to mean 4.5, built from the known
    # multiplier rather than any solver in this package.
    lam = 0.37105
    weights = np.exp(lam * np.arange(1, 7))
    law = Distribution(Alphabet.of_size(6), weights / weights.sum())
    assert entropy(law) == pytest.approx(1.61358, abs=1e-4)


def test_entropy_bounds_and_uniform_maximum():
    for k in (2, 3, 6):
        uniform_h = entropy(Distribution.uniform(Alphabet.of_size(k)))
        for _ in range(25):
            h = entropy(random_law(k))
            assert 0.0 <= h <= math.log(k) + 1e-12
            assert h <= uniform_h + 1e-12


# -------------------------------------------------------------------- KL / TV


def test_kl_identity_is_zero():
    p = random_law(5)
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)


def test_kl_bernoulli_three_quarters_vs_half():
    q = Distribution.bernoulli(0.75)
    p = Distribution.bernoulli(0.5)
    # Two-term sum: 0.75 ln(1.5) + 0.25 ln(0.5).
    assert kl_divergence(q, p) == pytest.approx(0.130812, abs=1e-6)


def test_kl_point_mass_vs_fair_coin():
    q = Distribution(Alphabet(("0", "1")), np.array([0.0, 1.0]))
    p = Distribution.bernoulli(0.5)
    assert kl_divergence(q, p) == pytest.approx(math.log(2), abs=1e-12)


def test_kl_infinite_raises():
    q = Distribution.bernoulli(0.5)
    p = Distribution(Alphabet(("0", "1")), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="infinite"):
        kl_divergence(q, p)


def test_kl_nonnegative_zero_iff_equal():
    for _ in range(40):
        q, p = random_law(4), random_law(4)
        d = kl_divergence(q, p)
        assert d >= 0.0
        if tv_distance(q, p) <= 1e-10:
            assert d <= 1e-10
        assert kl_divergence(q, q) <= 1e-10


def test_pinsker_inequality():
    for _ in range(40):
        q, p = random_law(5), random_law(5)
        assert tv_distance(q, p) ** 2 <= kl_divergence(q, p) / 2 + 1e-12


def test_tv_identity_and_disjoint():
    p = random_law(4)
    assert tv_distance(p, p) == 0.0
    a = Distribution(Alphabet.of_size(3), np.eye(3)[0])
    b = Distribution(Alphabet.of_size(3), np.eye(3)[2])
    assert tv_distance(a, b) == 1.0


def test_tv_mismatched_alphabets_raises():
    with pytest.raises(ValueError, match="alphabets"):
        tv_distance(random_law(3), random_law(4))


def test_tv_block_law_vs_product():
    alphabet = Alphabet.of_size(2)
    # Mass 1/2 each on the two mixed words; its one-coordinate marginals are
    # fair coins, yet the law is far from the product of those marginals.
    paired = BlockLaw(alphabet, 2, [0.0, 0.5, 0.5, 0.0])
    fair = product_block_law(Distribution.uniform(alphabet), 2)
    assert tv_distance(paired, fair) == pytest.approx(0.5, abs=1e-12)


def test_tv_block_length_mismatch_raises():
    alphabet = Alphabet.of_size(2)
    one = BlockLaw(alphabet, 1, [1.0, 0.0])
    two = BlockLaw(alphabet, 2, [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="block lengths"):
        tv_distance(one, two)


def test_tv_mixed_kinds_raise():
    alphabet = Alphabet.of_size(2)
    law = BlockLaw(alphabet, 1, [1.0, 0.0])
    with pytest.raises(TypeError):
        tv_distance(Distribution.uniform(alphabet), law)


# ------------------------------------------------------------------ products


def test_product_block_law_m1_is_identity():
    p = random_law(3)
    block = product_block_law(p, 1)
    for i in range(3):
        assert block.mass((i,)) == pytest.approx(p.masses[i], abs=1e-12)


def test_product_block_law_fair_coin_m2():
    block = product_block_law(Distribution.bernoulli(0.5), 2)
    for word in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert block.mass(word) == pytest.approx(0.25, abs=1e-12)


def test_product_block_law_word_mass():
    p = Distribution(Alphabet.of_size(2), np.array([0.75, 0.25]))
    block = product_block_law(p, 2)
    assert block.mass((0, 0)) == pytest.approx(0.5625, abs=1e-12)


def test_product_block_law_cap():
    p = Distribution.uniform(Alphabet.of_size(10))
    with pytest.raises(EnumerationCapError, match=r"^k\^m = 10000000 words exceeds the cap of 1000000$") as info:
        product_block_law(p, 7)
    assert isinstance(info.value, ValueError)


def marginal(law: BlockLaw, coordinate: int) -> np.ndarray:
    """Masses of one coordinate's marginal: an axis sum of the k x ... x k word array."""
    others = tuple(j for j in range(law.m) if j != coordinate)
    return law.masses.reshape((law.alphabet.size,) * law.m).sum(axis=others)


def test_product_block_law_marginalizes_back():
    for _ in range(5):
        p = random_law(3)
        block = product_block_law(p, 3)
        for coord in range(3):
            assert tv_distance(Distribution(p.alphabet, marginal(block, coord)), p) <= 1e-10


def test_block_law_validation():
    alphabet = Alphabet.of_size(2)
    with pytest.raises(ValueError, match="sum"):
        BlockLaw(alphabet, 1, [0.9, 0.0])
    with pytest.raises(ValueError, match="shape"):
        BlockLaw(alphabet, 2, [1.0, 0.0])


# ------------------------------------------------------ dense word order


@st.composite
def dense_law_case(draw):
    k = draw(st.integers(2, 4))
    m = draw(st.integers(1, 4))
    raw = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=k**m, max_size=k**m)))
    raw[draw(st.integers(0, k**m - 1))] += 1.0  # keep the total positive
    p = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return k, m, raw / raw.sum(), p / p.sum()


@settings(max_examples=80, deadline=None)
@given(dense_law_case())
def test_dense_block_law_matches_itertools_product_reference(case):
    k, m, masses, p_masses = case
    alphabet = Alphabet.of_size(k)
    law = BlockLaw(alphabet, m, masses)
    p = Distribution(alphabet, p_masses)
    words = list(itertools.product(range(k), repeat=m))
    reference = dict(zip(words, masses))
    for word in words:
        assert law.mass(word) == reference[word]
    for j in range(m):
        expected = [math.fsum(v for w, v in reference.items() if w[j] == s) for s in range(k)]
        np.testing.assert_allclose(marginal(law, j), expected, rtol=0, atol=1e-15)
    product = [math.prod(p.masses[s] for s in w) for w in words]
    product = np.array(product) / math.fsum(product)
    block = product_block_law(p, m)
    np.testing.assert_allclose([block.mass(w) for w in words], product, rtol=0, atol=1e-15)
    expected_tv = 0.5 * math.fsum(abs(reference[w] - block.mass(w)) for w in words)
    assert tv_distance(law, block) == pytest.approx(expected_tv, rel=0, abs=1e-15)


def test_word_index_rejects_words_off_the_alphabet():
    law = product_block_law(Distribution.uniform(Alphabet.of_size(3)), 2)
    assert law.mass((2, 0)) == law.masses[6]
    for word in [(0, 3), (-1, 0), (0,), (0, 0, 0)]:
        with pytest.raises(ValueError):
            law.mass(word)
