"""Probability vectors on finite alphabets and their information functionals.

Everything downstream (tilting, exact type-space conditioning, Monte Carlo)
is built on the three value types defined here: :class:`Alphabet`,
:class:`Distribution` and :class:`BlockLaw`.  All values are immutable and
all functions are pure, so the module is safe to use from any number of
threads.

Both laws are dense read-only float vectors.  A block law on length-m words
over k symbols holds k^m masses in the one word order that the exact oracle
and the samplers share: lexicographic, the last coordinate fastest, so word
w sits at index sum_j w_j k^(m-1-j).  :func:`word_index` maps words to it.

Units: entropies and divergences are in nats throughout.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Alphabet",
    "Distribution",
    "BlockLaw",
    "entropy",
    "kl_divergence",
    "tv_distance",
    "product_block_law",
    "word_index",
    "DEFAULT_WORD_CAP",
    "EnumerationCapError",
]

# Sums of many small probabilities must stay self-consistent with exact
# enumeration oracles, hence the tight input tolerance.
SUM_TOL_EXACT = 1e-12
SUM_TOL_RENORM = 1e-8
BLOCK_SUM_TOL = 1e-10

# Log-probabilities are floored here before exponentiation so that tilted
# laws of strictly positive baselines stay strictly positive in doubles.
LOG_FLOOR = -745.0

DEFAULT_WORD_CAP = 10**6


class EnumerationCapError(ValueError):
    """Raised when a type-space or word enumeration would exceed its cap."""


def check_word_cap(k: int, m: int) -> None:
    """Refuse block laws on more than ``DEFAULT_WORD_CAP`` words of length m over k symbols."""
    if k**m > DEFAULT_WORD_CAP:
        raise EnumerationCapError(f"k^m = {k**m} words exceeds the cap of {DEFAULT_WORD_CAP}")


@dataclass(frozen=True)
class Alphabet:
    """A finite, ordered alphabet of at least two distinct symbols.

    The tuple order of ``labels`` is the total order used by cumulative
    distribution functions; symbols are addressed by 0-based index.
    """

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.labels) < 2:
            raise ValueError(f"alphabet needs at least 2 symbols, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("alphabet labels must be distinct")

    @property
    def size(self) -> int:
        return len(self.labels)

    @classmethod
    def of_size(cls, k: int) -> "Alphabet":
        """Alphabet labelled "1".."k"."""
        return cls(tuple(str(i) for i in range(1, k + 1)))

    def label_values(self) -> np.ndarray:
        """Labels parsed as floats (e.g. die faces); raises if non-numeric."""
        return np.array([float(s) for s in self.labels])


def _mass_vector(masses, length: int) -> np.ndarray:
    """A fresh float copy of ``masses``, checked to be a finite, nonnegative
    vector of the given length."""
    masses = np.array(masses, dtype=float)
    if masses.shape != (length,):
        raise ValueError(f"mass vector has shape {masses.shape}, expected ({length},)")
    if not np.all(np.isfinite(masses)):
        raise ValueError("masses must be finite")
    if np.any(masses < 0):
        raise ValueError(f"negative mass entry: min = {masses.min()}")
    return masses


@dataclass(frozen=True)
class Distribution:
    """A probability vector over an :class:`Alphabet`.

    Validation policy: a mass-sum within 1e-12 of 1 is accepted verbatim,
    within 1e-8 it is renormalized with a warning, beyond that it is
    rejected.  Negative entries are always rejected.
    """

    alphabet: Alphabet
    masses: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        masses = _mass_vector(self.masses, self.alphabet.size)
        gap = abs(float(masses.sum()) - 1.0)
        if gap > SUM_TOL_RENORM:
            raise ValueError(f"masses sum to 1{masses.sum() - 1.0:+.3e}, beyond tolerance {SUM_TOL_RENORM}")
        if gap > SUM_TOL_EXACT:
            warnings.warn(
                f"mass sum off by {gap:.3e}; renormalizing", stacklevel=2
            )
            masses /= masses.sum()
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    @property
    def strictly_positive(self) -> bool:
        return bool(self.masses.min() > 0)

    @classmethod
    def uniform(cls, alphabet: Alphabet) -> "Distribution":
        k = alphabet.size
        return cls(alphabet, np.full(k, 1.0 / k))

    @classmethod
    def bernoulli(cls, p1: float) -> "Distribution":
        """Law on labels ("0", "1") with mass ``p1`` on "1"."""
        return cls(Alphabet(("0", "1")), np.array([1.0 - p1, p1]))


@dataclass(frozen=True)
class BlockLaw:
    """A law on length-``m`` words, stored densely as a read-only vector of
    k^m masses.

    Words are tuples of 0-based symbol indices, listed in lexicographic
    order: word w sits at index sum_j w_j k^(m-1-j).  The vector is thus the
    C-order flattening of the k x ... x k array indexed by words.
    """

    alphabet: Alphabet
    m: int
    masses: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"block length must be >= 1, got {self.m}")
        masses = _mass_vector(self.masses, self.alphabet.size**self.m)
        total = float(masses.sum())
        if abs(total - 1.0) > BLOCK_SUM_TOL:
            raise ValueError(f"block masses sum to 1{total - 1.0:+.3e}, beyond tolerance {BLOCK_SUM_TOL}")
        masses.flags.writeable = False
        object.__setattr__(self, "masses", masses)

    def mass(self, word: tuple[int, ...]) -> float:
        return float(self.masses[word_index(word, self.alphabet.size, self.m)])


def word_index(words, k: int, m: int):
    """Index of a word, or of each row of an array of words, in the word
    order of :class:`BlockLaw`.  Raises ValueError on a word that is not a
    length-``m`` word over ``k`` symbols.
    """
    return np.ravel_multi_index(np.moveaxis(np.asarray(words), -1, 0), (k,) * m)


def _check_same_alphabet(p: Distribution | BlockLaw, q: Distribution | BlockLaw) -> None:
    if p.alphabet.labels != q.alphabet.labels:
        raise ValueError("operands live on different alphabets")


def entropy(p: Distribution) -> float:
    """Shannon entropy -sum p ln p in nats, with 0 ln 0 = 0.

    Always lies in [0, ln k].
    """
    masses = p.masses
    pos = masses > 0
    return float(-(masses[pos] * np.log(masses[pos])).sum())


def kl_divergence(q: Distribution, p: Distribution) -> float:
    """Relative entropy sum q ln(q/p) in nats, with 0 ln(0/p) = 0.

    Raises if ``p`` puts zero mass where ``q`` is positive: the divergence
    is then infinite and no finite value is reported.
    """
    _check_same_alphabet(q, p)
    qm, pm = q.masses, p.masses
    pos = qm > 0
    if np.any(pm[pos] == 0):
        raise ValueError("kl_divergence is infinite: p vanishes on the support of q")
    return float((qm[pos] * (np.log(qm[pos]) - np.log(pm[pos]))).sum())


def tv_distance(p: Distribution | BlockLaw, q: Distribution | BlockLaw) -> float:
    """Total variation distance, half the L1 gap over points or words.

    The gaps are added by ``math.fsum``, so the result is correctly rounded
    and does not depend on the order of the points.
    """
    _check_same_alphabet(p, q)
    if type(p) is not type(q) or not isinstance(p, (Distribution, BlockLaw)):
        raise TypeError("tv_distance needs two distributions or two block laws")
    if isinstance(p, BlockLaw) and p.m != q.m:
        raise ValueError(f"block lengths differ: {p.m} vs {q.m}")
    return 0.5 * math.fsum(np.abs(p.masses - q.masses).tolist())


def product_block_law(p: Distribution, m: int) -> BlockLaw:
    """The i.i.d. law of ``m`` draws from ``p``, as an explicit BlockLaw.

    Materializes all k^m words, so refuses when that exceeds ``DEFAULT_WORD_CAP``.
    """
    if m < 1:
        raise ValueError(f"block length must be >= 1, got {m}")
    check_word_cap(p.alphabet.size, m)
    # Products of up to m masses: work in log-domain, clamp before exp.
    logp = np.log(np.maximum(p.masses, np.exp(LOG_FLOOR)))
    masses = np.exp(functools.reduce(np.add.outer, [logp] * m)).ravel()
    return BlockLaw(p.alphabet, m, masses / masses.sum())
