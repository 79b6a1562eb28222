"""Reproducible random streams.

All Monte Carlo code draws from counter-based Philox generators keyed by
``(seed, stream_id)``.  Distinct stream ids give statistically independent
streams for the same user-facing seed, and a fixed key reproduces the same
draws on every run regardless of how work is scheduled.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox  # imported with the library, not on the first draw

__all__ = ["stream"]


def stream(seed: int, stream_id: int = 0) -> Generator:
    """A Philox generator keyed by (seed, stream_id)."""
    key = np.array([seed & (2**64 - 1), stream_id & (2**64 - 1)], dtype=np.uint64)
    return Generator(Philox(key=key))
