"""Random replacement — a sanity-check baseline."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cache.block import AccessContext, CacheBlock
from repro.replacement.base import ReplacementPolicy


class RandomPolicy(ReplacementPolicy):
    """Evicts a uniformly random way (invalid ways first).

    Seeded for reproducibility; two runs with the same seed make identical
    decisions.
    """

    name = "random"

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0):
        super().__init__(num_sets, num_ways)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        return int(self._rng.integers(0, self.num_ways))

    def reset(self) -> None:
        self._rng = np.random.default_rng(self._seed)
