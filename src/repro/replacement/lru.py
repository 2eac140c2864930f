"""Least-recently-used replacement — the paper's baseline policy."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.replacement.base import ReplacementPolicy


class LRUPolicy(ReplacementPolicy):
    """True LRU over recency counters.

    Each line carries a monotonically increasing "last used" stamp drawn
    from a per-policy clock that ticks on every access, which gives exact
    LRU ordering without list surgery.
    """

    name = "lru"

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._stamp = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        self._clock += 1
        if hit and way is not None:
            self._stamp[set_idx][way] = self._clock

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        stamps = self._stamp[set_idx]
        return stamps.index(min(stamps))

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock
        return 0

    def reset(self) -> None:
        self._clock = 0
        for row in self._stamp:
            for i in range(self.num_ways):
                row[i] = 0
