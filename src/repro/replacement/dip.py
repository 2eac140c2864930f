"""Dynamic Insertion Policy (Qureshi et al., ISCA'07).

DIP set-duels between LRU insertion and bimodal-LIP insertion (insert at
LRU position, rarely at MRU), protecting thrashing working sets.  Included
as one of Table 7's memoryless policies.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.block import AccessContext, CacheBlock
from repro.obs.sanitize import SANITIZE, check_range
from repro.replacement.base import ReplacementPolicy


class DIPPolicy(ReplacementPolicy):
    """LRU vs BIP set-dueling with a 10-bit PSEL."""

    name = "dip"
    PSEL_BITS = 10
    BIP_MRU_PROBABILITY = 1.0 / 32.0

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0,
                 num_leader_sets: int = 32,
                 leader_sets: Optional[Sequence[int]] = None):
        super().__init__(num_sets, num_ways)
        self._stamp = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._psel_max = (1 << self.PSEL_BITS) - 1
        self._psel = self._psel_max // 2
        num_leader_sets = min(num_leader_sets, num_sets // 2) or 1
        if leader_sets is None:
            chosen = self._rng.choice(num_sets, size=2 * num_leader_sets,
                                      replace=False)
            leader_sets = [int(s) for s in chosen]
        half = len(leader_sets) // 2
        self._lru_leaders = frozenset(leader_sets[:half])
        self._bip_leaders = frozenset(leader_sets[half:])

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        self._clock += 1
        if hit and way is not None:
            self._stamp[set_idx][way] = self._clock
            return
        if not ctx.is_demand:
            return
        if set_idx in self._lru_leaders:
            self._psel = min(self._psel + 1, self._psel_max)
        elif set_idx in self._bip_leaders:
            self._psel = max(self._psel - 1, 0)
        if SANITIZE:
            check_range(self._psel, 0, self._psel_max, "dip.psel")

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        stamps = self._stamp[set_idx]
        return min(range(self.num_ways), key=stamps.__getitem__)

    def _bip_mode(self, set_idx: int) -> bool:
        if set_idx in self._lru_leaders:
            return False
        if set_idx in self._bip_leaders:
            return True
        return self._psel > self._psel_max // 2

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._clock += 1
        if self._bip_mode(set_idx) and \
                self._rng.random() >= self.BIP_MRU_PROBABILITY:
            # LRU-position insertion: stamp older than everything resident.
            stamps = self._stamp[set_idx]
            self._stamp[set_idx][way] = min(stamps) - 1
        else:
            self._stamp[set_idx][way] = self._clock
        return 0

    def reset(self) -> None:
        self._clock = 0
        self._rng = np.random.default_rng(self._seed)
        self._psel = self._psel_max // 2
        for row in self._stamp:
            for i in range(self.num_ways):
                row[i] = 0
