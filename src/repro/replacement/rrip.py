"""Re-Reference Interval Prediction policies (Jaleel et al., ISCA'10).

SRRIP inserts with a long re-reference interval and promotes on hit;
BRRIP inserts with a distant interval most of the time (thrash
protection); DRRIP set-duels between the two.  These are the
"memoryless" policies of Table 7 — no PC predictor, but DRRIP's set
dueling is exactly the structure Drishti's dynamic sampled cache can
improve (its leader sets are randomly chosen).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.cache.block import AccessContext, CacheBlock
from repro.obs.sanitize import SANITIZE, check_range
from repro.replacement.base import ReplacementPolicy

RRPV_BITS = 2
RRPV_MAX = (1 << RRPV_BITS) - 1  # 3: distant
RRPV_LONG = RRPV_MAX - 1  # 2: long


class SRRIPPolicy(ReplacementPolicy):
    """Static RRIP: insert at long, promote to 0 on hit, evict distant."""

    name = "srrip"

    def __init__(self, num_sets: int, num_ways: int):
        super().__init__(num_sets, num_ways)
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if hit and way is not None:
            self._rrpv[set_idx][way] = 0

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        rrpv = self._rrpv[set_idx]
        while RRPV_MAX not in rrpv:
            for way in range(self.num_ways):
                # No-op clamp: the loop test guarantees rrpv < MAX
                # here, but min() makes the saturation explicit and
                # machine-provable (SAT001).
                rrpv[way] = min(RRPV_MAX, rrpv[way] + 1)
                if SANITIZE:
                    check_range(rrpv[way], 0, RRPV_MAX, "srrip.rrpv")
        return rrpv.index(RRPV_MAX)

    def insertion_rrpv(self, set_idx: int, ctx: AccessContext) -> int:
        return RRPV_LONG

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._rrpv[set_idx][way] = self.insertion_rrpv(set_idx, ctx)
        return 0

    def reset(self) -> None:
        for row in self._rrpv:
            for i in range(self.num_ways):
                row[i] = RRPV_MAX


class BRRIPPolicy(SRRIPPolicy):
    """Bimodal RRIP: insert distant except ~1/32 of fills insert long."""

    name = "brrip"
    LONG_PROBABILITY = 1.0 / 32.0

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0):
        super().__init__(num_sets, num_ways)
        self._seed = seed
        self._rng = np.random.default_rng(seed)

    def insertion_rrpv(self, set_idx: int, ctx: AccessContext) -> int:
        if self._rng.random() < self.LONG_PROBABILITY:
            return RRPV_LONG
        return RRPV_MAX

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)


class DRRIPPolicy(SRRIPPolicy):
    """Dynamic RRIP: set-duels SRRIP vs BRRIP leader sets with a PSEL.

    Leader sets are chosen by the sampled-set selector (random by default;
    Drishti's dynamic selector can be wired in via ``leader_sets``).
    """

    name = "drrip"
    PSEL_BITS = 10

    def __init__(self, num_sets: int, num_ways: int, seed: int = 0,
                 num_leader_sets: int = 32,
                 leader_sets: Optional[Sequence[int]] = None):
        super().__init__(num_sets, num_ways)
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
        self._srrip_leaders = frozenset(leader_sets[:half])
        self._brrip_leaders = frozenset(leader_sets[half:])

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        super().access(set_idx, ctx, hit, way)
        # PSEL counts misses in leader sets: a miss in an SRRIP leader
        # votes for BRRIP and vice versa.
        if hit or not ctx.is_demand:
            return
        if set_idx in self._srrip_leaders:
            self._psel = min(self._psel + 1, self._psel_max)
        elif set_idx in self._brrip_leaders:
            self._psel = max(self._psel - 1, 0)
        if SANITIZE:
            check_range(self._psel, 0, self._psel_max, "drrip.psel")

    def insertion_rrpv(self, set_idx: int, ctx: AccessContext) -> int:
        if set_idx in self._srrip_leaders:
            brrip_mode = False
        elif set_idx in self._brrip_leaders:
            brrip_mode = True
        else:
            brrip_mode = self._psel > self._psel_max // 2
        if not brrip_mode:
            return RRPV_LONG
        if self._rng.random() < BRRIPPolicy.LONG_PROBABILITY:
            return RRPV_LONG
        return RRPV_MAX

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self._seed)
        self._psel = self._psel_max // 2
