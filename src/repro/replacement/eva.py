"""EVA — Economic Value Added replacement (Beckmann & Sanchez, HPCA'17).

EVA ranks lines by their expected future hits minus the opportunity cost
of the cache space they occupy, computed from aggregate age statistics
(no PC predictor, no sampled sets — Table 7 marks EVA as amenable to
*neither* Drishti enhancement, which is why it is valuable here as the
contrast case).

Implementation: every line carries a coarse age (set accesses since last
touch, saturating).  Hits and evictions feed per-age histograms; every
``update_interval`` accesses the policy recomputes the per-age EVA curve

    EVA(a) = (H(a) - r * T(a)) / N(a)

where, over lifetimes that reach at least age ``a``: ``H`` counts future
hits, ``T`` future occupied time, ``N`` lifetimes, and ``r`` is the
cache's overall hit rate per unit time (the opportunity cost).  Victims
are the lines whose current age has the lowest EVA.  Histograms are
halved at each update so the policy adapts to phase changes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.replacement.base import ReplacementPolicy

MAX_AGE = 63


class EVAPolicy(ReplacementPolicy):
    """EVA over coarse per-line ages.

    Args:
        num_sets, num_ways: geometry.
        age_granularity: set accesses per age tick.
        update_interval: accesses between EVA curve recomputations.
    """

    name = "eva"
    uses_predictor = False
    uses_sampled_sets = False

    def __init__(self, num_sets: int, num_ways: int,
                 age_granularity: int = 4,
                 update_interval: int = 8192):
        super().__init__(num_sets, num_ways)
        if age_granularity < 1 or update_interval < 1:
            raise ValueError("age_granularity and update_interval must "
                             "be positive")
        self.age_granularity = age_granularity
        self.update_interval = update_interval
        self._age = [[0] * num_ways for _ in range(num_sets)]
        self._set_clock = [0] * num_sets
        self._hits_at = [0.0] * (MAX_AGE + 1)
        self._evictions_at = [0.0] * (MAX_AGE + 1)
        # Before (and beyond) any training, older ages rank lower —
        # an LRU-like prior that observed statistics then dominate.
        self._eva = [-age * 1e-6 for age in range(MAX_AGE + 1)]
        self._accesses = 0

    # ------------------------------------------------------------------
    def _tick(self, set_idx: int) -> None:
        self._set_clock[set_idx] += 1
        if self._set_clock[set_idx] % self.age_granularity != 0:
            return
        ages = self._age[set_idx]
        for way in range(self.num_ways):
            if ages[way] < MAX_AGE:
                ages[way] += 1

    def _recompute_eva(self) -> None:
        total_hits = sum(self._hits_at)
        total_events = total_hits + sum(self._evictions_at)
        if total_events <= 0:
            return
        # Mean time a lifetime event happens at, for the cost rate.
        total_time = sum(a * (self._hits_at[a] + self._evictions_at[a])
                         for a in range(MAX_AGE + 1)) or 1.0
        rate = total_hits / total_time

        cum_hits = 0.0
        cum_events = 0.0
        cum_time = 0.0
        unobserved: List[int] = []
        min_eva = 0.0
        for age in range(MAX_AGE, -1, -1):
            events = self._hits_at[age] + self._evictions_at[age]
            cum_hits += self._hits_at[age]
            cum_events += events
            cum_time += events * (age + 1)
            if cum_events > 0:
                future_time = cum_time - age * cum_events
                value = (cum_hits - rate * future_time) / cum_events
                self._eva[age] = value
                min_eva = min(min_eva, value)
            else:
                unobserved.append(age)
        # Ages no lifetime ever reached are the safest evictions:
        # extrapolate below every observed value, older = lower.
        for age in unobserved:
            self._eva[age] = min_eva - 1e-6 * (age + 1)
        # Adapt to phases: decay the histograms.
        for age in range(MAX_AGE + 1):
            self._hits_at[age] /= 2.0
            self._evictions_at[age] /= 2.0

    # ------------------------------------------------------------------
    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        self._tick(set_idx)
        self._accesses += 1
        if self._accesses % self.update_interval == 0:
            self._recompute_eva()
        if hit and way is not None:
            age = self._age[set_idx][way]
            self._hits_at[age] += 1.0
            self._age[set_idx][way] = 0  # new generation

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        ages = self._age[set_idx]
        return min(range(self.num_ways),
                   key=lambda way: self._eva[ages[way]])

    def on_evict(self, set_idx: int, way: int, block: CacheBlock,
                 ctx: AccessContext) -> None:
        self._evictions_at[self._age[set_idx][way]] += 1.0

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._age[set_idx][way] = 0
        return 0

    def reset(self) -> None:
        self._accesses = 0
        for row in self._age:
            for i in range(self.num_ways):
                row[i] = 0
        for i in range(MAX_AGE + 1):
            self._hits_at[i] = 0.0
            self._evictions_at[i] = 0.0
            self._eva[i] = -i * 1e-6
        for i in range(self.num_sets):
            self._set_clock[i] = 0
