"""The Mockingjay replacement policy (per LLC slice).

Per-slice structures:

* a 5-bit signed ETR counter per line that counts down one tick per
  ``granularity`` accesses to its set,
* a sampled cache with per-sampled-set timestamps that measures observed
  reuse distances, and
* the reuse-distance predictor reached through the
  :class:`PredictorFabric` (local in the baseline, per-core-yet-global
  under Drishti).

Eviction picks the line with the largest |ETR| — a large positive ETR is
a line coming back farthest in the future, a large negative one is long
overdue; both are the safest evictions under OPT's relative ordering.
Fills whose predicted reuse is INFINITE (or farther than every resident
line) bypass the slice.  Dirty lines get a small |ETR| bias toward
eviction, reproducing the elevated WPKI the paper reports in Table 5.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import make_signature
from repro.replacement.base import ReplacementPolicy
from repro.obs.sanitize import SANITIZE, check_range
from repro.replacement.mockingjay.predictor import (
    ETRPredictor,
    INF_SCALED,
    MAX_SCALED,
)
from repro.replacement.sampled_cache import SampledCache

ETR_MIN = -15  # 5-bit signed floor


def default_mockingjay_fabric(table_bits: int = 11,
                              granularity: int = 8) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: ETRPredictor(table_bits=table_bits,
                                                  granularity=granularity))


class MockingjayPolicy(ReplacementPolicy):
    """Mockingjay bound to one LLC slice.

    Args:
        num_sets, num_ways: slice geometry.
        slice_id: this slice's id (fabric routing).
        fabric: shared predictor fabric (private local one if omitted).
        selector: sampled-set selector; defaults to the conventional
            random selection of ``num_sets // 64`` sets.
        granularity: set-accesses per ETR tick (paper: 8).
        table_bits: predictor table size (log2).
        sampled_entries_per_set: sampled-cache history per sampled set.
        dirty_bias: |ETR| bonus for dirty lines when choosing victims.
    """

    name = "mockingjay"
    uses_predictor = True
    uses_sampled_sets = True

    #: Cold-PC default prediction (scaled): middle of the finite range.
    DEFAULT_SCALED = MAX_SCALED // 2

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 granularity: int = 8, table_bits: int = 11,
                 sampled_entries_per_set: int = 48, dirty_bias: int = 2,
                 seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.granularity = granularity
        self.table_bits = table_bits
        self.dirty_bias = dirty_bias
        self.fabric = fabric if fabric is not None else \
            default_mockingjay_fabric(table_bits, granularity)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self.sampler = SampledCache(entries_per_set=sampled_entries_per_set)
        self._etr = [[0] * num_ways for _ in range(num_sets)]
        self._etr_init = [[0] * num_ways for _ in range(num_sets)]
        self._set_clock = [0] * num_sets
        self._sample_time: Dict[int, int] = {}
        self._pending_scaled: Optional[int] = None

    # ------------------------------------------------------------------
    def _signature(self, pc: int, core_id: int, is_prefetch: bool) -> int:
        return make_signature(pc, core_id, is_prefetch, self.table_bits)

    def _age_set(self, set_idx: int) -> None:
        """Tick the set clock; every granularity-th access decrements
        every line's ETR (time passes for the whole set)."""
        self._set_clock[set_idx] += 1
        if self._set_clock[set_idx] % self.granularity != 0:
            return
        etr = self._etr[set_idx]
        for way in range(self.num_ways):
            if etr[way] > ETR_MIN:
                etr[way] -= 1
            if SANITIZE:
                check_range(etr[way], ETR_MIN, None, "mockingjay.etr")

    def _observe_sample(self, set_idx: int, ctx: AccessContext) -> None:
        now = self._sample_time.get(set_idx, 0)
        entry = self.sampler.lookup(set_idx, ctx.block)
        if entry is not None:
            distance = now - entry.time
            predictor, _lat = self.fabric.train_target(
                self.slice_id, entry.core_id, ctx.cycle)
            sig = self._signature(entry.pc, entry.core_id, entry.is_prefetch)
            predictor.train(sig, predictor.scale(distance))
        evicted = self.sampler.update(set_idx, ctx.block, ctx.pc,
                                      ctx.core_id, ctx.is_prefetch, now)
        if evicted is not None and not evicted.reused:
            predictor, _lat = self.fabric.train_target(
                self.slice_id, evicted.core_id, ctx.cycle)
            sig = self._signature(evicted.pc, evicted.core_id,
                                  evicted.is_prefetch)
            predictor.train_inf(sig)
        self._sample_time[set_idx] = now + 1

    # ------------------------------------------------------------------
    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        self._age_set(set_idx)
        if hit and way is not None:
            # Re-reference: the line's clock restarts from its fill-time
            # prediction (no extra predictor traffic on hits).
            self._etr[set_idx][way] = self._etr_init[set_idx][way]

        reselected = self.selector.observe(set_idx, hit)
        if reselected is not None:
            self.sampler.retarget(reselected)
            keep = self.selector.sampled_sets
            self._sample_time = {s: t for s, t in self._sample_time.items()
                                 if s in keep}
        if self.selector.is_sampled(set_idx):
            self._observe_sample(set_idx, ctx)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        if ctx.is_writeback:
            # Writebacks install without consulting the predictor; they
            # are deprioritised by their ETR assignment in on_fill.
            self._pending_scaled = None
            invalid = self.first_invalid(set_idx, blocks)
            if invalid is not None:
                return invalid
            return self._max_abs_etr_way(set_idx, blocks)

        predictor, latency = self.fabric.predict(self.slice_id, ctx.core_id,
                                                 ctx.cycle)
        self.add_fill_latency(latency)
        sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
        predicted = predictor.predict(sig)
        cold = predicted is None
        scaled = self.DEFAULT_SCALED if cold else predicted
        self._pending_scaled = scaled

        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            if scaled >= INF_SCALED:
                return self.BYPASS
            return invalid

        victim = self._max_abs_etr_way(set_idx, blocks)
        if scaled >= INF_SCALED:
            return self.BYPASS
        if not cold and scaled > abs(self._etr[set_idx][victim]):
            # A *trained* prediction says this line is reused farther
            # out than every resident line: caching it would be the
            # worst choice.  (Cold defaults never bypass.)
            return self.BYPASS
        return victim

    def _max_abs_etr_way(self, set_idx: int,
                         blocks: Sequence[CacheBlock]) -> int:
        bias = self.dirty_bias
        scores = [abs(etr) + (bias if line.dirty else 0)
                  for etr, line in zip(self._etr[set_idx], blocks)]
        return scores.index(max(scores))

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        if ctx.is_writeback:
            # Lowest priority: a dirty line parked far in the future so it
            # is the next natural victim (the WPKI effect of Table 5).
            self._etr[set_idx][way] = MAX_SCALED
            self._etr_init[set_idx][way] = MAX_SCALED
            return 0
        scaled = self._pending_scaled
        if scaled is None:
            scaled = self.DEFAULT_SCALED
        self._pending_scaled = None
        scaled = min(scaled, MAX_SCALED)
        self._etr[set_idx][way] = scaled
        self._etr_init[set_idx][way] = scaled
        return 0

    def reset(self) -> None:
        self.sampler.flush()
        self.selector.reset()
        self._sample_time.clear()
        self._pending_scaled = None
        for set_idx in range(self.num_sets):
            self._set_clock[set_idx] = 0
            for way in range(self.num_ways):
                self._etr[set_idx][way] = 0
                self._etr_init[set_idx][way] = 0
