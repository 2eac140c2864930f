"""SDBP — Sampling Dead Block Prediction (Khan et al., MICRO'10).

SDBP predicts whether a block is *dead* (will not be referenced again
before eviction) from the PC of its last touch.  A small sampler tracks
a few sampled sets: when a sampler entry is evicted without reuse, the
last-touch PC trains "dead"; a reuse trains "live".  The predictor is
three skewed tables of saturating counters (different hashes of the PC)
whose sum against a threshold gives the verdict.  In the LLC, each
line's dead bit is refreshed at every touch from the prediction for the
touching PC; victims prefer predicted-dead lines, falling back to LRU.

SDBP uses both a sampled cache and a PC predictor, so both Drishti
enhancements apply (Table 7) — the skewed tables route through the
:class:`PredictorFabric` like every other predictor here.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import mix64
from repro.replacement.base import ReplacementPolicy
from repro.replacement.sampled_cache import SampledCache

NUM_TABLES = 3


class SkewedDeadPredictor:
    """Three skewed counter tables voting dead/live."""

    def __init__(self, table_bits: int = 12, counter_bits: int = 2):
        self.table_bits = table_bits
        self.counter_max = (1 << counter_bits) - 1
        size = 1 << table_bits
        self._tables = [[0] * size for _ in range(NUM_TABLES)]
        #: Sum at or above this predicts dead.
        self.threshold = (self.counter_max * NUM_TABLES + 1) // 2 + 1

    def _index(self, table: int, pc: int, core_id: int) -> int:
        return mix64((pc << 3) ^ (core_id << 1) ^ (table * 0x9E37)) & \
            ((1 << self.table_bits) - 1)

    def vote(self, pc: int, core_id: int) -> int:
        return sum(self._tables[t][self._index(t, pc, core_id)]
                   for t in range(NUM_TABLES))

    def predict_dead(self, pc: int, core_id: int) -> bool:
        return self.vote(pc, core_id) >= self.threshold

    def train(self, pc: int, core_id: int, dead: bool) -> None:
        for t in range(NUM_TABLES):
            idx = self._index(t, pc, core_id)
            value = self._tables[t][idx]
            if dead and value < self.counter_max:
                self._tables[t][idx] = value + 1
            elif not dead and value > 0:
                self._tables[t][idx] = value - 1

    def reset(self) -> None:
        for table in self._tables:
            for i in range(len(table)):
                table[i] = 0


def default_sdbp_fabric(table_bits: int = 12) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: SkewedDeadPredictor(
            table_bits=table_bits))


class SDBPPolicy(ReplacementPolicy):
    """SDBP bound to one LLC slice."""

    name = "sdbp"
    uses_predictor = True
    uses_sampled_sets = True

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 12, sampled_entries_per_set: int = 48,
                 seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.fabric = fabric if fabric is not None else \
            default_sdbp_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self.sampler = SampledCache(entries_per_set=sampled_entries_per_set)
        self._sample_time = 0
        self._dead = [[False] * num_ways for _ in range(num_sets)]
        self._stamp = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0

    # ------------------------------------------------------------------
    def _train(self, pc: int, core_id: int, dead: bool, cycle: int) -> None:
        predictor, _lat = self.fabric.train_target(self.slice_id, core_id,
                                                   cycle)
        predictor.train(pc, core_id, dead)

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        self._clock += 1
        reselected = self.selector.observe(set_idx, hit)
        if reselected is not None:
            self.sampler.retarget(reselected)

        if self.selector.is_sampled(set_idx):
            entry = self.sampler.lookup(set_idx, ctx.block)
            if entry is not None:
                # Reuse: the previous last-touch PC was live.
                self._train(entry.pc, entry.core_id, dead=False,
                            cycle=ctx.cycle)
            self._sample_time += 1
            evicted = self.sampler.update(set_idx, ctx.block, ctx.pc,
                                          ctx.core_id, ctx.is_prefetch,
                                          self._sample_time)
            if evicted is not None and not evicted.reused:
                # Fell out of the sampler untouched: dead.
                self._train(evicted.pc, evicted.core_id, dead=True,
                            cycle=ctx.cycle)

        if hit and way is not None:
            self._stamp[set_idx][way] = self._clock
            # Refresh the dead bit from the touching PC's prediction.
            predictor, latency = self.fabric.predict(
                self.slice_id, ctx.core_id, ctx.cycle)
            self.add_fill_latency(latency)
            self._dead[set_idx][way] = predictor.predict_dead(
                ctx.pc, ctx.core_id)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        for way in range(self.num_ways):
            if self._dead[set_idx][way]:
                return way
        stamps = self._stamp[set_idx]
        return min(range(self.num_ways), key=stamps.__getitem__)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock
        if ctx.is_writeback:
            self._dead[set_idx][way] = True
            return 0
        predictor, latency = self.fabric.predict(self.slice_id,
                                                 ctx.core_id, ctx.cycle)
        self._dead[set_idx][way] = predictor.predict_dead(ctx.pc,
                                                          ctx.core_id)
        return latency

    def reset(self) -> None:
        self.sampler.flush()
        self.selector.reset()
        self._clock = 0
        self._sample_time = 0
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                self._dead[set_idx][way] = False
                self._stamp[set_idx][way] = 0
