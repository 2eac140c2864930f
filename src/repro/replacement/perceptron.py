"""Perceptron reuse prediction (Teran, Wang & Jiménez, MICRO'16).

Predicts whether a block will be reused using a perceptron over several
hashed features of the access — the PC at different shifts and low tag
bits — instead of a single-counter table.  Features index separate
weight tables; the prediction is the weight sum against thresholds
(a bypass threshold stricter than the dead-on-hit threshold).  Training
comes from sampled sets: a reuse trains "live" (decrement weights), an
eviction without reuse trains "dead" (increment), perceptron-style only
while the sum is within the training margin.

Both Drishti enhancements apply (Table 7): the weight tables are the
predictor (routed through the fabric) and training comes from sampled
sets.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import mix64
from repro.replacement.base import ReplacementPolicy
from repro.replacement.sampled_cache import SampledCache

NUM_FEATURES = 4
WEIGHT_MAX = 31
WEIGHT_MIN = -32
TRAIN_MARGIN = 40
DEAD_THRESHOLD = 8  # sum above this -> insert distant / mark dead
BYPASS_THRESHOLD = 40  # sum above this -> do not install


def _features(pc: int, block: int, core_id: int,
              table_bits: int) -> List[int]:
    mask = (1 << table_bits) - 1
    return [
        mix64((pc >> 0) ^ (core_id << 17)) & mask,
        mix64((pc >> 2) ^ 0xA5A5 ^ (core_id << 13)) & mask,
        mix64((pc >> 5) ^ 0x3C3C ^ (core_id << 11)) & mask,
        mix64((block & 0xFFF) ^ (pc << 1)) & mask,
    ]


class PerceptronReusePredictor:
    """Per-feature weight tables with margin-gated training."""

    def __init__(self, table_bits: int = 10):
        self.table_bits = table_bits
        size = 1 << table_bits
        self._weights = [[0] * size for _ in range(NUM_FEATURES)]

    def score(self, pc: int, block: int, core_id: int) -> int:
        idxs = _features(pc, block, core_id, self.table_bits)
        return sum(self._weights[f][idxs[f]] for f in range(NUM_FEATURES))

    def train(self, pc: int, block: int, core_id: int,
              dead: bool) -> None:
        score = self.score(pc, block, core_id)
        if dead and score > TRAIN_MARGIN:
            return
        if not dead and score < -TRAIN_MARGIN:
            return
        idxs = _features(pc, block, core_id, self.table_bits)
        delta = 1 if dead else -1
        for f in range(NUM_FEATURES):
            w = self._weights[f][idxs[f]] + delta
            self._weights[f][idxs[f]] = max(WEIGHT_MIN,
                                            min(WEIGHT_MAX, w))

    def reset(self) -> None:
        for table in self._weights:
            for i in range(len(table)):
                table[i] = 0


def default_perceptron_fabric(table_bits: int = 10) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: PerceptronReusePredictor(
            table_bits=table_bits))


class PerceptronPolicy(ReplacementPolicy):
    """Perceptron reuse prediction bound to one LLC slice."""

    name = "perceptron"
    uses_predictor = True
    uses_sampled_sets = True

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 10, sampled_entries_per_set: int = 48,
                 seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.fabric = fabric if fabric is not None else \
            default_perceptron_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self.sampler = SampledCache(entries_per_set=sampled_entries_per_set)
        self._sample_time = 0
        self._dead = [[False] * num_ways for _ in range(num_sets)]
        self._stamp = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0

    # ------------------------------------------------------------------
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
                predictor, _lat = self.fabric.train_target(
                    self.slice_id, entry.core_id, ctx.cycle)
                predictor.train(entry.pc, ctx.block, entry.core_id,
                                dead=False)
            self._sample_time += 1
            evicted = self.sampler.update(set_idx, ctx.block, ctx.pc,
                                          ctx.core_id, ctx.is_prefetch,
                                          self._sample_time)
            if evicted is not None and not evicted.reused:
                predictor, _lat = self.fabric.train_target(
                    self.slice_id, evicted.core_id, ctx.cycle)
                predictor.train(evicted.pc, evicted.block,
                                evicted.core_id, dead=True)

        if hit and way is not None:
            self._stamp[set_idx][way] = self._clock
            predictor, latency = self.fabric.predict(
                self.slice_id, ctx.core_id, ctx.cycle)
            self.add_fill_latency(latency)
            score = predictor.score(ctx.pc, ctx.block, ctx.core_id)
            self._dead[set_idx][way] = score >= DEAD_THRESHOLD

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        if not ctx.is_writeback:
            predictor, latency = self.fabric.predict(
                self.slice_id, ctx.core_id, ctx.cycle)
            self.add_fill_latency(latency)
            score = predictor.score(ctx.pc, ctx.block, ctx.core_id)
            self._pending_dead = score >= DEAD_THRESHOLD
            if score >= BYPASS_THRESHOLD:
                return self.BYPASS
        else:
            self._pending_dead = True
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
        self._dead[set_idx][way] = getattr(self, "_pending_dead", False)
        return 0

    def reset(self) -> None:
        self.sampler.flush()
        self.selector.reset()
        self._clock = 0
        self._sample_time = 0
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                self._dead[set_idx][way] = False
                self._stamp[set_idx][way] = 0
