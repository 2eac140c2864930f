"""Leeway — dead-block prediction with live distances (Faldu & Grot,
PACT'17).

Leeway predicts a per-PC *live distance*: how many set accesses a block
brought by that PC stays useful after its last hit.  A line whose time
since last touch exceeds its PC's live distance is dead and becomes the
preferred victim.  Leeway's signature design point is that its predictor
is consulted only on misses (fills), keeping predictor traffic and
energy low — which is why the paper singles it out in Section 6 while
noting it *still* suffers myopic training and under-utilised sampled
sets on a sliced LLC.

Live distances train from sampled sets with Leeway's variable-speed
"bimodal" update: fast to grow (avoid premature deadness), slow to
shrink.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import make_signature
from repro.replacement.base import ReplacementPolicy
from repro.replacement.sampled_cache import SampledCache

MAX_LIVE_DISTANCE = 63


class LiveDistanceTable:
    """Per-PC live-distance predictor (the LDPT)."""

    #: Bimodal update speeds (paper: grow fast, shrink reluctantly).
    GROW_STEP = 4
    SHRINK_STEP = 1

    def __init__(self, table_bits: int = 12):
        self.table_bits = table_bits
        self._distances = [MAX_LIVE_DISTANCE // 2] * (1 << table_bits)

    def predict(self, signature: int) -> int:
        return self._distances[signature]

    def train(self, signature: int, observed: int) -> None:
        observed = min(MAX_LIVE_DISTANCE, max(0, observed))
        current = self._distances[signature]
        if observed > current:
            current = min(observed, current + self.GROW_STEP)
        elif observed < current:
            current = max(observed, current - self.SHRINK_STEP)
        self._distances[signature] = current

    def reset(self) -> None:
        for i in range(len(self._distances)):
            self._distances[i] = MAX_LIVE_DISTANCE // 2


def default_leeway_fabric(table_bits: int = 12) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: LiveDistanceTable(
            table_bits=table_bits))


class LeewayPolicy(ReplacementPolicy):
    """Leeway bound to one LLC slice."""

    name = "leeway"
    uses_predictor = True
    uses_sampled_sets = True

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 12, sampled_entries_per_set: int = 48,
                 seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.table_bits = table_bits
        self.fabric = fabric if fabric is not None else \
            default_leeway_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self.sampler = SampledCache(entries_per_set=sampled_entries_per_set)
        self._set_clock = [0] * num_sets
        self._last_touch = [[0] * num_ways for _ in range(num_sets)]
        self._live_distance = [[MAX_LIVE_DISTANCE] * num_ways
                               for _ in range(num_sets)]
        self._stamp = [[0] * num_ways for _ in range(num_sets)]
        self._clock = 0
        self._sample_time: dict = {}

    def _signature(self, pc: int, core_id: int, is_prefetch: bool) -> int:
        return make_signature(pc, core_id, is_prefetch, self.table_bits)

    # ------------------------------------------------------------------
    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        self._clock += 1
        self._set_clock[set_idx] += 1
        reselected = self.selector.observe(set_idx, hit)
        if reselected is not None:
            self.sampler.retarget(reselected)
            keep = self.selector.sampled_sets
            self._sample_time = {s: t for s, t in
                                 self._sample_time.items() if s in keep}

        if self.selector.is_sampled(set_idx):
            now = self._sample_time.get(set_idx, 0)
            entry = self.sampler.lookup(set_idx, ctx.block)
            if entry is not None:
                # Observed live distance: set accesses since last touch.
                predictor, _lat = self.fabric.train_target(
                    self.slice_id, entry.core_id, ctx.cycle)
                sig = self._signature(entry.pc, entry.core_id,
                                      entry.is_prefetch)
                predictor.train(sig, now - entry.time)
            evicted = self.sampler.update(set_idx, ctx.block, ctx.pc,
                                          ctx.core_id, ctx.is_prefetch,
                                          now)
            if evicted is not None and not evicted.reused:
                predictor, _lat = self.fabric.train_target(
                    self.slice_id, evicted.core_id, ctx.cycle)
                sig = self._signature(evicted.pc, evicted.core_id,
                                      evicted.is_prefetch)
                predictor.train(sig, 0)  # never reused: no leeway needed
            self._sample_time[set_idx] = now + 1

        if hit and way is not None:
            # Leeway's point: NO predictor lookup on hits — just refresh
            # the touch time; the line keeps its fill-time live distance.
            self._last_touch[set_idx][way] = self._set_clock[set_idx]
            self._stamp[set_idx][way] = self._clock

    def _is_dead(self, set_idx: int, way: int) -> bool:
        idle = self._set_clock[set_idx] - self._last_touch[set_idx][way]
        return idle > self._live_distance[set_idx][way]

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        for way in range(self.num_ways):
            if self._is_dead(set_idx, way):
                return way
        stamps = self._stamp[set_idx]
        return min(range(self.num_ways), key=stamps.__getitem__)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._clock += 1
        self._stamp[set_idx][way] = self._clock
        self._last_touch[set_idx][way] = self._set_clock[set_idx]
        if ctx.is_writeback:
            self._live_distance[set_idx][way] = 0  # dead on arrival
            return 0
        predictor, latency = self.fabric.predict(self.slice_id,
                                                 ctx.core_id, ctx.cycle)
        sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
        self._live_distance[set_idx][way] = predictor.predict(sig)
        return latency

    def reset(self) -> None:
        self.sampler.flush()
        self.selector.reset()
        self._clock = 0
        self._sample_time.clear()
        for set_idx in range(self.num_sets):
            self._set_clock[set_idx] = 0
            for way in range(self.num_ways):
                self._last_touch[set_idx][way] = 0
                self._live_distance[set_idx][way] = MAX_LIVE_DISTANCE
                self._stamp[set_idx][way] = 0
