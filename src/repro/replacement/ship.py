"""SHiP++ (Wu et al., MICRO'11; Young et al., CRC-2): signature-based
hit prediction.

SHiP keeps a Signature Hit Counter Table (SHCT) of 3-bit counters indexed
by a PC signature.  Lines filled from sampled sets remember their
signature and an outcome bit; a hit sets the outcome and bumps the SHCT,
an eviction without reuse decrements it.  Fills whose signature counter is
zero insert at distant RRPV (predicted dead); confident signatures insert
near.  SHiP++ refinements kept here: writebacks insert distant, prefetch
fills insert conservatively.

The SHCT is the "reuse predictor" in Drishti's terms, so it is reached
through the :class:`PredictorFabric` and benefits from the
per-core-yet-global placement exactly like Hawkeye's and Mockingjay's
predictors (paper Table 7 / Table 8).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import make_signature
from repro.obs.sanitize import SANITIZE, check_range
from repro.replacement.base import ReplacementPolicy

RRPV_BITS = 2
RRPV_MAX = (1 << RRPV_BITS) - 1


class SHCT:
    """Signature Hit Counter Table: 3-bit saturating counters."""

    def __init__(self, table_bits: int = 13, counter_bits: int = 3):
        self.table_bits = table_bits
        self.counter_max = (1 << counter_bits) - 1
        self._counters = [1] * (1 << table_bits)

    def __len__(self) -> int:
        return len(self._counters)

    def value(self, signature: int) -> int:
        return self._counters[signature]

    def increment(self, signature: int) -> None:
        if self._counters[signature] < self.counter_max:
            self._counters[signature] += 1
        if SANITIZE:
            check_range(self._counters[signature], 0, self.counter_max,
                        f"SHCT[{signature}]")

    def decrement(self, signature: int) -> None:
        if self._counters[signature] > 0:
            self._counters[signature] -= 1
        if SANITIZE:
            check_range(self._counters[signature], 0, self.counter_max,
                        f"SHCT[{signature}]")

    def reset(self) -> None:
        for i in range(len(self._counters)):
            self._counters[i] = 1


def default_ship_fabric(table_bits: int = 13) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: SHCT(table_bits=table_bits))


class SHiPPolicy(ReplacementPolicy):
    """SHiP++ bound to one LLC slice."""

    name = "ship"
    uses_predictor = True
    uses_sampled_sets = True

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 13, seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.table_bits = table_bits
        self.fabric = fabric if fabric is not None else \
            default_ship_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]
        self._outcome = [[False] * num_ways for _ in range(num_sets)]
        self._sampled_line = [[False] * num_ways for _ in range(num_sets)]

    def _signature(self, ctx_pc: int, core_id: int, is_prefetch: bool) -> int:
        return make_signature(ctx_pc, core_id, is_prefetch, self.table_bits)

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        self.selector.observe(set_idx, hit)
        if hit and way is not None:
            self._rrpv[set_idx][way] = 0
            if self._sampled_line[set_idx][way] and \
                    not self._outcome[set_idx][way]:
                self._outcome[set_idx][way] = True
                # First reuse of a tracked line: the signature hits.
                shct, _lat = self.fabric.train_target(
                    self.slice_id, ctx.core_id, ctx.cycle)
                sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
                shct.increment(sig)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        rrpv = self._rrpv[set_idx]
        while True:
            for way in range(self.num_ways):
                if rrpv[way] >= RRPV_MAX:
                    return way
            for way in range(self.num_ways):
                # No-op clamp; see SRRIPPolicy.choose_victim (SAT001).
                rrpv[way] = min(RRPV_MAX, rrpv[way] + 1)
                if SANITIZE:
                    check_range(rrpv[way], 0, RRPV_MAX, "ship.rrpv")

    def on_evict(self, set_idx: int, way: int, block: CacheBlock,
                 ctx: AccessContext) -> None:
        if self._sampled_line[set_idx][way] and \
                not self._outcome[set_idx][way]:
            # Tracked line left without ever being reused.
            shct, _lat = self.fabric.train_target(
                self.slice_id, block.core_id, ctx.cycle)
            sig = self._signature(block.pc, block.core_id, block.is_prefetch)
            shct.decrement(sig)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        self._outcome[set_idx][way] = False
        self._sampled_line[set_idx][way] = self.selector.is_sampled(set_idx)
        if ctx.is_writeback:
            self._rrpv[set_idx][way] = RRPV_MAX
            return 0
        shct, latency = self.fabric.predict(self.slice_id, ctx.core_id,
                                            ctx.cycle)
        sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
        counter = shct.value(sig)
        if counter == 0:
            self._rrpv[set_idx][way] = RRPV_MAX  # predicted dead
        elif counter >= shct.counter_max:
            self._rrpv[set_idx][way] = 0  # confidently reused
        else:
            self._rrpv[set_idx][way] = RRPV_MAX - 1
        if ctx.is_prefetch:
            # SHiP++: prefetch fills are inserted conservatively.
            self._rrpv[set_idx][way] = max(self._rrpv[set_idx][way],
                                           RRPV_MAX - 1)
        return latency

    def reset(self) -> None:
        self.selector.reset()
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                self._rrpv[set_idx][way] = RRPV_MAX
                self._outcome[set_idx][way] = False
                self._sampled_line[set_idx][way] = False
