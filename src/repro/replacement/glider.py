"""Glider (Shi et al., MICRO'19), simplified: integer-SVM reuse prediction.

Glider distils an offline LSTM into an online Integer SVM whose features
are the contents of a PC History Register (PCHR) — the last k PCs that
accessed the cache on behalf of a core.  Each table entry (indexed by the
current PC) holds one integer weight per PCHR feature hash; the
prediction is the sign of the feature-weight sum against a threshold.
Training labels come from OPTgen, exactly like Hawkeye.

Simplifications vs the paper (documented in DESIGN.md): one weight vector
per predictor entry with 16 feature buckets (the paper uses per-feature
tables), and a fixed margin instead of the paper's tuned dual thresholds.
Table 8 only needs the ±Drishti delta, which survives this.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import make_signature, mix64
from repro.replacement.base import ReplacementPolicy
from repro.replacement.hawkeye.optgen import OptGen
from repro.replacement.sampled_cache import SampledCache

RRPV_MAX = 7
PCHR_LENGTH = 5
NUM_FEATURES = 16
WEIGHT_MAX = 15
WEIGHT_MIN = -16
TRAIN_MARGIN = 8


class ISVMPredictor:
    """Integer-SVM table: per-signature weight vectors over PCHR hashes."""

    def __init__(self, table_bits: int = 11):
        self.table_bits = table_bits
        self._weights: List[List[int]] = [
            [0] * NUM_FEATURES for _ in range(1 << table_bits)
        ]

    def __len__(self) -> int:
        return len(self._weights)

    @staticmethod
    def _feature(pc: int) -> int:
        return mix64(pc) % NUM_FEATURES

    def score(self, signature: int, history: Sequence[int]) -> int:
        weights = self._weights[signature]
        return sum(weights[self._feature(pc)] for pc in history)

    def predict(self, signature: int, history: Sequence[int]) -> bool:
        """True = cache-friendly."""
        return self.score(signature, history) >= 0

    def train(self, signature: int, history: Sequence[int],
              friendly: bool) -> None:
        score = self.score(signature, history)
        # Perceptron-style: only update while under the margin.
        if friendly and score > TRAIN_MARGIN:
            return
        if not friendly and score < -TRAIN_MARGIN:
            return
        weights = self._weights[signature]
        delta = 1 if friendly else -1
        for pc in history:
            f = self._feature(pc)
            weights[f] = max(WEIGHT_MIN, min(WEIGHT_MAX, weights[f] + delta))

    def reset(self) -> None:
        for vec in self._weights:
            for i in range(NUM_FEATURES):
                vec[i] = 0


def default_glider_fabric(table_bits: int = 11) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: ISVMPredictor(table_bits=table_bits))


class GliderPolicy(ReplacementPolicy):
    """Glider bound to one LLC slice.

    Keeps a per-core PCHR; sampled sets + OPTgen provide the labels; the
    ISVM (reached through the fabric) provides friendly/averse for fills,
    driving the same RRIP substrate as Hawkeye.
    """

    name = "glider"
    uses_predictor = True
    uses_sampled_sets = True

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 11, sampled_entries_per_set: int = 48,
                 seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.table_bits = table_bits
        self.fabric = fabric if fabric is not None else \
            default_glider_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self.sampler = SampledCache(entries_per_set=sampled_entries_per_set)
        self._optgen: Dict[int, OptGen] = {}
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]
        self._pchr: Dict[int, Deque[int]] = {}

    def _signature(self, pc: int, core_id: int, is_prefetch: bool) -> int:
        return make_signature(pc, core_id, is_prefetch, self.table_bits)

    def _history(self, core_id: int) -> Deque[int]:
        hist = self._pchr.get(core_id)
        if hist is None:
            hist = deque(maxlen=PCHR_LENGTH)
            self._pchr[core_id] = hist
        return hist

    def _optgen_for(self, set_idx: int) -> OptGen:
        gen = self._optgen.get(set_idx)
        if gen is None:
            gen = OptGen(capacity=self.num_ways)
            self._optgen[set_idx] = gen
        return gen

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        if hit and way is not None:
            self._rrpv[set_idx][way] = 0

        history = self._history(ctx.core_id)
        reselected = self.selector.observe(set_idx, hit)
        if reselected is not None:
            self.sampler.retarget(reselected)
            self._optgen = {s: gen for s, gen in self._optgen.items()
                            if s in self.selector.sampled_sets}

        if self.selector.is_sampled(set_idx):
            optgen = self._optgen_for(set_idx)
            entry = self.sampler.lookup(set_idx, ctx.block)
            verdict = optgen.access(entry.time if entry else None)
            if entry is not None and verdict is not None:
                isvm, _lat = self.fabric.train_target(
                    self.slice_id, entry.core_id, ctx.cycle)
                sig = self._signature(entry.pc, entry.core_id,
                                      entry.is_prefetch)
                isvm.train(sig, list(history), verdict)
            self.sampler.update(set_idx, ctx.block, ctx.pc, ctx.core_id,
                                ctx.is_prefetch, optgen.time - 1)
        history.append(ctx.pc)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        rrpv = self._rrpv[set_idx]
        for way in range(self.num_ways):
            if rrpv[way] >= RRPV_MAX:
                return way
        return max(range(self.num_ways), key=rrpv.__getitem__)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        if ctx.is_writeback:
            self._rrpv[set_idx][way] = RRPV_MAX
            return 0
        isvm, latency = self.fabric.predict(self.slice_id, ctx.core_id,
                                            ctx.cycle)
        sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
        friendly = isvm.predict(sig, list(self._history(ctx.core_id)))
        rrpv = self._rrpv[set_idx]
        if friendly:
            for w in range(self.num_ways):
                if w != way and rrpv[w] < RRPV_MAX - 1:
                    rrpv[w] += 1
            rrpv[way] = 0
        else:
            rrpv[way] = RRPV_MAX
        return latency

    def reset(self) -> None:
        self.sampler.flush()
        self.selector.reset()
        self._optgen.clear()
        self._pchr.clear()
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                self._rrpv[set_idx][way] = RRPV_MAX
