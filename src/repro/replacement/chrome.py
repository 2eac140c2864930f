"""CHROME (Lu et al., HPCA'24), simplified: RL-driven cache management.

CHROME learns caching actions online with SARSA over PC- and page-level
features.  The simplified agent here keeps a Q-table indexed by the PC
signature with three actions — insert-near, insert-distant, bypass — and
rewards +1 when an inserted line is reused before eviction, −1 when it is
evicted untouched (and a small penalty for bypassing a line that would
have been reused soon, approximated by a bypass being followed by a miss
to the same block while it is remembered).

The Q-table is the policy's "predictor" in Drishti's terms, so it routes
through the :class:`PredictorFabric`; Drishti's per-core-yet-global
placement gives the agent a global view of each PC's episodes, and the
dynamic sampled cache concentrates its training episodes on high-miss
sets (paper Table 7 marks CHROME as benefiting from both enhancements).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.cache.block import AccessContext, CacheBlock
from repro.core.predictor_fabric import PredictorFabric, PredictorScope
from repro.core.sampled_sets import SampledSetSelector, StaticSampledSets
from repro.core.signature import make_signature
from repro.obs.sanitize import SANITIZE, check_range
from repro.replacement.base import ReplacementPolicy

RRPV_MAX = 3

ACTION_NEAR = 0
ACTION_DISTANT = 1
ACTION_BYPASS = 2
NUM_ACTIONS = 3


class QTable:
    """Per-signature action values with SARSA-style updates."""

    LEARNING_RATE = 0.25
    OPTIMISM = 0.1  # initial Q favours caching slightly

    def __init__(self, table_bits: int = 11):
        self.table_bits = table_bits
        size = 1 << table_bits
        self._q = np.zeros((size, NUM_ACTIONS), dtype=np.float64)
        self._q[:, ACTION_NEAR] = self.OPTIMISM

    def __len__(self) -> int:
        return self._q.shape[0]

    def best_action(self, signature: int) -> int:
        return int(np.argmax(self._q[signature]))

    def q_values(self, signature: int) -> np.ndarray:
        return self._q[signature].copy()

    def update(self, signature: int, action: int, reward: float) -> None:
        q = self._q[signature, action]
        self._q[signature, action] = q + self.LEARNING_RATE * (reward - q)

    def reset(self) -> None:
        self._q.fill(0.0)
        self._q[:, ACTION_NEAR] = self.OPTIMISM


def default_chrome_fabric(table_bits: int = 11) -> PredictorFabric:
    """A standalone single-slice fabric for direct policy use in tests."""
    return PredictorFabric(
        PredictorScope.LOCAL, num_slices=1, num_cores=1,
        predictor_factory=lambda _i: QTable(table_bits=table_bits))


class ChromePolicy(ReplacementPolicy):
    """CHROME bound to one LLC slice."""

    name = "chrome"
    uses_predictor = True
    uses_sampled_sets = True

    EPSILON = 0.02  # exploration rate

    def __init__(self, num_sets: int, num_ways: int, slice_id: int = 0,
                 fabric: Optional[PredictorFabric] = None,
                 selector: Optional[SampledSetSelector] = None,
                 table_bits: int = 11, seed: int = 0):
        super().__init__(num_sets, num_ways)
        self.slice_id = slice_id
        self.table_bits = table_bits
        self.fabric = fabric if fabric is not None else \
            default_chrome_fabric(table_bits)
        self.selector = selector if selector is not None else \
            StaticSampledSets(num_sets, max(2, num_sets // 64), seed=seed)
        self._seed = seed
        self._rng = np.random.default_rng(seed)
        self._rrpv = [[RRPV_MAX] * num_ways for _ in range(num_sets)]
        self._action = [[ACTION_DISTANT] * num_ways for _ in range(num_sets)]
        self._rewarded = [[False] * num_ways for _ in range(num_sets)]
        # Recently bypassed blocks: block -> (sig, core) for regret.
        self._bypassed: Dict[int, tuple] = {}
        self._bypass_capacity = 4 * num_ways

    def _signature(self, pc: int, core_id: int, is_prefetch: bool) -> int:
        return make_signature(pc, core_id, is_prefetch, self.table_bits)

    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        if ctx.is_writeback:
            return
        self.selector.observe(set_idx, hit)
        if hit and way is not None:
            self._rrpv[set_idx][way] = 0
            if not self._rewarded[set_idx][way]:
                self._rewarded[set_idx][way] = True
                q, _lat = self.fabric.train_target(self.slice_id,
                                                   ctx.core_id, ctx.cycle)
                sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
                q.update(sig, self._action[set_idx][way], reward=1.0)
            return
        # Miss: if we recently bypassed this block the bypass was a
        # mistake — regret signal.
        bypass_info = self._bypassed.pop(ctx.block, None)
        if bypass_info is not None:
            sig, core_id = bypass_info
            q, _lat = self.fabric.train_target(self.slice_id, core_id,
                                               ctx.cycle)
            q.update(sig, ACTION_BYPASS, reward=-1.0)

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        if ctx.is_writeback:
            self._pending_action = ACTION_DISTANT
            invalid = self.first_invalid(set_idx, blocks)
            if invalid is not None:
                return invalid
            return self._rrip_victim(set_idx)

        q, latency = self.fabric.predict(self.slice_id, ctx.core_id,
                                         ctx.cycle)
        self.add_fill_latency(latency)
        sig = self._signature(ctx.pc, ctx.core_id, ctx.is_prefetch)
        if self._rng.random() < self.EPSILON:
            action = int(self._rng.integers(0, NUM_ACTIONS))
        else:
            action = q.best_action(sig)
        self._pending_action = action
        if action == ACTION_BYPASS:
            self._remember_bypass(ctx.block, sig, ctx.core_id)
            # Mild positive reward for a bypass that is never regretted is
            # implicit (no negative update arrives).
            return self.BYPASS
        invalid = self.first_invalid(set_idx, blocks)
        if invalid is not None:
            return invalid
        return self._rrip_victim(set_idx)

    def _remember_bypass(self, block: int, sig: int, core_id: int) -> None:
        if len(self._bypassed) >= self._bypass_capacity:
            self._bypassed.pop(next(iter(self._bypassed)))
        self._bypassed[block] = (sig, core_id)

    def _rrip_victim(self, set_idx: int) -> int:
        rrpv = self._rrpv[set_idx]
        while True:
            for way in range(self.num_ways):
                if rrpv[way] >= RRPV_MAX:
                    return way
            for way in range(self.num_ways):
                # No-op clamp; see SRRIPPolicy.choose_victim (SAT001).
                rrpv[way] = min(RRPV_MAX, rrpv[way] + 1)
                if SANITIZE:
                    check_range(rrpv[way], 0, RRPV_MAX, "chrome.rrpv")

    def on_evict(self, set_idx: int, way: int, block: CacheBlock,
                 ctx: AccessContext) -> None:
        if not self._rewarded[set_idx][way]:
            q, _lat = self.fabric.train_target(self.slice_id, block.core_id,
                                               ctx.cycle)
            sig = self._signature(block.pc, block.core_id, block.is_prefetch)
            q.update(sig, self._action[set_idx][way], reward=-1.0)

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        action = getattr(self, "_pending_action", ACTION_DISTANT)
        self._action[set_idx][way] = action
        self._rewarded[set_idx][way] = False
        self._rrpv[set_idx][way] = 0 if action == ACTION_NEAR else RRPV_MAX - 1
        if ctx.is_writeback:
            self._rrpv[set_idx][way] = RRPV_MAX
        return 0

    def reset(self) -> None:
        self.selector.reset()
        self._rng = np.random.default_rng(self._seed)
        self._bypassed.clear()
        for set_idx in range(self.num_sets):
            for way in range(self.num_ways):
                self._rrpv[set_idx][way] = RRPV_MAX
                self._action[set_idx][way] = ACTION_DISTANT
                self._rewarded[set_idx][way] = False
