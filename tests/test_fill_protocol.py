"""The cache's fill protocol: which policy hooks run, when, and what
``access`` hands back.

``Cache.fill`` calls ``on_evict`` only for policy classes that override
the base no-op, drains fill-path latency only when some is pending, and
``Cache.access`` returns shared frozen outcomes.  These tests pin the
behaviour a policy can observe through all of that.
"""

from dataclasses import FrozenInstanceError

import pytest

from repro.cache.block import DEMAND, WRITEBACK, AccessContext
from repro.cache.cache import Cache
from repro.replacement.base import ReplacementPolicy
from repro.replacement.lru import LRUPolicy
from repro.replacement.registry import make_policy, policy_names

SETS, WAYS = 2, 2


def ctx(block, kind=DEMAND, write=False, pc=0x400, cycle=0):
    return AccessContext(pc=pc, block=block, core_id=block % 2,
                         is_write=write, kind=kind, cycle=cycle)


def load(cache, block, cycle=0):
    """Demand access; fill on a miss.  Returns the fill's result."""
    c = ctx(block, cycle=cycle)
    if cache.access(c).hit:
        return None
    return cache.fill(c)


class EvictSpy(LRUPolicy):
    """LRU that records every on_evict call and what the line held."""

    def __init__(self, num_sets, num_ways):
        super().__init__(num_sets, num_ways)
        self.cache = None
        self.evictions = []

    def on_evict(self, set_idx, way, block, ctx):
        assert block is self.cache.blocks_in_set(set_idx)[way]
        self.evictions.append((set_idx, way, block.block, block.valid,
                               ctx.block))


class LatencySpy(LRUPolicy):
    """Charges fill latency from ``access`` on hits (the perceptron and
    SDBP pattern) and bypasses fills whose PC is ``BYPASS_PC``."""

    BYPASS_PC = 0xB00

    def access(self, set_idx, ctx, hit, way):
        super().access(set_idx, ctx, hit, way)
        if hit:
            self.add_fill_latency(7)

    def choose_victim(self, set_idx, blocks, ctx):
        if ctx.pc == self.BYPASS_PC:
            return self.BYPASS
        return super().choose_victim(set_idx, blocks, ctx)


class TestOnEvict:
    def test_override_runs_before_the_line_changes(self):
        policy = EvictSpy(SETS, WAYS)
        cache = Cache("t", SETS, WAYS, policy)
        policy.cache = cache
        for i, block in enumerate((0, 2, 4)):  # all map to set 0
            load(cache, block, cycle=i)
        # Block 0 (way 0) is LRU when block 4 arrives.
        assert policy.evictions == [(0, 0, 0, True, 4)]
        assert cache.blocks_in_set(0)[0].block == 4

    def test_base_no_op_is_not_called(self):
        policy = LRUPolicy(SETS, WAYS)
        calls = []
        # Wrapped per instance, the way perfbench's tracer does it.
        policy.on_evict = lambda *args: calls.append(args)
        cache = Cache("t", SETS, WAYS, policy)
        for i in range(12):
            load(cache, i, cycle=i)
        assert cache.stats.evictions > 0
        assert calls == []

    def test_instance_wrapper_sees_every_overriding_call(self):
        policy = EvictSpy(SETS, WAYS)
        cache = Cache("t", SETS, WAYS, policy)
        policy.cache = cache
        original, calls = policy.on_evict, []

        def wrapper(*args):
            calls.append(args[:2])
            return original(*args)
        policy.on_evict = wrapper
        for i in range(12):
            load(cache, i, cycle=i)
        assert len(calls) == cache.stats.evictions > 0
        assert len(policy.evictions) == len(calls)

    def test_flag_follows_the_class(self):
        def calls_on_evict(cls):
            return Cache("t", SETS, WAYS, cls(SETS, WAYS))._calls_on_evict

        assert calls_on_evict(LRUPolicy) is False
        assert calls_on_evict(EvictSpy) is True
        assert calls_on_evict(type("Sub", (EvictSpy,), {})) is True
        for name in policy_names():
            policy = make_policy(name, SETS, WAYS)
            assert Cache("t", SETS, WAYS, policy)._calls_on_evict == (
                type(policy).on_evict is not ReplacementPolicy.on_evict)


class TestFillLatency:
    def test_access_latency_drains_on_next_fill(self):
        cache = Cache("t", SETS, WAYS, LatencySpy(SETS, WAYS))
        assert load(cache, 0) == (None, 0)
        assert load(cache, 0) is None  # hit: 7 cycles now pending
        assert load(cache, 2) == (None, 7)
        assert load(cache, 4)[1] == 0  # drained exactly once

    def test_access_latency_drains_on_bypass(self):
        cache = Cache("t", SETS, WAYS, LatencySpy(SETS, WAYS))
        load(cache, 0)
        load(cache, 0)  # hit: 7 cycles pending
        bypassed = ctx(2, pc=LatencySpy.BYPASS_PC)
        assert cache.fill(bypassed) == (None, 7)
        assert cache.fill(bypassed) == (None, 0)
        assert cache.stats.bypasses == 2
        assert not cache.contains(2)


class TestBinding:
    def test_second_cache_raises(self):
        policy = LRUPolicy(SETS, WAYS)
        Cache("a", SETS, WAYS, policy)
        with pytest.raises(ValueError, match="already bound"):
            Cache("b", SETS, WAYS, policy)

    def test_other_geometry_raises(self):
        with pytest.raises(ValueError, match="built for 2x2"):
            Cache("t", 2 * SETS, WAYS, LRUPolicy(SETS, WAYS))
        with pytest.raises(ValueError, match="built for 2x2"):
            Cache("t", SETS, 2 * WAYS, LRUPolicy(SETS, WAYS))

    def test_cache_shares_the_policy_count(self):
        policy = LRUPolicy(SETS, WAYS)
        cache = Cache("t", SETS, WAYS, policy)
        assert cache._free_ways is policy._free_ways


class TestSharedOutcomes:
    def test_outcome_is_frozen(self):
        cache = Cache("t", SETS, WAYS, LRUPolicy(SETS, WAYS))
        miss = cache.access(ctx(0))
        with pytest.raises(FrozenInstanceError):
            miss.hit = True
        cache.fill(ctx(0))
        hit = cache.access(ctx(0))
        with pytest.raises(FrozenInstanceError):
            hit.way = 1

    def test_hit_miss_and_writeback_hit_report_way(self):
        cache = Cache("t", SETS, WAYS, LRUPolicy(SETS, WAYS))
        first = cache.access(ctx(0))
        assert (first.hit, first.way) == (False, None)
        cache.fill(ctx(0))
        cache.access(ctx(2))
        cache.fill(ctx(2))
        for block, way in ((0, 0), (2, 1)):
            outcome = cache.access(ctx(block))
            assert (outcome.hit, outcome.way) == (True, way)
        wb = cache.access(ctx(2, kind=WRITEBACK, write=True))
        assert (wb.hit, wb.way) == (True, 1)
        assert cache.blocks_in_set(0)[1].dirty
        again = cache.access(ctx(6))
        assert (again.hit, again.way) == (False, None)

    def test_outcomes_are_shared_per_cache(self):
        cache = Cache("t", SETS, WAYS, LRUPolicy(SETS, WAYS))
        assert cache.access(ctx(0)) is cache.access(ctx(1))
        load(cache, 0)
        assert cache.access(ctx(0)) is cache.access(ctx(0))
        other = Cache("u", SETS, WAYS, LRUPolicy(SETS, WAYS))
        assert other.access(ctx(0)) is not cache.access(ctx(1))
