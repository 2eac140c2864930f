"""The cache's ``block -> way`` lookup index and free-way counts.

:class:`repro.cache.cache.Cache` serves ``find_way``/``contains``/
``access`` from a dict of its valid lines instead of scanning the set,
and keeps a per-set count of invalid ways that the policy's
``first_invalid`` reads.  These tests drive random operation sequences
through real policies and check, after every step, that the index and
the counts say exactly what a linear scan of the lines says; plus the
``REPRO_SANITIZE`` cross-check that catches a line mutated behind the
cache's back.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import cache as cache_module
from repro.cache.block import DEMAND, PREFETCH, WRITEBACK, AccessContext
from repro.cache.cache import Cache
from repro.core.sampled_sets import ExplicitSampledSets
from repro.obs.sanitize import IndexCoherenceError
from repro.replacement.lru import LRUPolicy
from repro.replacement.mockingjay import MockingjayPolicy
from repro.replacement.rrip import SRRIPPolicy

SETS, WAYS, BLOCKS = 4, 4, 48


def make_policy(name):
    if name == "lru":
        return LRUPolicy(SETS, WAYS)
    if name == "srrip":
        return SRRIPPolicy(SETS, WAYS)
    return MockingjayPolicy(SETS, WAYS,
                            selector=ExplicitSampledSets(SETS, range(SETS)),
                            seed=0)


def scanned_index(cache):
    """``block -> way`` of every valid line, by linear scan."""
    index = {}
    for set_idx in range(cache.num_sets):
        for way, line in enumerate(cache.blocks_in_set(set_idx)):
            if line.valid:
                assert line.block not in index, "block resident twice"
                assert line.block & (cache.num_sets - 1) == set_idx
                index[line.block] = way
    return index


def assert_free_ways(cache):
    """Each set's free count is its number of invalid lines, and
    ``first_invalid`` picks the first of them."""
    for set_idx in range(cache.num_sets):
        lines = cache.blocks_in_set(set_idx)
        invalid = [way for way, line in enumerate(lines) if not line.valid]
        assert cache._free_ways[set_idx] == len(invalid)
        assert cache.policy.first_invalid(set_idx, lines) == \
            (invalid[0] if invalid else None)


def assert_coherent(cache):
    scan = scanned_index(cache)
    assert cache._way_of == scan
    assert_free_ways(cache)
    for block in range(BLOCKS):
        home = cache.set_index(block)
        assert cache.find_way(home, block) == scan.get(block)
        assert cache.contains(block) == (block in scan)
        for other in range(cache.num_sets):
            if other != home:
                assert cache.find_way(other, block) is None


def ctx(block, kind=DEMAND, write=False, cycle=0):
    return AccessContext(pc=0x400 + 4 * (block % 5), block=block,
                         core_id=block % 2, is_write=write, kind=kind,
                         cycle=cycle)


OPS = ("access", "fill", "prefetch_fill", "invalidate",
       "writeback_refill")

ops_strategy = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, BLOCKS - 1),
              st.booleans()),
    min_size=1, max_size=150)


def apply(cache, op, block, flag, cycle):
    if op == "access":
        cache.access(ctx(block, PREFETCH if flag else DEMAND, cycle=cycle))
    elif op == "fill":
        cache.access(ctx(block, write=flag, cycle=cycle))
        cache.fill(ctx(block, write=flag, cycle=cycle))
    elif op == "prefetch_fill":
        cache.fill(ctx(block, PREFETCH, cycle=cycle))
    elif op == "invalidate":
        resident = block in scanned_index(cache)
        assert cache.invalidate(block) == resident
    else:  # a dirty writeback: refresh if resident, allocate if not
        wb = ctx(block, WRITEBACK, write=True, cycle=cycle)
        if cache.contains(block):
            cache.access(wb)
        cache.fill(wb)


@pytest.mark.parametrize("policy", ["lru", "srrip", "mockingjay"])
class TestIndexCoherence:
    @given(ops_strategy)
    @settings(max_examples=60, deadline=None)
    def test_index_matches_scan_after_every_op(self, policy, ops):
        cache = Cache("t", SETS, WAYS, make_policy(policy))
        for cycle, (op, block, flag) in enumerate(ops):
            apply(cache, op, block, flag, cycle)
            assert_coherent(cache)

    def test_long_random_run(self, policy):
        rng = random.Random(7)
        cache = Cache("t", SETS, WAYS, make_policy(policy))
        for cycle in range(4000):
            op = OPS[rng.randrange(len(OPS))]
            apply(cache, op, rng.randrange(BLOCKS), rng.random() < 0.3,
                  cycle)
            assert_free_ways(cache)
            if cycle % 97 == 0:
                assert_coherent(cache)
        assert_coherent(cache)
        assert cache.stats.evictions > 0
        if policy == "mockingjay":
            assert cache.stats.bypasses > 0


class TestIndexSanitizer:
    @pytest.fixture
    def armed(self, monkeypatch):
        monkeypatch.setattr(cache_module, "SANITIZE", True)

    def fill(self, cache, block):
        cache.access(ctx(block))
        return cache.fill(ctx(block))

    def test_armed_run_passes(self, armed):
        rng = random.Random(3)
        cache = Cache("t", SETS, WAYS, make_policy("srrip"))
        for cycle in range(2000):
            op = OPS[rng.randrange(len(OPS))]
            apply(cache, op, rng.randrange(BLOCKS), rng.random() < 0.3,
                  cycle)
        assert_coherent(cache)

    def test_line_changed_behind_the_index_trips_fill(self, armed):
        cache = Cache("t", SETS, WAYS, make_policy("lru"))
        self.fill(cache, 0)
        cache.blocks_in_set(0)[0].block = 4 * SETS  # not via fill
        with pytest.raises(IndexCoherenceError):
            self.fill(cache, SETS)

    def test_stale_entry_trips_invalidate(self, armed):
        cache = Cache("t", SETS, WAYS, make_policy("lru"))
        self.fill(cache, 0)
        self.fill(cache, SETS)
        cache.blocks_in_set(0)[1].reset()  # not via invalidate
        with pytest.raises(IndexCoherenceError):
            cache.invalidate(SETS)

    def test_line_invalidated_behind_the_cache_trips(self, armed):
        # The index still agrees (an invalid line is never checked
        # against it); only the free-way count catches this.
        cache = Cache("t", SETS, WAYS, make_policy("lru"))
        for i in range(WAYS):
            self.fill(cache, i * SETS)
        cache.blocks_in_set(0)[1].valid = False  # not via invalidate
        with pytest.raises(IndexCoherenceError, match="free ways"):
            self.fill(cache, WAYS * SETS)

    def test_disarmed_does_not_check(self, monkeypatch):
        monkeypatch.setattr(cache_module, "SANITIZE", False)
        cache = Cache("t", SETS, WAYS, make_policy("lru"))
        self.fill(cache, 0)
        cache.blocks_in_set(0)[0].block = 4 * SETS
        self.fill(cache, SETS)  # the corruption goes unnoticed
