"""Property-based tests: every policy upholds the cache contract under
arbitrary access streams."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.block import DEMAND, AccessContext, CacheBlock
from repro.cache.cache import Cache
from repro.core.sampled_sets import StaticSampledSets
from repro.replacement.hawkeye.hawkeye import RRPV_MAX as HAWKEYE_MAX
from repro.replacement.mockingjay.predictor import INF_SCALED
from repro.replacement.mockingjay.mockingjay import ETR_MIN
from repro.replacement.lru import LRUPolicy
from repro.replacement.registry import POLICY_REGISTRY, make_policy
from repro.replacement.rrip import RRPV_MAX as SRRIP_MAX
from repro.replacement.rrip import SRRIPPolicy

SETS, WAYS = 8, 2

stream = st.lists(
    st.tuples(st.integers(min_value=0, max_value=63),  # block
              st.integers(min_value=0, max_value=7),  # pc selector
              st.booleans()),  # write
    min_size=1, max_size=120)


def build(policy_name):
    kwargs = {}
    entry = POLICY_REGISTRY[policy_name]
    if entry.uses_sampled_sets and entry.uses_predictor:
        kwargs["selector"] = StaticSampledSets(SETS, 2, seed=1)
    policy = make_policy(policy_name, SETS, WAYS, **kwargs)
    return Cache("prop", SETS, WAYS, policy), policy


def run_stream(cache, accesses):
    for i, (block, pc_sel, write) in enumerate(accesses):
        ctx = AccessContext(pc=0x400 + pc_sel * 4, block=block,
                            core_id=0, is_write=write, kind=DEMAND,
                            cycle=i)
        if not cache.access(ctx).hit:
            cache.fill(ctx)


class TestEveryPolicyContract:
    @given(stream)
    @settings(max_examples=15, deadline=None)
    def test_all_policies_survive_arbitrary_streams(self, accesses):
        for name in sorted(POLICY_REGISTRY):
            cache, _policy = build(name)
            run_stream(cache, accesses)
            s = cache.stats
            assert s.hits + s.misses == s.accesses
            assert cache.occupancy() <= 1.0

    @given(stream)
    @settings(max_examples=20, deadline=None)
    def test_accessed_block_resident_unless_bypassing(self, accesses):
        # Non-bypassing policies must hold the just-filled block.
        for name in ("lru", "srrip", "drrip", "dip", "hawkeye", "ship",
                     "eva", "sdbp", "leeway"):
            cache, _policy = build(name)
            for i, (block, pc_sel, write) in enumerate(accesses):
                ctx = AccessContext(pc=0x400 + pc_sel * 4, block=block,
                                    core_id=0, is_write=write,
                                    kind=DEMAND, cycle=i)
                if not cache.access(ctx).hit:
                    cache.fill(ctx)
                assert cache.contains(block), name


class TestHawkeyeInvariants:
    @given(stream)
    @settings(max_examples=25, deadline=None)
    def test_rrpv_bounds(self, accesses):
        cache, policy = build("hawkeye")
        run_stream(cache, accesses)
        for set_idx in range(SETS):
            for way in range(WAYS):
                assert 0 <= policy._rrpv[set_idx][way] <= HAWKEYE_MAX


class TestMockingjayInvariants:
    @given(stream)
    @settings(max_examples=25, deadline=None)
    def test_etr_bounds(self, accesses):
        cache, policy = build("mockingjay")
        run_stream(cache, accesses)
        for set_idx in range(SETS):
            for way in range(WAYS):
                assert ETR_MIN <= policy._etr[set_idx][way] <= INF_SCALED

    @given(stream)
    @settings(max_examples=25, deadline=None)
    def test_predictor_values_bounded(self, accesses):
        cache, policy = build("mockingjay")
        run_stream(cache, accesses)
        predictor = policy.fabric.instances[0]
        for sig in range(len(predictor)):
            value = predictor.predict(sig)
            assert value is None or 0 <= value <= INF_SCALED


class TestDeterminismProperty:
    @given(stream)
    @settings(max_examples=10, deadline=None)
    def test_same_stream_same_stats(self, accesses):
        for name in ("mockingjay", "hawkeye", "chrome"):
            a_cache, _p = build(name)
            b_cache, _p = build(name)
            run_stream(a_cache, accesses)
            run_stream(b_cache, accesses)
            assert a_cache.stats.hits == b_cache.stats.hits
            assert a_cache.stats.bypasses == b_cache.stats.bypasses


def _full_set(ways, dirty=()):
    blocks = []
    for way in range(ways):
        line = CacheBlock()
        line.valid = True
        line.block = way
        line.dirty = way in dirty
        line.pc = 0x400
        line.core_id = 0
        blocks.append(line)
    return blocks


class TestVictimScansMatchReferenceLoops:
    """The victim helpers take shortcuts (a free-way count, ``index``/
    ``max`` over lists); each must pick exactly the way the plain loop
    it replaced picks, including ties (first way wins)."""

    @given(st.lists(st.booleans(), min_size=1, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_first_invalid(self, valid):
        expected = next((w for w, v in enumerate(valid) if not v), None)
        ways = len(valid)
        # Scan path: a policy driven without a cache.
        blocks = []
        for flag in valid:
            line = CacheBlock()
            line.valid = flag
            blocks.append(line)
        assert LRUPolicy(1, ways).first_invalid(0, blocks) == expected
        # Bound path: the cache's free-way count settles full sets.  Fill
        # set 0 of a two-set cache way by way, then drop the invalid ones.
        cache = Cache("t", 2, ways, LRUPolicy(2, ways))
        for way in range(ways):
            cache.fill(AccessContext(pc=0, block=2 * way, core_id=0))
        for way, flag in enumerate(valid):
            if not flag:
                assert cache.invalidate(2 * way)
        assert [line.valid for line in cache.blocks_in_set(0)] == valid
        assert cache.policy.first_invalid(
            0, cache.blocks_in_set(0)) == expected
        assert cache.policy.first_invalid(
            1, cache.blocks_in_set(1)) == 0

    @given(st.lists(st.integers(0, 5), min_size=16, max_size=16))
    @settings(max_examples=100, deadline=None)
    def test_lru_oldest_stamp(self, stamps):
        policy = LRUPolicy(1, 16)
        policy._stamp[0][:] = stamps
        expected = min(range(16), key=stamps.__getitem__)
        assert policy.choose_victim(0, _full_set(16), None) == expected

    @given(st.lists(st.integers(0, SRRIP_MAX), min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_srrip_distant_or_aged(self, rrpv):
        policy = SRRIPPolicy(1, 8)
        policy._rrpv[0][:] = rrpv
        ref = list(rrpv)
        while True:
            hits = [w for w in range(8) if ref[w] >= SRRIP_MAX]
            if hits:
                expected = hits[0]
                break
            ref = [v + 1 for v in ref]
        assert policy.choose_victim(0, _full_set(8), None) == expected
        assert policy._rrpv[0] == ref

    @given(st.lists(st.integers(0, HAWKEYE_MAX), min_size=8, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_hawkeye_averse_or_oldest(self, rrpv):
        policy = make_policy("hawkeye", 4, 8)
        policy._rrpv[0][:] = rrpv
        averse = [w for w in range(8) if rrpv[w] >= HAWKEYE_MAX]
        expected = averse[0] if averse else max(range(8),
                                                key=rrpv.__getitem__)
        assert policy.choose_victim(0, _full_set(8), None) == expected

    @given(st.lists(st.integers(-20, 20), min_size=8, max_size=8),
           st.sets(st.integers(0, 7)))
    @settings(max_examples=100, deadline=None)
    def test_mockingjay_max_abs_etr(self, etr, dirty):
        policy = make_policy("mockingjay", 4, 8)
        policy._etr[0][:] = etr
        blocks = _full_set(8, dirty)

        def priority(way):
            return abs(etr[way]) + (policy.dirty_bias if way in dirty
                                    else 0)
        expected = max(range(8), key=priority)
        assert policy._max_abs_etr_way(0, blocks) == expected
