"""Tests for the workload access-pattern library.

Covers: the registry/factory surface (`pattern_names` /
`PATTERN_REGISTRY` / `create_pattern` — repro-lint INV004 checks this
file keeps enumerating the registry), per-kind parameter validation,
generator behaviour and determinism, the declarative
`WorkloadSpec.from_dict` schema, the registry-wide simulation test
proving every registered kind simulates at one and two cores and repeats
bit-identically, and the trace-identity regression: two same-named
specs with different parameters must never share a trace name or a
sweep cache key.
"""

import json

import numpy as np
import pytest

from repro.experiments.common import ExperimentProfile
from repro.experiments.engine import SweepEngine
from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.mixes import HOMOGENEOUS, MixSpec, make_mix, mix_trace_name
from repro.traces.patterns import (PATTERN_REGISTRY, AccessPattern,
                                   SequentialPattern, create_pattern,
                                   pattern_class, pattern_names,
                                   register_pattern)
from repro.traces.synthetic import PCClassSpec, WorkloadSpec, build_trace


POOL = np.arange(100, 164, dtype=np.uint64)
AVERSE = np.arange(1000, 1128, dtype=np.uint64)

#: Kinds the registry must at least contain (growth is fine; loss of a
#: legacy kind would break every named workload spec).
CORE_KINDS = {"cyclic", "scan", "stream", "chase", "phased",
              "sequential", "phase_change", "uniform", "zipfian",
              "hotspot", "bursty"}


def build(kind, pool=POOL, seed=3, **params):
    cls = pattern_class(kind)
    averse = AVERSE if cls.needs_averse_pool else None
    phase_len = 16 if cls.needs_averse_pool else 0
    return create_pattern(kind, pool, averse_pool=averse,
                          phase_len=phase_len, seed=seed, **params)


def drain(pattern, n=256):
    return [pattern.next_block() for _ in range(n)]


# ---------------------------------------------------------------------------
# Registry & factory
# ---------------------------------------------------------------------------

class TestRegistry:
    def test_core_kinds_registered(self):
        assert CORE_KINDS <= set(pattern_names())

    def test_names_sorted_and_match_registry(self):
        assert pattern_names() == sorted(PATTERN_REGISTRY)
        for kind, cls in PATTERN_REGISTRY.items():
            assert cls.kind == kind
            assert issubclass(cls, AccessPattern)

    def test_unknown_kind_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean 'zipfian'"):
            pattern_class("zipfain")

    def test_unknown_kind_lists_registry(self):
        with pytest.raises(ValueError, match="registered:"):
            create_pattern("nope", POOL)

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            register_pattern(PATTERN_REGISTRY["uniform"])

    def test_register_rejects_kindless_class(self):
        class NoKindPattern(SequentialPattern):
            kind = ""
        with pytest.raises(ValueError, match="no kind"):
            register_pattern(NoKindPattern)

    def test_register_rejects_non_pattern(self):
        with pytest.raises(ValueError, match="not an AccessPattern"):
            register_pattern(dict)

    def test_empty_pool_rejected(self):
        for kind in pattern_names():
            with pytest.raises(ValueError, match="empty pool"):
                build(kind, pool=np.empty(0, dtype=np.uint64))


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

class TestParams:
    def test_unknown_param_rejected_everywhere(self):
        for kind in pattern_names():
            with pytest.raises(ValueError, match="unknown params"):
                pattern_class(kind).check_params({"bogus_knob": 1.0})

    def test_non_numeric_param_rejected(self):
        with pytest.raises(ValueError, match="must be a number"):
            pattern_class("zipfian").check_params({"alpha": "hot"})
        with pytest.raises(ValueError, match="must be a number"):
            pattern_class("zipfian").check_params({"alpha": True})

    @pytest.mark.parametrize("kind,params,match", [
        ("zipfian", {"alpha": 0.0}, "alpha"),
        ("zipfian", {"alpha": 11}, "alpha"),
        ("hotspot", {"hot_frac": 0.0}, "hot_frac"),
        ("hotspot", {"hot_frac": 1.5}, "hot_frac"),
        ("hotspot", {"hot_prob": -0.1}, "hot_prob"),
        ("hotspot", {"hot_prob": 2}, "hot_prob"),
        ("bursty", {"burst_len": 0}, "burst_len"),
        ("bursty", {"burst_len": 2.5}, "burst_len"),
    ])
    def test_out_of_range_params(self, kind, params, match):
        with pytest.raises(ValueError, match=match):
            pattern_class(kind).check_params(params)

    def test_resolved_params_merges_defaults(self):
        cls = pattern_class("hotspot")
        assert cls.resolved_params({}) == {"hot_frac": 0.1,
                                           "hot_prob": 0.9}
        merged = cls.resolved_params({"hot_prob": 0.5})
        assert merged == {"hot_frac": 0.1, "hot_prob": 0.5}
        assert list(merged) == sorted(merged)

    def test_phase_pattern_needs_averse_state(self):
        with pytest.raises(ValueError, match="phase_len"):
            create_pattern("phase_change", POOL, averse_pool=AVERSE,
                           phase_len=0)
        with pytest.raises(ValueError, match="averse_pool"):
            create_pattern("phased", POOL, phase_len=8)


# ---------------------------------------------------------------------------
# Generator behaviour
# ---------------------------------------------------------------------------

class TestBehaviour:
    def test_all_kinds_emit_pool_blocks(self):
        for kind in pattern_names():
            pattern = build(kind)
            allowed = set(POOL.tolist()) | set(AVERSE.tolist())
            assert set(drain(pattern, 200)) <= allowed, kind

    def test_sequential_walks_in_order(self):
        pattern = build("sequential", pool=POOL[:5])
        assert drain(pattern, 7) == [100, 101, 102, 103, 104, 100, 101]

    def test_phase_change_flips_pools(self):
        pattern = build("phase_change")
        blocks = drain(pattern, 48)
        friendly, averse = set(POOL.tolist()), set(AVERSE.tolist())
        assert set(blocks[:16]) <= friendly
        assert set(blocks[16:32]) <= averse
        assert set(blocks[32:48]) <= friendly

    def test_stochastic_determinism(self):
        for kind in ("uniform", "zipfian", "hotspot", "bursty"):
            assert drain(build(kind, seed=9)) == drain(build(kind, seed=9))
            assert drain(build(kind, seed=9)) != drain(build(kind, seed=10))

    def test_zipfian_head_is_hottest(self):
        pattern = build("zipfian", alpha=1.2)
        counts = {}
        for block in drain(pattern, 4000):
            counts[block] = counts.get(block, 0) + 1
        assert max(counts, key=counts.get) == int(POOL[0])

    def test_hotspot_hot_set_dominates(self):
        pattern = build("hotspot", hot_frac=0.125, hot_prob=0.95)
        hot = set(POOL[:8].tolist())
        blocks = drain(pattern, 2000)
        hot_share = sum(b in hot for b in blocks) / len(blocks)
        assert hot_share > 0.85

    def test_bursty_runs_are_sequential(self):
        pattern = build("bursty", burst_len=8)
        blocks = drain(pattern, 64)
        for start in range(0, 64, 8):
            run = blocks[start:start + 8]
            deltas = {(b - a) % len(POOL)
                      for a, b in zip(run, run[1:])}
            assert deltas == {1}


# ---------------------------------------------------------------------------
# Declarative specs
# ---------------------------------------------------------------------------

def spec_for(kind, name=None, **params):
    cls = pattern_class(kind)
    return WorkloadSpec(
        name=name or f"diff_{kind}", apki=30.0, slice_affinity=0.4,
        set_skew_band=0.5,
        classes=(
            PCClassSpec(pattern=kind, count=3, pool_frac=0.4, weight=3.0,
                        write_frac=0.2, in_skew_band=True,
                        phase_len=40 if cls.needs_averse_pool else 0,
                        params=params),
            PCClassSpec(pattern="stream", count=1, pool_frac=2.0,
                        weight=1.0),
        ))


class TestDeclarativeSpecs:
    def test_round_trip_every_kind(self):
        for kind in pattern_names():
            spec = spec_for(kind)
            clone = WorkloadSpec.from_dict(
                json.loads(json.dumps(spec.to_dict())))
            assert clone == spec
            assert clone.digest() == spec.digest()

    def test_params_normalised_to_sorted_tuple(self):
        a = PCClassSpec(pattern="hotspot", count=1, pool_frac=0.1,
                        weight=1.0, params={"hot_prob": 0.5,
                                            "hot_frac": 0.2})
        b = PCClassSpec(pattern="hotspot", count=1, pool_frac=0.1,
                        weight=1.0, params=(("hot_frac", 0.2),
                                            ("hot_prob", 0.5)))
        assert a == b
        assert a.params == (("hot_frac", 0.2), ("hot_prob", 0.5))
        assert hash(a) == hash(b)

    def test_digest_keys_every_parameter(self):
        base = spec_for("zipfian", name="kv")
        hotter = spec_for("zipfian", name="kv", alpha=1.4)
        assert base.digest() != hotter.digest()
        assert base.digest() == spec_for("zipfian", name="kv").digest()

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.update(typo=1), "unknown keys"),
        (lambda d: d.pop("apki"), "missing required"),
        (lambda d: d.update(classes=[]), "non-empty"),
        (lambda d: d["classes"][0].update(pattern="zipfain"),
         "did you mean"),
        (lambda d: d["classes"][0].update(params={"alpha": 99}),
         "alpha"),
        (lambda d: [c.update(weight=0.0) for c in d["classes"]],
         "weights sum to 0"),
        (lambda d: d["classes"][0].update(pool_frac=-1), "pool_frac"),
    ])
    def test_from_dict_rejects_bad_specs(self, mutate, match):
        data = spec_for("zipfian").to_dict()
        mutate(data)
        with pytest.raises(ValueError, match=match):
            WorkloadSpec.from_dict(data)

    def test_spec_generates_trace(self):
        for kind in pattern_names():
            trace = build_trace(spec_for(kind), capacity_blocks=256,
                                num_slices=2, num_sets=64,
                                num_accesses=300, seed=1)
            assert len(trace) == 300


# ---------------------------------------------------------------------------
# Registry-wide simulation: every registered kind, one and two cores
# ---------------------------------------------------------------------------

def smoke_config(num_cores=1):
    return SystemConfig.from_profile(num_cores, ScaleProfile.smoke(),
                                     llc_policy="lru", seed=5,
                                     prefetcher="none")


def pattern_mix(kind, num_cores=1):
    spec = spec_for(kind)
    return MixSpec(name=f"mix_{kind}", workloads=(spec.name,) * num_cores,
                   kind=HOMOGENEOUS, custom=(spec,))


def simulate_pattern(kind, num_cores, accesses=600, seed=5):
    """Generate a homogeneous *kind* mix and export its run's results."""
    cfg = smoke_config(num_cores)
    traces = make_mix(pattern_mix(kind, num_cores), cfg, accesses,
                      seed=seed)
    result = Simulator(cfg, traces).run()
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "ipc": result.ipc,
        "l1": result.l1_misses,
        "l2": result.l2_misses,
        "llc_acc": result.llc_demand_accesses,
        "llc_miss": result.llc_demand_misses,
        "llc_stats": vars(result.llc_stats),
        "dram": (result.dram_reads, result.dram_writes,
                 result.dram_row_hit_rate),
        "noc": (result.noc_messages, result.noc_avg_latency),
    }


class TestDifferential:
    # Parametrising over the live registry (not a hand-written list) is
    # what lets INV004 promise that newly registered kinds get
    # simulation coverage automatically.
    @pytest.mark.parametrize("kind", pattern_names())
    def test_every_registered_kind_bit_identical(self, kind):
        """Two independent generate-and-simulate runs of *kind*, at one
        and at two cores, export bit-identical results."""
        for num_cores in (1, 2):
            first = simulate_pattern(kind, num_cores)
            assert len(first["instructions"]) == num_cores
            assert all(n > 0 for n in first["instructions"])
            assert all(c > 0 for c in first["cycles"])
            assert simulate_pattern(kind, num_cores) == first


# ---------------------------------------------------------------------------
# Trace identity: same name, different parameters, never shared
# ---------------------------------------------------------------------------

class TestTraceIdentity:
    """Regression for the trace-identity collision: before spec digests
    entered trace names and cache keys, a custom spec shadowing a pool
    workload's name produced the same ``mcf#s7#c0`` trace name — and
    the same alone-IPC/cell cache keys — as the genuine pool workload,
    silently sharing cached results between different workloads."""

    def shadow_mix(self, alpha):
        spec = spec_for("zipfian", name="mcf", alpha=alpha)
        return MixSpec(name="shadow", workloads=("mcf",),
                       kind=HOMOGENEOUS, custom=(spec,))

    def test_trace_names_embed_spec_digest(self):
        plain = MixSpec(name="plain", workloads=("mcf",),
                        kind=HOMOGENEOUS)
        shadow = self.shadow_mix(alpha=1.1)
        cfg = smoke_config(1)
        plain_trace = make_mix(plain, cfg, 200, seed=7)[0]
        shadow_trace = make_mix(shadow, cfg, 200, seed=7)[0]
        assert plain_trace.name != shadow_trace.name
        assert shadow.resolve("mcf").digest() in shadow_trace.name

    def test_same_name_different_params_distinct_names(self):
        a = self.shadow_mix(alpha=1.1).resolve("mcf")
        b = self.shadow_mix(alpha=1.3).resolve("mcf")
        assert mix_trace_name("mcf", 7, 0, spec=a) != \
            mix_trace_name("mcf", 7, 0, spec=b)
        # The pre-fix name (no spec) is what used to collide.
        assert mix_trace_name("mcf", 7, 0) == "mcf#s7#c0"

    def test_engine_cache_keys_distinct(self):
        from repro.core.drishti import DrishtiConfig
        engine = SweepEngine(cache=False)
        profile = ExperimentProfile.bench()
        mixes = {alpha: self.shadow_mix(alpha)
                 for alpha in (1.1, 1.3)}
        alone = {alpha: engine._alone_key(profile, 4, mix, 0)
                 for alpha, mix in mixes.items()}
        cells = {alpha: engine._cell_key(profile, 4, mix, "lru",
                                         DrishtiConfig.baseline())
                 for alpha, mix in mixes.items()}
        assert alone[1.1] != alone[1.3]
        assert cells[1.1] != cells[1.3]
        # ...and neither collides with the genuine pool workload.
        plain = MixSpec(name="shadow", workloads=("mcf",),
                        kind=HOMOGENEOUS)
        assert engine._alone_key(profile, 4, plain, 0) not in \
            alone.values()

    def test_generation_seed_stays_name_based(self):
        """The spec digest keys *identity*, not generation: a pool
        workload's records keep their exact historical addresses (the
        generation seed derives from the name alone), while its trace
        name now carries the resolved spec's digest."""
        from repro.core.signature import stable_hash
        from repro.traces.mixes import resolve_workload
        plain = MixSpec(name="plain", workloads=("mcf",),
                        kind=HOMOGENEOUS)
        cfg = smoke_config(1)
        trace = make_mix(plain, cfg, 100, seed=7)[0]
        spec = resolve_workload("mcf")
        assert trace.name == f"mcf#h{spec.digest()}#s7#c0"
        direct = build_trace(
            spec, capacity_blocks=cfg.llc_lines_per_core,
            num_slices=cfg.num_cores, num_sets=cfg.llc_sets_per_slice,
            num_accesses=100,
            seed=7 * 10_007 + (stable_hash("mcf") & 0xFFFF),
            hash_scheme=cfg.hash_scheme)
        assert [a.address for a in trace] == \
            [a.address for a in direct]
