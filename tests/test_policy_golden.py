"""Per-policy fixed-seed goldens for the full 4-core simulator.

One short smoke-scale cell per registered LLC policy at the paper's
default ``prefetcher="baseline"``, plus one inclusive-LLC cell that
drives back-invalidation.  Every policy shares the cache's lookup,
fill and invalidate path and the victim helpers in
:class:`repro.replacement.base.ReplacementPolicy` (the private L1/L2
use LRU/SRRIP), so a change to any of them that moves even one float
shows up here.  Exact ``==`` on purpose, as in
``tests/test_simulator_golden.py``.
"""

from typing import List, NamedTuple, Tuple

import pytest

from repro.replacement.registry import policy_names
from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix


class Golden(NamedTuple):
    cycles: List[float]
    llc_demand_misses: List[int]
    l2_misses: List[int]
    llc_fills_evictions_bypasses_writebacks: Tuple[int, int, int, int]
    dram_reads_writes: Tuple[int, int]
    noc: Tuple[int, float]


GOLDEN = {
    'brrip': Golden(
        cycles=[50333.66666666602, 44523.833333332805,
                49705.166666666024, 50174.99999999946],
        llc_demand_misses=[759, 768, 722, 810],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6495, 4627, 0, 51),
        dram_reads_writes=(6478, 51),
        noc=(10176, 5.285082547169812)),
    'chrome': Golden(
        cycles=[52862.83333333279, 46339.83333333282,
                51063.49999999938, 52595.16666666632],
        llc_demand_misses=[819, 817, 748, 851],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(3442, 1865, 3374, 38),
        dram_reads_writes=(6789, 38),
        noc=(10311, 5.276694791969741)),
    'dip': Golden(
        cycles=[51075.999999999374, 45324.83333333282,
                51161.833333332725, 50840.49999999945],
        llc_demand_misses=[776, 790, 736, 814],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6637, 4769, 0, 55),
        dram_reads_writes=(6617, 55),
        noc=(10258, 5.281633846753754)),
    'drrip': Golden(
        cycles=[50335.833333332674, 45066.499999999505,
                51246.833333332725, 51141.99999999946],
        llc_demand_misses=[775, 790, 740, 812],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6636, 4768, 0, 54),
        dram_reads_writes=(6616, 54),
        noc=(10256, 5.282566302652106)),
    'eva': Golden(
        cycles=[52393.66666666612, 46653.99999999946,
                52560.16666666621, 51752.33333333285],
        llc_demand_misses=[835, 832, 797, 863],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7040, 5172, 0, 52),
        dram_reads_writes=(7020, 52),
        noc=(10450, 5.275885167464115)),
    'glider': Golden(
        cycles=[51561.99999999933, 46256.49999999946,
                52162.333333332885, 50841.49999999946],
        llc_demand_misses=[793, 797, 765, 825],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6746, 4878, 0, 55),
        dram_reads_writes=(6728, 55),
        noc=(10305, 5.283260553129549)),
    'hawkeye': Golden(
        cycles=[53373.49999999952, 46697.333333332805,
                50852.33333333268, 52306.166666666264],
        llc_demand_misses=[806, 812, 736, 843],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6727, 4859, 0, 46),
        dram_reads_writes=(6712, 46),
        noc=(10272, 5.274532710280374)),
    'leeway': Golden(
        cycles=[52393.66666666612, 46653.99999999946,
                52560.16666666621, 51752.33333333285],
        llc_demand_misses=[835, 832, 797, 863],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7040, 5172, 0, 60),
        dram_reads_writes=(7021, 60),
        noc=(10451, 5.275571715625299)),
    'lru': Golden(
        cycles=[53167.999999999534, 46669.99999999946,
                52683.16666666621, 51528.333333332834],
        llc_demand_misses=[835, 832, 797, 863],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7040, 5172, 0, 46),
        dram_reads_writes=(7021, 46),
        noc=(10451, 5.275571715625299)),
    'lru+inclusive': Golden(
        cycles=[53167.999999999534, 46669.99999999946,
                52683.16666666621, 51528.333333332834],
        llc_demand_misses=[835, 832, 797, 863],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7021, 5153, 0, 37),
        dram_reads_writes=(7021, 37),
        noc=(10432, 5.274348159509202)),
    'mockingjay': Golden(
        cycles=[50102.66666666602, 45470.83333333285,
                49361.16666666601, 51895.99999999955],
        llc_demand_misses=[768, 793, 718, 834],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6198, 4343, 390, 81),
        dram_reads_writes=(6562, 81),
        noc=(10206, 5.285714285714286)),
    'perceptron': Golden(
        cycles=[52521.99999999946, 47009.99999999946,
                52588.16666666621, 51854.33333333286],
        llc_demand_misses=[829, 832, 797, 864],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7031, 5163, 0, 57),
        dram_reads_writes=(7014, 57),
        noc=(10449, 5.275624461670973)),
    'random': Golden(
        cycles=[52516.99999999946, 46177.66666666616,
                51304.33333333271, 52357.49999999959],
        llc_demand_misses=[818, 823, 760, 856],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(6885, 5017, 0, 50),
        dram_reads_writes=(6869, 50),
        noc=(10369, 5.277461664577105)),
    'sdbp': Golden(
        cycles=[52521.99999999946, 47009.99999999946,
                52588.16666666621, 51854.33333333286],
        llc_demand_misses=[829, 832, 797, 864],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7031, 5163, 0, 56),
        dram_reads_writes=(7014, 56),
        noc=(10449, 5.275624461670973)),
    'ship': Golden(
        cycles=[51839.49999999943, 46640.833333332805,
                52126.166666666184, 51691.99999999952],
        llc_demand_misses=[819, 830, 793, 861],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7007, 5139, 0, 58),
        dram_reads_writes=(6990, 58),
        noc=(10444, 5.2746074301034085)),
    'srrip': Golden(
        cycles=[52393.66666666612, 46653.99999999946,
                52560.16666666621, 51752.33333333285],
        llc_demand_misses=[835, 832, 797, 863],
        l2_misses=[840, 834, 811, 866],
        llc_fills_evictions_bypasses_writebacks=(7041, 5173, 0, 44),
        dram_reads_writes=(7021, 44),
        noc=(10451, 5.275571715625299)),
}


def run_cell(policy, inclusive=False):
    cfg = SystemConfig.from_profile(4, ScaleProfile.smoke(),
                                    llc_policy=policy, seed=13,
                                    prefetcher="baseline",
                                    llc_inclusive=inclusive)
    traces = make_mix(homogeneous_mix("mcf", 4), cfg, 1200, seed=13)
    result = Simulator(cfg, traces).run()
    s = result.llc_stats
    return Golden(
        cycles=result.cycles,
        llc_demand_misses=result.llc_demand_misses,
        l2_misses=result.l2_misses,
        llc_fills_evictions_bypasses_writebacks=(
            s.fills, s.evictions, s.bypasses, s.writebacks_out),
        dram_reads_writes=(result.dram_reads, result.dram_writes),
        noc=(result.noc_messages, result.noc_avg_latency))


def test_every_registered_policy_is_pinned():
    assert sorted(GOLDEN) == sorted(policy_names() + ["lru+inclusive"])


@pytest.mark.parametrize("policy", policy_names())
def test_policy_golden(policy):
    assert run_cell(policy) == GOLDEN[policy]


def test_inclusive_golden():
    assert run_cell("lru", inclusive=True) == GOLDEN["lru+inclusive"]
