"""Fixed-seed golden results for :meth:`Simulator.run`.

Captured before the hot-loop optimisation (hoisted attribute lookups +
heap-free single-core path) so any refactor of the per-access loop that
changes even one float is caught.  Exact ``==`` on purpose: the loop is
pure deterministic arithmetic and must stay bit-identical.

The prefetcher-less classes pin the same loop with the prefetch-issue
path disabled, so a change confined to the demand miss path cannot hide
behind prefetch traffic.
"""

from repro.sim.config import ScaleProfile, SystemConfig
from repro.sim.simulator import Simulator
from repro.traces.mixes import homogeneous_mix, make_mix


class TestMultiCoreGolden:
    def make_result(self):
        cfg = SystemConfig.from_profile(4, ScaleProfile.smoke(),
                                        llc_policy="hawkeye", seed=5)
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 2000, seed=5)
        return Simulator(cfg, traces).run()

    def test_golden_values(self):
        result = self.make_result()
        assert result.ipc == [0.43067090654811013, 0.4059770537086933,
                              0.3827752741839033, 0.40921637289232227]
        assert result.cycles == [85327.33333333462, 85315.16666666801,
                                 92866.50000000143, 84957.5000000013]
        assert result.llc_demand_misses == [1208, 1230, 1382, 1274]
        assert result.llc_stats.writebacks_out == 137
        assert result.noc_messages == 16827
        assert result.noc_avg_latency == 5.000891424496345

    def test_rerun_is_deterministic(self):
        first = self.make_result()
        second = self.make_result()
        assert first.ipc == second.ipc
        assert first.cycles == second.cycles


class TestSingleCoreGolden:
    """The single-core case takes the heap-free fast path."""

    def setup_method(self):
        self.cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                             llc_policy="lru", seed=9)
        self.traces = make_mix(homogeneous_mix("xalancbmk", 1),
                               self.cfg, 3000, seed=9)

    def test_golden_values(self):
        result = Simulator(self.cfg, self.traces).run()
        assert result.ipc == [1.483844547278775]
        assert result.instructions == [84546]
        assert result.llc_demand_misses == [2400]

    def test_zero_warmup(self):
        result = Simulator(self.cfg, self.traces,
                           warmup_accesses=0).run()
        assert result.ipc == [1.5029859087936401]

    def test_warmup_longer_than_trace_measures_everything(self):
        result = Simulator(self.cfg, self.traces,
                           warmup_accesses=10 ** 9).run()
        assert result.ipc == [1.5029859087936401]


class TestPrefetcherlessSingleCoreGolden:
    """Prefetcher-less single-core goldens."""

    def setup_method(self):
        self.cfg = SystemConfig.from_profile(1, ScaleProfile.smoke(),
                                             llc_policy="lru", seed=9,
                                             prefetcher="none")
        self.traces = make_mix(homogeneous_mix("xalancbmk", 1),
                               self.cfg, 3000, seed=9)

    def test_golden_values(self):
        result = Simulator(self.cfg, self.traces).run()
        assert result.ipc == [0.8814204868284403]
        assert result.instructions == [84546]
        assert result.llc_demand_misses == [2400]

    def test_zero_warmup(self):
        result = Simulator(self.cfg, self.traces,
                           warmup_accesses=0).run()
        assert result.ipc == [0.8886763957284995]


class TestPrefetcherlessMultiCoreGolden:
    """Prefetcher-less 4-core hawkeye goldens."""

    def make_result(self):
        cfg = SystemConfig.from_profile(4, ScaleProfile.smoke(),
                                        llc_policy="hawkeye", seed=5,
                                        prefetcher="none")
        traces = make_mix(homogeneous_mix("mcf", 4), cfg, 2000, seed=5)
        return Simulator(cfg, traces).run()

    def test_golden_values(self):
        result = self.make_result()
        assert result.ipc == [0.27572339124465217, 0.2791855730691668,
                              0.24870303191433768, 0.2770884406547418]
        assert result.cycles == [133278.49999999863, 125912.66666666555,
                                 142929.4999999987, 126248.49999999939]
        assert result.llc_demand_misses == [1242, 1254, 1399, 1248]
        assert result.llc_stats.writebacks_out == 62
        assert result.noc_messages == 12711
        assert result.noc_avg_latency == 4.999763983950909
