"""The multi-core trace-driven simulation loop.

Cores interleave in cycle order: each step advances the core whose local
clock is furthest behind, so shared-resource contention (LLC slices, DRAM
channels, mesh links) is experienced in a realistic global order without
a cycle-accurate event wheel.

Warmup: each core's leading ``warmup_accesses`` train caches and
predictors without counting; when the last core crosses its warmup
boundary all hierarchy statistics reset and per-core IPC measurement
windows open.  A core whose trace is shorter than ``warmup_accesses``
counts as warm once its trace is exhausted (its warmup target is
clamped to its trace length), so one short trace cannot silently
disable warmup for the whole mix; if warmup would consume *every*
trace entirely, statistics are never reset and the full run is
measured.

Telemetry: pass a :class:`repro.obs.SimTelemetry` to publish every
component's counters into a ``StatsRegistry`` and (optionally) record
an IPC/MPKI/fabric-APKI/DSC time-series every ``sample_interval``
accesses.  With no telemetry attached (the default) the hot loop
performs one falsy integer test extra and results are bit-identical.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cache.cache import CacheStats
from repro.cache.hierarchy import MemoryHierarchy
from repro.cpu.core_model import CoreTiming
from repro.obs.sampling import SimTelemetry
from repro.sim.config import SystemConfig
from repro.traces.trace import Trace


@dataclass
class SimulationResult:
    """Everything a simulation run produces."""

    config: SystemConfig
    trace_names: List[str]
    instructions: List[int]  # measured window, per core
    cycles: List[float]  # measured window, per core
    llc_stats: CacheStats
    llc_demand_accesses: List[int]  # per core, measured window
    llc_demand_misses: List[int]
    l2_misses: List[int]
    l1_misses: List[int]
    dram_reads: int
    dram_writes: int
    dram_row_hit_rate: float
    noc_messages: int
    noc_avg_latency: float
    fabric_lookups: int = 0
    fabric_trains: int = 0
    fabric_lookup_latency_avg: float = 0.0
    fabric_per_instance: List[int] = field(default_factory=list)
    nocstar_messages: int = 0
    nocstar_energy_pj: float = 0.0
    per_set_mpka: Optional[np.ndarray] = None
    interval_samples: Optional[List[dict]] = None

    @property
    def ipc(self) -> List[float]:
        return [inst / cyc if cyc > 0 else 0.0
                for inst, cyc in zip(self.instructions, self.cycles)]

    @property
    def total_instructions(self) -> int:
        return sum(self.instructions)

    def mpki(self, core_id: Optional[int] = None) -> float:
        """LLC demand misses per kilo-instruction (per core or overall)."""
        if core_id is not None:
            instr = self.instructions[core_id]
            misses = self.llc_demand_misses[core_id]
        else:
            instr = self.total_instructions
            misses = sum(self.llc_demand_misses)
        return 1000.0 * misses / instr if instr else 0.0

    @property
    def wpki(self) -> float:
        """LLC writebacks (to DRAM) per kilo-instruction, Table 5's metric."""
        instr = self.total_instructions
        return (1000.0 * self.llc_stats.writebacks_out / instr
                if instr else 0.0)

    @property
    def fabric_apki(self) -> float:
        """Predictor accesses per kilo-instruction (Figure 10's metric)."""
        instr = self.total_instructions
        total = self.fabric_lookups + self.fabric_trains
        return 1000.0 * total / instr if instr else 0.0


class Simulator:
    """Runs a set of per-core traces on a configured system.

    Args:
        config: system description.
        traces: one trace per core (shorter lists leave trailing cores
            idle).
        warmup_accesses: per-core accesses excluded from statistics
            (defaults to 20% of the shortest trace).
        telemetry: optional :class:`repro.obs.SimTelemetry`; components
            publish their counters into its registry at construction,
            and ``telemetry.sample_interval > 0`` enables the interval
            time-series (off by default — disabled runs are
            bit-identical).
    """

    # The only access path; kept so run observers can keep reading it.
    kernel_used = "reference"

    def __init__(self, config: SystemConfig, traces: Sequence[Trace],
                 warmup_accesses: Optional[int] = None,
                 telemetry: Optional[SimTelemetry] = None):
        if len(traces) > config.num_cores:
            raise ValueError(
                f"{len(traces)} traces for {config.num_cores} cores")
        self.config = config
        self.traces = list(traces)
        if warmup_accesses is None:
            shortest = min((len(t) for t in self.traces), default=0)
            warmup_accesses = shortest // 5
        self.warmup_accesses = warmup_accesses
        self.telemetry = telemetry
        registry = telemetry.registry if telemetry is not None else None
        self.hierarchy = MemoryHierarchy(config, registry=registry)
        self.cores = [
            CoreTiming(issue_width=config.core.issue_width,
                       rob_size=config.core.rob_size,
                       max_outstanding=config.core.max_outstanding)
            for _ in range(config.num_cores)
        ]
        if registry is not None:
            for i in range(len(self.traces)):
                registry.register(
                    f"core.{i}.instructions",
                    lambda i=i: self.cores[i].instructions)
                registry.register(f"core.{i}.cycles",
                                  lambda i=i: self.cores[i].cycle)

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute all traces to completion; returns measured statistics.

        The per-access loop dominates every sweep, so repeated
        attribute lookups (`hierarchy.demand_access`, the L1 latency
        threshold, trace/core bindings) are hoisted into locals, and
        the single-core case walks its trace directly instead of
        churning a one-element heap.  Both paths apply the exact same
        access/warmup semantics.
        """
        num_active = len(self.traces)
        snapshots: Dict[int, tuple] = {}
        stats_reset_done = self.warmup_accesses == 0

        if stats_reset_done:
            for i in range(num_active):
                snapshots[i] = (0, 0.0)

        # Hot-loop locals (shared by both paths).
        warmup_accesses = self.warmup_accesses
        demand_access = self.hierarchy.demand_access
        # L1 hits retire through the ROB like ordinary instructions;
        # only accesses that left the L1 hold an MSHR.
        l1_hit_threshold = self.config.l1.latency + 1
        sample_every = (self.telemetry.sample_interval
                        if self.telemetry is not None else 0)

        if num_active == 1:
            stats_reset_done = self._run_single_core(
                warmup_accesses, demand_access, l1_hit_threshold,
                snapshots, stats_reset_done, sample_every)
        else:
            stats_reset_done = self._run_interleaved(
                num_active, warmup_accesses, demand_access, l1_hit_threshold,
                snapshots, stats_reset_done, sample_every)

        if not stats_reset_done:
            # Traces shorter than warmup: measure everything.
            for i in range(num_active):
                snapshots.setdefault(i, (0, 0.0))

        return self._collect(snapshots, num_active)

    def _run_single_core(self, warmup_accesses: int, demand_access,
                         l1_hit_threshold: int,
                         snapshots: Dict[int, tuple],
                         stats_reset_done: bool,
                         sample_every: int = 0) -> bool:
        """Heap-free fast path: one core walks its trace in order."""
        trace = self.traces[0]
        core = self.cores[0]
        advance = core.advance
        issue_memory = core.issue_memory
        for pos in range(len(trace)):
            access = trace[pos]
            advance(access.instr_gap)
            latency = demand_access(0, access, int(core.cycle))
            issue_memory(latency, dependent=access.dependent,
                         is_miss=latency > l1_hit_threshold)
            if not stats_reset_done and pos + 1 >= warmup_accesses:
                self.hierarchy.reset_stats()
                stats_reset_done = True
                snapshots[0] = core.snapshot()
            if sample_every and (pos + 1) % sample_every == 0:
                self._sample(pos + 1)
        core.finish()
        return stats_reset_done

    def _run_interleaved(self, num_active: int, warmup_accesses: int,
                         demand_access, l1_hit_threshold: int,
                         snapshots: Dict[int, tuple],
                         stats_reset_done: bool,
                         sample_every: int = 0) -> bool:
        """Cycle-ordered interleaving of two or more cores."""
        traces = self.traces
        cores = self.cores
        trace_lengths = [len(t) for t in traces]
        positions = [0] * num_active
        processed = [0] * num_active
        warm = [warmup_accesses == 0] * num_active
        heappush = heapq.heappush
        heappop = heapq.heappop

        # Each core's warmup target is clamped to its trace length: a
        # core whose whole trace fits inside warmup counts as warm once
        # it finishes, so it cannot postpone the stats reset (and the
        # measurement windows) of every other core indefinitely.
        warmup_targets = [min(warmup_accesses, trace_lengths[i])
                          for i in range(num_active)]
        for i in range(num_active):
            if warmup_targets[i] == 0:
                warm[i] = True
        # O(1) warmup bookkeeping: count warm cores and unfinished
        # traces incrementally instead of scanning all cores at each
        # warm transition (bit-identical to the scan form).
        warm_count = sum(1 for w in warm if w)
        unfinished = sum(1 for length in trace_lengths if length > 0)

        heap = [(0.0, i) for i in range(num_active)]
        heapq.heapify(heap)
        total_done = 0

        while heap:
            _cycle, core_id = heappop(heap)
            pos = positions[core_id]
            if pos >= trace_lengths[core_id]:
                cores[core_id].finish()
                continue
            access = traces[core_id][pos]
            positions[core_id] = pos + 1
            core = cores[core_id]

            core.advance(access.instr_gap)
            latency = demand_access(core_id, access, int(core.cycle))
            core.issue_memory(latency, dependent=access.dependent,
                              is_miss=latency > l1_hit_threshold)

            if pos + 1 == trace_lengths[core_id]:
                unfinished -= 1
            processed[core_id] += 1
            if not warm[core_id] and \
                    processed[core_id] >= warmup_targets[core_id]:
                warm[core_id] = True
                warm_count += 1
                if warm_count == num_active and not stats_reset_done \
                        and unfinished > 0:
                    # Reset only when something remains to measure;
                    # warmup that would consume every trace entirely
                    # falls through to the measure-everything path.
                    self.hierarchy.reset_stats()
                    stats_reset_done = True
                    # Open every measurement window at the reset point.
                    for i in range(num_active):
                        snapshots[i] = cores[i].snapshot()

            if sample_every:
                total_done += 1
                if total_done % sample_every == 0:
                    self._sample(total_done)

            if positions[core_id] < trace_lengths[core_id]:
                heappush(heap, (core.cycle, core_id))
            else:
                core.finish()
        return stats_reset_done

    # ------------------------------------------------------------------
    def _sample(self, accesses_done: int) -> None:
        """Append one interval time-series row to the telemetry bundle.

        Values are cumulative reads of the live stats objects, so rows
        recorded before the warmup reset reflect warmup traffic and
        rows after it restart from the reset (the discontinuity *is*
        the warmup boundary — useful in itself when plotting).
        """
        num_active = len(self.traces)
        cores = self.cores[:num_active]
        instructions = sum(c.instructions for c in cores)
        cycles = max((c.cycle for c in cores), default=0.0)
        core_stats = self.hierarchy.core_stats[:num_active]
        misses = sum(cs.llc_misses for cs in core_stats)
        fabric = self.hierarchy.llc.fabric
        fabric_total = fabric.stats.total_accesses if fabric is not None \
            else 0
        reselections = 0
        for selector in self.hierarchy.llc.selectors or []:
            reselections += getattr(selector, "reselections", 0) or 0
        self.telemetry.record({
            "accesses": accesses_done,
            "instructions": instructions,
            "ipc": instructions / cycles if cycles else 0.0,
            "llc_demand_misses": misses,
            "mpki": 1000.0 * misses / instructions if instructions
            else 0.0,
            "fabric_accesses": fabric_total,
            "fabric_apki": 1000.0 * fabric_total / instructions
            if instructions else 0.0,
            "dsc_reselections": reselections,
        })

    # ------------------------------------------------------------------
    def _collect(self, snapshots: Dict[int, tuple],
                 num_active: int) -> SimulationResult:
        instructions = []
        cycles = []
        for i in range(num_active):
            snap_instr, snap_cycle = snapshots.get(i, (0, 0.0))
            core = self.cores[i]
            instructions.append(core.instructions - snap_instr)
            cycles.append(core.cycle - snap_cycle)

        hierarchy = self.hierarchy
        llc_stats = hierarchy.llc.aggregate_stats()
        core_stats = hierarchy.core_stats[:num_active]
        fabric = hierarchy.llc.fabric
        nocstar = hierarchy.llc.nocstar

        per_set = None
        if self.config.track_set_stats:
            per_set = hierarchy.llc.per_set_mpka()

        result = SimulationResult(
            config=self.config,
            trace_names=[t.name for t in self.traces],
            instructions=instructions,
            cycles=cycles,
            llc_stats=llc_stats,
            llc_demand_accesses=[cs.llc_accesses for cs in core_stats],
            llc_demand_misses=[cs.llc_misses for cs in core_stats],
            l2_misses=[cs.l2_misses for cs in core_stats],
            l1_misses=[cs.l1_misses for cs in core_stats],
            dram_reads=hierarchy.dram.stats.reads,
            dram_writes=hierarchy.dram.stats.writes,
            dram_row_hit_rate=hierarchy.dram.stats.row_hit_rate,
            noc_messages=hierarchy.mesh.stats.messages,
            noc_avg_latency=hierarchy.mesh.stats.average_latency,
            per_set_mpka=per_set,
        )
        if fabric is not None:
            result.fabric_lookups = fabric.stats.lookups
            result.fabric_trains = fabric.stats.trains
            result.fabric_lookup_latency_avg = \
                fabric.stats.average_lookup_latency
            result.fabric_per_instance = \
                list(fabric.stats.per_instance_accesses)
        if nocstar is not None:
            result.nocstar_messages = nocstar.stats.total_messages
            result.nocstar_energy_pj = nocstar.stats.dynamic_energy_pj
        if self.telemetry is not None and self.telemetry.samples:
            result.interval_samples = list(self.telemetry.samples)
        return result
