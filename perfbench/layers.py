"""Per-layer metrics of a traced sweep iteration.

Host times come from the :class:`layertrace.LayerTrace` slots and
spans; simulated counts from the public result/stats objects harvested
after each ``Simulator.run`` (they repeat exactly).  A layer that did
no work on a workload (no engine or result cache in ``fig23_ipcp_16c``)
reads 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from layertrace import UNIT_SPANS

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("traces.gen_s", "s"),
    ("traces.gen_calls", "count"),
    ("experiments.alone_s", "s"),
    ("experiments.cells_s", "s"),
    ("experiments.engine_overhead_s", "s"),
    ("experiments.pool_idle_frac", "ratio"),
    ("experiments.resultcache.put_s", "s"),
    ("experiments.resultcache.put_bytes", "B"),
    ("experiments.render_s", "s"),
    ("sim.self_s", "s"),
    ("sim.runs", "count"),
    ("sim.vector_runs", "count"),
    ("cpu.self_s", "s"),
    ("cpu.calls", "count"),
    ("cache.hierarchy.self_s", "s"),
    ("cache.private.self_s", "s"),
    ("cache.private.calls", "count"),
    ("cache.l1.miss_ratio", "ratio"),
    ("cache.l2.miss_ratio", "ratio"),
    ("cache.llc.self_s", "s"),
    ("cache.llc.calls", "count"),
    ("cache.llc.demand_mpki", "1/kinstr"),
    ("cache.llc.hit_ratio", "ratio"),
    ("prefetch.self_s", "s"),
    ("prefetch.fill_s", "s"),
    ("prefetch.l1_issued_pka", "1/kaccess"),
    ("prefetch.l2_issued_pka", "1/kaccess"),
    ("replacement.self_s", "s"),
    ("replacement.calls", "count"),
    ("core.fabric.self_s", "s"),
    ("core.fabric.apki", "1/kinstr"),
    ("core.nocstar.messages", "count"),
    ("core.dsc.reselections", "count"),
    ("interconnect.mesh.self_s", "s"),
    ("interconnect.mesh.messages", "count"),
    ("interconnect.mesh.avg_latency_cycles", "cycles"),
    ("dram.self_s", "s"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.queue_wait_cycles", "cycles"),
    ("trace.overhead_frac", "ratio"),
    ("trace.attributed_s", "s"),
    ("trace.unattributed_frac", "ratio"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _has_ancestor(spans: List[tuple], index: int, names) -> bool:
    parent = spans[index][3]
    while parent >= 0:
        if spans[parent][0] in names:
            return True
        parent = spans[parent][3]
    return False


def _span_sums(span_lists: List[List[tuple]]) -> Dict[str, float]:
    """Busy seconds per span category, nesting resolved."""
    sums = {"unit": 0.0, "gen": 0.0, "gen_calls": 0, "alone": 0.0,
            "mix": 0.0, "alone_in_mix": 0.0, "engine": 0.0}
    trace_spans = ("make_mix", "make_mix_trace")
    for spans in span_lists:
        for i, (name, start, end, *_rest) in enumerate(spans):
            duration = end - start
            if name in UNIT_SPANS and not _has_ancestor(spans, i,
                                                        UNIT_SPANS):
                sums["unit"] += duration
            if name in trace_spans and not _has_ancestor(spans, i,
                                                         trace_spans):
                sums["gen"] += duration
            if name == "make_mix_trace":
                sums["gen_calls"] += 1
            elif name == "run_alone":
                sums["alone"] += duration
                if _has_ancestor(spans, i, ("run_mix",)):
                    sums["alone_in_mix"] += duration
            elif name == "run_mix":
                sums["mix"] += duration
            elif name == "engine":
                sums["engine"] += duration
    return sums


def layer_metrics(tracer, traced, reference) -> Dict[str, Tuple[float, str]]:
    """Every :data:`PER_LAYER` metric for one traced iteration.

    Args:
        tracer: the :class:`layertrace.LayerTrace` after ``merge_workers``.
        traced: the traced :class:`sweeps.Iteration`.
        reference: the same iteration run untraced (overhead base).
    """
    slots = tracer.layers
    c = tracer.counts

    def self_s(layer: str) -> float:
        return slots.get(layer, [0, 0.0, 0.0])[2]

    def busy_s(layer: str) -> float:
        return slots.get(layer, [0, 0.0, 0.0])[1]

    def calls(layer: str) -> int:
        return int(slots.get(layer, [0, 0.0, 0.0])[0])

    spans = _span_sums(tracer.span_lists())
    workers = max(traced.engine_workers, 1)
    engine_wall = spans["engine"]
    attributed = sum(values[2] for values in slots.values())
    processes = 1 + workers if traced.engine_workers > 1 else 1
    values = {
        "traces.gen_s": spans["gen"],
        "traces.gen_calls": spans["gen_calls"],
        "experiments.alone_s": spans["alone"],
        "experiments.cells_s": spans["mix"] - spans["alone_in_mix"],
        "experiments.engine_overhead_s": (
            engine_wall - spans["unit"] / workers if engine_wall else 0.0),
        "experiments.pool_idle_frac": (
            1.0 - spans["unit"] / (workers * engine_wall)
            if engine_wall else 0.0),
        "experiments.resultcache.put_s": busy_s(
            "experiments.resultcache.put"),
        "experiments.resultcache.put_bytes": traced.put_bytes,
        "experiments.render_s": busy_s("experiments.render"),
        "sim.self_s": self_s("sim"),
        "sim.runs": c["sim.runs"],
        "sim.vector_runs": c["sim.vector_runs"],
        "cpu.self_s": self_s("cpu"),
        "cpu.calls": calls("cpu"),
        "cache.hierarchy.self_s": self_s("cache.hierarchy"),
        "cache.private.self_s": self_s("cache.private"),
        "cache.private.calls": calls("cache.private"),
        "cache.l1.miss_ratio": _ratio(c["l1_misses"], c["l1_accesses"]),
        "cache.l2.miss_ratio": _ratio(c["l2_misses"], c["l2_accesses"]),
        "cache.llc.self_s": self_s("cache.llc"),
        "cache.llc.calls": calls("cache.llc"),
        "cache.llc.demand_mpki": 1000.0 * _ratio(c["llc_demand_misses"],
                                                 c["instructions"]),
        "cache.llc.hit_ratio": _ratio(c["llc_demand_hits"],
                                      c["llc_demand_accesses"]),
        "prefetch.self_s": self_s("prefetch"),
        "prefetch.fill_s": busy_s("prefetch.fill"),
        "prefetch.l1_issued_pka": 1000.0 * _ratio(c["pf_l1_issued"],
                                                  c["l1_accesses"]),
        "prefetch.l2_issued_pka": 1000.0 * _ratio(c["pf_l2_issued"],
                                                  c["l1_accesses"]),
        "replacement.self_s": self_s("replacement"),
        "replacement.calls": calls("replacement"),
        "core.fabric.self_s": self_s("core.fabric"),
        "core.fabric.apki": 1000.0 * _ratio(c["fabric_accesses"],
                                            c["instructions"]),
        "core.nocstar.messages": c["nocstar_messages"],
        "core.dsc.reselections": c["dsc_reselections"],
        "interconnect.mesh.self_s": self_s("interconnect.mesh"),
        "interconnect.mesh.messages": c["mesh_messages"],
        "interconnect.mesh.avg_latency_cycles": _ratio(c["mesh_latency"],
                                                       c["mesh_messages"]),
        "dram.self_s": self_s("dram"),
        "dram.reads": c["dram_reads"],
        "dram.writes": c["dram_writes"],
        "dram.row_hit_rate": _ratio(c["dram_row_hits"],
                                    c["dram_row_hits"] + c["dram_row_misses"]),
        "dram.queue_wait_cycles": c["dram_queue_wait"],
        "trace.overhead_frac": traced.wall_s / reference.wall_s - 1.0,
        "trace.attributed_s": attributed,
        "trace.unattributed_frac": 1.0 - attributed / (traced.wall_s
                                                       * processes),
    }
    return {name: (values[name], unit) for name, unit in PER_LAYER}
