"""Outside-in per-layer tracer for the sweep benchmark.

The tracer wraps the public entry points of each repro layer from the
outside — no repro source changes — and attributes host time to them:

* Coarse boundaries (work units, trace generation, ``Simulator.run``,
  result-cache writes, the sweep engine, rendering) record a *span*
  ``(name, start, end, parent, run_id, pid)``.  Spans are kept in
  memory and written out when the run ends.
* Per-access layers (private caches, LLC slices, the LLC replacement
  policy, prefetchers, predictor fabric + NOCSTAR, mesh, DRAM, core
  timing) are far too hot for one record per call; each keeps a
  running ``[calls, busy_s, self_s]`` slot instead.

Self time is a frame's duration minus the time its wrapped children
took, kept with one shared stack of child-time accumulators, so the
self times of all layers add up to the traced wall time.

Class-level patches (``install``) are undone by ``uninstall``.  The
per-access wrappers are set as *instance* attributes on the objects
each ``MemoryHierarchy`` / ``Simulator`` builds, so they vanish with
those objects and an L1's LRU policy is never confused with the LLC's.

Pooled sweeps: install before the pool forks.  A forked worker resets
the inherited totals on its first span and dumps its totals to
``<dump_dir>/worker-<pid>.json`` whenever its outermost span closes;
:meth:`LayerTrace.merge_workers` folds those dumps back in.
"""

from __future__ import annotations

import json
import os
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: LLC replacement-policy hooks timed as the ``replacement`` layer.
POLICY_HOOKS = ("access", "choose_victim", "on_fill", "on_evict")

#: Span names that are whole units of sweep work.
UNIT_SPANS = ("run_alone", "run_mix", "make_mix", "make_mix_trace")

#: Simulated counters harvested from every finished ``Simulator.run``.
COUNTERS = (
    "sim.runs", "sim.vector_runs", "instructions",
    "l1_accesses", "l1_misses", "l2_accesses", "l2_misses",
    "llc_demand_accesses", "llc_demand_hits", "llc_demand_misses",
    "pf_l1_issued", "pf_l2_issued", "fabric_accesses",
    "nocstar_messages", "dsc_reselections", "mesh_messages",
    "mesh_latency", "dram_reads", "dram_writes", "dram_row_hits",
    "dram_row_misses", "dram_queue_wait")


class LayerTrace:
    """Span + per-layer-slot recorder for one traced sweep iteration."""

    def __init__(self, run_id: str, dump_dir: str):
        self.run_id = run_id
        self.dump_dir = dump_dir
        self.owner_pid = os.getpid()
        self.pid = self.owner_pid
        self.layers: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.spans: List[Optional[tuple]] = []
        #: pid -> finished spans dumped by that pool worker.
        self.worker_spans: Dict[int, List[tuple]] = {}
        self._frames: List[float] = [0.0]
        self._open: List[int] = []
        self._patches: List[tuple] = []
        self._fn_wrappers: Dict[int, Callable] = {}

    # ------------------------------------------------------------------
    # Recording primitives
    # ------------------------------------------------------------------
    def slot(self, layer: str) -> List[float]:
        """``[calls, busy_s, self_s]`` for *layer* (created on demand)."""
        return self.layers.setdefault(layer, [0, 0.0, 0.0])

    def _reset_in_place(self) -> None:
        """Zero everything a forked worker inherited from its parent.

        In place, because live wrappers hold references to the slots
        and the frame stack.
        """
        for values in self.layers.values():
            values[:] = [0, 0.0, 0.0]
        for name in self.counts:
            self.counts[name] = 0
        self.spans.clear()
        self._frames[:] = [0.0]
        self._open.clear()

    def timed(self, fn: Callable, layer: str,
              prefetch_fill: bool = False) -> Callable:
        """Counter-only wrapper for a per-access call.

        With ``prefetch_fill`` the first argument is an access context,
        and calls whose kind is PREFETCH also add their duration to the
        ``prefetch.fill`` slot's busy time.
        """
        slot = self.slot(layer)
        pf_slot = self.slot("prefetch.fill") if prefetch_fill else None
        frames = self._frames
        clock = perf_counter

        def wrapper(*args, **kwargs):
            frames.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = frames.pop()
                frames[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
                if pf_slot is not None and args[0].is_prefetch:
                    pf_slot[0] += 1
                    pf_slot[1] += elapsed
        return wrapper

    def spanned(self, fn: Callable, name: str, layer: str,
                after: Optional[Callable] = None) -> Callable:
        """Span-recording wrapper for a coarse boundary.

        ``after(args, result)`` runs inside the span once *fn* returns
        (used to harvest simulated counters from a finished run).
        """
        slot = self.slot(layer)
        clock = perf_counter

        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self.pid = os.getpid()
                self._reset_in_place()
            frames = self._frames
            opened = self._open
            parent = opened[-1] if opened else -1
            index = len(self.spans)
            self.spans.append(None)
            opened.append(index)
            frames.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                end = clock()
                elapsed = end - start
                child = frames.pop()
                frames[-1] += elapsed
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += elapsed - child
                opened.pop()
                self.spans[index] = (name, start, end, parent,
                                     self.run_id, self.pid)
                if not opened and self.pid != self.owner_pid:
                    self.dump_worker()
        return wrapper

    # ------------------------------------------------------------------
    # Installing wrappers
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_function(self, modules, attr: str, span: str,
                        layer: str) -> None:
        """Wrap a module-level function everywhere it was imported.

        One wrapper per original function, shared by every module that
        holds it, so nested calls across modules nest as spans.
        """
        for module in modules:
            original = module.__dict__[attr]
            wrapper = self._fn_wrappers.get(id(original))
            if wrapper is None:
                wrapper = self.spanned(original, span, layer)
                self._fn_wrappers[id(original)] = wrapper
            self._patch(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, span: str, layer: str,
                      after: Optional[Callable] = None) -> None:
        self._patch(cls, attr,
                    self.spanned(cls.__dict__[attr], span, layer, after))

    def _post_init(self, cls, hook: Callable[[object], None]) -> None:
        original = cls.__dict__["__init__"]

        def __init__(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            hook(obj)
        self._patch(cls, "__init__", __init__)

    def install(self) -> None:
        """Wrap every layer's public entry points (class/module level)."""
        from repro.cache.hierarchy import MemoryHierarchy
        from repro.experiments import common, engine, fig23_prefetchers, \
            resultcache, sensitivity
        from repro.sim import runner, simulator
        from repro.traces import mixes

        trace_modules = (mixes, engine, sensitivity)
        self._patch_function((mixes, engine), "make_mix_trace",
                             "make_mix_trace", "traces")
        self._patch_function(trace_modules, "make_mix", "make_mix",
                             "traces")
        self._patch_function((runner, engine), "run_alone", "run_alone",
                             "experiments.alone")
        self._patch_function((runner, engine, sensitivity), "run_mix",
                             "run_mix", "experiments.cells")
        self._patch_function((sensitivity, fig23_prefetchers), "run_sweep",
                             "run_sweep", "experiments.sweep")
        self._patch_function((common,), "matrix_to_dict", "render",
                             "experiments.render")
        self._patch_method(sensitivity.SweepReport, "render", "render",
                           "experiments.render")
        self._patch_method(engine.SweepEngine, "run", "engine",
                           "experiments.engine")
        self._patch_method(resultcache.ResultCache, "put", "resultcache.put",
                           "experiments.resultcache.put")
        self._patch_method(simulator.Simulator, "run", "sim.run", "sim",
                           after=self._harvest)
        self._post_init(simulator.Simulator, self._instrument_cores)
        self._post_init(MemoryHierarchy, self._instrument_hierarchy)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self._fn_wrappers.clear()

    def _wrap_instance(self, obj, attrs, layer: str,
                       prefetch_fill: bool = False) -> None:
        for attr in attrs:
            if attr in vars(obj):  # shared object, already wrapped
                continue
            setattr(obj, attr, self.timed(getattr(obj, attr), layer,
                                          prefetch_fill))

    def _instrument_cores(self, sim) -> None:
        for core in sim.cores:
            self._wrap_instance(core, ("advance", "issue_memory"), "cpu")

    def _instrument_hierarchy(self, hierarchy) -> None:
        self._wrap_instance(hierarchy, ("demand_access",), "cache.hierarchy")
        for cache in hierarchy.l1 + hierarchy.l2:
            self._wrap_instance(cache, ("access", "contains"),
                                "cache.private")
            self._wrap_instance(cache, ("fill",), "cache.private",
                                prefetch_fill=True)
        llc = hierarchy.llc
        self._wrap_instance(llc, ("fill", "slice_of"), "cache.llc")
        for cache in llc.slices:
            self._wrap_instance(cache, ("access",), "cache.llc")
            self._wrap_instance(cache, ("fill",), "cache.llc",
                                prefetch_fill=True)
            self._wrap_instance(cache.policy, POLICY_HOOKS, "replacement")
        for pair in hierarchy.prefetchers:
            for prefetcher in pair:
                self._wrap_instance(prefetcher, ("observe",), "prefetch")
        self._wrap_instance(hierarchy.mesh, ("latency",),
                            "interconnect.mesh")
        self._wrap_instance(hierarchy.dram, ("read", "write"), "dram")
        if llc.fabric is not None:
            self._wrap_instance(llc.fabric, ("predict", "train_target"),
                                "core.fabric")
        if llc.nocstar is not None:
            self._wrap_instance(llc.nocstar, ("request", "response"),
                                "core.fabric")

    # ------------------------------------------------------------------
    # Simulated counters
    # ------------------------------------------------------------------
    def _harvest(self, args, result) -> None:
        """Fold one finished simulation's counters into the totals.

        Reads only public result/stats objects; every value is a count
        of the measured (post-warmup) window, so it repeats exactly.
        """
        sim = args[0]
        hierarchy = sim.hierarchy
        c = self.counts
        c["sim.runs"] += 1
        c["sim.vector_runs"] += int(sim.kernel_used == "vector")
        c["instructions"] += result.total_instructions
        for stats in hierarchy.core_stats:
            c["l1_accesses"] += stats.l1_accesses
            c["l1_misses"] += stats.l1_misses
            c["l2_accesses"] += stats.l2_accesses
            c["l2_misses"] += stats.l2_misses
        c["llc_demand_accesses"] += result.llc_stats.demand_accesses
        c["llc_demand_hits"] += result.llc_stats.demand_hits
        c["llc_demand_misses"] += sum(result.llc_demand_misses)
        for l1_pf, l2_pf in hierarchy.prefetchers:
            c["pf_l1_issued"] += l1_pf.stats.issued
            c["pf_l2_issued"] += l2_pf.stats.issued
        c["fabric_accesses"] += result.fabric_lookups + result.fabric_trains
        c["nocstar_messages"] += result.nocstar_messages
        c["dsc_reselections"] += sum(
            getattr(selector, "reselections", 0)
            for selector in (hierarchy.llc.selectors or []))
        c["mesh_messages"] += hierarchy.mesh.stats.messages
        c["mesh_latency"] += hierarchy.mesh.stats.total_latency
        dram = hierarchy.dram.stats
        c["dram_reads"] += dram.reads
        c["dram_writes"] += dram.writes
        c["dram_row_hits"] += dram.row_hits
        c["dram_row_misses"] += dram.row_misses
        c["dram_queue_wait"] += dram.queue_wait_cycles

    # ------------------------------------------------------------------
    # Worker dumps
    # ------------------------------------------------------------------
    def _snapshot(self) -> dict:
        return {"pid": self.pid, "layers": self.layers,
                "counts": self.counts,
                "spans": [s for s in self.spans if s is not None]}

    def dump_worker(self) -> None:
        path = os.path.join(self.dump_dir, f"worker-{self.pid}.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(self._snapshot(), fh)
        os.replace(tmp, path)

    def merge_workers(self) -> int:
        """Fold every worker dump into this (parent) recorder.

        Returns the number of worker processes that reported.
        """
        merged = 0
        for entry in sorted(os.listdir(self.dump_dir)):
            if not (entry.startswith("worker-") and entry.endswith(".json")):
                continue
            with open(os.path.join(self.dump_dir, entry)) as fh:
                data = json.load(fh)
            for layer, values in data["layers"].items():
                slot = self.slot(layer)
                for i in range(3):
                    slot[i] += values[i]
            for name, value in data["counts"].items():
                self.counts[name] += value
            self.worker_spans[data["pid"]] = [tuple(s)
                                              for s in data["spans"]]
            merged += 1
        return merged

    def span_lists(self) -> List[List[tuple]]:
        """Finished spans, one list per process; ``parent`` fields index
        into the list they sit in."""
        own = [s for s in self.spans if s is not None]
        return [own] + [self.worker_spans[pid]
                        for pid in sorted(self.worker_spans)]
