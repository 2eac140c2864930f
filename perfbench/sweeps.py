"""The benchmark's workloads: the paper's real sweeps at default configs.

Each workload is a closed loop with one caller: an *iteration* is one
whole sweep at one seed, and the next starts when it finishes.

* ``matrix_4c_pool`` — Figure 13's five headline configurations on the
  bench profile's first four 4-core standard mixes (all homogeneous),
  through ``SweepEngine(parallel=True, max_workers=2)`` with a fresh
  (cold) on-disk :class:`~repro.experiments.resultcache.ResultCache`.
* ``fig23_ipcp_16c`` — Figure 23's prefetcher sweep at its default
  16-core homogeneous xalancbmk mix, ``ipcp`` point only, through
  :func:`repro.experiments.fig23_prefetchers.run` (lazy alone IPCs, no
  engine, no result cache).

All configurations keep the figure defaults (``prefetcher="baseline"``
for the matrix, ``sim_kernel="auto"``).  Every iteration returns its
export (the object the digest pins) and the invariant problems found.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional

import gate

#: Seed stride between successive iterations of one run.
ITERATION_SEED_STRIDE = 1000


def iteration_seed(seed: int, index: int) -> int:
    return seed + ITERATION_SEED_STRIDE * index


@dataclass
class Iteration:
    """One measured sweep."""

    seed: int
    accesses_per_core: int
    wall_s: float
    cells: int             #: together-runs (mix x config) completed
    sim_accesses: int      #: demand accesses simulated, alone + together
    units: int             #: work units attempted (alone + cells)
    failed: int            #: units that raised, retried or failed a check
    export: dict
    problems: List[str] = field(default_factory=list)
    engine_workers: int = 0  #: pool size; 0 when no engine ran
    put_bytes: int = 0       #: bytes the result cache wrote


def bench_profile(seed: int, accesses: Optional[int], **changes):
    """``ExperimentProfile.bench()`` at *seed*, optionally with shorter
    traces (smoke tests only) and other field *changes*."""
    from repro.experiments.common import ExperimentProfile
    base = ExperimentProfile.bench()
    scale = base.scale if accesses is None else dataclasses.replace(
        base.scale, accesses_per_core=accesses)
    return dataclasses.replace(base, scale=scale, seed=seed, **changes)


def _dir_bytes(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


class MatrixWorkload:
    """A ``SweepEngine.run`` of the Figure 13 headline configurations."""

    #: Pool size, as ``--workers 2`` users run the matrix.
    WORKERS = 2

    def __init__(self, name: str, why: str, cores: int, num_homogeneous: int):
        self.name = name
        self.why = why
        self.cores = cores
        self.num_homogeneous = num_homogeneous

    def profile(self, seed: int, accesses: Optional[int]):
        # Homogeneous standard mixes only: on heterogeneous mixes a fast
        # core can finish its whole trace inside the slowest core's
        # warmup, leaving it no measured window, and matrix_to_dict then
        # raises on its unfairness (see README).
        return bench_profile(seed, accesses, core_counts=(self.cores,),
                             num_homogeneous=self.num_homogeneous,
                             num_heterogeneous=0)

    def setup(self, seed: int, accesses: Optional[int], cache_dir: str,
              serial: bool = False):
        """Imports plus profile, mixes, engine and cold cache."""
        from repro.experiments.engine import SweepEngine
        from repro.experiments.resultcache import ResultCache
        profile = self.profile(seed, accesses)
        profile.mixes(self.cores)
        engine = SweepEngine(parallel=not serial,
                             max_workers=None if serial else self.WORKERS,
                             cache=ResultCache(cache_dir))
        return profile, engine

    def run(self, seed: int, accesses: Optional[int], work_dir: str,
            serial: bool = False) -> Iteration:
        from repro.experiments import common
        cache_dir = os.path.join(work_dir, f"cache-{self.name}-{seed}")
        profile, engine = self.setup(seed, accesses, cache_dir, serial)
        try:
            start = perf_counter()
            matrix = engine.run(profile)
            export = common.matrix_to_dict(matrix)
            wall = perf_counter() - start
            put_bytes = _dir_bytes(cache_dir)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        stats = engine.last_stats
        labels = [label for label, _p, _d in common.HEADLINE_POLICIES]
        by_cell = gate.check_matrix_export(export, labels)
        problems = [f"{cell}: {msg}" for cell, msgs in by_cell.items()
                    for msg in msgs]
        if stats.simulations_run != stats.total_units or stats.cache_hits:
            problems.append(f"cold run simulated {stats.simulations_run} of "
                            f"{stats.total_units} units "
                            f"({stats.cache_hits} cache hits)")
        apc = profile.scale.accesses_per_core
        return Iteration(
            seed=seed, accesses_per_core=apc, wall_s=wall,
            cells=stats.cell_units,
            sim_accesses=apc * (stats.alone_units +
                                stats.cell_units * self.cores),
            units=stats.total_units,
            failed=(stats.unit_failures + stats.unit_retries +
                    len(by_cell)),
            export=export, problems=problems,
            engine_workers=stats.workers, put_bytes=put_bytes)


class Fig23Workload:
    """``fig23_prefetchers.run`` restricted to one prefetcher point."""

    POINT = "ipcp"
    CORES = 16

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why

    def profile(self, seed: int, accesses: Optional[int]):
        return bench_profile(seed, accesses)

    def setup(self, seed: int, accesses: Optional[int], cache_dir: str,
              serial: bool = False):
        """Imports plus the profile and the figure's default mix."""
        from repro.experiments import fig23_prefetchers  # noqa: F401
        from repro.traces.mixes import homogeneous_mix
        homogeneous_mix("xalancbmk", self.CORES)
        return self.profile(seed, accesses), None

    def run(self, seed: int, accesses: Optional[int], work_dir: str,
            serial: bool = False) -> Iteration:
        from repro.experiments import fig23_prefetchers, sensitivity
        from repro.sim.report import mix_to_dict
        profile, _ = self.setup(seed, accesses, work_dir)
        captured = []
        inner = sensitivity.run_mix

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            captured.append(result)
            return result

        sensitivity.run_mix = capture
        try:
            start = perf_counter()
            report = fig23_prefetchers.run(profile, cores=self.CORES,
                                           prefetchers=(self.POINT,))
            export = {
                "report": {
                    "title": report.title,
                    "points": list(report.points),
                    "labels": list(report.labels),
                    "improvements": [[p, l, report.improvements[(p, l)]]
                                     for p in report.points
                                     for l in report.labels],
                    "rendered": report.render(),
                },
                "mixes": [mix_to_dict(r) for r in captured],
            }
            wall = perf_counter() - start
        finally:
            sensitivity.run_mix = inner
        labels = [label for label, _p, _d in sensitivity.SWEEP_POLICIES]
        by_run = gate.check_sweep_export(export, labels, self.CORES)
        problems = [f"{where}: {msg}" for where, msgs in by_run.items()
                    for msg in msgs]
        for result in captured:
            if result.config.prefetcher != self.POINT:
                problems.append(f"run used prefetcher "
                                f"{result.config.prefetcher!r}")
        apc = profile.scale.accesses_per_core
        together = sum(len(r.trace_names) for r in captured)
        alone = len({name for r in captured for name in r.trace_names})
        return Iteration(
            seed=seed, accesses_per_core=apc, wall_s=wall,
            cells=len(captured),
            sim_accesses=apc * (together + alone),
            units=len(captured) + alone, failed=len(by_run),
            export=export, problems=problems)


WORKLOADS: Dict[str, object] = {w.name: w for w in (
    MatrixWorkload(
        "matrix_4c_pool",
        "Fig 13 headline configs on the bench profile's four 4-core "
        "homogeneous standard mixes via a 2-worker SweepEngine pool and "
        "cold ResultCache",
        cores=4, num_homogeneous=4),
    Fig23Workload(
        "fig23_ipcp_16c",
        "Fig 23 ipcp point on 16-core xalancbmk: same simulator with the "
        "prefetch-issue path nearly idle and no engine or result cache"),
)}
