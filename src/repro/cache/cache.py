"""Generic set-associative cache with a pluggable replacement policy.

The cache is purely functional state (lookup / access / fill / invalidate);
latency and ordering live in :mod:`repro.cache.hierarchy` and the CPU
timing model.  Replacement policies receive hook calls:

* ``access(set_idx, ctx, hit, way)`` on every access routed to the cache,
* ``choose_victim(set_idx, blocks, ctx)`` when a fill needs a way
  (may return ``ReplacementPolicy.BYPASS``),
* ``on_fill(set_idx, way, ctx)`` after installation — its integer return
  value is extra fill-path latency in cycles (Drishti's predictor fabric
  charges remote-predictor lookups here),
* ``on_evict(set_idx, way, block, ctx)`` before a valid line leaves
  (only for policy classes that override the base no-op).

Lookups are O(1): the cache keeps a ``block -> way`` index of its valid
lines and a per-set count of invalid ways, which the policy reads
through ``first_invalid``.  The invariant is that only
:meth:`Cache.fill` and :meth:`Cache.invalidate` change which block a
line holds or whether it is valid, and both update the index and the
count in the same step; with ``REPRO_SANITIZE=1`` they cross-check the
touched set against a scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.cache.block import AccessContext, CacheBlock
from repro.obs.sanitize import SANITIZE, IndexCoherenceError
from repro.replacement.base import ReplacementPolicy


@dataclass
class CacheStats:
    """Counters for one cache (or one LLC slice)."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    demand_accesses: int = 0
    demand_hits: int = 0
    demand_misses: int = 0
    prefetch_accesses: int = 0
    prefetch_hits: int = 0
    fills: int = 0
    bypasses: int = 0
    evictions: int = 0
    writebacks_out: int = 0
    writeback_fills: int = 0

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def demand_miss_rate(self) -> float:
        if self.demand_accesses == 0:
            return 0.0
        return self.demand_misses / self.demand_accesses

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Return element-wise sum with *other* (for aggregating slices)."""
        merged = CacheStats()
        for name in vars(self):
            setattr(merged, name, getattr(self, name) + getattr(other, name))
        return merged


@dataclass(slots=True)
class EvictedBlock:
    """A line evicted by a fill; the hierarchy routes dirty ones downward."""

    block: int
    dirty: bool
    pc: int
    core_id: int


@dataclass(frozen=True, slots=True)
class AccessOutcome:
    """Result of a cache access (shared, hence frozen: one miss outcome
    and one hit outcome per way per cache)."""

    hit: bool
    way: Optional[int] = None


class Cache:
    """A set-associative cache bound to a replacement policy instance.

    Args:
        name: for diagnostics ("L1D-3", "LLC-slice-7", ...).
        num_sets: power-of-two set count.
        num_ways: associativity.
        policy: replacement policy implementing the hook protocol above.
        track_set_stats: keep per-set access/miss counters (needed by the
            Figure 5 analysis and the dynamic sampled cache experiments).
    """

    def __init__(self, name: str, num_sets: int, num_ways: int,
                 policy: ReplacementPolicy,
                 track_set_stats: bool = False):
        if num_sets < 1 or (num_sets & (num_sets - 1)) != 0:
            raise ValueError(f"num_sets must be a power of two, got {num_sets}")
        if num_ways < 1:
            raise ValueError(f"num_ways must be >= 1, got {num_ways}")
        self.name = name
        self.num_sets = num_sets
        self.num_ways = num_ways
        self.policy = policy
        self.stats = CacheStats()
        self._sets: List[List[CacheBlock]] = [
            [CacheBlock() for _ in range(num_ways)] for _ in range(num_sets)
        ]
        self._set_mask = num_sets - 1
        #: block -> way of every valid line (see the module docstring).
        self._way_of: Dict[int, int] = {}
        #: Invalid ways per set, kept with ``_way_of``; the policy owns
        #: the list and reads it in ``first_invalid``.
        self._free_ways: List[int] = policy.bind(num_sets, num_ways)
        # Decided from the class, not a bound method, so a wrapper put on
        # the instance later still sees every hook that runs.
        self._calls_on_evict = (type(policy).on_evict
                                is not ReplacementPolicy.on_evict)
        self._miss = AccessOutcome(False)
        self._hits = tuple(AccessOutcome(True, way)
                           for way in range(num_ways))
        self.track_set_stats = track_set_stats
        if track_set_stats:
            self.set_accesses = np.zeros(num_sets, dtype=np.int64)
            self.set_misses = np.zeros(num_sets, dtype=np.int64)
        else:
            self.set_accesses = None
            self.set_misses = None

    # ------------------------------------------------------------------
    # Indexing helpers
    # ------------------------------------------------------------------
    def set_index(self, block: int) -> int:
        """Set index for a block number (low block bits)."""
        return block & self._set_mask

    def blocks_in_set(self, set_idx: int) -> List[CacheBlock]:
        return self._sets[set_idx]

    def find_way(self, set_idx: int, block: int) -> Optional[int]:
        """Way holding *block* in *set_idx*, or None (no side effects)."""
        way = self._way_of.get(block)
        if way is None or block & self._set_mask != set_idx:
            return None
        return way

    def contains(self, block: int) -> bool:
        return block in self._way_of

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def access(self, ctx: AccessContext) -> AccessOutcome:
        """Look up *ctx.block*; update stats and notify the policy.

        Does not fill on a miss — the hierarchy fills after the lower
        levels respond, via :meth:`fill`.
        """
        block = ctx.block
        set_idx = block & self._set_mask
        way = self._way_of.get(block)
        hit = way is not None

        stats = self.stats
        stats.accesses += 1
        if hit:
            stats.hits += 1
        else:
            stats.misses += 1
        if ctx.is_demand:
            stats.demand_accesses += 1
            if hit:
                stats.demand_hits += 1
            else:
                stats.demand_misses += 1
        elif ctx.is_prefetch:
            stats.prefetch_accesses += 1
            if hit:
                stats.prefetch_hits += 1

        if self.track_set_stats and not ctx.is_writeback:
            self.set_accesses[set_idx] += 1
            if not hit:
                self.set_misses[set_idx] += 1

        if hit:
            line = self._sets[set_idx][way]
            line.last_touch = ctx.cycle
            if ctx.is_write or ctx.is_writeback:
                line.dirty = True
        self.policy.access(set_idx, ctx, hit, way)
        return self._hits[way] if hit else self._miss

    def fill(self, ctx: AccessContext):
        """Install *ctx.block*; returns ``(evicted, extra_latency)``.

        ``evicted`` is an :class:`EvictedBlock` or None (invalid victim or
        bypass); ``extra_latency`` is the policy's fill-path overhead in
        cycles (zero for conventional policies).
        """
        block = ctx.block
        set_idx = block & self._set_mask
        blocks = self._sets[set_idx]
        way_of = self._way_of

        # Refilling a resident block (e.g. a writeback-allocate racing a
        # demand fill) just refreshes the line.
        existing = way_of.get(block)
        if existing is not None:
            line = blocks[existing]
            line.last_touch = ctx.cycle
            if ctx.is_write or ctx.is_writeback:
                line.dirty = True
            return None, 0

        policy = self.policy
        victim_way = policy.choose_victim(set_idx, blocks, ctx)
        if victim_way == policy.BYPASS:
            self.stats.bypasses += 1
            if policy.pending_fill_latency:
                return None, policy.take_fill_latency()
            return None, 0

        stats = self.stats
        line = blocks[victim_way]
        if line.valid:
            if self._calls_on_evict:
                policy.on_evict(set_idx, victim_way, line, ctx)
            evicted = EvictedBlock(line.block, line.dirty, line.pc,
                                   line.core_id)
            del way_of[line.block]
            stats.evictions += 1
            if line.dirty:
                stats.writebacks_out += 1
        else:
            evicted = None
            self._free_ways[set_idx] -= 1

        line.valid = True
        line.block = block
        line.dirty = ctx.is_write or ctx.is_writeback
        line.pc = ctx.pc
        line.core_id = ctx.core_id
        line.is_prefetch = ctx.is_prefetch
        line.inserted_at = line.last_touch = ctx.cycle
        way_of[block] = victim_way
        if SANITIZE:
            self._check_index(set_idx,
                              None if evicted is None else evicted.block)
        stats.fills += 1
        if ctx.is_writeback:
            stats.writeback_fills += 1
        extra = policy.on_fill(set_idx, victim_way, ctx) or 0
        if policy.pending_fill_latency:
            extra += policy.take_fill_latency()
        return evicted, extra

    def invalidate(self, block: int) -> bool:
        """Drop *block* if present; returns True if it was resident."""
        way = self._way_of.pop(block, None)
        if way is None:
            return False
        set_idx = block & self._set_mask
        if SANITIZE:
            self._check_index(set_idx, block, gone_way=way)
        self._sets[set_idx][way].reset()
        self._free_ways[set_idx] += 1
        return True

    def _check_index(self, set_idx: int, gone_block: Optional[int],
                     gone_way: int = -1) -> None:
        """Sanitizer: the index and free count agree with a scan of
        *set_idx*.

        *gone_block* was just dropped from the index (None if nothing
        was); with *gone_way*, that way still holds it, about to be reset
        (and the free count not yet raised).
        """
        way_of = self._way_of
        if gone_block is not None and gone_block in way_of:
            raise IndexCoherenceError(
                f"{self.name}: block {gone_block:#x} left set {set_idx} "
                f"but is still indexed at way {way_of[gone_block]}")
        for way, line in enumerate(self._sets[set_idx]):
            if way == gone_way:
                coherent = line.valid and line.block == gone_block
            else:
                coherent = not line.valid or way_of.get(line.block) == way
            if not coherent:
                raise IndexCoherenceError(
                    f"{self.name}: set {set_idx} way {way} holds {line!r} "
                    f"but the index says {way_of.get(line.block)}")
        invalid = sum(not line.valid for line in self._sets[set_idx])
        if self._free_ways[set_idx] != invalid:
            raise IndexCoherenceError(
                f"{self.name}: set {set_idx} counts "
                f"{self._free_ways[set_idx]} free ways but {invalid} "
                f"lines are invalid")

    def occupancy(self) -> float:
        """Fraction of ways currently valid (diagnostics)."""
        valid = sum(line.valid for s in self._sets for line in s)
        return valid / (self.num_sets * self.num_ways)

    def __repr__(self) -> str:
        return (f"Cache({self.name!r}, {self.num_sets}x{self.num_ways}, "
                f"policy={type(self.policy).__name__})")
