"""Replacement-policy interface.

Every policy manages per-line metadata for one cache (one LLC slice in the
sliced configuration) and receives the hook calls documented in
:mod:`repro.cache.cache`.  The base class implements the no-op defaults so
simple policies only override what they need.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.cache.block import AccessContext, CacheBlock

__all__ = ["ReplacementPolicy", "AccessContext"]


class ReplacementPolicy:
    """Base class for replacement policies.

    Args:
        num_sets: sets in the cache this instance is bound to.
        num_ways: associativity.

    Subclasses must implement :meth:`choose_victim`; the remaining hooks
    default to no-ops.
    """

    #: Sentinel victim meaning "do not install this fill" (non-inclusive
    #: LLCs may bypass; Mockingjay uses this for predicted-dead lines).
    BYPASS = -1

    #: Human-readable policy name, overridden by subclasses.
    name = "base"

    def __init__(self, num_sets: int, num_ways: int):
        if num_sets < 1 or num_ways < 1:
            raise ValueError("num_sets and num_ways must be positive")
        self.num_sets = num_sets
        self.num_ways = num_ways
        #: Fill-path cycles added by :meth:`add_fill_latency` and not yet
        #: drained; the cache drains them only when this is non-zero.
        self.pending_fill_latency = 0
        #: Invalid ways per set.  The cache this policy is bound to keeps
        #: it current (see :meth:`bind`); unbound, it stays at
        #: ``num_ways`` and :meth:`first_invalid` always scans.
        self._free_ways: List[int] = [num_ways] * num_sets
        self._bound = False

    def bind(self, num_sets: int, num_ways: int) -> List[int]:
        """Attach this policy to a cache of the given geometry.

        Returns the per-set invalid-way counts, which the cache updates
        from then on.  A policy keeps per-line state for exactly one
        cache, so binding an instance a second time, or to a cache of
        another geometry, raises ``ValueError``.
        """
        if self._bound:
            raise ValueError(
                f"{type(self).__name__} instance is already bound to a "
                f"cache; build one policy per cache")
        if (num_sets, num_ways) != (self.num_sets, self.num_ways):
            raise ValueError(
                f"{type(self).__name__} was built for {self.num_sets}x"
                f"{self.num_ways} but the cache is {num_sets}x{num_ways}")
        self._bound = True
        return self._free_ways

    # -- hooks ----------------------------------------------------------
    def access(self, set_idx: int, ctx: AccessContext, hit: bool,
               way: Optional[int]) -> None:
        """Called on every access routed to the cache (hit or miss)."""

    def choose_victim(self, set_idx: int, blocks: Sequence[CacheBlock],
                      ctx: AccessContext) -> int:
        """Return the way to evict for this fill, or :data:`BYPASS`."""
        raise NotImplementedError

    def on_fill(self, set_idx: int, way: int, ctx: AccessContext) -> int:
        """Called after a line is installed.

        Returns extra fill-path latency in cycles (predictor lookups over
        an interconnect); conventional policies return 0.
        """
        return 0

    def on_evict(self, set_idx: int, way: int, block: CacheBlock,
                 ctx: AccessContext) -> None:
        """Called just before a valid line is evicted.

        The cache calls it only for classes that override it: the base
        hook is a no-op.
        """

    # -- fill-path latency ----------------------------------------------
    def add_fill_latency(self, cycles: int) -> None:
        """Accumulate fill-path latency (e.g. a remote predictor lookup).

        Policies that decide bypass in :meth:`choose_victim` consult their
        predictor there; the cache collects the charge afterwards via
        :meth:`take_fill_latency`, whether or not a fill happened.
        """
        self.pending_fill_latency += cycles

    def take_fill_latency(self) -> int:
        """Drain accumulated fill-path latency (called by the cache)."""
        cycles = self.pending_fill_latency
        self.pending_fill_latency = 0
        return cycles

    # -- helpers --------------------------------------------------------
    def first_invalid(self, set_idx: int,
                      blocks: Sequence[CacheBlock]) -> Optional[int]:
        """Way of the first invalid line in the set, or None."""
        if not self._free_ways[set_idx]:
            return None
        for way, line in enumerate(blocks):
            if not line.valid:
                return way
        return None

    def reset(self) -> None:
        """Drop learned state (used between warmup and measurement)."""
