"""Prefetcher interface.

A prefetcher observes the demand access stream of one cache level and
proposes blocks to fetch.  The hierarchy issues the proposals as
PREFETCH-kind accesses (no core stall, real bandwidth), filling down to
the prefetcher's level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

BLOCKS_PER_PAGE = 64  # 4 KB pages of 64 B blocks


@dataclass
class PrefetcherStats:
    """Issue counter (filled by the hierarchy)."""

    issued: int = 0


class Prefetcher:
    """Base prefetcher: observes accesses, proposes block numbers."""

    name = "none"

    def __init__(self, degree: int = 1):
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.degree = degree
        self.stats = PrefetcherStats()

    def observe(self, pc: int, block: int, hit: bool) -> List[int]:
        """Feed one demand access; returns candidate blocks to prefetch."""
        raise NotImplementedError

    def reset(self) -> None:
        self.stats = PrefetcherStats()

    @staticmethod
    def page_of(block: int) -> int:
        return block // BLOCKS_PER_PAGE

    @staticmethod
    def same_page(a: int, b: int) -> bool:
        return a // BLOCKS_PER_PAGE == b // BLOCKS_PER_PAGE


class NullPrefetcher(Prefetcher):
    """Disabled prefetching (the 'no prefetcher' ablation)."""

    name = "none"

    def __init__(self):
        super().__init__(degree=0)

    def observe(self, pc: int, block: int, hit: bool) -> List[int]:
        return []
