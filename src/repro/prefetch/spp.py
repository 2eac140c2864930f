"""SPP+PPF-like prefetcher (Kim et al. MICRO'16 + Bhatia et al. ISCA'19).

Signature Path Prefetching chains per-page delta patterns through a
signature table and walks the most probable path ahead of the demand
stream; the Perceptron Prefetch Filter rejects low-confidence proposals.
The behavioural model keeps a signature→delta correlation table and
stands in for the filter with a path-confidence threshold under
multiplicative decay, giving the high-accuracy/high-coverage profile the
paper's Figure 23 attributes to SPP+PPF.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.prefetch.base import BLOCKS_PER_PAGE, Prefetcher

SIG_BITS = 12
SIG_MASK = (1 << SIG_BITS) - 1


def _advance_signature(signature: int, delta: int) -> int:
    return ((signature << 3) ^ (delta & 0x3F)) & SIG_MASK


class SPPPrefetcher(Prefetcher):
    """Signature-path prefetching with a confidence filter."""

    name = "spp_ppf"
    PATTERN_TABLE_SIZE = 4096
    CONFIDENCE_THRESHOLD = 0.30
    PATH_DECAY = 0.8

    def __init__(self, degree: int = 4):
        super().__init__(degree=degree)
        # page -> (last offset, signature)
        self._pages: Dict[int, Tuple[int, int]] = {}
        # signature -> {delta: count}
        self._patterns: Dict[int, Dict[int, int]] = {}

    def _best_delta(self, signature: int) -> Tuple[int, float]:
        table = self._patterns.get(signature)
        if not table:
            return 0, 0.0
        total = sum(table.values())
        delta, count = max(table.items(), key=lambda kv: kv[1])
        return delta, count / total

    def observe(self, pc: int, block: int, hit: bool) -> List[int]:
        page = self.page_of(block)
        offset = block % BLOCKS_PER_PAGE
        state = self._pages.get(page)
        if state is None:
            if len(self._pages) >= 512:
                self._pages.pop(next(iter(self._pages)))
            self._pages[page] = (offset, 0)
            return []

        last_offset, signature = state
        delta = offset - last_offset
        if delta == 0:
            return []
        # Train the pattern table with the observed transition.
        table = self._patterns.setdefault(signature, {})
        table[delta] = table.get(delta, 0) + 1
        if len(self._patterns) > self.PATTERN_TABLE_SIZE:
            self._patterns.pop(next(iter(self._patterns)))

        new_signature = _advance_signature(signature, delta)
        self._pages[page] = (offset, new_signature)

        # Walk the signature path with multiplicative confidence decay.
        candidates: List[int] = []
        path_sig = new_signature
        path_conf = 1.0
        path_offset = offset
        for _ in range(self.degree):
            next_delta, conf = self._best_delta(path_sig)
            path_conf *= conf * self.PATH_DECAY if conf else 0.0
            if next_delta == 0 or path_conf < self.CONFIDENCE_THRESHOLD:
                break
            path_offset += next_delta
            if not 0 <= path_offset < BLOCKS_PER_PAGE:
                break
            candidates.append(page * BLOCKS_PER_PAGE + path_offset)
            path_sig = _advance_signature(path_sig, next_delta)
        return candidates

    def reset(self) -> None:
        super().reset()
        self._pages.clear()
        self._patterns.clear()
