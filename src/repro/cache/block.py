"""Cache-line metadata and the per-access context record.

``AccessContext`` is the single record threaded through the whole memory
system for one access: caches consult it for indexing, replacement policies
for PC/core signatures, and the Drishti predictor fabric for routing
(which slice is asking, which core owns the predictor).
"""

from __future__ import annotations

from dataclasses import dataclass, field

# Access kinds.  Policies treat them differently: demand loads train
# reuse predictors, prefetches carry the triggering load's PC plus a
# prefetch bit (Section 3.3 of the paper), writebacks never train.
DEMAND = "demand"
PREFETCH = "prefetch"
WRITEBACK = "writeback"


@dataclass(slots=True, init=False)
class AccessContext:
    """Everything the memory system needs to know about one access.

    The kind flags are computed once at construction; ``kind`` is not
    changed afterwards.  ``__init__`` is written out because one is
    built per access and per prefetch candidate.
    """

    pc: int
    block: int
    core_id: int
    is_write: bool
    kind: str
    cycle: int
    slice_id: int  # filled in by the sliced LLC front-end
    is_demand: bool = field(init=False, repr=False, compare=False)
    is_prefetch: bool = field(init=False, repr=False, compare=False)
    is_writeback: bool = field(init=False, repr=False, compare=False)

    def __init__(self, pc: int, block: int, core_id: int,
                 is_write: bool = False, kind: str = DEMAND,
                 cycle: int = 0, slice_id: int = 0) -> None:
        self.pc = pc
        self.block = block
        self.core_id = core_id
        self.is_write = is_write
        self.kind = kind
        self.cycle = cycle
        self.slice_id = slice_id
        self.is_demand = kind == DEMAND
        self.is_prefetch = kind == PREFETCH
        self.is_writeback = kind == WRITEBACK


class CacheBlock:
    """One cache line's bookkeeping state.

    Uses ``__slots__``: simulations hold hundreds of thousands of these.
    """

    __slots__ = ("valid", "block", "dirty", "pc", "core_id", "is_prefetch",
                 "inserted_at", "last_touch")

    def __init__(self) -> None:
        self.valid = False
        self.block = -1
        self.dirty = False
        self.pc = 0
        self.core_id = -1
        self.is_prefetch = False
        self.inserted_at = 0
        self.last_touch = 0

    def reset(self) -> None:
        """Invalidate the line."""
        self.valid = False
        self.block = -1
        self.dirty = False
        self.pc = 0
        self.core_id = -1
        self.is_prefetch = False
        self.inserted_at = 0
        self.last_touch = 0

    def __repr__(self) -> str:
        if not self.valid:
            return "CacheBlock(invalid)"
        flags = "D" if self.dirty else "-"
        flags += "P" if self.is_prefetch else "-"
        return f"CacheBlock(block={self.block:#x}, {flags}, core={self.core_id})"
