"""Memory-access records and trace containers.

A trace is the unit of work one core executes.  Each record is a memory
access annotated with the number of non-memory instructions that retired
since the previous access (``instr_gap``), which is what the timing model in
:mod:`repro.cpu.core_model` uses to charge issue cycles between memory
operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

BLOCK_BYTES = 64
BLOCK_SHIFT = 6  # log2(BLOCK_BYTES)


def block_of(address: int) -> int:
    """Return the cache-block number of a byte *address*."""
    return address >> BLOCK_SHIFT


@dataclass(frozen=True, slots=True)
class MemoryAccess:
    """One demand memory access issued by a core.

    Attributes:
        pc: program counter of the load/store instruction.
        address: byte address accessed.
        is_write: True for stores.
        instr_gap: instructions retired since the previous memory access
            (used to charge front-end/issue cycles between accesses).
        dependent: the access needs the previous access's data (pointer
            chase) and cannot overlap with it.
        block: cache-block number, precomputed from ``address`` at
            construction (excluded from equality/repr — it is derived).
    """

    pc: int
    address: int
    is_write: bool = False
    instr_gap: int = 1
    dependent: bool = False
    block: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "block", self.address >> BLOCK_SHIFT)


@dataclass
class TraceStats:
    """Summary statistics of a trace, computed once on demand."""

    num_accesses: int
    num_instructions: int
    num_writes: int
    unique_pcs: int
    unique_blocks: int
    footprint_bytes: int

    @property
    def write_fraction(self) -> float:
        if self.num_accesses == 0:
            return 0.0
        return self.num_writes / self.num_accesses

    @property
    def accesses_per_kilo_instr(self) -> float:
        if self.num_instructions == 0:
            return 0.0
        return 1000.0 * self.num_accesses / self.num_instructions


class Trace:
    """An ordered sequence of :class:`MemoryAccess` records with a name.

    Traces are immutable once built; generators produce them eagerly so
    repeated simulations (alone vs together runs) replay identical streams.
    """

    def __init__(self, name: str, accesses: Sequence[MemoryAccess]):
        self.name = name
        self._accesses: List[MemoryAccess] = list(accesses)
        self._stats: Optional[TraceStats] = None

    def __len__(self) -> int:
        return len(self._accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self._accesses)

    def __getitem__(self, idx: int) -> MemoryAccess:
        return self._accesses[idx]

    def __repr__(self) -> str:
        return f"Trace({self.name!r}, {len(self._accesses)} accesses)"

    @property
    def accesses(self) -> Sequence[MemoryAccess]:
        return self._accesses

    @property
    def num_instructions(self) -> int:
        return self.stats.num_instructions

    @property
    def stats(self) -> TraceStats:
        if self._stats is None:
            self._stats = self._compute_stats()
        return self._stats

    def _compute_stats(self) -> TraceStats:
        pcs = set()
        blocks = set()
        writes = 0
        instructions = 0
        for acc in self._accesses:
            pcs.add(acc.pc)
            blocks.add(acc.block)
            writes += acc.is_write
            instructions += acc.instr_gap + 1  # the access itself retires too
        return TraceStats(
            num_accesses=len(self._accesses),
            num_instructions=instructions,
            num_writes=writes,
            unique_pcs=len(pcs),
            unique_blocks=len(blocks),
            footprint_bytes=len(blocks) * BLOCK_BYTES,
        )

    def truncated(self, max_accesses: int) -> "Trace":
        """Return a copy limited to the first *max_accesses* records."""
        if max_accesses >= len(self._accesses):
            return self
        return Trace(self.name, self._accesses[:max_accesses])

    def repeated(self, times: int) -> "Trace":
        """Return a trace that replays this trace *times* times."""
        if times <= 1:
            return self
        return Trace(self.name, self._accesses * times)

    @staticmethod
    def concat(name: str, traces: Iterable["Trace"]) -> "Trace":
        """Concatenate several traces into one stream."""
        merged: List[MemoryAccess] = []
        for tr in traces:
            merged.extend(tr.accesses)
        return Trace(name, merged)
