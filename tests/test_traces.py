"""Tests for trace records and containers."""

import dataclasses
import pickle

import pytest

from repro.traces.trace import BLOCK_BYTES, MemoryAccess, Trace, block_of


def make_trace(n=10, name="t"):
    return Trace(name, [MemoryAccess(pc=0x400 + i, address=i * 64,
                                     instr_gap=2) for i in range(n)])


class TestMemoryAccess:
    def test_block_is_address_shifted(self):
        acc = MemoryAccess(pc=1, address=0x1000)
        assert acc.block == 0x1000 // BLOCK_BYTES

    def test_same_block_for_intra_block_addresses(self):
        a = MemoryAccess(pc=1, address=128)
        b = MemoryAccess(pc=1, address=129)
        assert a.block == b.block

    def test_block_of_matches_property(self):
        assert block_of(0x12345) == MemoryAccess(pc=0, address=0x12345).block

    def test_defaults(self):
        acc = MemoryAccess(pc=1, address=0)
        assert not acc.is_write
        assert not acc.dependent
        assert acc.instr_gap == 1

    def test_frozen(self):
        acc = MemoryAccess(pc=1, address=0)
        with pytest.raises(Exception):
            acc.pc = 2


class TestTrace:
    def test_len_and_iteration(self):
        tr = make_trace(5)
        assert len(tr) == 5
        assert len(list(tr)) == 5

    def test_indexing(self):
        tr = make_trace(5)
        assert tr[0].pc == 0x400
        assert tr[4].pc == 0x404

    def test_stats_counts(self):
        tr = Trace("t", [
            MemoryAccess(pc=1, address=0, instr_gap=3),
            MemoryAccess(pc=1, address=64, is_write=True, instr_gap=1),
            MemoryAccess(pc=2, address=0, instr_gap=0),
        ])
        stats = tr.stats
        assert stats.num_accesses == 3
        assert stats.num_writes == 1
        assert stats.unique_pcs == 2
        assert stats.unique_blocks == 2
        # instructions: gaps (3+1+0) + 3 accesses
        assert stats.num_instructions == 7
        assert stats.footprint_bytes == 2 * BLOCK_BYTES

    def test_write_fraction(self):
        tr = Trace("t", [MemoryAccess(pc=1, address=0, is_write=True),
                         MemoryAccess(pc=1, address=0)])
        assert tr.stats.write_fraction == pytest.approx(0.5)

    def test_apki(self):
        tr = Trace("t", [MemoryAccess(pc=1, address=0, instr_gap=99)])
        # 1 access per 100 instructions = 10 APKI
        assert tr.stats.accesses_per_kilo_instr == pytest.approx(10.0)

    def test_truncated(self):
        tr = make_trace(10)
        short = tr.truncated(3)
        assert len(short) == 3
        assert short[0].pc == tr[0].pc

    def test_truncated_no_copy_when_longer(self):
        tr = make_trace(3)
        assert tr.truncated(10) is tr

    def test_repeated(self):
        tr = make_trace(2)
        rep = tr.repeated(3)
        assert len(rep) == 6
        assert rep[2].pc == tr[0].pc

    def test_repeated_once_is_self(self):
        tr = make_trace(2)
        assert tr.repeated(1) is tr

    def test_concat(self):
        a, b = make_trace(2, "a"), make_trace(3, "b")
        c = Trace.concat("c", [a, b])
        assert len(c) == 5
        assert c.name == "c"

    def test_empty_trace_stats(self):
        tr = Trace("empty", [])
        assert tr.stats.num_accesses == 0
        assert tr.stats.accesses_per_kilo_instr == 0.0
        assert tr.stats.write_fraction == 0.0


class TestMemoryAccessLayout:
    def test_slots_no_dict(self):
        acc = MemoryAccess(pc=1, address=1 << 12)
        assert not hasattr(acc, "__dict__")

    def test_block_precomputed(self):
        acc = MemoryAccess(pc=1, address=0x1FC0)
        assert acc.block == 0x1FC0 >> 6

    def test_frozen(self):
        acc = MemoryAccess(pc=1, address=64)
        with pytest.raises(dataclasses.FrozenInstanceError):
            acc.pc = 2

    def test_pickle_roundtrip(self):
        """Pool workers receive traces by pickle; the slotted layout
        must survive the trip with the derived block intact."""
        acc = MemoryAccess(pc=7, address=12345 * 64, is_write=True,
                           instr_gap=3, dependent=True)
        clone = pickle.loads(pickle.dumps(acc))
        assert clone == acc
        assert clone.block == acc.block

    def test_trace_pickle_roundtrip(self):
        trace = Trace("t", [MemoryAccess(pc=i, address=i * 64)
                            for i in range(10)])
        clone = pickle.loads(pickle.dumps(trace))
        assert len(clone) == 10
        assert clone[3].block == 3
