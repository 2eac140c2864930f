"""Address-to-slice hashing for sliced LLCs.

Commercial sliced LLCs hash physical addresses to slices with an XOR
combination of many address bits ("complex addressing", reverse-engineered
by Maurice et al. [RAID'15] and used by Kayaalp et al. [DAC'16]).  The hash
distributes *accesses* uniformly across slices, which is exactly the
property the paper leans on in Observation I: uniform scattering of a PC's
loads over slices is what makes per-slice predictors myopic.

Two hash families are provided:

* :func:`fold_xor_slice` — XOR-fold of the block number, the default; this
  is a faithful stand-in for complex addressing (uniform, avalanche-y, and
  deliberately *not* locality-preserving).
* :func:`modulo_slice` — naive low-bits modulo, kept as a contrast knob for
  sensitivity tests (strided patterns can camp on one slice under it).

Both work on scalars and numpy arrays so the trace generators can
rejection-sample slice-affine address pools quickly.
"""

from __future__ import annotations

from typing import Union

import numpy as np

ArrayOrInt = Union[int, np.ndarray]

# Mixing constant from splitmix64; gives good avalanche with one multiply.
_MIX = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1


def _mix64_scalar(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def _mix64_array(x: np.ndarray) -> np.ndarray:
    x = x.astype(np.uint64)
    x ^= x >> np.uint64(30)
    x = x * np.uint64(_MIX)
    x ^= x >> np.uint64(27)
    x = x * np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def fold_xor_slice(block: ArrayOrInt, num_slices: int) -> ArrayOrInt:
    """Map a cache-block number to a slice with an XOR-fold hash.

    Uniform and avalanche-y: any single flipped address bit can change the
    slice, like hardware complex addressing.  Works for any ``num_slices``
    (power of two or not).
    """
    if isinstance(block, np.ndarray):
        hashed = _mix64_array(block)
        return (hashed % np.uint64(num_slices)).astype(np.int64)
    return _mix64_scalar(block) % num_slices


def modulo_slice(block: ArrayOrInt, num_slices: int) -> ArrayOrInt:
    """Naive slice selection from the low block bits (contrast knob)."""
    if isinstance(block, np.ndarray):
        return (block % np.uint64(num_slices)).astype(np.int64)
    return block % num_slices


class SliceHash:
    """Configured address-to-slice mapping.

    Args:
        num_slices: number of LLC slices (one per core in the baseline).
        scheme: ``"fold_xor"`` (default, complex-addressing stand-in) or
            ``"modulo"``.
    """

    SCHEMES = ("fold_xor", "modulo")

    def __init__(self, num_slices: int, scheme: str = "fold_xor"):
        if num_slices < 1:
            raise ValueError(f"num_slices must be >= 1, got {num_slices}")
        if scheme not in self.SCHEMES:
            raise ValueError(f"unknown slice-hash scheme {scheme!r}")
        self.num_slices = num_slices
        self.scheme = scheme
        self._fold = scheme == "fold_xor"
        self._fn = fold_xor_slice if self._fold else modulo_slice

    def slice_of(self, block: int) -> int:
        """Slice id for a single block number (scalar path, no dispatch)."""
        if self._fold:
            return _mix64_scalar(block) % self.num_slices
        return block % self.num_slices

    def slices_of(self, blocks: np.ndarray) -> np.ndarray:
        """Vectorised slice ids for an array of block numbers."""
        return self._fn(np.asarray(blocks, dtype=np.uint64), self.num_slices)

    def __repr__(self) -> str:
        return f"SliceHash(num_slices={self.num_slices}, scheme={self.scheme!r})"
