"""Opt-in runtime saturation sanitizer (``REPRO_SANITIZE=1``).

The static SAT001 rule (``repro.lint.soundness``) *proves* every
saturating counter stays inside its declared range; this module lets
CI double-check those proofs dynamically.  Counter-bearing components
call :func:`check_range` after each update — compiled away to a single
module-level bool test when the env var is unset, so golden runs are
unaffected — and a violation raises :class:`SaturationError`
immediately, pointing at the counter that escaped its range instead of
letting the corruption surface as a drifted IPC three layers later.

The same switch arms the cache's lookup-index cross-check
(:class:`IndexCoherenceError`, raised by ``repro.cache.cache.Cache``
when its ``block -> way`` index or per-set free-way count disagrees
with a scan of the set a fill or invalidate just touched).

``repro-lint --sanitize`` prints the fact table these assertions
enforce (one JSON object per counter-update site with its proof
status), which is how the static and dynamic views are kept in sync.

This lives in ``repro.obs`` (not ``repro.lint``) on purpose: the
replacement policies import it, and ``repro.obs`` is already part of
the simulator's import closure — pulling the lint engine into the hot
set would be wrong.
"""

from __future__ import annotations

import os
from typing import Optional

__all__ = ["SANITIZE", "IndexCoherenceError", "SaturationError",
           "check_range", "enabled"]

#: True when the process opted into runtime range checks.  Read once at
#: import: pool workers inherit the parent's environment, so serial and
#: pooled runs agree on whether the sanitizer is armed.
SANITIZE: bool = os.environ.get("REPRO_SANITIZE", "") not in ("", "0")


class SaturationError(AssertionError):
    """A counter left its declared range at runtime."""


class IndexCoherenceError(AssertionError):
    """A cache's block -> way index or free-way count disagreed with
    its lines."""


def enabled() -> bool:
    return SANITIZE


def check_range(value: int, lo: Optional[int], hi: Optional[int],
                what: str) -> int:
    """Assert ``lo <= value <= hi`` (None = unbounded side).

    Returns *value* so call sites can wrap expressions.  Callers gate
    on :data:`SANITIZE` themselves to keep the disarmed cost at one
    attribute load per update site.
    """
    if lo is not None and value < lo:
        raise SaturationError(
            f"{what} = {value} fell below its floor {lo} "
            f"(REPRO_SANITIZE caught a saturation bug)")
    if hi is not None and value > hi:
        raise SaturationError(
            f"{what} = {value} exceeded its ceiling {hi} "
            f"(REPRO_SANITIZE caught a saturation bug)")
    return value
