"""Persistent, content-addressed cache for sweep results.

Every work unit of the sweep engine — one ``(config, mix, policy)``
*cell* simulation or one per-trace *alone-IPC* measurement — is keyed
by a SHA-256 digest of everything that determines its outcome:

* the full :meth:`repro.sim.config.SystemConfig.canonical_dict` of the
  system under test (and, for cells, of the baseline config whose
  geometry seeds trace generation),
* the mix's workload assignment and the trace seed/length,
* ``CACHE_SCHEMA_VERSION``, a salt bumped whenever simulator or policy
  semantics change in a result-affecting way.

The exact key recipe — including the config fields ``canonical_dict``
deliberately drops (the MSHR counts) and why they are result-neutral —
is documented once, in
``docs/performance.md`` ("The persistent result cache").  repro-lint
tier 4 (CKEY001/CKEY002) proves the recipe sound against the code:
every field the simulator transitively reads must be keyed, and
read-but-excluded fields are pinned in ``repro/lint/ckey_pin.py``.

Values are pickled under ``results/cache/<k[:2]>/<key>.pkl`` (sharded
by the first key byte so directories stay small).  Writes are atomic
(tmp file + ``os.replace``) so concurrent sweeps never observe a torn
entry; a corrupt or unreadable entry is treated as a miss and removed.

The cache stores *simulation outputs*, which are deterministic given
the key inputs — so sharing one cache directory between serial and
parallel sweeps, or across repeated benchmark runs, is safe.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import warnings
from pathlib import Path
from typing import Any, Iterable, Optional, Tuple

# Bump when simulator/policy/trace-generation semantics change such
# that previously cached results are no longer valid.
# 2: per-core warmup targets are clamped to each trace's length, so
#    mixes containing a trace shorter than the warmup window now reset
#    stats where v1 silently measured everything.
# 3: SystemConfig grew a result-neutral simulation-backend selector
#    (excluded from canonical_dict, so cached values are still
#    correct); bumped to re-key the INV003 structural pin.
# 4: trace identity now keys the resolved WorkloadSpec (name + spec
#    digest in trace names, spec dicts in alone/cell keys) so custom
#    specs sharing a pool workload's name can never collide; old
#    name-only entries are invalidated wholesale.
# 5: the v3 backend selector was removed from SystemConfig along with
#    the vectorized backend it chose between; no result changes — the
#    bump only re-pins the INV003 config structure after the field's
#    removal.
CACHE_SCHEMA_VERSION = 5

#: Default cache location, relative to the repository root.
DEFAULT_CACHE_DIRNAME = os.path.join("results", "cache")


def default_cache_dir() -> Path:
    """``results/cache`` under the repository root (next to ``src``)."""
    repo_root = Path(__file__).resolve().parents[3]
    return repo_root / DEFAULT_CACHE_DIRNAME


def cache_key(kind: str, *parts: Any) -> str:
    """Stable hex digest for a work unit.

    Args:
        kind: unit namespace (``"cell"`` / ``"alone"``).
        parts: JSON-serialisable components (non-native values are
            rendered via ``repr``, matching ``SystemConfig.fingerprint``).
    """
    payload = json.dumps([kind, CACHE_SCHEMA_VERSION, list(parts)],
                         sort_keys=True, default=repr)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed pickle store addressed by :func:`cache_key`.

    Attributes:
        root: cache directory (created lazily on first write).
        hits / misses: lookup counters since construction.
        read_errors: corrupt/unreadable entries dropped by :meth:`get`.
        write_errors: failed :meth:`put` calls since construction.
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.read_errors = 0
        self.write_errors = 0
        self._writes_disabled = False
        self._warned_read_error = False

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Tuple[bool, Any]:
        """Look up *key*; returns ``(found, value)``.

        The two-tuple (rather than a ``None`` sentinel) lets callers
        cache falsy values like ``0.0`` IPCs unambiguously.

        A cache entry is an optimisation, never an obligation: *any*
        failure to read or unpickle one — torn write left by a killed
        process, disk-full leftovers, stale class layout, bit rot —
        is treated as a miss, counted in :attr:`read_errors`,
        reported once per cache with a ``RuntimeWarning``, and the
        offending file is deleted so the entry is recomputed and
        rewritten cleanly.  Unpickling arbitrary bytes can raise
        nearly anything (``ValueError`` from a garbled protocol-0
        int, ``struct.error`` from a truncated frame, ``KeyError``
        from a memo reference...), which is why the net is
        ``Exception``-wide rather than an enumerated list — only
        exits like ``KeyboardInterrupt`` propagate.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return False, None
        except Exception as exc:
            # Corrupt/unreadable entry: drop it and treat as a miss.
            self.read_errors += 1
            if not self._warned_read_error:
                self._warned_read_error = True
                warnings.warn(
                    f"result cache entry {path.name} is unreadable "
                    f"({exc!r}); deleting it and re-simulating "
                    f"(further corrupt entries in {self.root} will be "
                    f"dropped silently — see ResultCache.read_errors)",
                    RuntimeWarning, stacklevel=2)
            try:
                path.unlink()
            except OSError:
                pass
            self.misses += 1
            return False, None
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> bool:
        """Atomically store *value* under *key*; True on success.

        Caching is an optimisation, so filesystem trouble (disk full,
        read-only cache dir) must not kill the sweep that tried to
        populate it: the first ``OSError`` raises a single
        ``RuntimeWarning`` and disables further writes — mirroring the
        torn/corrupt-entry tolerance :meth:`get` already has.
        Non-filesystem errors (e.g. an unpicklable value) still
        propagate.
        """
        if self._writes_disabled:
            return False
        path = self._path(key)
        tmp = None
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
            return True
        except OSError as exc:
            self.write_errors += 1
            self._writes_disabled = True
            warnings.warn(
                f"result cache write to {self.root} failed ({exc!r}); "
                f"continuing uncached", RuntimeWarning, stacklevel=2)
            return False
        finally:
            if tmp is not None and os.path.exists(tmp):
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # ------------------------------------------------------------------
    def _entries(self) -> Iterable[Path]:
        if not self.root.is_dir():
            return ()
        return self.root.glob("*/*.pkl")

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        for path in list(self._entries()):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
