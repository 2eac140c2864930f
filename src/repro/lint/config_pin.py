"""Pinned structural hashes for the INV003 rule.

Maps ``CACHE_SCHEMA_VERSION`` (from
:mod:`repro.experiments.resultcache`) to the SHA-256 of the config
dataclasses' field structure (names, order, annotations, defaults of
``SystemConfig``/``CacheConfig``/``CoreConfig``/``NOCConfig``/
``DRAMConfig``/``DrishtiConfig`` — see
:func:`repro.lint.invariants.struct_hash`).

To update after an intentional config change:

1. bump ``CACHE_SCHEMA_VERSION`` in
   ``src/repro/experiments/resultcache.py`` (old cached results are
   invalid for the new semantics), then
2. run ``repro-lint --config-pin src/repro`` and add the printed
   ``{version: hash}`` entry here.  Keep old entries — they document
   which structure each historical schema version keyed.
"""

from __future__ import annotations

from typing import Dict

PINNED_STRUCT_HASHES: Dict[int, str] = {
    # v2: per-core warmup clamp era — SystemConfig{num_cores, llc_policy,
    # llc_policy_params, drishti, llc geometry, l1/l2, core, noc, dram,
    # prefetcher, hash_scheme, track_set_stats, model_tlb, llc_inclusive,
    # seed} + CacheConfig/CoreConfig/NOCConfig/DRAMConfig/DrishtiConfig.
    2: "c3c56b21e103223b488eab74c40a29ce22a3247206b607345c1e737d50119948",
    # v3: as v2 plus a result-neutral simulation-backend selector field
    # ("auto"/"vector"/"reference"), excluded from canonical_dict so both
    # backends shared cache keys.
    3: "1635a67f4bde897293b05233204c262fd70ba662ae14079e10e74a908d6e6bff",
    # v4: same config structure as v3 — the bump re-keys for trace
    # identity (resolved WorkloadSpec digests in trace names, spec
    # dicts in alone/cell keys), not for a config-field change.
    4: "1635a67f4bde897293b05233204c262fd70ba662ae14079e10e74a908d6e6bff",
    # v5: the v3 backend selector removed with the vectorized backend —
    # the structure is v2's again; the bump re-pins it, no result
    # semantics changed.
    5: "c3c56b21e103223b488eab74c40a29ce22a3247206b607345c1e737d50119948",
}
