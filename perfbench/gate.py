"""Output checks for the sweep benchmark.

Every measured iteration's exported outputs pass two gates:

* **Digest pin.** At a seed listed in ``pins.json`` the SHA-256 of the
  canonical JSON export must equal the pin, which was recorded from a
  serial, untraced run (``run.py --record-pins``).  A perf change must
  leave simulated outputs bit-identical.
* **Invariants**, checked at every seed: WS recomputed from each cell's
  IPC vectors, the LRU row normalising to exactly 1, alone IPCs shared
  by every configuration of a mix, and (Figure 23) each reported
  improvement recomputed from the captured mix results.

Each check returns a list of problem strings; empty means pass.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Sequence

PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: Relative tolerance for recomputed floating-point sums.
REL_TOL = 1e-12


def digest(export: dict) -> str:
    """SHA-256 of the canonical JSON form of an export."""
    text = json.dumps(export, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pins(path: Path = PINS_PATH) -> dict:
    if not path.exists():
        return {}
    with open(path) as fh:
        return json.load(fh)


def pinned_digest(pins: dict, workload: str, seed: int,
                  accesses_per_core: int) -> Optional[str]:
    """The pin for (*workload*, *seed*) at this trace length, if any."""
    entry = pins.get(workload)
    if not entry or entry.get("accesses_per_core") != accesses_per_core:
        return None
    return entry.get("seeds", {}).get(str(seed))


def check_pin(export: dict, expected: Optional[str]) -> List[str]:
    if expected is None:
        return []
    actual = digest(export)
    if actual != expected:
        return [f"digest {actual[:16]} != pinned {expected[:16]}"]
    return []


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_mix_dict(mix: dict, cores: int, where: str) -> List[str]:
    """Invariants of one exported :class:`MixResult`."""
    problems = []
    together = mix["ipc_together"]
    alone = mix["ipc_alone"]
    if len(together) != cores or len(alone) != cores:
        return [f"{where}: {len(together)}/{len(alone)} IPCs for "
                f"{cores} cores"]
    values = list(together) + list(alone)
    if not all(math.isfinite(v) and v > 0 for v in values):
        problems.append(f"{where}: non-positive or non-finite IPC")
        return problems
    ws = sum(t / a for t, a in zip(together, alone))
    if not _close(ws, mix["ws"]):
        problems.append(f"{where}: ws {mix['ws']!r} != recomputed {ws!r}")
    if sum(mix["run"]["instructions"]) <= 0:
        problems.append(f"{where}: no instructions measured")
    return problems


def check_matrix_export(export: dict, labels: Sequence[str]) -> Dict[str, List[str]]:
    """Invariants of a ``matrix_to_dict`` export, keyed by cell."""
    problems: Dict[str, List[str]] = {}

    def note(cell: str, issue: List[str]) -> None:
        if issue:
            problems.setdefault(cell, []).extend(issue)

    if list(export["labels"]) != list(labels):
        note("labels", [f"labels {export['labels']} != {list(labels)}"])
    cells = {(c["cores"], c["mix"], c["label"]): c["result"]
             for c in export["cells"]}
    for cores_key, mix_names in export["mix_names"].items():
        cores = int(cores_key)
        for mix in mix_names:
            row = {label: cells.get((cores, mix, label))
                   for label in labels}
            missing = [label for label, cell in row.items() if cell is None]
            if missing:
                note(f"{cores}/{mix}", [f"missing cells {missing}"])
                continue
            for label, cell in row.items():
                note(f"{cores}/{mix}/{label}",
                     check_mix_dict(cell, cores, f"{cores}/{mix}/{label}"))
            base = row["lru"]["ws"]
            if base / base != 1.0:
                note(f"{cores}/{mix}/lru", ["LRU row does not normalise to 1"])
            alone = row["lru"]["ipc_alone"]
            for label, cell in row.items():
                if cell["ipc_alone"] != alone:
                    note(f"{cores}/{mix}/{label}",
                         ["alone IPCs differ from the LRU row's"])
    expected = sum(len(names) for names in export["mix_names"].values()) \
        * len(labels)
    if len(export["cells"]) != expected:
        note("cells", [f"{len(export['cells'])} cells, expected {expected}"])
    return problems


def check_sweep_export(export: dict, policy_labels: Sequence[str],
                       cores: int) -> Dict[str, List[str]]:
    """Invariants of a Figure 23 export (report + captured mixes).

    ``export["mixes"]`` holds, per sweep point and mix, the LRU base
    run followed by one run per policy label — the order
    :func:`repro.experiments.sensitivity.run_sweep` executes them in.
    """
    problems: Dict[str, List[str]] = {}
    report = export["report"]
    runs = export["mixes"]
    per_point = 1 + len(policy_labels)
    points = report["points"]
    if len(runs) % (per_point * len(points)) != 0 or not runs:
        return {"mixes": [f"{len(runs)} mix results for {len(points)} "
                          f"points x {per_point} runs"]}
    per_mix = len(runs) // (per_point * len(points))
    improvements = {(p, l): v for p, l, v in report["improvements"]}
    for pi, point in enumerate(points):
        ratios: Dict[str, List[float]] = {label: [] for label in policy_labels}
        for mi in range(per_mix):
            offset = (pi * per_mix + mi) * per_point
            base = runs[offset]
            for i, mix in enumerate(runs[offset:offset + per_point]):
                where = f"{point}/mix{mi}/run{i}"
                issue = check_mix_dict(mix, cores, where)
                if mix["ipc_alone"] != base["ipc_alone"]:
                    issue.append(f"{where}: alone IPCs differ from base")
                if issue:
                    problems.setdefault(where, []).extend(issue)
            if base["run"]["config"]["llc_policy"] != "lru":
                problems.setdefault(f"{point}/mix{mi}", []).append(
                    "base run is not LRU")
            for label, mix in zip(policy_labels,
                                  runs[offset + 1:offset + per_point]):
                ratios[label].append(mix["ws"] / base["ws"])
        for label in policy_labels:
            vals = ratios[label]
            expected = 100.0 * (sum(vals) / len(vals) - 1.0)
            got = improvements.get((point, label))
            if got is None or not _close(expected, got):
                problems.setdefault(f"{point}/{label}", []).append(
                    f"improvement {got!r} != recomputed {expected!r}")
    return problems
