"""Job specifications, records, and the on-disk job store.

A *job* is one sweep — the same ``{policy × mix × core-count}``
decomposition :class:`repro.experiments.engine.SweepEngine` runs for
every figure and table — submitted over the service API as a plain
JSON dict and validated here into the typed objects the engine wants
(:class:`~repro.experiments.common.ExperimentProfile`, policy
triples, :class:`~repro.experiments.retry.RetryPolicy`).  Validation
is strict: unknown keys, unknown policies, unknown Drishti modes and
out-of-range scalars are all rejected with a
:class:`JobSpecError` *before* the job is accepted, so a queued job
can always be executed.

Each job owns a directory under the service root::

    <root>/jobs/<job_id>/job.json        durable record (atomic writes)
    <root>/jobs/<job_id>/manifest.jsonl  the engine's JSONL event log
    <root>/jobs/<job_id>/result.json     matrix export, written on success

The manifest doubles as the job's checkpoint: a daemon restart
re-enqueues any non-terminal job and the engine's existing
``resume=`` machinery replays the manifest, skipping every unit it
proves complete.  The result cache is deliberately *not* per-job:
all jobs share one content-addressed
:class:`~repro.experiments.resultcache.ResultCache`, so overlapping
sweeps from different clients re-simulate nothing.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.drishti import DrishtiConfig
from repro.experiments.common import ExperimentProfile, HEADLINE_POLICIES
from repro.experiments.retry import RetryPolicy
from repro.sim.config import ScaleProfile
from repro.traces.mixes import MixSpec
from repro.traces.synthetic import WorkloadSpec

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobRecord",
    "JobSpec",
    "JobSpecError",
    "JobStore",
    "ServiceProfile",
    "atomic_write_json",
]

#: Job lifecycle states.  ``queued → running → done|failed|cancelled``;
#: a daemon restart moves interrupted ``running`` jobs back to
#: ``queued`` (their manifest is the checkpoint).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States a job never leaves.
TERMINAL_STATES = ("done", "failed", "cancelled")

_SCALES = {
    "smoke": ScaleProfile.smoke,
    "small": ScaleProfile.small,
    "medium": ScaleProfile.medium,
    "paper": ScaleProfile.paper,
}

_DRISHTI_MODES = {
    "baseline": DrishtiConfig.baseline,
    "full": DrishtiConfig.full,
    "global_view_only": DrishtiConfig.global_view_only,
    "dsc_only": DrishtiConfig.dsc_only,
    "without_nocstar": DrishtiConfig.without_nocstar,
    "centralized": DrishtiConfig.centralized,
}

#: ``policies`` shorthand strings → (label, policy, drishti-mode).
_HEADLINE_SHORTHAND = {
    "lru": ("lru", "lru", "baseline"),
    "hawkeye": ("hawkeye", "hawkeye", "baseline"),
    "d-hawkeye": ("d-hawkeye", "hawkeye", "full"),
    "mockingjay": ("mockingjay", "mockingjay", "baseline"),
    "d-mockingjay": ("d-mockingjay", "mockingjay", "full"),
}

_JOB_ID_RE = re.compile(r"^job-\d{4,}$")


class JobSpecError(ValueError):
    """A submitted job spec failed validation."""


@dataclass(frozen=True)
class ServiceProfile(ExperimentProfile):
    """An :class:`ExperimentProfile` that can carry declarative mixes."""

    #: Declarative mixes (possibly carrying custom WorkloadSpecs).
    #: Non-empty replaces the standard generated mix set; each core
    #: count sweeps the declarative mixes matching its width.  The
    #: mixes ride in the (picklable, hashable) profile so pooled
    #: workers regenerate traces without any registry side channel.
    custom_mixes: Tuple[MixSpec, ...] = ()

    def mixes(self, num_cores):
        if self.custom_mixes:
            return [m for m in self.custom_mixes
                    if m.num_cores == num_cores]
        return super().mixes(num_cores)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise JobSpecError(message)


def _int_field(data: Dict[str, Any], key: str, default: int,
               minimum: int, maximum: int) -> int:
    value = data.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key} must be an integer, got {value!r}")
    _require(minimum <= value <= maximum,
             f"{key} must be in [{minimum}, {maximum}], got {value}")
    return value


def _parse_scale(raw: Any) -> ScaleProfile:
    if isinstance(raw, str):
        _require(raw in _SCALES,
                 f"unknown scale {raw!r}; expected one of "
                 f"{sorted(_SCALES)} or a geometry dict")
        return _SCALES[raw]()
    _require(isinstance(raw, dict),
             f"scale must be a name or a geometry dict, got {raw!r}")
    allowed = {"name", "llc_sets_per_slice", "l2_sets", "l1_sets",
               "accesses_per_core", "warmup_fraction"}
    unknown = set(raw) - allowed
    _require(not unknown, f"unknown scale keys: {sorted(unknown)}")
    try:
        return ScaleProfile(
            name=str(raw.get("name", "custom")),
            llc_sets_per_slice=int(raw["llc_sets_per_slice"]),
            l2_sets=int(raw["l2_sets"]),
            l1_sets=int(raw["l1_sets"]),
            accesses_per_core=int(raw["accesses_per_core"]),
            warmup_fraction=float(raw.get("warmup_fraction", 0.2)))
    except (KeyError, TypeError, ValueError) as exc:
        raise JobSpecError(f"invalid scale dict: {exc!r}") from None


def _parse_policy(entry: Any) -> Tuple[str, str, str]:
    """One ``policies`` element → (label, policy, drishti-mode)."""
    if isinstance(entry, str):
        _require(entry in _HEADLINE_SHORTHAND,
                 f"unknown policy shorthand {entry!r}; expected one of "
                 f"{sorted(_HEADLINE_SHORTHAND)} or a "
                 f"{{label, policy, drishti}} dict")
        return _HEADLINE_SHORTHAND[entry]
    _require(isinstance(entry, dict),
             f"policies entries must be strings or dicts, got {entry!r}")
    unknown = set(entry) - {"label", "policy", "drishti"}
    _require(not unknown,
             f"unknown policy keys: {sorted(unknown)}")
    _require("policy" in entry, f"policy entry missing 'policy': {entry}")
    policy = entry["policy"]
    drishti = entry.get("drishti", "baseline")
    label = entry.get("label", policy if drishti == "baseline"
                      else f"{policy}+{drishti}")
    _require(isinstance(policy, str) and isinstance(label, str)
             and isinstance(drishti, str),
             f"policy fields must be strings: {entry}")
    from repro.replacement import policy_names
    _require(policy in policy_names(),
             f"unknown replacement policy {policy!r}; expected one of "
             f"{policy_names()}")
    _require(drishti in _DRISHTI_MODES,
             f"unknown drishti mode {drishti!r}; expected one of "
             f"{sorted(_DRISHTI_MODES)}")
    return label, policy, drishti


def _parse_workloads(raw: Any) -> Tuple[WorkloadSpec, ...]:
    """``workloads`` — custom :meth:`WorkloadSpec.from_dict` dicts.

    Trace-layer ``ValueError``s are re-raised as :class:`JobSpecError`
    so a bad pattern kind / parameter / weight becomes an HTTP 400
    instead of a worker-thread traceback."""
    _require(isinstance(raw, (list, tuple)) and raw,
             "workloads must be a non-empty list of workload spec "
             "dicts")
    specs: List[WorkloadSpec] = []
    for entry in raw:
        try:
            specs.append(WorkloadSpec.from_dict(entry))
        except ValueError as exc:
            raise JobSpecError(f"invalid workload spec: {exc}") from None
    names = [spec.name for spec in specs]
    _require(len(set(names)) == len(names),
             f"workload names must be unique, got {sorted(names)}")
    return tuple(specs)


def _parse_mixes(raw: Any, workloads: Tuple[WorkloadSpec, ...],
                 core_counts: List[int]) -> Tuple[MixSpec, ...]:
    """``mixes`` — declarative :meth:`MixSpec.from_dict` dicts.

    Top-level ``workloads`` are injected into each mix's ``custom``
    list (a mix-local spec of the same name wins), so mixes can refer
    to shared custom workloads by name."""
    _require(isinstance(raw, (list, tuple)) and raw,
             "mixes must be a non-empty list of mix spec dicts")
    mixes: List[MixSpec] = []
    for entry in raw:
        _require(isinstance(entry, dict),
                 f"mixes entries must be dicts, got {entry!r}")
        merged = dict(entry)
        own_custom = list(merged.get("custom", []))
        own_names = {c.get("name") for c in own_custom
                     if isinstance(c, dict)}
        extra = [spec.to_dict() for spec in workloads
                 if spec.name not in own_names]
        if own_custom or extra:
            merged["custom"] = own_custom + extra
        try:
            mixes.append(MixSpec.from_dict(merged))
        except ValueError as exc:
            raise JobSpecError(f"invalid mix spec: {exc}") from None
    names = [mix.name for mix in mixes]
    _require(len(set(names)) == len(names),
             f"mix names must be unique, got {sorted(names)}")
    widths = {mix.num_cores for mix in mixes}
    for cores in core_counts:
        _require(cores in widths,
                 f"no declarative mix has num_cores={cores}; every "
                 f"entry of core_counts needs at least one matching "
                 f"mix")
    for mix in mixes:
        _require(mix.num_cores in set(core_counts),
                 f"mix {mix.name!r} has {mix.num_cores} workloads but "
                 f"core_counts is {core_counts}")
    return tuple(mixes)


@dataclass(frozen=True)
class JobSpec:
    """A validated sweep request.

    Attributes mirror the knobs of the CLI sweep path: a scale
    profile, core counts, mix counts, the policy list, and the
    engine's parallelism/retry settings.  ``policies`` is kept
    in its serialisable (label, policy, drishti-mode) string form;
    :meth:`policy_triples` materialises the
    :class:`~repro.core.drishti.DrishtiConfig` objects.
    """

    name: str = ""
    scale: str = "smoke"
    scale_dict: Optional[Dict[str, Any]] = None
    core_counts: Tuple[int, ...] = (2,)
    num_homogeneous: int = 1
    num_heterogeneous: int = 1
    seed: int = 7
    accesses_per_core: Optional[int] = None
    policies: Tuple[Tuple[str, str, str], ...] = tuple(
        _HEADLINE_SHORTHAND[label] for label, _p, _d in HEADLINE_POLICIES)
    workers: int = 0
    max_retries: Optional[int] = None
    unit_timeout: Optional[float] = None
    #: Custom workload definitions (shared across declarative mixes).
    workloads: Tuple[WorkloadSpec, ...] = ()
    #: Declarative mixes; non-empty replaces the standard generated
    #: mix set (mutually exclusive with the mix-count knobs).
    mixes: Tuple[MixSpec, ...] = ()

    _ALLOWED_KEYS = frozenset({
        "name", "scale", "core_counts", "num_homogeneous",
        "num_heterogeneous", "seed", "accesses_per_core", "policies",
        "workers", "max_retries", "unit_timeout",
        "workloads", "mixes",
    })

    @classmethod
    def from_dict(cls, data: Any) -> "JobSpec":
        """Validate a submitted JSON dict into a spec.

        Raises:
            JobSpecError: on any structural or semantic problem; the
                message is safe to relay verbatim to the client.
        """
        _require(isinstance(data, dict),
                 f"job spec must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - cls._ALLOWED_KEYS
        _require(not unknown, f"unknown spec keys: {sorted(unknown)}")

        name = data.get("name", "")
        _require(isinstance(name, str) and len(name) <= 200,
                 "name must be a string of at most 200 characters")

        raw_scale = data.get("scale", "smoke")
        scale = _parse_scale(raw_scale)

        raw_cores = data.get("core_counts", [2])
        _require(isinstance(raw_cores, (list, tuple)) and raw_cores,
                 "core_counts must be a non-empty list of integers")
        core_counts: List[int] = []
        for cores in raw_cores:
            _require(isinstance(cores, int) and not isinstance(cores, bool)
                     and 2 <= cores <= 256,
                     f"core counts must be integers in [2, 256], "
                     f"got {cores!r}")
            core_counts.append(cores)
        _require(len(set(core_counts)) == len(core_counts),
                 "core_counts must not repeat")

        raw_workloads = data.get("workloads")
        raw_mixes = data.get("mixes")
        _require(raw_workloads is None or raw_mixes is not None,
                 "workloads requires mixes (declarative workloads are "
                 "only reachable through declarative mixes)")
        workloads: Tuple[WorkloadSpec, ...] = ()
        mixes: Tuple[MixSpec, ...] = ()
        if raw_mixes is not None:
            _require("num_homogeneous" not in data
                     and "num_heterogeneous" not in data,
                     "mixes cannot be combined with num_homogeneous/"
                     "num_heterogeneous (declarative mixes replace the "
                     "generated set)")
            if raw_workloads is not None:
                workloads = _parse_workloads(raw_workloads)
            mixes = _parse_mixes(raw_mixes, workloads, core_counts)
            num_homogeneous = 0
            num_heterogeneous = 0
        else:
            num_homogeneous = _int_field(data, "num_homogeneous",
                                         1, 0, 64)
            num_heterogeneous = _int_field(data, "num_heterogeneous",
                                           1, 0, 64)
            _require(num_homogeneous + num_heterogeneous > 0,
                     "at least one mix is required")

        seed = _int_field(data, "seed", 7, 0, 2**31 - 1)

        accesses = data.get("accesses_per_core")
        if accesses is not None:
            _require(isinstance(accesses, int)
                     and not isinstance(accesses, bool)
                     and 100 <= accesses <= 50_000_000,
                     f"accesses_per_core must be an integer in "
                     f"[100, 50000000], got {accesses!r}")

        raw_policies = data.get("policies")
        if raw_policies is None:
            policies = cls.__dataclass_fields__["policies"].default
        else:
            _require(isinstance(raw_policies, (list, tuple))
                     and raw_policies,
                     "policies must be a non-empty list")
            policies = tuple(_parse_policy(entry)
                             for entry in raw_policies)
            labels = [label for label, _p, _d in policies]
            _require(len(set(labels)) == len(labels),
                     f"policy labels must be unique, got {labels}")

        workers = _int_field(data, "workers", 0, 0, 256)

        max_retries = data.get("max_retries")
        if max_retries is not None:
            _require(isinstance(max_retries, int)
                     and not isinstance(max_retries, bool)
                     and 0 <= max_retries <= 100,
                     f"max_retries must be an integer in [0, 100], "
                     f"got {max_retries!r}")

        unit_timeout = data.get("unit_timeout")
        if unit_timeout is not None:
            _require(isinstance(unit_timeout, (int, float))
                     and not isinstance(unit_timeout, bool)
                     and unit_timeout > 0,
                     f"unit_timeout must be a positive number, "
                     f"got {unit_timeout!r}")
            unit_timeout = float(unit_timeout)

        return cls(name=name,
                   scale=scale.name if isinstance(raw_scale, str)
                   else "custom",
                   scale_dict=None if isinstance(raw_scale, str)
                   else dict(raw_scale),
                   core_counts=tuple(core_counts),
                   num_homogeneous=num_homogeneous,
                   num_heterogeneous=num_heterogeneous,
                   seed=seed,
                   accesses_per_core=accesses,
                   policies=policies,
                   workers=workers,
                   max_retries=max_retries,
                   unit_timeout=unit_timeout,
                   workloads=workloads,
                   mixes=mixes)

    def to_dict(self) -> Dict[str, Any]:
        # Declarative jobs serialise their mixes and drop the mix-count
        # knobs (the two forms are mutually exclusive in from_dict, and
        # from_record_dict strips the Nones).
        declarative = bool(self.mixes)
        return {
            "name": self.name,
            "scale": self.scale_dict if self.scale_dict is not None
            else self.scale,
            "core_counts": list(self.core_counts),
            "num_homogeneous": None if declarative
            else self.num_homogeneous,
            "num_heterogeneous": None if declarative
            else self.num_heterogeneous,
            "seed": self.seed,
            "accesses_per_core": self.accesses_per_core,
            "policies": [list(entry) for entry in self.policies],
            "workers": self.workers,
            "max_retries": self.max_retries,
            "unit_timeout": self.unit_timeout,
            "workloads": [w.to_dict() for w in self.workloads]
            if self.workloads else None,
            "mixes": [m.to_dict() for m in self.mixes]
            if declarative else None,
        }

    @classmethod
    def from_record_dict(cls, data: Dict[str, Any]) -> "JobSpec":
        """Rehydrate a spec from :meth:`to_dict` output (job.json).

        Records written before the simulation-kernel knob was removed
        carry a ``kernel`` key; it never changed results, so it is
        dropped and the job resumes unchanged.
        """
        spec = dict(data)
        spec.pop("kernel", None)
        spec["policies"] = [
            {"label": label, "policy": policy, "drishti": drishti}
            for label, policy, drishti in
            (tuple(entry) for entry in spec.get("policies", []))]
        spec = {k: v for k, v in spec.items() if v is not None}
        return cls.from_dict(spec)

    # ------------------------------------------------------------------
    def profile(self) -> ServiceProfile:
        """The :class:`ExperimentProfile` the engine will sweep."""
        scale = (_parse_scale(self.scale_dict)
                 if self.scale_dict is not None
                 else _SCALES[self.scale]())
        if self.accesses_per_core is not None:
            scale = replace(scale, accesses_per_core=self.accesses_per_core)
        return ServiceProfile(scale=scale,
                              core_counts=tuple(self.core_counts),
                              num_homogeneous=self.num_homogeneous,
                              num_heterogeneous=self.num_heterogeneous,
                              seed=self.seed,
                              custom_mixes=self.mixes)

    def policy_triples(self) -> Tuple[Tuple[str, str, DrishtiConfig], ...]:
        """(label, policy, DrishtiConfig) triples for the engine."""
        return tuple((label, policy, _DRISHTI_MODES[mode]())
                     for label, policy, mode in self.policies)

    def retry_policy(self) -> RetryPolicy:
        kwargs: Dict[str, Any] = {}
        if self.max_retries is not None:
            kwargs["max_attempts"] = self.max_retries + 1
        if self.unit_timeout is not None:
            kwargs["unit_timeout"] = self.unit_timeout
        return RetryPolicy(**kwargs)


@dataclass
class JobRecord:
    """The durable state of one job (mirrors ``job.json``)."""

    job_id: str
    spec: JobSpec
    status: str = "queued"
    created: float = 0.0
    started: Optional[float] = None
    finished: Optional[float] = None
    error: Optional[str] = None
    stats: Optional[Dict[str, Any]] = None
    restarts: int = 0
    cache_dir: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "stats": self.stats,
            "restarts": self.restarts,
            "cache_dir": self.cache_dir,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        return cls(job_id=data["job_id"],
                   spec=JobSpec.from_record_dict(data["spec"]),
                   status=data.get("status", "queued"),
                   created=data.get("created", 0.0),
                   started=data.get("started"),
                   finished=data.get("finished"),
                   error=data.get("error"),
                   stats=data.get("stats"),
                   restarts=data.get("restarts", 0),
                   cache_dir=data.get("cache_dir"))


def default_service_dir() -> Path:
    """``results/service`` under the repo root (or ``REPRO_SERVICE_DIR``)."""
    raw = os.environ.get("REPRO_SERVICE_DIR", "").strip()
    if raw:
        return Path(raw)
    repo_root = Path(__file__).resolve().parents[3]
    return repo_root / "results" / "service"


def atomic_write_json(path: Path, payload: Dict[str, Any]) -> None:
    """Durably publish *payload* at *path*: serialise to a temp file
    in the same directory, fsync-free ``os.replace`` onto the final
    name.  Readers see either the old complete file or the new one,
    never a torn write — the invariant the ATOM001 lint rule enforces
    for every ``jobs/<id>/`` artifact."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            try:
                os.unlink(tmp)
            except OSError:
                pass


class JobStore:
    """Filesystem-backed job records (one daemon per root directory).

    ``job.json`` writes are atomic (tmp + ``os.replace``) so a killed
    daemon never leaves a torn record; recovery reads whatever state
    was last durably published.  Job IDs are a monotonically growing
    ``job-%04d`` sequence derived from the directory listing — the
    store assumes a single writing daemon, which the HTTP API
    enforces by construction (one process owns the socket).
    """

    def __init__(self, root: Optional[os.PathLike] = None):
        self.root = Path(root) if root is not None \
            else default_service_dir()

    # -- paths ----------------------------------------------------------
    @property
    def jobs_root(self) -> Path:
        return self.root / "jobs"

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_root / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def manifest_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "manifest.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- lifecycle ------------------------------------------------------
    def _next_id(self) -> str:
        highest = 0
        if self.jobs_root.is_dir():
            for entry in self.jobs_root.iterdir():
                if _JOB_ID_RE.match(entry.name):
                    highest = max(highest, int(entry.name.split("-")[1]))
        return f"job-{highest + 1:04d}"

    def create(self, spec: JobSpec) -> JobRecord:
        record = JobRecord(job_id=self._next_id(), spec=spec,
                           status="queued", created=time.time())
        self.save(record)
        return record

    def save(self, record: JobRecord) -> None:
        atomic_write_json(self.record_path(record.job_id),
                          record.to_dict())

    def load(self, job_id: str) -> Optional[JobRecord]:
        path = self.record_path(job_id)
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        return JobRecord.from_dict(data)

    def list(self) -> List[JobRecord]:
        """All records, oldest job ID first."""
        records = []
        if self.jobs_root.is_dir():
            for entry in sorted(self.jobs_root.iterdir()):
                if _JOB_ID_RE.match(entry.name):
                    record = self.load(entry.name)
                    if record is not None:
                        records.append(record)
        return records

    def write_result(self, job_id: str, export: Dict[str, Any]) -> None:
        atomic_write_json(self.result_path(job_id), export)

    def read_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        try:
            return json.loads(self.result_path(job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None
