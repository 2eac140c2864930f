"""The sweep service: spec validation, the daemon end-to-end, shared
caching across jobs, cancellation, and kill -9 + restart resume.

The daemon tests run a real ``ServiceDaemon`` (real loopback socket,
real ``ServiceClient`` over urllib) — either on a background event
loop in this process, or, for the restart test, as a subprocess that
gets SIGKILLed mid-sweep.  All sweeps use a 600-access two-core
profile so the whole module stays CI-speed.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.common import matrix_to_dict
from repro.experiments.engine import SweepEngine
from repro.obs import events as obs_events
from repro.obs.manifest import read_manifest
from repro.service import (
    JobSpec,
    JobSpecError,
    JobStore,
    ServiceClient,
    ServiceDaemon,
    ServiceError,
)

#: The standard tiny sweep: 8 units (4 alone + 2 mixes × 2 policies).
TINY_SPEC = {
    "name": "tiny",
    "scale": "smoke",
    "core_counts": [2],
    "num_homogeneous": 1,
    "num_heterogeneous": 1,
    "seed": 3,
    "accesses_per_core": 600,
    "policies": ["lru", "d-hawkeye"],
}

TERMINAL = ("done", "failed", "cancelled")


@pytest.fixture(autouse=True)
def _clean_listeners():
    obs_events.clear()
    yield
    obs_events.clear()


# ---------------------------------------------------------------------------
# JobSpec validation
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_defaults(self):
        spec = JobSpec.from_dict({})
        assert spec.scale == "smoke"
        assert spec.core_counts == (2,)
        assert [label for label, _p, _d in spec.policies] == [
            "lru", "hawkeye", "d-hawkeye", "mockingjay", "d-mockingjay"]

    def test_round_trips_through_record_dict(self):
        spec = JobSpec.from_dict(TINY_SPEC)
        assert JobSpec.from_record_dict(spec.to_dict()) == spec

    def test_profile_applies_access_override(self):
        profile = JobSpec.from_dict(TINY_SPEC).profile()
        assert profile.scale.accesses_per_core == 600
        assert profile.core_counts == (2,)

    def test_policy_dict_form(self):
        spec = JobSpec.from_dict({
            "policies": [{"policy": "srrip"},
                         {"policy": "ship", "drishti": "full"},
                         {"label": "x", "policy": "lru",
                          "drishti": "dsc_only"}]})
        assert spec.policies == (("srrip", "srrip", "baseline"),
                                 ("ship+full", "ship", "full"),
                                 ("x", "lru", "dsc_only"))
        triples = spec.policy_triples()
        assert triples[1][2].dynamic_sampled_cache  # full mode

    def test_custom_scale_dict(self):
        spec = JobSpec.from_dict({
            "scale": {"llc_sets_per_slice": 32, "l2_sets": 16,
                      "l1_sets": 8, "accesses_per_core": 500}})
        assert spec.scale == "custom"
        profile = spec.profile()
        assert profile.scale.llc_sets_per_slice == 32
        assert profile.scale.accesses_per_core == 500
        # custom geometry survives the to_dict/from_dict round trip
        assert JobSpec.from_record_dict(spec.to_dict()) == spec

    def test_retry_knobs(self):
        spec = JobSpec.from_dict({"max_retries": 0, "unit_timeout": 5})
        policy = spec.retry_policy()
        assert policy.max_attempts == 1
        assert policy.unit_timeout == 5.0

    @pytest.mark.parametrize("bad", [
        {"scale": "galactic"},
        {"unknown_key": 1},
        {"core_counts": []},
        {"core_counts": [1]},
        {"core_counts": [2, 2]},
        {"core_counts": "2"},
        {"num_homogeneous": 0, "num_heterogeneous": 0},
        {"num_homogeneous": -1},
        {"seed": "seven"},
        {"accesses_per_core": 10},
        {"policies": []},
        {"policies": ["no-such-policy"]},
        {"policies": [{"policy": "nope"}]},
        {"policies": [{"policy": "lru", "drishti": "turbo"}]},
        {"policies": [{"policy": "lru", "extra": 1}]},
        {"policies": ["lru", "lru"]},
        {"workers": -1},
        {"kernel": "auto"},  # the removed backend knob is unknown now
        {"max_retries": -1},
        {"unit_timeout": 0},
        {"scale": {"llc_sets_per_slice": 32}},
        {"scale": {"llc_sets_per_slice": 32, "l2_sets": 16,
                   "l1_sets": 8, "accesses_per_core": 500,
                   "bogus": 1}},
        "not a dict",
    ])
    def test_rejects(self, bad):
        data = bad if not isinstance(bad, dict) else {**TINY_SPEC, **bad}
        with pytest.raises(JobSpecError):
            JobSpec.from_dict(data)

    def test_error_message_names_the_problem(self):
        with pytest.raises(JobSpecError, match="galactic"):
            JobSpec.from_dict({"scale": "galactic"})
        with pytest.raises(JobSpecError, match="no-such-policy"):
            JobSpec.from_dict({"policies": ["no-such-policy"]})


# ---------------------------------------------------------------------------
# Declarative workloads/mixes
# ---------------------------------------------------------------------------

#: A declarative sweep: one custom zipfian workload mixed with a pool
#: workload, 6 units (2 alone + 1 mix × 2 policies × 2 cores alone).
DECL_SPEC = {
    "name": "decl",
    "scale": "smoke",
    "core_counts": [2],
    "seed": 3,
    "accesses_per_core": 600,
    "policies": ["lru", "d-hawkeye"],
    "workloads": [{
        "name": "kv_zipf", "apki": 30.0, "slice_affinity": 0.4,
        "set_skew_band": 0.5,
        "classes": [
            {"pattern": "zipfian", "count": 3, "pool_frac": 0.5,
             "weight": 3.0, "params": {"alpha": 1.1}},
            {"pattern": "stream", "count": 1, "pool_frac": 2.0,
             "weight": 1.0},
        ]}],
    "mixes": [{"name": "m0", "workloads": ["kv_zipf", "mcf"],
               "kind": "heterogeneous"}],
}


def _decl(**overrides):
    data = json.loads(json.dumps(DECL_SPEC))
    data.update(overrides)
    return data


class TestDeclarativeJobSpec:
    def test_declarative_mixes_replace_generated_set(self):
        spec = JobSpec.from_dict(DECL_SPEC)
        assert spec.num_homogeneous == spec.num_heterogeneous == 0
        profile = spec.profile()
        mixes = profile.mixes(2)
        assert [m.name for m in mixes] == ["m0"]
        assert mixes[0].workloads == ("kv_zipf", "mcf")
        assert mixes[0].resolve("kv_zipf").suite == "custom"
        assert mixes[0].resolve("mcf").suite == "spec"

    def test_round_trips_through_record_dict(self):
        spec = JobSpec.from_dict(DECL_SPEC)
        assert JobSpec.from_record_dict(spec.to_dict()) == spec

    def test_mix_local_custom_wins_over_top_level(self):
        data = _decl()
        local = json.loads(json.dumps(DECL_SPEC["workloads"][0]))
        local["apki"] = 5.0
        data["mixes"][0]["custom"] = [local]
        spec = JobSpec.from_dict(data)
        mix = spec.profile().mixes(2)[0]
        assert mix.resolve("kv_zipf").apki == 5.0

    @pytest.mark.parametrize("mutate,match", [
        (lambda d: d.pop("mixes"), "workloads requires mixes"),
        (lambda d: d.update(num_homogeneous=1), "cannot be combined"),
        (lambda d: d["mixes"][0]["workloads"].__setitem__(0, "kv_zip"),
         "did you mean 'kv_zipf'"),
        (lambda d: d["mixes"][0]["workloads"].append("mcf"),
         "num_cores"),
        (lambda d: d.update(core_counts=[2, 4]), "num_cores=4"),
        (lambda d: d["workloads"][0]["classes"][0]["params"]
         .update(alpha=99), "alpha"),
        (lambda d: [c.update(weight=0)
                    for c in d["workloads"][0]["classes"]],
         "weights sum to 0"),
        (lambda d: d["workloads"][0]["classes"][0]
         .update(pool_frac=-1), "pool_frac"),
        (lambda d: d["workloads"][0].update(typo=1), "unknown keys"),
        (lambda d: d.update(workloads=d["workloads"] * 2),
         "must be unique"),
        (lambda d: d.update(mixes=d["mixes"] * 2), "must be unique"),
        (lambda d: d.update(workloads=[]), "non-empty"),
        (lambda d: d.update(mixes="m0"), "non-empty list"),
    ])
    def test_rejects_bad_declarative_specs(self, mutate, match):
        data = _decl()
        mutate(data)
        with pytest.raises(JobSpecError, match=match):
            JobSpec.from_dict(data)


class TestJobStore:
    def test_create_load_list(self, tmp_path):
        store = JobStore(tmp_path)
        a = store.create(JobSpec.from_dict(TINY_SPEC))
        b = store.create(JobSpec.from_dict({}))
        assert [a.job_id, b.job_id] == ["job-0001", "job-0002"]
        loaded = store.load(a.job_id)
        assert loaded is not None
        assert loaded.spec == a.spec
        assert loaded.status == "queued"
        assert [r.job_id for r in store.list()] == [a.job_id, b.job_id]

    def test_ids_continue_after_restart(self, tmp_path):
        JobStore(tmp_path).create(JobSpec.from_dict({}))
        record = JobStore(tmp_path).create(JobSpec.from_dict({}))
        assert record.job_id == "job-0002"

    def test_load_missing_is_none(self, tmp_path):
        assert JobStore(tmp_path).load("job-9999") is None


class TestClientDiscovery:
    """URL discovery from daemon.json — the CLI passes root as a str."""

    def test_string_root_resolves_advertisement(self, tmp_path):
        (tmp_path / "daemon.json").write_text(
            json.dumps({"host": "127.0.0.1", "port": 12345, "pid": 1}))
        client = ServiceClient(root=str(tmp_path))
        assert client.url == "http://127.0.0.1:12345"
        assert ServiceClient(root=tmp_path).url == client.url

    def test_missing_advertisement_is_service_error(self, tmp_path):
        # A str root must raise the explanatory error, not TypeError.
        with pytest.raises(ServiceError, match="no daemon address"):
            ServiceClient(root=str(tmp_path / "nowhere"))


# ---------------------------------------------------------------------------
# In-process daemon end-to-end
# ---------------------------------------------------------------------------

class DaemonHarness:
    """A real daemon on a background event loop + a client for it."""

    def __init__(self, root, max_jobs=1):
        self.daemon = ServiceDaemon(root=root, max_jobs=max_jobs)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()
        self._call(self.daemon.start())
        self.client = ServiceClient(
            url=f"http://127.0.0.1:{self.daemon.port}")

    def _run(self):
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def _call(self, coro, timeout=30):
        return asyncio.run_coroutine_threadsafe(
            coro, self.loop).result(timeout)

    def close(self):
        self._call(self.daemon.stop(), timeout=60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10)


@pytest.fixture
def harness(tmp_path):
    h = DaemonHarness(tmp_path / "service")
    yield h
    h.close()


class TestAtomicAdvertisement:
    """Regression for the ASY001/ATOM001 findings in the daemon.

    ``daemon.json`` used to be published with ``Path.write_text``
    directly inside ``async def start`` — a torn, in-place write on
    the event-loop thread.  The fixed daemon must (a) publish it via
    tmp + ``os.replace`` and (b) do the file I/O off the loop thread
    (``asyncio.to_thread``).  Both halves failed before the fix.
    """

    def test_daemon_json_published_atomically_off_loop(self, tmp_path):
        # sys.addaudithook can't be removed, so the hook stays for the
        # rest of the process — gate it on a flag and keep it cheap.
        events = []
        active = {"on": False}

        def hook(name, args):
            if not active["on"]:
                return
            if name == "open":
                mode = str(args[1] or "")
                if str(args[0]).endswith("daemon.json") and "w" in mode:
                    events.append(("open-w", threading.get_ident()))
            elif name == "os.rename":
                if str(args[1]).endswith("daemon.json"):
                    events.append(("replace", threading.get_ident()))

        sys.addaudithook(hook)
        active["on"] = True
        try:
            h = DaemonHarness(tmp_path / "service")
            try:
                advertised = json.loads(
                    h.daemon.address_path.read_text())
                assert advertised["port"] == h.daemon.port
            finally:
                h.close()
        finally:
            active["on"] = False

        loop_ident = h.thread.ident
        replaces = [tid for kind, tid in events if kind == "replace"]
        direct_writes = [tid for kind, tid in events
                         if kind == "open-w"]
        assert replaces, \
            "daemon.json must be published via os.replace (atomic), " \
            "not written in place"
        assert not direct_writes, \
            "daemon.json must never be opened for writing directly " \
            "(torn-read window for clients polling the address)"
        assert all(tid != loop_ident for tid in replaces), \
            "advertisement file I/O must run off the event-loop " \
            "thread (asyncio.to_thread), not stall the loop"


class TestDaemonEndToEnd:
    def test_submit_watch_result_matches_local_sweep(self, harness):
        client = harness.client
        record = client.submit(TINY_SPEC)
        assert record["status"] in ("queued", "running")

        events = []
        final = client.watch(record["job_id"], poll_timeout=5.0,
                             on_event=events.append)
        assert final["status"] == "done"
        kinds = [e["kind"] for e in events]
        assert kinds[0] == "job_started"
        assert kinds[-1] == "job_done"
        assert "sweep_start" in kinds and "sweep_end" in kinds
        assert kinds.count("unit") == final["stats"]["total_units"] == 8
        # long-poll cursors: seq numbers are the contiguous integers
        assert [e["seq"] for e in events] == list(range(len(events)))

        # the service's export equals a direct in-process sweep,
        # JSON-round-tripped exactly like the daemon serialises it
        spec = JobSpec.from_dict(TINY_SPEC)
        matrix = SweepEngine().run(spec.profile(), spec.policy_triples())
        expected = json.loads(json.dumps(matrix_to_dict(matrix)))
        assert client.result(record["job_id"]) == expected

    def test_overlapping_jobs_share_the_result_cache(self, harness):
        client = harness.client
        first = client.submit(TINY_SPEC)
        # same units plus one more policy: overlap = all 8 of job 1
        wider = dict(TINY_SPEC,
                     policies=["lru", "d-hawkeye", "hawkeye"])
        second = client.submit(wider)
        done1 = client.wait(first["job_id"], timeout=120)
        done2 = client.wait(second["job_id"], timeout=120)
        assert done1["status"] == done2["status"] == "done"
        # max_jobs=1 serialises the jobs, so every overlapping unit of
        # job 2 (4 alone + 4 cells) is a shared-cache hit
        assert done1["stats"]["cache_hits"] == 0
        assert done2["stats"]["cache_hits"] == 8
        assert done2["stats"]["simulations_run"] == \
            done2["stats"]["total_units"] - 8

    def test_status_listing_and_health(self, harness):
        client = harness.client
        record = client.submit(TINY_SPEC)
        client.wait(record["job_id"], timeout=120)
        listed = client.jobs()
        assert [r["job_id"] for r in listed] == [record["job_id"]]
        health = client.health()
        assert health["ok"] is True
        assert health["jobs"] == {"done": 1}

    def test_result_before_done_is_conflict(self, harness):
        client = harness.client
        record = client.submit(dict(TINY_SPEC, accesses_per_core=4000))
        with pytest.raises(ServiceError) as excinfo:
            client.result(record["job_id"])
        assert excinfo.value.status == 409
        client.cancel(record["job_id"])
        client.wait(record["job_id"], timeout=60)

    def test_unknown_job_is_404(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client.job("job-9999")
        assert excinfo.value.status == 404

    def test_invalid_spec_is_400_with_message(self, harness):
        with pytest.raises(ServiceError) as excinfo:
            harness.client.submit({"scale": "galactic"})
        assert excinfo.value.status == 400
        assert "galactic" in str(excinfo.value)

    def test_declarative_mix_sweep_matches_local(self, harness):
        client = harness.client
        record = client.submit(DECL_SPEC)
        final = client.wait(record["job_id"], timeout=120)
        assert final["status"] == "done"
        spec = JobSpec.from_dict(DECL_SPEC)
        matrix = SweepEngine().run(spec.profile(), spec.policy_triples())
        expected = json.loads(json.dumps(matrix_to_dict(matrix)))
        assert client.result(record["job_id"]) == expected
        assert expected["mix_names"]["2"] == ["m0"]

    def test_invalid_declarative_spec_is_400(self, harness):
        bad = _decl()
        bad["mixes"][0]["workloads"][0] = "kv_zip"
        with pytest.raises(ServiceError) as excinfo:
            harness.client.submit(bad)
        assert excinfo.value.status == 400
        assert "kv_zipf" in str(excinfo.value)

    def test_cancel_running_job_keeps_completed_units(self, harness):
        client = harness.client
        # bigger sweep (28 units) so there is time to cancel mid-run
        record = client.submit({
            "scale": "smoke", "core_counts": [2],
            "num_homogeneous": 2, "num_heterogeneous": 2,
            "accesses_per_core": 600, "seed": 3})
        job_id = record["job_id"]
        # wait until at least one unit completed, then cancel
        cursor, units_seen = 0, 0
        deadline = time.monotonic() + 60
        while units_seen < 1:
            assert time.monotonic() < deadline, "no unit completed"
            page = client.events(job_id, since=cursor, timeout=5.0)
            cursor = page["next"]
            units_seen += sum(e["kind"] == "unit"
                              for e in page["events"])
            assert page["status"] not in TERMINAL, \
                "sweep finished before cancel (enlarge the spec)"
        client.cancel(job_id)
        final = client.wait(job_id, timeout=60)
        assert final["status"] == "cancelled"
        # the cancellation point is durable: every completed unit is in
        # the manifest, so a rerun would resume past them
        manifest = read_manifest(
            harness.daemon.store.manifest_path(job_id))
        recorded = [e for e in manifest if e["event"] == "unit"]
        assert len(recorded) >= units_seen
        assert manifest[-1]["event"] == "sweep_end"
        assert manifest[-1]["status"] == "failed"  # aborted mid-sweep

    def test_cancel_queued_job_never_runs(self, harness):
        client = harness.client
        blocker = client.submit(dict(TINY_SPEC, accesses_per_core=4000))
        queued = client.submit(TINY_SPEC)
        cancelled = client.cancel(queued["job_id"])
        assert cancelled["status"] in ("queued", "cancelled")
        # the queued job only observes its flag once a slot frees, so
        # clear the blocker before waiting on it
        client.cancel(blocker["job_id"])
        client.wait(blocker["job_id"], timeout=60)
        final = client.wait(queued["job_id"], timeout=60)
        assert final["status"] == "cancelled"
        assert not harness.daemon.store.manifest_path(
            queued["job_id"]).exists()


class TestLegacyJobRecord:
    def test_stored_kernel_key_is_dropped_and_job_resumes(self, tmp_path):
        """A job.json written by a daemon that still had the kernel knob
        recovers on startup and finishes with the clean sweep's result."""
        root = tmp_path / "service"
        store = JobStore(root)
        job_id = store.create(JobSpec.from_dict(TINY_SPEC)).job_id
        path = store.record_path(job_id)
        data = json.loads(path.read_text())
        data["spec"]["kernel"] = "vector"
        data["status"] = "running"  # the old daemon died mid-sweep
        path.write_text(json.dumps(data))

        h = DaemonHarness(root)
        try:
            final = h.client.wait(job_id, timeout=120)
            result = h.client.result(job_id)
        finally:
            h.close()
        assert final["status"] == "done"
        assert final["restarts"] == 1
        spec = JobSpec.from_dict(TINY_SPEC)
        matrix = SweepEngine().run(spec.profile(), spec.policy_triples())
        assert result == json.loads(json.dumps(matrix_to_dict(matrix)))


# ---------------------------------------------------------------------------
# Kill -9 + restart: resume from the manifest checkpoint
# ---------------------------------------------------------------------------

def _spawn_daemon(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve",
         "--root", str(root)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    address = Path(root) / "daemon.json"
    deadline = time.monotonic() + 30
    # a stale daemon.json may survive a SIGKILLed predecessor: wait
    # until the advertisement names the process we just spawned
    while True:
        assert proc.poll() is None, "daemon died before binding"
        assert time.monotonic() < deadline, "daemon never advertised"
        try:
            if json.loads(address.read_text())["pid"] == proc.pid:
                break
        except (OSError, json.JSONDecodeError, KeyError):
            pass
        time.sleep(0.05)
    client = ServiceClient(root=Path(root))
    while True:
        try:
            client.health()
            return proc, client
        except ServiceError:
            assert time.monotonic() < deadline, "daemon not reachable"
            time.sleep(0.05)


class TestRestartResume:
    def test_sigkill_mid_job_resumes_without_resimulating(self, tmp_path):
        root = tmp_path / "service"
        proc, client = _spawn_daemon(root)
        try:
            # 28 units at ~0.1s each: a wide kill window
            record = client.submit({
                "scale": "smoke", "core_counts": [2],
                "num_homogeneous": 2, "num_heterogeneous": 2,
                "accesses_per_core": 600, "seed": 3})
            job_id = record["job_id"]
            cursor, units = 0, 0
            deadline = time.monotonic() + 60
            while units < 3:
                assert time.monotonic() < deadline
                page = client.events(job_id, since=cursor, timeout=5.0)
                cursor = page["next"]
                units += sum(e["kind"] == "unit"
                             for e in page["events"])
                assert page["status"] not in TERMINAL, \
                    "sweep finished before the kill"
        finally:
            proc.kill()
            proc.wait(timeout=30)

        store = JobStore(root)
        manifest_path = store.manifest_path(job_id)
        run1 = read_manifest(manifest_path)
        run1_completed = {e["key"] for e in run1 if e["event"] == "unit"}
        assert len(run1_completed) >= 3
        assert run1[-1]["event"] != "sweep_end"  # genuinely mid-flight
        assert store.load(job_id).status == "running"  # torn state

        proc2, client2 = _spawn_daemon(root)
        try:
            final = client2.wait(job_id, timeout=300)
        finally:
            proc2.terminate()
            proc2.wait(timeout=30)
        assert final["status"] == "done"
        assert final["restarts"] == 1
        assert final["stats"]["resumed_units"] + \
            final["stats"]["cache_hits"] >= len(run1_completed)

        # zero re-simulation: no unit completed before the kill was
        # simulated again after the restart
        events = read_manifest(manifest_path)
        starts = [i for i, e in enumerate(events)
                  if e["event"] == "sweep_start"]
        assert len(starts) == 2, "restart must begin a second sweep"
        run2 = events[starts[1]:]
        assert any(e["event"] == "sweep_resume" for e in run2)
        resimulated = {e["key"] for e in run2
                       if e["event"] == "unit"
                       and not e.get("cache_hit")
                       and not e.get("resumed")}
        assert not (resimulated & run1_completed)
        assert events[-1]["event"] == "sweep_end"
        assert events[-1]["status"] == "ok"

        # and the finished result equals a clean local sweep
        spec = store.load(job_id).spec
        matrix = SweepEngine().run(spec.profile(), spec.policy_triples())
        expected = json.loads(json.dumps(matrix_to_dict(matrix)))
        assert store.read_result(job_id) == expected
