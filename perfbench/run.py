"""Sweep benchmark: the paper's real sweeps, timed, traced and checked.

Usage (from the repository root)::

    python3 perfbench/run.py --workload matrix_4c_pool --seed 7 --seconds 60 --trace 0

``--trace 0`` runs closed-loop sweep iterations (seed, seed+1000, ...)
while the next one is predicted to end within ``--seconds``, and
reports the end-to-end metrics.
``--trace 1`` runs the first iteration untraced, then again under the
outside-in layer tracer (``layertrace.py``), and reports per-layer
metrics plus the tracing overhead.  Both modes check every iteration's
outputs (``gate.py``); the last stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every check passed.  The spans of a
traced run are written to ``.perfbench/trace-<workload>-s<seed>.json``.

Maintenance modes: ``--record-pins`` re-records the digest pins of
``pins.json`` from serial, untraced runs at the given seeds;
``--setup-probe`` times one set-up (used internally for ``setup_s``);
``--accesses N`` shrinks traces for smoke tests (pins then do not
apply).
"""

from time import perf_counter

_PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"

#: Set-ups timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 7


def _fail(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _prepare_imports() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {SRC}; run from a repository "
              f"checkout")
    sys.path.insert(0, str(SRC))
    # The benchmark measures the default paths: drop every repro knob a
    # caller's environment might carry (kernel override, faults, sweep
    # workers/cache, sanitizer...).  Children inherit the cleaned env.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    warnings.filterwarnings("ignore", message="run_mix measuring IPC_alone",
                            category=RuntimeWarning)


# ---------------------------------------------------------------------------
# Run metadata (for normalising across machines; not gated)
# ---------------------------------------------------------------------------

def calibration_seconds() -> float:
    """Median time of a fixed pure-Python loop (ROADMAP item 1c)."""
    times = []
    for _ in range(3):
        start = perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc = (acc + i * i) & 0xFFFF
        times.append(perf_counter() - start)
    return statistics.median(times)


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run_metadata() -> dict:
    import numpy
    from repro.experiments.resultcache import CACHE_SCHEMA_VERSION
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count() or 1
    return {
        "calibration_s": calibration_seconds(),
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "cache_schema_version": CACHE_SCHEMA_VERSION,
    }


# ---------------------------------------------------------------------------
# Modes
# ---------------------------------------------------------------------------

def setup_probe(workload, seed: int, accesses) -> None:
    """Child mode: time imports + set-up from process start, print it."""
    cache_dir = WORK_ROOT / f"probe-{os.getpid()}"
    try:
        workload.setup(seed, accesses, str(cache_dir))
        print(repr(perf_counter() - _PROCESS_START))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def measure_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.accesses is not None:
        cmd += ["--accesses", str(args.accesses)]
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=False)
        if proc.returncode != 0:
            _fail(f"setup probe failed:\n{proc.stderr}", code=1)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def check_iteration(workload, it, pins) -> int:
    """Apply the digest pin (if any); returns the units to count failed."""
    import gate
    expected = gate.pinned_digest(pins, workload.name, it.seed,
                                  it.accesses_per_core)
    pin_problems = gate.check_pin(it.export, expected)
    it.problems.extend(pin_problems)
    status = "pinned" if expected else "unpinned"
    print(f"  seed {it.seed}: wall {it.wall_s:.3f}s, {it.cells} cells, "
          f"{it.units} units, digest {status}, "
          f"{len(it.problems)} problems")
    for problem in it.problems:
        print(f"    ! {problem}")
    # A digest mismatch cannot be pinned on one cell: count them all.
    return it.failed + (it.cells if pin_problems else 0)


def run_untraced(workload, args, work_dir, pins) -> dict:
    import sweeps
    iterations = []
    failed = 0
    started = perf_counter()
    # Closed loop: start another sweep only while it is predicted (from
    # the last one) to finish within --seconds; the first always runs.
    while not iterations or (perf_counter() - started
                             + iterations[-1].wall_s <= args.seconds):
        gc.collect()
        it = workload.run(sweeps.iteration_seed(args.seed, len(iterations)),
                          args.accesses, work_dir)
        failed += check_iteration(workload, it, pins)
        if not iterations:
            # Peak RSS through the first sweep only, so it does not depend
            # on how many sweeps fit in --seconds.  Pool workers have been
            # joined by now; set-up probes have not started yet.
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if it.engine_workers > 1:
                rss_kb += resource.getrusage(
                    resource.RUSAGE_CHILDREN).ru_maxrss
        iterations.append(it)
    setup_s = measure_setup(args)
    metrics = {
        "cells_per_s": (statistics.median(
            it.cells / it.wall_s for it in iterations), "1/s"),
        "sim_accesses_per_s": (statistics.median(
            it.sim_accesses / it.wall_s for it in iterations), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    return {"iterations": iterations, "failed": failed, "metrics": metrics}


def run_traced(workload, args, work_dir, pins) -> dict:
    import gate
    import layers
    from layertrace import LayerTrace
    seed = args.seed
    gc.collect()
    reference = workload.run(seed, args.accesses, work_dir)
    failed = check_iteration(workload, reference, pins)
    dump_dir = os.path.join(work_dir, "workers")
    os.makedirs(dump_dir, exist_ok=True)
    tracer = LayerTrace(run_id=f"{workload.name}-s{seed}", dump_dir=dump_dir)
    gc.collect()
    tracer.install()
    try:
        traced = workload.run(seed, args.accesses, work_dir)
    finally:
        tracer.uninstall()
    workers = tracer.merge_workers()
    failed += check_iteration(workload, traced, pins)
    if gate.digest(traced.export) != gate.digest(reference.export):
        traced.problems.append("traced digest differs from untraced")
        print("    ! traced digest differs from untraced")
        failed += traced.cells
    metrics = layers.layer_metrics(tracer, traced, reference)
    return {"iterations": [reference, traced], "failed": failed,
            "metrics": metrics, "tracer": tracer, "workers": workers}


def write_trace_file(args, result, meta) -> Path:
    tracer = result["tracer"]
    path = WORK_ROOT / f"trace-{args.workload}-s{args.seed}.json"
    payload = {
        "workload": args.workload, "seed": args.seed, "meta": meta,
        "worker_processes": result["workers"],
        "layers": {name: {"calls": v[0], "busy_s": v[1], "self_s": v[2]}
                   for name, v in sorted(tracer.layers.items())},
        "counts": tracer.counts,
        "span_fields": ["name", "start", "end", "parent", "run_id", "pid"],
        "spans": tracer.span_lists(),
    }
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)
    return path


def record_pins(workload, seeds, accesses, work_dir) -> int:
    """Replace *workload*'s pins with digests of serial, untraced runs."""
    import gate
    digests = {}
    for seed in seeds:
        it = workload.run(seed, accesses, work_dir, serial=True)
        if it.problems:
            print(f"seed {seed}: not pinned, invariants failed: "
                  f"{it.problems}", file=sys.stderr)
            return 1
        digests[str(seed)] = gate.digest(it.export)
        print(f"{workload.name} seed {seed}: {digests[str(seed)]} "
              f"({it.wall_s:.2f}s)")
    pins = gate.load_pins()  # read late: keep other workloads' pins
    pins[workload.name] = {"accesses_per_core": it.accesses_per_core,
                           "recorded_from": "serial, untraced",
                           "seeds": digests}
    gate.PINS_PATH.write_text(json.dumps(pins, indent=2, sort_keys=True)
                              + "\n")
    return 0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--accesses", type=int, default=None,
                        help="accesses per core (smoke tests; default: "
                             "the bench profile's)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--record-pins", metavar="SEEDS", default=None,
                        help="comma-separated seeds to (re)pin")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _prepare_imports()
    import sweeps
    workload = sweeps.WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; known: "
              f"{sorted(sweeps.WORKLOADS)}")
    WORK_ROOT.mkdir(exist_ok=True)
    if args.setup_probe:
        setup_probe(workload, args.seed, args.accesses)
        return 0
    work_dir = WORK_ROOT / f"run-{os.getpid()}"
    work_dir.mkdir()
    try:
        if args.record_pins is not None:
            seeds = [int(s) for s in args.record_pins.split(",") if s]
            return record_pins(workload, seeds, args.accesses,
                               str(work_dir))
        import gate
        pins = gate.load_pins()
        meta = run_metadata()
        print(f"perfbench-meta {json.dumps(meta, sort_keys=True)}")
        print(f"{workload.name} (trace {args.trace}): {workload.why}")
        if args.trace:
            result = run_traced(workload, args, str(work_dir), pins)
            path = write_trace_file(args, result, meta)
            print(f"spans written to {path.relative_to(ROOT)}")
        else:
            result = run_untraced(workload, args, str(work_dir), pins)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    iterations = result["iterations"]
    attempted = sum(it.units for it in iterations)
    failed = result["failed"]
    correct = failed == 0 and not any(it.problems for it in iterations)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
