"""CLI for the sweep service.

Server::

    python -m repro.service serve [--root DIR] [--port N] [--max-jobs N]

Client::

    python -m repro.service submit --scale smoke --cores 2 [--watch]
    python -m repro.service status [JOB]
    python -m repro.service watch JOB
    python -m repro.service results JOB [-o FILE]
    python -m repro.service cancel JOB
    python -m repro.service health

Client commands find the daemon through ``REPRO_SERVICE_URL`` or the
``daemon.json`` the server writes into its root; ``--url`` overrides.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import serve


def _client(args) -> ServiceClient:
    return ServiceClient(url=args.url, root=args.root)


def _print_record(record: Dict[str, Any]) -> None:
    line = (f"{record['job_id']}  {record['status']:<10} "
            f"scale={record['spec']['scale'] if isinstance(record['spec']['scale'], str) else 'custom'} "
            f"cores={record['spec']['core_counts']}")
    if record.get("error"):
        line += f"  error={record['error']}"
    print(line)


def _cmd_serve(args) -> int:
    serve(root=args.root, host=args.host, port=args.port,
          max_jobs=args.max_jobs)
    return 0


def _spec_from_args(args) -> Dict[str, Any]:
    spec: Dict[str, Any] = {
        "name": args.name,
        "scale": args.scale,
        "core_counts": args.cores,
        "num_homogeneous": args.homogeneous,
        "num_heterogeneous": args.heterogeneous,
        "seed": args.seed,
        "workers": args.workers,
    }
    if args.accesses is not None:
        spec["accesses_per_core"] = args.accesses
    if args.policies:
        spec["policies"] = args.policies
    if args.spec is not None:
        with open(args.spec) as fh:
            spec = json.load(fh)
    return spec


def _watch(client: ServiceClient, job_id: str) -> int:
    def show(event: Dict[str, Any]) -> None:
        kind = event["kind"]
        payload = event.get("payload", {})
        if kind == "unit":
            tag = "hit" if payload.get("cache_hit") else (
                "resumed" if payload.get("resumed") else "ran")
            print(f"  unit {payload.get('label', '?')} [{tag}]")
        else:
            print(f"  {kind} {json.dumps(payload, sort_keys=True)}")

    record = client.watch(job_id, on_event=show)
    print(f"{job_id}: {record['status']}")
    return 0 if record["status"] == "done" else 1


def _cmd_submit(args) -> int:
    client = _client(args)
    record = client.submit(_spec_from_args(args))
    print(f"submitted {record['job_id']}")
    if args.watch:
        return _watch(client, record["job_id"])
    return 0


def _cmd_status(args) -> int:
    client = _client(args)
    if args.job:
        _print_record(client.job(args.job))
    else:
        records = client.jobs()
        if not records:
            print("no jobs")
        for record in records:
            _print_record(record)
    return 0


def _cmd_watch(args) -> int:
    return _watch(_client(args), args.job)


def _cmd_results(args) -> int:
    export = _client(args).result(args.job)
    text = json.dumps(export, sort_keys=True, indent=1)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _cmd_cancel(args) -> int:
    record = _client(args).cancel(args.job)
    _print_record(record)
    return 0


def _cmd_health(args) -> int:
    print(json.dumps(_client(args).health(), sort_keys=True, indent=1))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Async sweep job service (daemon + client).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--url", default=None,
                       help="daemon base URL (default: discover)")
        p.add_argument("--root", default=None,
                       help="service root directory")

    p = sub.add_parser("serve", help="run the daemon")
    p.add_argument("--root", default=None)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="0 picks an ephemeral port (advertised in "
                        "daemon.json)")
    p.add_argument("--max-jobs", type=int, default=1,
                   help="sweeps running concurrently")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("submit", help="submit a sweep job")
    common(p)
    p.add_argument("--name", default="")
    p.add_argument("--scale", default="smoke")
    p.add_argument("--cores", type=int, nargs="+", default=[2])
    p.add_argument("--homogeneous", type=int, default=1)
    p.add_argument("--heterogeneous", type=int, default=1)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--accesses", type=int, default=None)
    p.add_argument("--policies", nargs="+", default=None,
                   help="headline labels, e.g. lru d-hawkeye")
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--spec", default=None,
                   help="JSON file with the full spec (overrides "
                        "the flags above)")
    p.add_argument("--watch", action="store_true",
                   help="stream events until the job finishes")
    p.set_defaults(func=_cmd_submit)

    p = sub.add_parser("status", help="list jobs / show one job")
    common(p)
    p.add_argument("job", nargs="?", default=None)
    p.set_defaults(func=_cmd_status)

    p = sub.add_parser("watch", help="stream a job's events")
    common(p)
    p.add_argument("job")
    p.set_defaults(func=_cmd_watch)

    p = sub.add_parser("results", help="fetch a job's matrix export")
    common(p)
    p.add_argument("job")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_results)

    p = sub.add_parser("cancel", help="cancel a job")
    common(p)
    p.add_argument("job")
    p.set_defaults(func=_cmd_cancel)

    p = sub.add_parser("health", help="daemon liveness")
    common(p)
    p.set_defaults(func=_cmd_health)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
