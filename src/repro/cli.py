"""Command-line interface for query-view security audits.

The CLI wraps the session-backed
:class:`~repro.audit.auditor.SecurityAuditor` so a data owner can audit
a publishing plan without writing Python::

    repro-audit decide   --schema schema.json --secret "S(n,p) :- Emp(n,d,p)" \
                         --view "V(n,d) :- Emp(n,d,p)"
    repro-audit audit    --schema schema.json --secret "..." \
                         --view bob="V(n,d) :- Emp(n,d,p)" --view carol="W(d,p) :- Emp(n,d,p)"
    repro-audit quick    --schema schema.json --secret "..." --view "..."
    repro-audit leakage  --schema schema.json --secret "..." --view "..." --probability 1/4
    repro-audit collusion --schema schema.json --secret "..." --view bob="..." --view carol="..."
    repro-audit plan     --plan plan.json
    repro-audit load     --store facts.db facts.json --csv Emp=employees.csv
    repro-audit serve    --port 8765 --workers 4
    repro-audit request  --port 8765 --op decide --schema schema.json \
                         --secret "..." --view "..."

The schema JSON format is documented in :mod:`repro.io`; ``plan`` takes
the same document extended with ``secrets`` and ``views`` mappings and
runs the batch :meth:`~repro.session.AnalysisSession.audit_plan`.
``serve`` runs the asyncio audit daemon of :mod:`repro.service` and
``request`` sends it one operation (either assembled from the usual
flags or read verbatim from ``--payload file.json``); ``request
--trace`` asks the daemon to return its span tree inline, and
``request --op subscribe --payload ...`` keeps the connection open and
streams one JSON line per re-verdict notification of a live audit
session (see :mod:`repro.session.live`).  ``trace``
sends the same request and renders the distributed span waterfall
instead of raw JSON, and ``top`` polls a daemon's merged ``stats`` and
``traces`` operations into a live per-shard/per-op view.
Every command exits with status 0 when the secret is safe under the
requested analysis and status 1 when a disclosure was found, so the
tool can gate a CI pipeline or a publishing workflow; transport and
configuration errors exit 2.  ``request`` additionally distinguishes
the service's retryable-class failures — exit 3 = overloaded, 4 =
worker-crashed, 5 = deadline-exceeded — and takes ``--deadline-ms``
(end-to-end time budget) and ``--retries`` (attempts with jittered
backoff).  ``serve --fault-plan`` installs a deterministic
fault-injection plan (see :mod:`repro.faults`) for chaos testing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .audit.auditor import SecurityAuditor
from .exceptions import ReproError
from .io import load_audit_configuration, load_publishing_plan
from .probability.dictionary import Dictionary
from .session import AnalysisSession

__all__ = ["main", "build_parser"]


def _parse_views(raw_views: Sequence[str]) -> Dict[str, str]:
    """Parse ``--view`` arguments of the form ``[recipient=]query``.

    A recipient prefix is recognised only when the first ``=`` occurs
    *left of* the ``:-`` separator **and** the text before it looks like
    a bare recipient name (no parentheses or quotes).  This keeps
    queries whose head mentions an ``=``-containing constant — e.g.
    ``V('a=b') :- R(x, y)`` — from being torn apart at the wrong place.
    """
    views: Dict[str, str] = {}
    for index, raw in enumerate(raw_views):
        head = raw.partition(":-")[0]
        separator = head.find("=")
        prefix = raw[:separator] if separator != -1 else ""
        if separator != -1 and prefix and not any(c in prefix for c in "()'\""):
            recipient, query = prefix.strip(), raw[separator + 1 :]
        else:
            recipient, query = f"user{index + 1}", raw
        views[recipient] = query.strip()
    return views


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro-audit`` tool."""
    parser = argparse.ArgumentParser(
        prog="repro-audit",
        description="Query-view security audits (Miklau & Suciu, SIGMOD 2004).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(subparser: argparse.ArgumentParser, multi_view_names: bool) -> None:
        subparser.add_argument("--schema", required=True, help="path to the schema JSON file")
        subparser.add_argument("--secret", required=True, help="the confidential query (datalog)")
        help_text = (
            "a view to publish, optionally prefixed with a recipient name "
            "(recipient=QUERY); repeat for several views"
            if multi_view_names
            else "a view to publish (datalog); repeat for several views"
        )
        subparser.add_argument("--view", action="append", required=True, help=help_text)
        subparser.add_argument(
            "--probability",
            default=None,
            help="uniform tuple probability for quantitative measures (e.g. 1/4)",
        )

    decide = subparsers.add_parser("decide", help="dictionary-independent decision (Theorem 4.5)")
    add_common(decide, multi_view_names=False)

    quick = subparsers.add_parser("quick", help="practical subgoal-unification check (Section 4.2)")
    add_common(quick, multi_view_names=False)

    audit = subparsers.add_parser("audit", help="full audit: classification, quick check, leakage")
    add_common(audit, multi_view_names=True)
    audit.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the report as JSON, including cache and probability-kernel "
            "observability counters"
        ),
    )

    leakage = subparsers.add_parser("leakage", help="measure the positive disclosure (Section 6.1)")
    add_common(leakage, multi_view_names=False)

    collusion = subparsers.add_parser("collusion", help="multi-party collusion analysis")
    add_common(collusion, multi_view_names=True)

    plan = subparsers.add_parser(
        "plan",
        help="batch audit of a multi-secret/multi-view publishing plan (session API)",
    )
    plan.add_argument(
        "--plan",
        required=True,
        help="path to a JSON publishing plan (schema document plus 'secrets' and 'views')",
    )
    plan.add_argument(
        "--engine",
        default="exact",
        help="verification engine for the session (default: exact)",
    )
    plan.add_argument(
        "--show-cache-stats",
        action="store_true",
        help="print critical-tuple cache statistics after the audit",
    )

    load = subparsers.add_parser(
        "load",
        help="bulk-load JSON/CSV facts into a sqlite fact store (repro.storage)",
    )
    load.add_argument(
        "--store",
        required=True,
        help="path of the sqlite store file (created or appended to)",
    )
    load.add_argument(
        "facts",
        nargs="*",
        help=(
            "JSON fact files: either [[relation, v1, ...], ...] or "
            "{relation: [[v1, ...], ...]} (optionally under a 'facts' key)"
        ),
    )
    load.add_argument(
        "--csv",
        action="append",
        default=[],
        metavar="RELATION=PATH",
        help="load a CSV file as one relation (one fact per row); repeatable",
    )

    serve = subparsers.add_parser(
        "serve", help="run the JSON-lines-over-TCP audit daemon (repro.service)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765, help="bind port (default 8765; 0 = ephemeral)")
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="1 (default) runs the in-process daemon with a thread pool; "
        "N >= 2 pre-forks N worker processes behind a router "
        "(fleet-wide coalescing, load-aware routing)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="pending analyses before requests are shed with an 'overloaded' "
        "error (per shard when --workers >= 2: analyses are shed once every "
        "healthy shard is full)",
    )
    serve.add_argument(
        "--max-payload",
        type=int,
        default=None,
        help="maximum request line size in bytes (default 1 MiB)",
    )
    serve.add_argument(
        "--worker-threads",
        type=int,
        default=None,
        help="analysis threads inside each fleet worker process "
        "(only with --workers >= 2; default 2)",
    )
    serve.add_argument(
        "--fault-plan",
        default=None,
        help="fault-injection plan: inline JSON or a path to a JSON file "
        "(testing only; exported as REPRO_FAULT_PLAN so fleet workers "
        "inherit it)",
    )

    # The flags ``request`` and ``trace`` share, declared once.
    daemon_request = argparse.ArgumentParser(add_help=False)
    daemon_request.add_argument("--host", default="127.0.0.1", help="daemon address")
    daemon_request.add_argument("--port", type=int, default=8765, help="daemon port")
    daemon_request.add_argument(
        "--payload",
        default=None,
        help="path to a JSON request document sent verbatim (overrides the flags below)",
    )
    daemon_request.add_argument(
        "--op",
        default=None,
        help="operation: decide, quick, audit, leakage, collusion, with_knowledge, "
        "verify, plan, ping, stats, shutdown, live-create, apply-delta, "
        "live-audit, subscribe (subscribe streams notifications until EOF)",
    )
    daemon_request.add_argument("--schema", default=None, help="path to the schema JSON file")
    daemon_request.add_argument("--secret", default=None, help="the confidential query (datalog)")
    daemon_request.add_argument(
        "--view",
        action="append",
        default=None,
        help="a view, optionally prefixed recipient=QUERY; repeat for several",
    )
    daemon_request.add_argument(
        "--probability", default=None, help="uniform tuple probability (e.g. 1/4)"
    )
    daemon_request.add_argument("--engine", default=None, help="verification engine name")
    daemon_request.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="total time budget in milliseconds (queue wait + computation); "
        "an expired budget exits 5 with a 'deadline-exceeded' error",
    )
    daemon_request.add_argument(
        "--retries",
        type=int,
        default=None,
        help="total attempts for retryable failures (overloaded, worker "
        "crash, dropped connection); default 1 = no retry",
    )

    request = subparsers.add_parser(
        "request",
        parents=[daemon_request],
        help="send one operation to a running audit daemon",
    )
    request.add_argument(
        "--trace",
        action="store_true",
        help="ask the daemon for its server-side span tree, returned "
        "inline under result 'server.trace'",
    )
    request.add_argument(
        "--max-events",
        type=int,
        default=0,
        help="with --op subscribe: stop after this many streamed "
        "notifications (default 0 = stream until the daemon closes)",
    )

    trace = subparsers.add_parser(
        "trace",
        parents=[daemon_request],
        help="send one traced operation and print its span waterfall",
    )
    trace.add_argument(
        "--json",
        action="store_true",
        help="print the raw trace document instead of the rendered waterfall",
    )

    top = subparsers.add_parser(
        "top",
        help="live per-shard/per-op view of a running daemon (stats + traces)",
    )
    top.add_argument("--host", default="127.0.0.1", help="daemon address")
    top.add_argument("--port", type=int, default=8765, help="daemon port")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between polls (default 2)",
    )
    top.add_argument(
        "--iterations",
        type=int,
        default=0,
        help="number of polls before exiting (default 0 = until interrupted)",
    )

    return parser


def _dictionary_for(args, schema) -> Optional[Dictionary]:
    if getattr(args, "probability", None) is not None:
        return Dictionary.uniform(schema, Fraction(args.probability))
    return None


def _run_load(args, parser: argparse.ArgumentParser) -> int:
    """The ``load`` command: bulk-ingest facts into a sqlite store file."""
    from .storage import SQLiteFactStore

    if not args.facts and not args.csv:
        parser.error("load needs at least one JSON fact file or --csv relation=path")
    csv_sources: List[Tuple[str, str]] = []
    for spec in args.csv:
        relation, separator, path = spec.partition("=")
        if not separator or not relation or not path:
            parser.error(f"--csv expects RELATION=PATH, got {spec!r}")
        csv_sources.append((relation, path))
    with SQLiteFactStore(args.store) as store:
        total = 0
        for path in args.facts:
            loaded = store.load_json(path)
            total += loaded
            print(f"{path}: {loaded} facts")
        for relation, path in csv_sources:
            loaded = store.load_csv(path, relation)
            total += loaded
            print(f"{path} -> {relation}: {loaded} facts")
        print(f"{args.store}: {len(store)} facts total (+{total} this load)")
        for relation, arity, count in store.relations():
            print(f"  {relation}/{arity}: {count}")
    return 0


def _run_serve(args) -> int:
    """The ``serve`` command: run the audit daemon until shutdown.

    ``--workers N`` with N >= 2 boots the pre-forked fleet (a sharding
    router in front of N worker processes); the default and ``--workers
    1`` keep the single-process in-process daemon.
    """
    if getattr(args, "fault_plan", None):
        from .faults import FAULT_PLAN_ENV, FaultPlan

        FaultPlan.from_text(args.fault_plan)  # validate before booting
        os.environ[FAULT_PLAN_ENV] = args.fault_plan

    if args.workers is not None and args.workers >= 2:
        from .service.fleet import run_fleet

        options = {"workers": args.workers, "shard_queue_limit": args.queue_limit}
        if args.max_payload is not None:
            options["max_payload"] = args.max_payload
        if args.worker_threads is not None:
            options["worker_threads"] = args.worker_threads
        run_fleet(
            args.host,
            args.port,
            announce=lambda bound: print(
                f"repro-audit fleet ({args.workers} workers) listening on "
                f"{bound[0]}:{bound[1]}",
                flush=True,
            ),
            **options,
        )
        return 0

    from .service.server import run_server

    options = {"queue_limit": args.queue_limit}
    if args.workers is not None:
        options["workers"] = args.workers
    if args.max_payload is not None:
        options["max_payload"] = args.max_payload
    run_server(
        args.host,
        args.port,
        announce=lambda bound: print(
            f"repro-audit daemon listening on {bound[0]}:{bound[1]}", flush=True
        ),
        **options,
    )
    return 0


#: Structured service errors each get their own exit code so scripted
#: callers can distinguish "back off" from "retry now" from "give up".
_REQUEST_ERROR_EXITS = {
    "overloaded": 3,
    "worker-crashed": 4,
    "deadline-exceeded": 5,
}


def _request_parts(args, parser: argparse.ArgumentParser):
    """Assemble one service request from CLI flags (or ``--payload``).

    Returns ``(op, document, retry_policy)``; shared by ``request`` and
    ``trace``.
    """
    from .service.client import RetryPolicy

    if args.payload is not None:
        with open(args.payload, "r", encoding="utf8") as handle:
            document = json.load(handle)
        if not isinstance(document, dict) or "op" not in document:
            parser.error("--payload must hold a JSON object with an 'op' field")
    else:
        if args.op is None:
            parser.error(f"{args.command} needs --op (or --payload)")
        document = {"op": args.op}
        if args.schema is not None:
            with open(args.schema, "r", encoding="utf8") as handle:
                document["schema"] = json.load(handle)
        if args.secret is not None:
            document["secret"] = args.secret
        if args.view:
            document["views"] = _parse_views(args.view)
        if args.probability is not None:
            document["dictionary"] = {"tuple_probability": args.probability}
        if args.engine is not None:
            document["engine"] = args.engine

    if args.deadline_ms is not None:
        if args.deadline_ms <= 0:
            parser.error("--deadline-ms must be positive")
        document["deadline_ms"] = args.deadline_ms
    retry_policy = None
    if args.retries is not None:
        if args.retries < 1:
            parser.error("--retries must be at least 1 (1 = no retry)")
        if args.retries > 1:
            retry_policy = RetryPolicy(max_attempts=args.retries)
    return document.pop("op"), document, retry_policy


def _send_request(args, op: str, document: dict, retry_policy) -> dict:
    from .service.client import AuditServiceClient

    with AuditServiceClient(args.host, args.port, retry_policy=retry_policy) as client:
        return client.request(op, **{
            key: value for key, value in document.items() if key != "id"
        })


def _run_trace(args, parser: argparse.ArgumentParser) -> int:
    """The ``trace`` command: one traced request, rendered as a waterfall.

    Exit codes match ``request``; the span tree is the daemon's own
    (router plus worker for a fleet), printed to stdout.
    """
    from .obs import render_waterfall

    op, document, retry_policy = _request_parts(args, parser)
    document["trace"] = {"return": True}
    response = _send_request(args, op, document, retry_policy)
    if not response.get("ok"):
        error_doc = response.get("error") or {}
        code = error_doc.get("code", "internal")
        print(f"error: [{code}] {error_doc.get('message', 'unknown service error')}", file=sys.stderr)
        return _REQUEST_ERROR_EXITS.get(code, 2)
    trace_doc = (response.get("server") or {}).get("trace")
    if not isinstance(trace_doc, dict):
        print("error: the daemon returned no trace document", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(trace_doc, indent=2))
    else:
        print(render_waterfall(trace_doc))
    verdict = (response.get("result") or {}).get("verdict")
    if verdict is not None:
        print(f"verdict: {verdict}")
    return 1 if verdict is False else 0


def _run_top(args) -> int:
    """The ``top`` command: poll a daemon's stats and traces, render live."""
    import time as _time

    from .obs import render_top
    from .service.client import AuditServiceClient

    iteration = 0
    try:
        with AuditServiceClient(args.host, args.port) as client:
            while True:
                iteration += 1
                stats = client.request("stats")
                traces = client.request("traces")
                stats_doc = stats.get("result") if stats.get("ok") else {}
                traces_doc = traces.get("result") if traces.get("ok") else None
                if sys.stdout.isatty() and iteration > 1:
                    print("\x1b[2J\x1b[H", end="")
                print(f"repro-audit top — {args.host}:{args.port}  (poll {iteration})")
                print(render_top(stats_doc or {}, traces_doc))
                if args.iterations and iteration >= args.iterations:
                    return 0
                _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _run_subscribe(args, document: dict) -> int:
    """Stream a live session's notifications as JSON lines on stdout.

    Each ``apply-delta`` landing on the subscribed session prints one
    notification line (re-audited verdicts, flipped views).  Runs until
    the daemon closes the stream, ``--max-events`` notifications have
    arrived, or the user interrupts; all of those exit 0.
    """
    from .service.client import AuditServiceClient, ServiceError

    live = document.get("live")
    fields = {
        key: value for key, value in document.items() if key not in ("id", "live")
    }
    try:
        with AuditServiceClient(args.host, args.port) as client:
            count = 0
            for notification in client.subscribe(live, **fields):
                print(json.dumps(notification), flush=True)
                count += 1
                if args.max_events and count >= args.max_events:
                    break
    except ServiceError as error:
        print(f"error: [{error.code}] {error.message}", file=sys.stderr)
        return _REQUEST_ERROR_EXITS.get(error.code, 2)
    except KeyboardInterrupt:
        pass
    return 0


def _run_request(args, parser: argparse.ArgumentParser) -> int:
    """The ``request`` command: one operation against a running daemon.

    Exit codes mirror the local commands — 0 = ok (and not a
    disclosure), 1 = the analysis found a disclosure, 2 = transport/
    protocol/other errors — plus one distinct code per retryable-class
    service error: 3 = overloaded, 4 = worker-crashed, 5 =
    deadline-exceeded (each with a one-line ``error: [code] message``
    on stderr).
    """
    op, document, retry_policy = _request_parts(args, parser)
    if op == "subscribe":
        return _run_subscribe(args, document)
    if getattr(args, "trace", False):
        document["trace"] = {"return": True}
    response = _send_request(args, op, document, retry_policy)
    print(json.dumps(response, indent=2))
    if not response.get("ok"):
        error_doc = response.get("error") or {}
        code = error_doc.get("code", "internal")
        message = error_doc.get("message", "unknown service error")
        print(f"error: [{code}] {message}", file=sys.stderr)
        return _REQUEST_ERROR_EXITS.get(code, 2)
    verdict = (response.get("result") or {}).get("verdict")
    if op == "quick":
        # Mirror the local command: only the sound "certainly secure"
        # certificate exits 0; an inconclusive check exits 1.
        return 0 if verdict is True else 1
    return 1 if verdict is False else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "serve":
            return _run_serve(args)

        if args.command == "request":
            return _run_request(args, parser)

        if args.command == "trace":
            return _run_trace(args, parser)

        if args.command == "top":
            return _run_top(args)

        if args.command == "load":
            return _run_load(args, parser)

        if args.command == "plan":
            schema, dictionary, plan = load_publishing_plan(args.plan)
            session = AnalysisSession(schema, dictionary=dictionary, engine=args.engine)
            result = session.audit_plan(plan)
            print(result.render())
            if args.show_cache_stats:
                print(f"cache: {session.cache_stats!r}")
            return 0 if result.secure else 1

        schema, configured_dictionary = load_audit_configuration(args.schema)
        dictionary = _dictionary_for(args, schema) or configured_dictionary
        auditor = SecurityAuditor(schema, dictionary=dictionary)
        named_views = _parse_views(args.view)
        view_queries = list(named_views.values())

        if args.command == "decide":
            decision = auditor.decide(args.secret, view_queries)
            print(decision.explain())
            return 0 if decision.secure else 1

        if args.command == "quick":
            verdict = auditor.quick_check(args.secret, view_queries)
            print(verdict.explain())
            return 0 if verdict.certainly_secure else 1

        if args.command == "audit":
            report = auditor.audit(args.secret, named_views)
            if args.json:
                document = report.to_dict()
                document["observability"] = auditor.observability()
                print(json.dumps(document, indent=2))
            else:
                print(report.render())
            return 0 if report.all_secure else 1

        if args.command == "leakage":
            if dictionary is None:
                parser.error(
                    "leakage measurement needs --probability or a dictionary in the schema file"
                )
            result = auditor.measure_leakage(args.secret, view_queries, dictionary=dictionary)
            print(f"leak(S, V̄) = {float(result.leakage):.6g}")
            if result.worst_secret_rows is not None:
                print(f"worst secret rows: {result.worst_secret_rows}")
                print(f"worst view rows:   {result.worst_view_rows}")
                print(
                    f"prior {float(result.prior):.6g} -> posterior {float(result.posterior):.6g}"
                )
            return 0 if result.leakage == 0 else 1

        if args.command == "collusion":
            outcome = auditor.session.collusion(args.secret, named_views)
            print(outcome.report.summary())
            return 0 if outcome.secure else 1

        parser.error(f"unknown command {args.command!r}")
        return 2
    except OSError as error:
        # Unreadable schema/plan files must not exit 1: that status means
        # "disclosure found" and is consumed by CI gates.
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
