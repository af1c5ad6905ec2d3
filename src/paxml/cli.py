"""Command-line interface: ``python -m paxml <command> …``.

Systems are described in ``.axml`` files — a directive-based format::

    % the paper's Example 3.2
    @document d0
    r{t{c0{1}, c1{2}}, t{c0{2}, c1{3}}}

    @document d1
    r{!g, !f}

    @service g
    t{c0{$x}, c1{$y}} :- d0/r{t{c0{$x}, c1{$y}}}

    @service f
    t{c0{$x}, c1{$y}} :- d1/r{t{c0{$x}, c1{$z}}, t{c0{$z}, c1{$y}}}

Each ``@document NAME`` is followed by one tree in compact syntax; each
``@service NAME`` by one or more ``;``-separated rules.  ``%`` comments
and blank lines are free.  Commands:

* ``materialize FILE``            — rewrite to the fixpoint and print it
* ``run FILE``                    — rewrite with periodic checkpointing
  (``--checkpoint PATH --checkpoint-every N``); suspendable, resumable
* ``resume BUNDLE``               — continue a checkpointed run from its
  bundle (``--engine`` finishes it on the other engine, ``--replay``
  rebuilds the state from the seed snapshot + graft log first)
* ``run-async FILE``              — same, through the concurrent runtime
  (``--concurrency``, per-call ``--call-timeout``, ``--fault-rate`` …)
* ``query FILE RULE``             — evaluate a query (snapshot by default;
  ``--full`` materialises first, ``--lazy`` invokes only relevant calls)
* ``analyze FILE``                — classification, dependency cycles,
  termination verdict
* ``plan FILE [RULE]``            — print the compiled match plan (sibling
  order, constant subpatterns, probes, join order) of a rule, or of every
  positive service when the rule is omitted
* ``translate FILE RULE``         — apply ψ and print the translated system
* ``export FILE DOCUMENT``        — emit one document as XML
* ``explain FILE [--node UID]``   — materialize under tracing and print a
  node's full derivation chain (which rule grafted it, matched against
  which nodes, at which step) — or list every graft
* ``trace FILE``                  — run under tracing and write the event
  log (JSONL) plus a Chrome trace for chrome://tracing / Perfetto
* ``serve``                       — start the multi-tenant JSONL/TCP
  server (``--tenant NAME=FILE`` preloads systems; ``--spool DIR``
  enables suspend/resume and restart)
* ``client REQUEST…``             — send JSONL requests to a running
  server and print responses (``--follow N`` keeps listening for
  subscription delta pushes)
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import obs, perf
from .analysis import analyze_termination, lazy_evaluate, translate
from .query import evaluate_snapshot, parse_query
from .system import AXMLSystem, dependency_graph, materialize
from .system.loader import SystemFileError, parse_system_text
from .tree import to_canonical, to_xml_string
from .tree.parser import ParseError


class CliError(SystemExit):
    def __init__(self, message: str):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(2)


def parse_system_file(text: str, filename: str = "<input>") -> AXMLSystem:
    """Parse the directive-based ``.axml`` format described above.

    Thin CLI wrapper over :func:`paxml.system.loader.parse_system_text`
    (the serve layer uses the loader directly — its errors are plain
    values, not exiting ``CliError``\\ s).
    """
    try:
        return parse_system_text(text, filename)
    except SystemFileError as exc:
        raise CliError(str(exc))


def _load(path: str) -> AXMLSystem:
    try:
        with open(path) as handle:
            return parse_system_file(handle.read(), path)
    except OSError as exc:
        raise CliError(str(exc))


def _parse_rule(text: str):
    try:
        return parse_query(text)
    except ParseError as exc:
        raise CliError(f"in query: {exc}")


def cmd_materialize(args) -> int:
    system = _load(args.file)
    result = materialize(system, max_steps=args.max_steps,
                         scheduler=args.scheduler)
    print(f"status: {result.status.value}  "
          f"steps: {result.steps}  productive: {result.productive_steps}")
    print(system.pretty())
    return 0


def _lazy_queries(args) -> Optional[List]:
    """The parsed goal set of ``--lazy --query Q [--query Q2 …]``."""
    if not getattr(args, "lazy", False):
        return None
    texts = getattr(args, "queries", None) or []
    if not texts:
        raise CliError("--lazy needs at least one --query (the goal set)")
    return [_parse_rule(text) for text in texts]


def cmd_run(args) -> int:
    from .system.rewriting import RewritingEngine

    system = _load(args.file)
    lazy_for = _lazy_queries(args)
    if getattr(args, "shards", 1) and args.shards > 1:
        if getattr(args, "fire_once", False):
            raise CliError("--fire-once is per-process (feeder live-counts "
                           "are local); it cannot combine with --shards")
        return _run_sharded(system, args)
    engine = RewritingEngine(system, scheduler=args.scheduler,
                             checkpoint_every=args.checkpoint_every,
                             checkpoint_path=args.checkpoint,
                             lazy_for=lazy_for,
                             fire_once=getattr(args, "fire_once", False))
    result = engine.run(max_steps=args.max_steps)
    print(f"status: {result.status.value}  "
          f"steps: {result.steps}  productive: {result.productive}  "
          f"checkpoints: {result.checkpoints}")
    scheduler = engine.kernel.scheduler
    if lazy_for is not None or getattr(args, "fire_once", False):
        print(f"lazy: dormant {scheduler.dormant_count()}  "
              f"retired {scheduler.retired_count()}  "
              f"skipped {scheduler.skipped_unneeded}  "
              f"promoted {scheduler.dormant_promotions}")
    if args.checkpoint is not None:
        print(f"bundle: {args.checkpoint}")
    if lazy_for is not None:
        for index, query in enumerate(lazy_for):
            answer = evaluate_snapshot(query, system.environment())
            print(f"query {index}: "
                  + (answer.pretty() if len(answer) else "(empty result)"))
    print(system.pretty())
    return 0


def _run_sharded(system, args) -> int:
    from .shard import ShardError, run_sharded
    from .system.system import AXMLSystem

    try:
        result = run_sharded(system, args.shards, mode=args.shard_mode,
                             engine=args.shard_engine,
                             config={"max_invocations": args.max_steps},
                             lazy_queries=(getattr(args, "queries", None)
                                           if getattr(args, "lazy", False)
                                           else None))
    except ShardError as exc:
        raise CliError(str(exc))
    print(f"shards: {args.shards}  rounds: {result.rounds}  "
          f"records: {result.records}  respawns: {result.respawns}  "
          f"replay: {'ok' if result.replay_ok else 'DIVERGED'}  "
          f"wall: {result.wall_seconds:.3f}s")
    for shard in range(args.shards):
        owned = ", ".join(result.plan.owned(shard)) or "-"
        cpu = result.cpu_seconds.get(shard, 0.0)
        stats = result.worker_stats.get(shard, {})
        print(f"  shard {shard}: docs [{owned}]  cpu {cpu:.3f}s  "
              f"shipped {stats.get('shard_records_shipped', 0)}  "
              f"applied {stats.get('shard_records_applied', 0)}")
    for failure in result.failures:
        print(f"failed: {failure}", file=sys.stderr)
    merged = AXMLSystem(list(result.documents.values()),
                        list(system.services.values()),
                        validate=False, reduce=False)
    print(merged.pretty())
    if not result.replay_ok:
        for error in result.replay_errors:
            print(f"replay: {error}", file=sys.stderr)
        return 1
    return 0 if not result.failures else 1


def cmd_resume(args) -> int:
    from .kernel import resume
    from .runtime import RuntimeConfig
    from .system.rewriting import RewritingEngine

    engine = resume(args.bundle, engine=args.engine, replay=args.replay,
                    config=RuntimeConfig(max_invocations=args.max_steps))
    result = (engine.run(max_steps=args.max_steps)
              if isinstance(engine, RewritingEngine) else engine.run())
    print(f"status: {result.status.value}  "
          f"steps: {result.steps}  productive: {result.productive}  "
          f"resumed from: {result.resumed_from}")
    print(engine.system.pretty())
    return 0 if result.terminated else 1


def cmd_run_async(args) -> int:
    from .runtime import (FaultInjector, LocalTransport, RuntimeConfig,
                          AsyncRuntime)

    system = _load(args.file)
    config = RuntimeConfig(
        concurrency=args.concurrency,
        call_timeout=args.call_timeout,
        max_attempts=args.max_attempts,
        max_invocations=args.max_steps,
        deadline=args.deadline,
        seed=args.seed,
    )
    injector = None
    if args.fault_rate:
        # Spread the requested rate over the four fault kinds.
        quarter = args.fault_rate / 4.0
        injector = FaultInjector(seed=args.seed or 0, drop_rate=quarter,
                                 error_rate=quarter, delay_rate=quarter,
                                 duplicate_rate=quarter)
    transport = LocalTransport(system, latency=args.latency or None)
    runtime = AsyncRuntime(system, transport=transport, config=config,
                           injector=injector)
    result = runtime.run()
    print(f"status: {result.status.value}  "
          f"invocations: {result.invocations}  "
          f"productive: {result.productive_grafts}  "
          f"attempts: {result.attempts}  "
          f"wall: {result.duration_seconds:.3f}s")
    for failure in result.failures:
        print(f"failed: !{failure.service} in {failure.document!r} "
              f"after {failure.attempts} attempts — {failure.reason}",
              file=sys.stderr)
    if args.metrics:
        print(json.dumps(result.metrics.snapshot(), indent=2, sort_keys=True))
    print(system.pretty())
    return 0 if result.terminated else 1


def cmd_query(args) -> int:
    system = _load(args.file)
    query = _parse_rule(args.rule)
    if args.lazy:
        outcome = lazy_evaluate(system, query, max_invocations=args.max_steps)
        print(f"lazy: {outcome.invocations} invocations, "
              f"stable: {outcome.stable}")
        answer = outcome.answer
    elif args.full:
        result = materialize(system, max_steps=args.max_steps)
        print(f"materialised: {result.status.value} ({result.steps} steps)")
        answer = evaluate_snapshot(query, system.environment())
    else:
        answer = evaluate_snapshot(query, system.environment())
    print(answer.pretty() if len(answer) else "(empty result)")
    return 0


def cmd_analyze(args) -> int:
    system = _load(args.file)
    print(f"documents: {sorted(system.documents)}")
    print(f"services:  {sorted(system.services)}")
    print(f"positive:  {system.is_positive}")
    print(f"simple:    {system.is_simple}")
    graph = dependency_graph(system)
    cyclic = sorted(graph.cyclic_vertices())
    print(f"acyclic:   {not cyclic}" + (f"  (cycle through {cyclic})"
                                        if cyclic else ""))
    report = analyze_termination(system, max_steps=args.max_steps)
    print(f"termination: {report.status.value} "
          f"({report.steps} saturation steps, "
          f"{report.configs_seen} configurations)")
    if report.witness:
        print(f"  divergence witness chain: {len(report.witness)} configs, "
              f"repeating {report.witness[0][0]!r}")
    if getattr(args, "queries", None):
        _relevance_report(system, graph,
                          [_parse_rule(text) for text in args.queries])
    return 0


def _relevance_report(system, graph, queries) -> None:
    """Static §4 relevance report: what a lazy run for ``queries`` would
    and would not invoke — without running anything."""
    from .analysis import RelevanceTracker

    tracker = RelevanceTracker(system, queries)
    relevant = {node.uid for _, node in tracker.relevant_sites()}
    print(f"relevance (goal set: {len(queries)} queries, "
          f"{tracker.goal_count} goals):")
    rows = []
    for document, node in system.call_sites():
        verdict = "weakly relevant" if node.uid in relevant else "unneeded"
        rows.append((document.name, node.marking.name, node.uid, verdict))
    for doc_name, service, uid, verdict in sorted(rows):
        print(f"  !{service:<18} {doc_name}#{uid:<6} {verdict}")
    total = len(rows)
    needed = sum(1 for row in rows if row[3] == "weakly relevant")
    print(f"  {needed}/{total} call sites weakly relevant "
          f"({total - needed} would stay dormant)")
    recursive = graph.recursive_functions()
    eligible = sorted(name for name in system.services
                      if name not in recursive)
    print(f"fire-once eligible: {', '.join(eligible) or '(none)'}"
          + (f"  (recursive: {', '.join(sorted(recursive))})"
             if recursive else ""))


def cmd_translate(args) -> int:
    system = _load(args.file)
    query = _parse_rule(args.rule)
    result = translate(system, query)
    print(f"% ψ(I, q) — simplicity preserved: {result.preserves_simplicity}")
    for name, document in result.system.documents.items():
        print(f"@document {name}")
        print(to_canonical(document.root))
        print()
    for name, service in result.system.services.items():
        print(f"@service {name}")
        queries = getattr(service, "queries", [])
        print(";\n".join(str(rule) for rule in queries))
        print()
    print(f"% translated query:\n% {result.query}")
    return 0


def cmd_export(args) -> int:
    system = _load(args.file)
    document = system.documents.get(args.document)
    if document is None:
        raise CliError(f"no document {args.document!r} "
                       f"(have {sorted(system.documents)})")
    print(to_xml_string(document.root))
    return 0


def _node_texts(system: AXMLSystem, limit: int = 60) -> Dict[int, str]:
    """uid → canonical text for every node currently in the documents."""
    texts: Dict[int, str] = {}
    for document in system.documents.values():
        for node in document.root.iter_nodes():
            text = to_canonical(node)
            if len(text) > limit:
                text = text[:limit - 3] + "..."
            texts[node.uid] = text
    return texts


def _plan_order_lines(system: AXMLSystem) -> List[str]:
    """One compact line per positive service rule: its chosen plan order."""
    from .query.plan import compile_query

    lines: List[str] = []
    environment = system.environment()
    for name in sorted(system.services):
        for rule in getattr(system.services[name], "queries", []):
            plan = compile_query(rule)
            try:
                order = plan.join_order(environment)
            except KeyError:  # rule reads input/context: no census available
                order = list(range(len(plan.atoms)))
            rendered = " → ".join(
                f"{plan.atoms[i].document}[{i}]" for i in order) or "(no body)"
            lines.append(f"plan !{name}: {rendered}")
    return lines


def cmd_plan(args) -> int:
    from .query.plan import describe_plan

    system = _load(args.file)
    environment = system.environment()
    rules = None
    if args.rule is not None:
        rules = [_parse_rule(args.rule)]
        print(describe_plan(rules[0], environment))
    else:
        first = True
        for name in sorted(system.services):
            for rule in getattr(system.services[name], "queries", []):
                if not first:
                    print()
                first = False
                print(f"service !{name}")
                print(describe_plan(rule, environment))
        if first:
            print("(no positive services)")
    if getattr(args, "stats", False):
        _print_plan_stats(system, environment, rules)
    return 0


def _print_plan_stats(system, environment, rules) -> None:
    """Evaluate the planned rules once and report the counters they hit."""
    from . import perf
    from .query.matching import evaluate_snapshot
    from .tree import store as tree_store

    if rules is None:
        rules = [rule for name in sorted(system.services)
                 for rule in getattr(system.services[name], "queries", [])]
    perf.stats.reset()
    for rule in rules:
        try:
            evaluate_snapshot(rule, environment)
        except KeyError:
            continue  # rule reads a document this system does not declare
    snapshot = perf.stats.snapshot()
    print()
    print("engine counters (one snapshot evaluation per rule):")
    for counter in ("plan_compilations", "closure_compilations",
                    "const_subpattern_tests", "bitset_rejects",
                    "subsumption_early_rejects", "store_rebuild_patches",
                    "store_graft_patches"):
        print(f"  {counter}: {snapshot.get(counter, 0)}")
    sizes = tree_store.store_sizes()
    print(f"  interned markings: {sizes['interned_markings']}")


def cmd_explain(args) -> int:
    system = _load(args.file)
    initial_texts = _node_texts(system)
    plan_lines = _plan_order_lines(system)
    recorder = obs.TraceRecorder()
    with obs.tracing(recorder):
        result = materialize(system, max_steps=args.max_steps,
                             scheduler=args.scheduler)
    index = recorder.provenance()
    print(f"status: {result.status.value}  steps: {result.steps}  "
          f"grafts: {len(index)}  derived nodes: {len(index.derived_uids())}")
    for line in plan_lines:
        print(line)
    if args.node is None and args.graft is None:
        for derivation in index.roots():
            print(f"node {derivation.root} = {derivation.text}: "
                  f"{derivation.headline()}")
        return 0
    if args.node is None:
        # Run-relative addressing: node uids shift between processes once
        # anything else has allocated nodes, graft ordinals don't.
        try:
            root = index.roots()[args.graft].root
        except IndexError:
            raise CliError(f"graft index {args.graft} out of range "
                           f"(this run grafted {len(index)} trees)")
        print(index.format_explain(root, node_texts=initial_texts))
        return 0
    if index.derivation_of(args.node) is None:
        if args.node in initial_texts:
            print(f"node {args.node} = {initial_texts[args.node]}: "
                  f"initial data")
            return 0
        raise CliError(
            f"no node with uid {args.node} in this run "
            f"(grafted roots: {sorted(d.root for d in index.roots())})")
    print(index.format_explain(args.node, node_texts=initial_texts))
    return 0


def _split_endpoint(spec: str) -> Tuple[str, int]:
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise CliError(f"--serve wants HOST:PORT, got {spec!r}")
    return host, int(port)


def _trace_serve(args) -> int:
    """``paxml trace --serve HOST:PORT`` — tail spans from a live server."""
    import asyncio

    from .serve.client import ServeClient, ServeError

    host, port = _split_endpoint(args.serve)

    async def _tail() -> int:
        try:
            client = await ServeClient.connect(host, port)
        except OSError as exc:
            raise CliError(f"cannot reach {host}:{port}: {exc}")
        loop = asyncio.get_event_loop()
        deadline = (None if args.duration is None
                    else loop.time() + args.duration)
        try:
            watch_id = await client.watch()
            while deadline is None or loop.time() < deadline:
                span = await client.next_span(watch_id, timeout=0.5)
                if span is not None:
                    print(json.dumps(span, sort_keys=True), flush=True)
            try:
                await client.unwatch(watch_id)
            except ServeError:
                pass
        finally:
            await client.close()
        return 0

    try:
        return asyncio.run(_tail())
    except KeyboardInterrupt:
        return 0


def cmd_trace(args) -> int:
    from .obs.exporters import (prometheus_text, write_chrome_trace,
                                write_jsonl)

    if args.serve:
        return _trace_serve(args)
    if args.file is None:
        raise CliError("trace needs an .axml file (or --serve HOST:PORT)")
    system = _load(args.file)
    recorder = obs.TraceRecorder()
    with obs.tracing(recorder):
        if args.engine == "async":
            from .runtime import AsyncRuntime, LocalTransport, RuntimeConfig

            config = RuntimeConfig(concurrency=args.concurrency,
                                   max_invocations=args.max_steps)
            transport = LocalTransport(system, latency=args.latency or None)
            result = AsyncRuntime(system, transport=transport,
                                  config=config).run()
        else:
            result = materialize(system, max_steps=args.max_steps)
    base = args.out or os.path.splitext(args.file)[0]
    events_path = base + ".events.jsonl"
    trace_path = base + ".trace.json"
    write_jsonl(recorder.events, events_path)
    write_chrome_trace(recorder.events, trace_path)
    kinds: Dict[str, int] = {}
    for event in recorder.events:
        kinds[event.kind] = kinds.get(event.kind, 0) + 1
    print(f"status: {result.status.value}  engine: {args.engine}  "
          f"events: {len(recorder.events)}")
    print("  " + "  ".join(f"{kind}: {count}"
                           for kind, count in sorted(kinds.items())))
    index = recorder.provenance()
    print(f"grafts: {len(index)}  derived nodes: {len(index.derived_uids())}")
    print(f"event log:    {events_path}")
    print(f"chrome trace: {trace_path}  "
          f"(load in chrome://tracing or https://ui.perfetto.dev)")
    if args.metrics:
        print(prometheus_text())
    return 0 if result.terminated else 1


def cmd_serve(args) -> int:
    import asyncio

    from .runtime.policy import RuntimeConfig
    from .serve.server import PaxmlServer, ServerOptions

    options = ServerOptions(
        host=args.host, port=args.port, spool_dir=args.spool,
        workers=args.workers,
        slice_attempts=args.slice_attempts,
        idle_suspend=args.idle_suspend,
        trace_sample_rate=args.trace_sample_rate,
        watchdog_deadline=args.watchdog_deadline or None,
        flight_capacity=args.flight_capacity,
        config=RuntimeConfig(concurrency=args.concurrency,
                             call_timeout=args.call_timeout))
    preload: List[Tuple[str, str]] = []
    for spec in args.tenant or []:
        name, _, path = spec.partition("=")
        if not path:
            raise CliError(f"--tenant wants NAME=FILE, got {spec!r}")
        try:
            with open(path) as handle:
                preload.append((name, handle.read()))
        except OSError as exc:
            raise CliError(str(exc))

    async def _serve() -> None:
        server = PaxmlServer(options)
        await server.start()
        for name, text in preload:
            if server.pool is not None:
                await server.pool.place(name, text)
            else:
                server.create_tenant(name, text)
        print(f"paxml serve: listening on {options.host}:{server.port}"
              + (f"  spool={options.spool_dir}" if options.spool_dir else "")
              + (f"  tenants={len(preload)}" if preload else ""))
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.shutdown()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("paxml serve: stopped")
    return 0


def cmd_client(args) -> int:
    import asyncio

    from .serve.client import ServeClient, ServeError

    requests: List[dict] = []
    for text in args.request:
        try:
            requests.append(json.loads(text))
        except json.JSONDecodeError as exc:
            raise CliError(f"bad request {text!r}: {exc}")

    async def _run() -> int:
        try:
            client = await ServeClient.connect(args.host, args.port)
        except OSError as exc:
            raise CliError(f"cannot reach {args.host}:{args.port}: {exc}")
        status = 0
        try:
            for request in requests:
                op = request.pop("op", None)
                if op is None:
                    raise CliError("each request needs an \"op\"")
                try:
                    response = await client.request(op, **request)
                    print(json.dumps(response, sort_keys=True))
                except ServeError as exc:
                    print(json.dumps({"ok": False, "error": str(exc)}))
                    status = 1
            if args.follow:
                deadline = asyncio.get_event_loop().time() + args.follow
                subs = list(client._deltas)
                while asyncio.get_event_loop().time() < deadline and subs:
                    for sub_id in subs:
                        batch = await client.next_delta(sub_id, timeout=0.2)
                        if batch:
                            print(json.dumps({"push": "delta", "sub": sub_id,
                                              "answers": batch}))
        finally:
            await client.close()
        return status

    try:
        return asyncio.run(_run())
    except KeyboardInterrupt:
        return 130


def _render_top(stats: dict, previous: Dict[str, int],
                interval: Optional[float]) -> List[str]:
    """One ``paxml top`` frame from a no-tenant ``stats`` response."""
    tenants = stats.get("tenants", [])
    watchdog = stats.get("watchdog", {})
    burn: Dict[str, float] = {}
    for row in stats.get("slo", []):
        burn[row["tenant"]] = max(burn.get(row["tenant"], 0.0),
                                  row.get("burn_rate", 0.0))
    shards = stats.get("shards")
    live = sum(1 for t in tenants if not t["suspended"])
    stalled = sum(1 for t in tenants if t.get("stalled"))
    lines = [f"paxml top — {len(tenants)} tenants ({live} live, "
             f"{stalled} stalled); watchdog deadline "
             f"{watchdog.get('deadline')}"]
    if shards:
        # One lane per session host: placement, queue depth, and the
        # replication lag (graft-log records not yet in a bundle).
        lines.append(f"{'SHARD':<7}{'PLACED':>8}{'QUEUE':>8}{'LAG':>8}"
                     f"{'CPU':>9}")
        for report in shards:
            label = str(report.get("shard", "?"))
            if report.get("down"):
                lines.append(f"{label:<7}{'DOWN':>8}")
                continue
            lines.append(
                f"{label:<7}{report.get('placed', 0):>8}"
                f"{report.get('queue_depth', 0):>8}"
                f"{report.get('replication_lag', 0):>8}"
                f"{report.get('cpu_seconds', 0.0):>9.2f}")
    shard_head = f"{'SH':<4}" if shards is not None else ""
    lines.append(f"{'TENANT':<16}{shard_head}"
                 f"{'STATE':<11}{'GRAFTS':>8}{'G/S':>8}"
                 f"{'ATTEMPTS':>9}{'FRESH':>7}{'PARKED':>7}{'TRIED':>7}"
                 f"{'LAZY':>7}{'SUBS':>6}{'BURN':>8}")
    for t in sorted(tenants, key=lambda entry: entry["tenant"]):
        name = t["tenant"]
        rate = 0.0
        if interval and name in previous:
            rate = max(t["productive"] - previous[name], 0) / interval
        previous[name] = t["productive"]
        state = ("suspended" if t["suspended"]
                 else "STALLED" if t.get("stalled") else "live")
        queues = t.get("queues", {})
        shard_cell = ""
        if shards is not None:
            shard = t.get("shard")
            shard_cell = f"{'-' if shard is None else shard:<4}"
        lazy = t.get("lazy")
        # "-" = eager tenant; a lazy one shows dormant(+retired) sites.
        lazy_cell = "-" if not lazy else (
            f"{lazy.get('dormant', 0)}"
            + (f"+{lazy['retired']}r" if lazy.get("retired") else ""))
        lines.append(
            f"{name:<16}{shard_cell}"
            f"{state:<11}{t['productive']:>8}{rate:>8.1f}"
            f"{t['attempts']:>9}{queues.get('fresh', 0):>7}"
            f"{queues.get('parked', 0):>7}{queues.get('tried', 0):>7}"
            f"{lazy_cell:>7}{t['subscribers']:>6}{burn.get(name, 0.0):>8.2f}")
    breached = [row for row in stats.get("slo", []) if row.get("breached")]
    for row in breached:
        lines.append(f"  SLO BREACH {row['slo']} tenant={row['tenant']} "
                     f"burn={row['burn_rate']:.2f} "
                     f"bad={row['bad_total']}/{row['observed']}")
    return lines


def cmd_top(args) -> int:
    import asyncio

    from .serve.client import ServeClient

    async def _top() -> int:
        try:
            client = await ServeClient.connect(args.host, args.port)
        except OSError as exc:
            raise CliError(f"cannot reach {args.host}:{args.port}: {exc}")
        previous: Dict[str, int] = {}
        last_time: Optional[float] = None
        frames = 0
        try:
            while True:
                stats = await client.request("stats")
                now = asyncio.get_event_loop().time()
                interval = None if last_time is None else now - last_time
                last_time = now
                print("\n".join(_render_top(stats, previous, interval)),
                      flush=True)
                frames += 1
                if args.iterations and frames >= args.iterations:
                    return 0
                await asyncio.sleep(args.interval)
        finally:
            await client.close()

    try:
        return asyncio.run(_top())
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="paxml",
        description="Positive Active XML (PODS 2004) — reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("file", help="an .axml system file")
        p.add_argument("--max-steps", type=int, default=100_000,
                       help="invocation budget (default 100000)")

    p = sub.add_parser("materialize", help="rewrite to the fixpoint")
    common(p)
    p.add_argument("--scheduler", default="round_robin",
                   choices=["round_robin", "random", "lifo"])
    p.set_defaults(fn=cmd_materialize)

    p = sub.add_parser("run",
                       help="rewrite to the fixpoint with periodic "
                            "checkpointing")
    common(p)
    p.add_argument("--scheduler", default="round_robin",
                   choices=["round_robin", "random", "lifo"])
    p.add_argument("--checkpoint", default=None, metavar="PATH",
                   help="write resumable JSONL bundles to PATH")
    p.add_argument("--checkpoint-every", type=int, default=None, metavar="N",
                   help="checkpoint every N completed invocations "
                        "(requires --checkpoint)")
    p.add_argument("--shards", type=int, default=1, metavar="N",
                   help="partition the documents across N worker processes "
                        "with graft-log replication (default 1 = in-process)")
    p.add_argument("--shard-mode", default="replicate",
                   choices=["replicate", "route"],
                   help="replicate: all workers evaluate locally; route: "
                        "ship calls to the shard owning the read documents")
    p.add_argument("--shard-engine", default="async",
                   choices=["async", "sequential"],
                   help="the engine each shard worker runs (default async)")
    p.add_argument("--lazy", action="store_true",
                   help="relevance-guided scheduling: invoke only the calls "
                        "weakly relevant to the --query goal set; the run "
                        "stabilizes (answers exact) instead of terminating")
    p.add_argument("--query", action="append", dest="queries", metavar="RULE",
                   help="a goal query for --lazy (repeatable)")
    p.add_argument("--fire-once", action="store_true",
                   help="retire non-recursive services once their feeders "
                        "quiesce (single-process only)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("resume",
                       help="continue a checkpointed run from its bundle")
    p.add_argument("bundle", help="a JSONL checkpoint bundle")
    p.add_argument("--max-steps", type=int, default=100_000,
                   help="cumulative invocation budget (default 100000)")
    p.add_argument("--engine", default=None,
                   choices=["sequential", "async"],
                   help="finish on this engine (default: the bundle's own)")
    p.add_argument("--replay", action="store_true",
                   help="rebuild the documents by replaying the graft log "
                        "against the seed snapshot (validated against the "
                        "direct snapshot)")
    p.set_defaults(fn=cmd_resume)

    p = sub.add_parser("run-async",
                       help="materialize through the concurrent runtime")
    common(p)
    p.add_argument("--concurrency", type=int, default=8,
                   help="max calls in flight (default 8)")
    p.add_argument("--call-timeout", type=float, default=5.0,
                   help="per-attempt deadline in seconds (default 5)")
    p.add_argument("--max-attempts", type=int, default=4,
                   help="tries per invocation incl. retries (default 4)")
    p.add_argument("--deadline", type=float, default=None,
                   help="global wall-clock budget in seconds")
    p.add_argument("--latency", type=float, default=0.0,
                   help="simulated per-call latency in seconds")
    p.add_argument("--fault-rate", type=float, default=0.0,
                   help="inject drop/error/delay/duplicate faults at this "
                        "total per-attempt rate")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for jitter and the fault schedule")
    p.add_argument("--metrics", action="store_true",
                   help="print the runtime metrics snapshot as JSON")
    p.set_defaults(fn=cmd_run_async)

    p = sub.add_parser("query", help="evaluate a positive query")
    common(p)
    p.add_argument("rule", help="a rule, e.g. 'out{$x} :- d/a{$x}'")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--full", action="store_true",
                      help="materialise first ([q](I))")
    mode.add_argument("--lazy", action="store_true",
                      help="invoke only weakly relevant calls")
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("analyze", help="classify and decide termination")
    common(p)
    p.add_argument("--query", action="append", dest="queries", metavar="RULE",
                   help="also print the §4 relevance report for this goal "
                        "query (repeatable): which call sites a lazy run "
                        "would invoke, which stay dormant, and which "
                        "services are fire-once eligible")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("plan",
                       help="print the compiled match plan of a query (or "
                            "of every positive service)")
    common(p)
    p.add_argument("rule", nargs="?", default=None,
                   help="a rule to plan; omit to plan all service rules")
    p.add_argument("--stats", action="store_true",
                   help="evaluate each planned rule once against the system "
                        "and print the engine counters (bitset rejects, "
                        "closure lowerings, store shape) it exercised")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("translate", help="apply the ψ translation")
    common(p)
    p.add_argument("rule", help="a positive+reg query")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("export", help="emit a document as XML")
    common(p)
    p.add_argument("document", help="document name")
    p.set_defaults(fn=cmd_export)

    p = sub.add_parser("explain",
                       help="trace a materialization and explain how a "
                            "node was derived")
    common(p)
    p.add_argument("--node", type=int, default=None,
                   help="uid of the node to explain "
                        "(omit to list every graft)")
    p.add_argument("--graft", type=int, default=None,
                   help="explain the N-th grafted tree of this run "
                        "(negative counts from the end)")
    p.add_argument("--scheduler", default="round_robin",
                   choices=["round_robin", "random", "lifo"])
    p.set_defaults(fn=cmd_explain)

    p = sub.add_parser("trace",
                       help="run under tracing; write the JSONL event log "
                            "and a Chrome trace — or tail live spans from "
                            "a running server (--serve)")
    p.add_argument("file", nargs="?", default=None,
                   help="an .axml system file (omit with --serve)")
    p.add_argument("--max-steps", type=int, default=100_000,
                   help="invocation budget (default 100000)")
    p.add_argument("--serve", default=None, metavar="HOST:PORT",
                   help="tail causal spans from a live server as JSONL "
                        "instead of tracing a local run")
    p.add_argument("--duration", type=float, default=None,
                   help="with --serve: stop tailing after this many seconds "
                        "(default: until interrupted)")
    p.add_argument("--engine", default="sequential",
                   choices=["sequential", "async"])
    p.add_argument("--concurrency", type=int, default=8,
                   help="async engine: max calls in flight (default 8)")
    p.add_argument("--latency", type=float, default=0.0,
                   help="async engine: simulated per-call latency")
    p.add_argument("--out", default=None,
                   help="output base path (default: the input file stem)")
    p.add_argument("--metrics", action="store_true",
                   help="print the unified metrics registry in Prometheus "
                        "text format")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("serve",
                       help="start the multi-tenant JSONL/TCP server")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 = ephemeral; default 8642)")
    p.add_argument("--tenant", action="append", metavar="NAME=FILE",
                   help="preload a tenant from an .axml file (repeatable)")
    p.add_argument("--spool", default=None,
                   help="spool directory: enables suspend/resume and "
                        "restart from checkpoint bundles")
    p.add_argument("--workers", type=int, default=0, metavar="N",
                   help="place tenant sessions on N shard worker "
                        "processes; suspend/resume migrates tenants "
                        "between workers (default 0 = in-process)")
    p.add_argument("--slice-attempts", type=int, default=64,
                   help="admission quantum: attempts per tenant slice "
                        "(default 64)")
    p.add_argument("--idle-suspend", type=float, default=None,
                   help="spool tenants idle for this many seconds")
    p.add_argument("--concurrency", type=int, default=8,
                   help="per-tenant calls in flight (default 8)")
    p.add_argument("--call-timeout", type=float, default=5.0,
                   help="per-call deadline in seconds (default 5)")
    p.add_argument("--trace-sample-rate", type=float, default=None,
                   help="head-sampling rate for request traces "
                        "(default 0.1; 1.0 = trace everything)")
    p.add_argument("--watchdog-deadline", type=float, default=5.0,
                   help="flag sessions whose frontier stalls this long "
                        "(0 disables; default 5)")
    p.add_argument("--flight-capacity", type=int, default=512,
                   help="flight-recorder ring size per tenant (default 512)")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("top",
                       help="live per-tenant view of a running server "
                            "(grafts/s, queues, SLO burn, watchdog)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--interval", type=float, default=2.0,
                   help="seconds between frames (default 2)")
    p.add_argument("--iterations", type=int, default=None,
                   help="stop after N frames (default: until interrupted)")
    p.set_defaults(fn=cmd_top)

    p = sub.add_parser("client",
                       help="send JSONL requests to a running server")
    p.add_argument("request", nargs="+",
                   help="a JSON request object, e.g. "
                        "'{\"op\": \"tenants\"}'")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8642)
    p.add_argument("--follow", type=float, default=None, metavar="SECONDS",
                   help="after the requests, keep printing subscription "
                        "delta pushes for this long")
    p.set_defaults(fn=cmd_client)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    # One CLI invocation is one run: start the perf switchboard from zero
    # so back-to-back main() calls (tests, scripts) don't inherit counters
    # from a previous run.  Process-level caches are dropped too — their
    # overflow clears are fill-dependent, so inherited entries would make
    # identical runs report different hit/miss counts.
    perf.stats.reset()
    perf.clear_caches()
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
