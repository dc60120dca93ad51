"""The traced run: the workload's generated operations, replayed through
each layer's public functions, with a span around every call.

Spans are recorded by the benchmark's own code around calls into the
program (none inside it).  A layer's self time is the median of the
enclosing call minus the median of the enclosed call on the same
operations (``perf_math.self_time``).  Counters come from the server's
``stats`` op.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import random
import resource
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import (
    CountingYannakakisEvaluator,
    Database,
    NaiveEvaluator,
    Operation,
    ParallelYannakakisEvaluator,
    QueryClient,
    QueryEngine,
    QueryService,
    SqliteBackend,
    TreewidthEvaluator,
    WorkerPool,
    YannakakisEvaluator,
    parse_query,
)
from repro.errors import QueryError
from repro.engine import INEQUALITY, NAIVE, TREEWIDTH, YANNAKAKIS
from repro.engine.planner import Planner
from repro.fleet import FleetRouter, FleetSupervisor
from repro.inequalities.evaluator import AcyclicInequalityEvaluator
from repro.parallel.pool import THREADS
from repro.protocol import Request as WireRequest
from repro.protocol import Response, decode, encode, encode_binary
from repro.protocol.frames import decode_binary
from repro.protocol.messages import (
    decode_database,
    encode_database,
    encode_result,
)
from repro.relational.relation import Relation

import perf_e2e
import perf_gen
import perf_load
from perf_math import (
    loglog_slope,
    median,
    percentile,
    poisson_due_times,
    self_time,
)

#: Repetitions of each in-process call per operation; a call whose warm-up
#: took longer than ``SLOW_CALL_S`` is timed once.
REPS = 5
SLOW_CALL_S = 0.2
#: Operations replayed per workload (the first distinct ones of its stream).
MAX_OPS = 60
#: Generations run through one engine for ``relational.retained_mb`` and
#: registered on the server for ``server.rss_growth_mb_per_gen``.
RETAIN_GENERATIONS = 6
#: Sizes of the scaling fits (chain widths).
YANNAKAKIS_WIDTHS = (32, 64, 128, 256)
INEQUALITY_WIDTHS = (8, 12, 16, 20)
#: The traced process runs the ≠ evaluator in-process: cap it as the
#: server is capped.
TRACE_ADDRESS_CAP = perf_load.SERVER_ADDRESS_CAP
#: The max-rate ladder: fixed open-loop rates per workload, each held for
#: ``LADDER_STEP_S``; a step passes when its p90 meets the limit and no
#: backlog grew: the median latency of its last quarter meets it too.
LADDER = {
    "point": ((75, 150, 225, 300, 400, 500), 25.0),
    "analytic": ((4, 6, 8, 10, 12, 14, 16), 1000.0),
    "churn": ((50, 100, 150, 200, 300, 400), 50.0),
}
LADDER_STEP_S = 2.0
EVALUATOR_SHARES = (NAIVE, YANNAKAKIS, TREEWIDTH, INEQUALITY)


@dataclass
class Span:
    """One call into a layer: its name, operation, interval, and the span
    whose work it is part of."""

    name: str
    op: int
    start: float
    end: float
    parent: Optional[str] = None


@dataclass
class Tracer:
    """Spans kept in memory; summarized when the run ends."""

    spans: List[Span] = field(default_factory=list)

    def call(
        self, name: str, op: int, fn: Callable[[], Any], parent: Optional[str] = None
    ) -> Any:
        start = time.perf_counter()
        result = fn()
        self.spans.append(Span(name, op, start, time.perf_counter(), parent))
        return result

    async def acall(
        self, name: str, op: int, fn: Callable[[], Any], parent: Optional[str] = None
    ) -> Any:
        start = time.perf_counter()
        result = await fn()
        self.spans.append(Span(name, op, start, time.perf_counter(), parent))
        return result

    def durations(self, name: str) -> List[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def median_ms(self, name: str) -> float:
        return median(self.durations(name)) * 1e3

    def names(self) -> List[str]:
        return sorted({s.name for s in self.spans})


@dataclass
class Op:
    """One replayed operation with its parsed query and database."""

    index: int
    request: perf_gen.Request
    query: Any
    database: Database

    @property
    def operation(self) -> Operation:
        return Operation.make(self.request.op, self.query)


def replay_ops(workload: perf_gen.Workload) -> List[Op]:
    requests: List[Tuple[perf_gen.Request, Database]] = [
        (r, workload.databases[r.database]) for r in workload.requests
    ]
    for database, generation in workload.generations:
        requests.extend((r, database) for r in generation)
    ops, seen = [], set()
    for request, database in requests:
        key = (request, id(database))
        if key in seen:
            continue
        seen.add(key)
        ops.append(Op(len(ops), request, parse_query(request.query), database))
        if len(ops) == MAX_OPS:
            break
    return ops


def trace_workload(name: str, seed: int) -> perf_gen.Workload:
    if name == "point":
        return perf_gen.point_workload(seed, 4000)
    if name == "analytic":
        return perf_gen.analytic_workload(seed)
    return perf_gen.churn_workload(seed, RETAIN_GENERATIONS)


# ----------------------------------------------------------------------
# In-process layers
# ----------------------------------------------------------------------


def repeat(tracer: Tracer, name: str, ops: Sequence[Op], fn, parent=None) -> None:
    """Call ``fn(op)`` once to warm, then ``REPS`` times under a span."""
    for op in ops:
        started = time.perf_counter()
        fn(op)
        reps = REPS if time.perf_counter() - started < SLOW_CALL_S else 1
        for _ in range(reps):
            tracer.call(name, op.index, lambda: fn(op), parent)


def chosen_call(engine: QueryEngine, pool: WorkerPool, op: Op) -> Callable[[], Any]:
    """The evaluator call the engine's plan dispatches *op* (an execute) to."""
    plan = engine.plan_for(op.query, op.database)
    if plan.evaluator == YANNAKAKIS:
        if plan.shard_count > 1:
            evaluator = ParallelYannakakisEvaluator(pool=pool)
            return lambda: evaluator.evaluate(
                op.query, op.database, shard_count=plan.shard_count
            )
        return lambda: YannakakisEvaluator().evaluate(op.query, op.database)
    if plan.evaluator == TREEWIDTH:
        return lambda: TreewidthEvaluator().evaluate(op.query, op.database)
    if plan.evaluator == INEQUALITY:
        return lambda: AcyclicInequalityEvaluator().evaluate(op.query, op.database)
    order = plan.join_order
    return lambda: NaiveEvaluator().evaluate(op.query, op.database, atom_order=order)


def layer_query_protocol(
    tracer: Tracer, report: perf_e2e.Report, ops: Sequence[Op], binary: bool,
    expected: Dict,
) -> None:
    repeat(tracer, "query.parse", ops, lambda op: parse_query(op.request.query))
    report.put("query.parse_ms", tracer.median_ms("query.parse"), "ms")

    engine = QueryEngine(parallel=False, replan_drift_threshold=None)
    sizes = []
    for op in ops:
        value = expected[op.request]
        if op.request.op == perf_gen.EXECUTE:
            value = engine.run(Operation.execute(op.query), op.database)
        kind, payload = encode_result(value)
        response = Response(id=op.index + 1, kind=kind, result=payload)
        request = WireRequest(
            op=op.request.op, id=op.index + 1, query=op.request.query,
            database=op.request.database, deadline=perf_gen.DEADLINE_S,
        )
        request_line = encode(request)
        # A negotiated connection sends relation-bearing responses as
        # binary frames and everything else as JSON lines.
        frame = encode_binary(response) if binary else None
        data = frame if frame is not None else encode(response)
        sizes.append(len(data))

        def encode_both(response=response, request=request, binary=frame is not None):
            encode(request)
            return encode_binary(response) if binary else encode(response)

        def decode_both(data=data, binary=frame is not None):
            decode(request_line)
            return decode_binary(data[6:]) if binary else decode(data)

        for _ in range(REPS):
            tracer.call("protocol.encode", op.index, encode_both)
            tracer.call("protocol.decode", op.index, decode_both)
    engine.close()
    frames = "binary frames" if binary else "JSON lines"
    report.put("protocol.encode_ms", tracer.median_ms("protocol.encode"), "ms",
               f"request + response, {frames}")
    report.put("protocol.decode_ms", tracer.median_ms("protocol.decode"), "ms",
               f"request + response, {frames}")
    report.put("protocol.response_bytes", median(sizes), "bytes", frames)

    databases = {id(op.database): op.database for op in ops}.values()
    for database in databases:
        for _ in range(REPS):
            document = tracer.call(
                "protocol.register_codec", 0, lambda: encode_database(database)
            )
            tracer.call(
                "protocol.register_codec.decode", 0,
                lambda: decode_database(document), "protocol.register_codec",
            )
    codec = [
        a + b for a, b in zip(
            tracer.durations("protocol.register_codec"),
            tracer.durations("protocol.register_codec.decode"),
        )
    ]
    report.put("protocol.register_codec_ms", median(codec) * 1e3, "ms",
               "encode_database + decode_database")


def layer_service_engine(
    tracer: Tracer, report: perf_e2e.Report, ops: Sequence[Op], pool: WorkerPool
) -> None:
    """Service, engine and chosen-evaluator calls on the same operations,
    each built with the server's defaults."""

    async def service_pass() -> None:
        async with QueryService() as service:
            for op in ops:
                await service.run(op.operation, op.database)
                for _ in range(REPS):
                    await tracer.acall(
                        "service.run", op.index,
                        lambda: service.run(op.operation, op.database),
                    )

    asyncio.run(service_pass())
    engine = QueryEngine()
    try:
        repeat(tracer, "engine.run", ops,
               lambda op: engine.run(op.operation, op.database), "service.run")
        executes = [op for op in ops if op.request.op == perf_gen.EXECUTE]
        for op in executes:
            call = chosen_call(engine, pool, op)
            call()
            for _ in range(REPS):
                tracer.call("engine.run.execute", op.index,
                            lambda: engine.run(op.operation, op.database))
                tracer.call("evaluation.chosen", op.index, call, "engine.run")
        # Planning: a miss is a planner call, a hit a cache lookup.
        planner = Planner()
        repeat(tracer, "engine.plan_miss", ops,
               lambda op: planner.plan(op.query, op.database), "engine.run")
        warm = QueryEngine(parallel=False)
        repeat(tracer, "engine.plan_hit", ops,
               lambda op: warm.plan_for(op.query, op.database), "engine.run")
        warm.close()
    finally:
        engine.close()
    report.put("service.self_ms", self_time(
        tracer.durations("service.run"), tracer.durations("engine.run")) * 1e3,
        "ms", "QueryService.run p50 - QueryEngine.run p50")
    report.put("engine.self_ms", self_time(
        tracer.durations("engine.run.execute"),
        tracer.durations("evaluation.chosen")) * 1e3,
        "ms", "QueryEngine.run p50 - chosen evaluator p50, executes")
    report.put("engine.plan_miss_ms", tracer.median_ms("engine.plan_miss"), "ms")
    report.put("engine.plan_hit_ms", tracer.median_ms("engine.plan_hit"), "ms")


def layer_evaluation(
    tracer: Tracer, report: perf_e2e.Report, ops: Sequence[Op], pool: WorkerPool
) -> None:
    """Each evaluator on the operations it can answer: naive where the
    planner or the oracle picks it (elsewhere it can take seconds),
    Yannakakis on the acyclic ones, treewidth on every query without ≠,
    Theorem 2 on the ≠ ones; counting on the count operations its
    annotated pass serves; the sharded evaluator on the acyclic executes.

    Needs ``scaling_slopes`` first: a workload without ≠ requests reports
    Theorem 2 on the fit's instance of the analytic size.
    """
    planner = Planner()
    routed: Dict[str, List[Op]] = {}
    for op in ops:
        planned = planner.plan(op.query, op.database).evaluator
        klass = op.request.klass
        evaluators = {planned, perf_gen.oracle_evaluator(planned, klass)} & {NAIVE}
        if klass == perf_gen.ACYCLIC:
            evaluators.add(YANNAKAKIS)
        if klass != perf_gen.NEQ:
            evaluators.add(TREEWIDTH)
        else:
            evaluators.add(INEQUALITY)
        for evaluator in evaluators:
            routed.setdefault(evaluator, []).append(op)
    calls = {
        NAIVE: lambda op: NaiveEvaluator().evaluate(op.query, op.database),
        YANNAKAKIS: lambda op: YannakakisEvaluator().evaluate(op.query, op.database),
        TREEWIDTH: lambda op: TreewidthEvaluator().evaluate(op.query, op.database),
        INEQUALITY: lambda op: AcyclicInequalityEvaluator().evaluate(
            op.query, op.database),
    }
    names = {
        NAIVE: "evaluation.naive_ms", YANNAKAKIS: "evaluation.yannakakis_ms",
        TREEWIDTH: "evaluation.treewidth_ms", INEQUALITY: "inequalities.evaluate_ms",
    }
    for evaluator, metric in names.items():
        chosen = routed.get(evaluator, [])
        span = metric[: -len("_ms")]
        if chosen:
            repeat(tracer, span, chosen, calls[evaluator], "engine.run")
            report.put(metric, tracer.median_ms(span), "ms", f"{len(chosen)} ops")
        else:
            fit = [
                s.end - s.start for s in tracer.spans
                if s.name == "inequalities.scaling" and s.op == perf_gen.NEQ_WIDTH
            ]
            report.put(metric, median(fit) * 1e3, "ms",
                       f"no ≠ requests: the fit's width-{perf_gen.NEQ_WIDTH} instance")

    counting = CountingYannakakisEvaluator()
    counts = []
    for op in ops:
        if op.request.op != perf_gen.COUNT:
            continue
        try:
            counting.count(op.query, op.database)
        except QueryError:  # a counting mode the annotated pass does not serve
            continue
        counts.append(op)
    repeat(tracer, "evaluation.counting", counts,
           lambda op: counting.count(op.query, op.database), "engine.run")
    report.put("evaluation.counting_ms", tracer.median_ms("evaluation.counting"),
               "ms", f"{len(counts)} ops")

    acyclic = [
        op for op in ops
        if op.request.op == perf_gen.EXECUTE and op.request.klass == perf_gen.ACYCLIC
    ]
    parallel = ParallelYannakakisEvaluator(pool=pool)
    shards = {op.index: planner.plan(op.query, op.database).shard_count
              for op in acyclic}
    repeat(tracer, "parallel.sharded", acyclic, lambda op: parallel.evaluate(
        op.query, op.database, shard_count=shards[op.index]), "engine.run")
    repeat(tracer, "parallel.one_shard", acyclic, lambda op: parallel.evaluate(
        op.query, op.database, shard_count=1), "engine.run")
    report.put("parallel.sharded_ms", tracer.median_ms("parallel.sharded"), "ms",
               f"at the plan's shard_count {sorted(set(shards.values()))}")
    report.put("parallel.one_shard_ms", tracer.median_ms("parallel.one_shard"), "ms")


def scaling_slopes(tracer: Tracer, report: perf_e2e.Report, seed: int) -> None:
    """Log-log slopes of evaluate time against |d| + |Q(d)|: path4 under
    Yannakakis, and the ≠ path under Theorem 2's evaluator."""
    rng = random.Random(seed)
    path4 = parse_query(perf_gen.PATH4_QUERY)
    points = []
    for width in YANNAKAKIS_WIDTHS:
        edges = perf_gen.layered_edges(
            rng, perf_gen.PATH_LAYERS, width, perf_gen.PATH_DEGREE,
            blocks=max(1, width // 21),
        )
        database = Database({"E": Relation.from_rows(("E.0", "E.1"), edges)})
        evaluator = YannakakisEvaluator()
        answer = evaluator.evaluate(path4, database)
        seconds = []
        for _ in range(3):
            tracer.call("evaluation.yannakakis.scaling", width,
                        lambda: evaluator.evaluate(path4, database))
            seconds.append(tracer.durations("evaluation.yannakakis.scaling")[-1])
        seconds = median(seconds)
        points.append((len(edges) + len(answer), seconds))
    report.put("evaluation.yannakakis_slope", loglog_slope(*zip(*points)), "ratio",
               f"path4, widths {YANNAKAKIS_WIDTHS}, "
               f"|d|+|Q(d)| {points[0][0]}..{points[-1][0]}; paper bound 1")

    neq = parse_query(perf_gen.NEQ_QUERY)
    points = []
    for width in INEQUALITY_WIDTHS:
        edges = perf_gen.neq_edges(width, rng.randrange(1 << 30))
        database = Database({"N": Relation.from_rows(("N.0", "N.1"), edges)})
        evaluator = AcyclicInequalityEvaluator()
        answer = tracer.call("inequalities.scaling", width,
                             lambda: evaluator.evaluate(neq, database))
        seconds = tracer.durations("inequalities.scaling")[-1]
        points.append((len(database["N"]) + len(answer), seconds))
    report.put("inequalities.slope", loglog_slope(*zip(*points)), "ratio",
               f"≠ path, widths {INEQUALITY_WIDTHS}, "
               f"|d|+|Q(d)| {points[0][0]}..{points[-1][0]}")


def layer_relational(
    tracer: Tracer, report: perf_e2e.Report, workload: perf_gen.Workload
) -> None:
    """Kernel operators on the workload's own binary relations, as the
    two halves of a path join: R(a, b) and R(b, c)."""
    relations = [
        database[name]
        for database in workload.databases.values()
        for name in database.names()
    ]
    for index, relation in enumerate(relations):
        rows = list(relation.rows)
        left = Relation.from_rows(("a", "b"), rows)
        right = Relation.from_rows(("b", "c"), rows)
        left.semijoin(right)
        joined = left.natural_join(right)
        for _ in range(REPS):
            tracer.call("relational.semijoin", index, lambda: left.semijoin(right))
            tracer.call("relational.join", index, lambda: left.natural_join(right))
            tracer.call("relational.project", index, lambda: joined.project(("a", "c")))
            fresh = tracer.call("relational.from_rows", index,
                                lambda: Relation.from_rows(("a", "b"), rows))
            partner = Relation.from_rows(("b", "c"), rows)
            tracer.call("relational.cold_semijoin", index,
                        lambda: fresh.semijoin(partner))
    for name in ("semijoin", "join", "project", "from_rows", "cold_semijoin"):
        report.put(f"relational.{name}_ms", tracer.median_ms(f"relational.{name}"),
                   "ms", f"{len(relations)} relations")


def generation_stream(
    workload: perf_gen.Workload,
) -> List[Tuple[Dict[str, Any], List[perf_gen.Request]]]:
    """(encoded databases, requests) per generation: churn's fresh
    generations, or the workload's own databases registered again."""
    if workload.generations:
        return [
            ({"live": encode_database(database)}, list(requests))
            for database, requests in workload.generations
        ]
    documents = {name: encode_database(db) for name, db in workload.databases.items()}
    return [(documents, list(workload.requests[:16]))] * RETAIN_GENERATIONS


def retained_mb(report: perf_e2e.Report, workload: perf_gen.Workload) -> None:
    """tracemalloc: memory still held after generations were decoded and
    queried through one engine, and everything was dropped."""
    stream = generation_stream(workload)
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        engine = QueryEngine()
        for documents, requests in stream:
            databases = {name: decode_database(doc) for name, doc in documents.items()}
            for request in requests:
                if request.klass == perf_gen.ACYCLIC:
                    engine.run(request.local_operation(), databases[request.database])
        engine.close()
        del engine, databases
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - baseline
    finally:
        tracemalloc.stop()
    report.put("relational.retained_mb", retained / 2**20, "MB",
               f"after {len(stream)} generations (acyclic queries) through one "
               "engine, dropped")


def layer_backends(
    tracer: Tracer, report: perf_e2e.Report, ops: Sequence[Op]
) -> None:
    databases = {id(op.database): op.database for op in ops}.values()
    for database in databases:
        for _ in range(REPS):
            backend = SqliteBackend()
            tracer.call("backends.sqlite_load", 0, lambda: backend.load(database))
            backend.close()
    report.put("backends.sqlite_load_ms", tracer.median_ms("backends.sqlite_load"),
               "ms")
    backend = SqliteBackend()
    try:
        servable = [op for op in ops if backend.supports(op.query)]
        for kind in ("execute", "decide", "count"):
            name = f"backends.sqlite_{kind}"
            repeat(tracer, name, servable,
                   lambda op: getattr(backend, kind)(op.query, op.database))
            report.put(f"{name}_ms", tracer.median_ms(name), "ms",
                       f"{len(servable)} queries, every one as {kind}")
    finally:
        backend.close()


def layer_fleet(
    tracer: Tracer, report: perf_e2e.Report, ops: Sequence[Op], paths: Dict[str, Path]
) -> None:
    """One-worker fleet: ``FleetRouter.run`` p50 minus a direct client's."""
    supervisor = FleetSupervisor({k: str(v) for k, v in paths.items()}, workers=1)
    supervisor.start()
    router = FleetRouter(supervisor)
    try:
        _, host, port = supervisor.endpoints()[0]
        with QueryClient(host, port) as direct:
            for op in ops:
                operation = op.request.operation()
                router.run(operation, op.request.database)
                direct.run(operation, op.request.database)
                for _ in range(REPS):
                    tracer.call("fleet.router", op.index,
                                lambda: router.run(operation, op.request.database))
                    tracer.call("fleet.direct", op.index,
                                lambda: direct.run(operation, op.request.database),
                                "fleet.router")
    finally:
        router.close()
        supervisor.close()
    report.put("fleet.hop_ms", self_time(
        tracer.durations("fleet.router"), tracer.durations("fleet.direct")) * 1e3,
        "ms", "FleetRouter.run p50 - direct client p50, 1 worker")


# ----------------------------------------------------------------------
# Wire layers, against a live server
# ----------------------------------------------------------------------


async def wire_layers(
    tracer: Tracer,
    report: perf_e2e.Report,
    name: str,
    workload: perf_gen.Workload,
    ops: Sequence[Op],
    expected: Dict,
    root: Path,
    workdir: Path,
    seed: int,
) -> None:
    paths = perf_e2e.write_databases(workdir, workload.databases)
    server, client, _ = await perf_load.spawn_ready(
        root, workdir, paths, workload.binary_frames
    )
    clients = [client]
    recorder = perf_load.Recorder(expected)
    served = [db for db in workload.databases.values()]
    live = [op for op in ops if any(op.database is db for db in served)]
    try:
        for _ in range(workload.connections - 1):
            clients.append(await perf_load.connect(server, workload.binary_frames))
        for _ in range(50):
            await tracer.acall("protocol.ping", 0, client.ping)
        report.put("protocol.ping_ms", tracer.median_ms("protocol.ping"), "ms")

        for op in live:
            await perf_load.send(client, op.request)
            for _ in range(REPS):
                started = time.perf_counter()
                result, error = await tracer.acall(
                    "protocol.wire", op.index,
                    lambda: perf_load.send(client, op.request))
                recorder.record(op.request, started, result, error)
        report.put("protocol.self_ms", self_time(
            tracer.durations("protocol.wire"), tracer.durations("service.run")) * 1e3,
            "ms", "wire p50 - in-process QueryService.run p50")

        # The workload's own load pattern, for the service and engine
        # counters, the server's CPU per request and its memory growth.
        generations = generation_stream(workload)
        cpu_before = server.cpu_seconds()
        before = len(recorder.outcomes)
        if workload.generations:
            rss_before = server.rss_mb()
            for documents, requests in generations:
                for db_name, document in documents.items():
                    await client.register_database(db_name, document)
                await perf_load.sequence(client, requests, recorder)
            pattern = "register + queries per generation, 1 in flight"
            live_requests = generations[-1][1]
        else:
            in_flight = perf_e2e.POINT_IN_FLIGHT if name == "point" else 1
            await perf_load.closed_loop(
                clients, in_flight, itertools.cycle(workload.requests), recorder, 2.0)
            pattern = f"closed loop, {in_flight} in flight per connection"
            rss_before = server.rss_mb()
            for documents, _ in generations:
                for db_name, document in documents.items():
                    await client.register_database(db_name, document)
            live_requests = list(workload.requests)
        report.put("server.rss_growth_mb_per_gen",
                   (server.rss_mb() - rss_before) / len(generations), "MB",
                   f"VmRSS over {len(generations)} registrations")
        count = len(recorder.outcomes) - before
        report.put("server.cpu_ms_per_req",
                   (server.cpu_seconds() - cpu_before) / count * 1e3, "ms",
                   f"{count} requests, {pattern}")
        server_counters(report, await client.stats())

        distinct = list(dict.fromkeys(live_requests))[:MAX_OPS]
        await ladder(report, name, clients, distinct, recorder, seed)
        await overhead(report, client, distinct, recorder)
        report.attempted += recorder.tally.attempted
        report.failed += recorder.tally.failed
        report.correct = report.correct and not recorder.tally.failures.get(
            "wrong_answer")
    finally:
        await perf_e2e.close(server, clients)


def server_counters(report: perf_e2e.Report, stats: Dict[str, Any]) -> None:
    """Service and engine counters of the ``stats`` op, over the traced
    server's whole session."""
    service, engine = stats["service"], stats["engine"]
    entered = service["submitted"] + service["coalesced"]
    report.put("service.coalesced_frac", service["coalesced"] / entered, "ratio")
    report.put("service.mean_group", service["submitted"] / max(1, service["groups"]),
               "count", "admitted requests per dispatched group")
    report.put("service.max_queue_depth", service["max_queue_depth"], "count")
    report.put("service.deadline_exceeded", service["deadline_exceeded"], "count")
    cache = engine["cache"]
    report.put("engine.plan_hit_ratio",
               cache["hits"] / max(1, cache["hits"] + cache["misses"]), "ratio")
    report.put("engine.plan_evictions", cache["evictions"], "count")
    report.put("engine.replans", engine["replans"], "count")
    seconds: Dict[str, float] = {}
    for shape in engine["shapes"]:
        seconds[shape["evaluator"]] = (
            seconds.get(shape["evaluator"], 0.0) + shape["total_seconds"]
        )
    total = sum(seconds.values()) or 1.0
    for evaluator in EVALUATOR_SHARES:
        report.put(f"engine.share.{evaluator}", seconds.get(evaluator, 0.0) / total,
                   "ratio", "share of engine time in the stats ledger")


def absorb(into: perf_load.Recorder, step: perf_load.Recorder) -> None:
    into.tally.attempted += step.tally.attempted
    for kind, count in step.tally.failures.items():
        into.tally.failures[kind] = into.tally.failures.get(kind, 0) + count


async def ladder(
    report: perf_e2e.Report,
    name: str,
    clients,
    requests: Sequence[perf_gen.Request],
    recorder: perf_load.Recorder,
    seed: int,
) -> None:
    """The highest ladder rate whose p90 meets the workload's limit with
    no growing backlog; lateness and generator CPU come from the same
    steps."""
    rates, limit_ms = LADDER[name]
    stream = itertools.cycle(requests)
    best, lateness, sent = 0.0, [], 0
    cpu_before = time.process_time()
    for rate in rates:
        step = perf_load.Recorder(recorder.expected)
        due = poisson_due_times(rate, LADDER_STEP_S, seed + rate)
        samples = await perf_load.open_loop(clients, stream, due, step)
        absorb(recorder, step)
        sent += len(samples)
        lateness.extend(s.lateness for s in samples)
        latencies = [o.latency for o in step.outcomes if o.ok]
        by_due = sorted(samples, key=lambda sample: sample.due)
        last_quarter = [s.latency for s in by_due[len(by_due) * 3 // 4:]]
        ok = (
            len(latencies) == len(samples)
            and percentile(latencies, 90) * 1e3 <= limit_ms
            and median(last_quarter) * 1e3 <= limit_ms
        )
        if not ok:
            break
        best = rate
    report.put("loadgen.max_rate_rps", best, "1/s",
               f"ladder {rates}, p90 <= {limit_ms:g} ms, {LADDER_STEP_S:g} s steps")
    report.put("loadgen.lateness_p99_ms", percentile(lateness, 99) * 1e3, "ms",
               f"n={len(lateness)}")
    report.put("loadgen.cpu_ms_per_req",
               (time.process_time() - cpu_before) / max(1, sent) * 1e3, "ms")


async def overhead(
    report: perf_e2e.Report,
    client,
    requests: Sequence[perf_gen.Request],
    recorder: perf_load.Recorder,
) -> None:
    """Wire p50 with spans recorded versus without, alternating rounds."""
    plain, traced = [], []
    tracer = Tracer()
    for round_ in range(4):
        for index, request in enumerate(requests):
            started = time.perf_counter()
            if round_ % 2:
                result, error = await tracer.acall(
                    "overhead", index, lambda: perf_load.send(client, request))
                traced.append(time.perf_counter() - started)
            else:
                result, error = await perf_load.send(client, request)
                plain.append(time.perf_counter() - started)
            recorder.record(request, started, result, error)
    report.put("trace.overhead_frac",
               (median(traced) - median(plain)) / median(plain), "ratio",
               "wire p50 with spans vs without")


# ----------------------------------------------------------------------


def run(root: Path, workdir: Path, name: str, seed: int) -> perf_e2e.Report:
    """The traced run of workload *name*: every per-layer metric, with the
    time each step took and a summary of every span in the notes."""
    resource.setrlimit(resource.RLIMIT_AS, (TRACE_ADDRESS_CAP, TRACE_ADDRESS_CAP))
    workload = trace_workload(name, seed)
    ops = replay_ops(workload)
    expected = perf_gen.answers(workload.requests, workload.databases)
    for database, requests in workload.generations:
        expected.update(perf_gen.answers(requests, {"live": database}))
    report = perf_e2e.Report()
    tracer = Tracer()
    pool = WorkerPool(None, THREADS)
    paths = perf_e2e.write_databases(workdir, workload.databases)
    steps = {
        "query, codec": lambda: layer_query_protocol(
            tracer, report, ops, workload.binary_frames, expected),
        "service, engine": lambda: layer_service_engine(tracer, report, ops, pool),
        "scaling fits": lambda: scaling_slopes(tracer, report, seed),
        "evaluators": lambda: layer_evaluation(tracer, report, ops, pool),
        "kernel": lambda: layer_relational(tracer, report, workload),
        "retention": lambda: retained_mb(report, workload),
        "sqlite": lambda: layer_backends(tracer, report, ops),
        "fleet": lambda: layer_fleet(tracer, report, ops[:20], paths),
        "wire": lambda: asyncio.run(wire_layers(
            tracer, report, name, workload, ops, expected, root, workdir, seed)),
    }
    try:
        for step, call in steps.items():
            started = time.perf_counter()
            call()
            report.notes[f"step {step}"] = f"{time.perf_counter() - started:.1f} s"
    finally:
        pool.close()
    for span in tracer.names():
        durations = tracer.durations(span)
        report.notes[f"span {span}"] = (
            f"n={len(durations)} p50={median(durations) * 1e3:.3f} ms"
        )
    return report
