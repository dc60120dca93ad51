"""End-to-end runs: what a client of a real ``QueryServer`` sees.

A run is ``SEGMENTS`` segments, each on a freshly spawned server: the
spawn is timed (the median is ``setup_s``), the server is warmed, driven
for its share of ``--seconds`` and stopped.  Latency samples pool across
segments and ``rss_mb`` is the median server's peak.  A server process
draws its own luck (thread placement, memory layout), which moves its
figures by more than 10% from one process to the next; pooling several
processes per run is what makes runs agree.  Every answer, warm-up
included, is checked against the oracle of ``perf_gen.answers``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Awaitable, Callable, Dict, List, Sequence, Tuple

from repro.protocol.messages import RemoteQueryError, encode_database
from repro.relational.io import save_database_json

import perf_gen
import perf_load
from perf_math import (
    median,
    percentile,
    poisson_due_times,
    samples_beyond,
    supported_percentile,
)

SEGMENTS = 5
#: point's open-loop reference rate, about a third of what one connection
#: sustains at HEAD on a 2-CPU machine (226 rps).
POINT_RATE_RPS = 75.0
POINT_IN_FLIGHT = 8
#: Share of point's seconds spent in the closed-loop throughput phase.
POINT_CLOSED_SHARE = 0.3
#: churn generations per second of run time: a fixed amount of work, so
#: ``rss_mb`` compares equal numbers of generations on both commits.
CHURN_GENERATIONS_PER_S = 2.5
#: The gated tail percentile; every workload supports it with at least
#: ``MIN_BEYOND`` samples beyond.  p99 is reported where supported.
TAIL = 90.0


@dataclass
class Report:
    """A run's figures: the metrics by name, and notes for the table."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def put(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.metrics[name] = (value, unit)
        if note:
            self.notes[name] = note


@dataclass
class Run:
    """What the segments of one run accumulate."""

    recorder: perf_load.Recorder
    setup_times: List[float] = field(default_factory=list)
    peak_rss: List[float] = field(default_factory=list)
    #: Completed requests per second of each segment's throughput phase.
    qps: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    cold: List[perf_load.Outcome] = field(default_factory=list)
    rss_growth: List[float] = field(default_factory=list)

    def completed_per_s(self, mark: int, seconds: float) -> None:
        """Throughput of the requests recorded since outcome *mark*."""
        done = sum(1 for o in self.recorder.outcomes[mark:] if o.ok)
        self.qps.append(done / seconds)


def write_databases(workdir: Path, databases: Dict) -> Dict[str, Path]:
    paths = {}
    for name, database in databases.items():
        path = workdir / f"{name}.json"
        save_database_json(database, path)
        paths[name] = path
    return paths


async def close(server: perf_load.Server, clients) -> None:
    for client in clients:
        await client.aclose()
    server.stop()


Drive = Callable[[int, perf_load.Server, list, Run], Awaitable[None]]


async def segments(
    root: Path,
    workdir: Path,
    workload: perf_gen.Workload,
    expected: Dict,
    drive: Drive,
) -> Run:
    """Spawn, drive and stop ``SEGMENTS`` servers in turn."""
    paths = write_databases(workdir, workload.databases)
    run = Run(perf_load.Recorder(expected))
    for index in range(SEGMENTS):
        server, client, seconds = await perf_load.spawn_ready(
            root, workdir, paths, workload.binary_frames
        )
        run.setup_times.append(seconds)
        clients = [client]
        try:
            for _ in range(workload.connections - 1):
                clients.append(await perf_load.connect(server, workload.binary_frames))
            run.recorder.phase = "warm"
            await drive(index, server, clients, run)
            run.peak_rss.append(server.peak_rss_mb())
        finally:
            await close(server, clients)
    return run


def latency_metrics(report: Report, outcomes: Sequence[perf_load.Outcome]) -> None:
    """p50, p90 and (where supported) p99 latency in ms.

    A failed request counts as missing every latency limit: it enters the
    sample at the request deadline.
    """
    samples = [o.latency if o.ok else perf_gen.DEADLINE_S for o in outcomes]
    count = len(samples)
    report.put("p50_ms", median(samples) * 1e3, "ms", f"n={count}")
    for q, name in ((TAIL, "p90_ms"), (99.0, "p99_ms")):
        beyond = samples_beyond(count, q)
        try:
            value = supported_percentile(samples, q)
        except ValueError as exc:
            if q == TAIL:
                raise
            report.notes[name] = f"not reported: {exc}"
            continue
        report.put(name, value * 1e3, "ms", f"n={count}, {beyond} beyond")


def rows_per_s(outcomes: Sequence[perf_load.Outcome]) -> Tuple[float, int]:
    """Σ verified answer rows / Σ latency over the execute requests."""
    executes = [o for o in outcomes if o.request.op == perf_gen.EXECUTE and o.ok]
    seconds = sum(o.latency for o in executes)
    return sum(o.rows for o in executes) / seconds, len(executes)


def finish(report: Report, run: Run, timed: str) -> Report:
    """The metrics every workload reports: latencies of the *timed*
    phase, and the median segment's throughput."""
    tally = run.recorder.tally
    report.attempted, report.failed = tally.attempted, tally.failed
    report.correct = tally.failures.get("wrong_answer", 0) == 0
    report.put(
        "setup_s",
        median(run.setup_times),
        "s",
        f"median of {len(run.setup_times)} spawns",
    )
    report.put(
        "failed_frac",
        tally.failed_frac,
        "ratio",
        f"{tally.failed}/{tally.attempted} {tally.failures or ''}".strip(),
    )
    outcomes = run.recorder.of(timed)
    latency_metrics(report, outcomes)
    report.put(
        "qps",
        median(run.qps),
        "1/s",
        f"median of {len(run.qps)} servers, {min(run.qps):.1f}..{max(run.qps):.1f}",
    )
    rate, executes = rows_per_s(outcomes)
    report.put("rows_per_s", rate, "rows/s", f"over {executes} executes")
    report.put(
        "rss_mb",
        median(run.peak_rss),
        "MB",
        f"median of {len(run.peak_rss)} servers' VmHWM at the end of their segment",
    )
    return report


def class_p50(report: Report, outcomes: Sequence[perf_load.Outcome]) -> None:
    """p50 per query class (acyclic, cyclic, ≠)."""
    for klass in (perf_gen.ACYCLIC, perf_gen.CYCLIC, perf_gen.NEQ):
        latencies = [
            o.latency if o.ok else perf_gen.DEADLINE_S
            for o in outcomes
            if o.request.klass == klass
        ]
        if latencies:
            report.put(
                f"{klass}_p50_ms",
                median(latencies) * 1e3,
                "ms",
                f"n={len(latencies)}",
            )


# ----------------------------------------------------------------------
# The workloads
# ----------------------------------------------------------------------


async def run_point(root: Path, workdir: Path, seed: int, seconds: float) -> Report:
    """Open loop at the reference rate (latency), then a closed loop with
    ``POINT_IN_FLIGHT`` requests in flight per connection (throughput)."""
    closed_s = seconds * POINT_CLOSED_SHARE / SEGMENTS
    open_s = seconds / SEGMENTS - closed_s
    workload = perf_gen.point_workload(seed, 4000)
    expected = perf_gen.answers(workload.requests, workload.databases)
    stream = itertools.cycle(workload.requests)

    async def drive(index, server, clients, run: Run) -> None:
        await perf_load.closed_loop(clients, 1, stream, run.recorder, 0.3)
        run.recorder.phase = "open"
        due = poisson_due_times(POINT_RATE_RPS, open_s, seed * SEGMENTS + index)
        samples = await perf_load.open_loop(clients, stream, due, run.recorder)
        run.lateness.extend(s.lateness for s in samples)
        run.recorder.phase = "closed"
        mark = len(run.recorder.outcomes)
        run.completed_per_s(mark, await perf_load.closed_loop(
            clients, POINT_IN_FLIGHT, stream, run.recorder, closed_s
        ))

    run = await segments(root, workdir, workload, expected, drive)
    report = Report()
    report.notes["phases"] = (
        f"{SEGMENTS} servers, each: open loop at {POINT_RATE_RPS:g} rps for "
        f"{open_s:.1f} s over {workload.connections} connections, then closed "
        f"loop, {POINT_IN_FLIGHT} in flight per connection, for {closed_s:.1f} s"
    )
    report.put(
        "loadgen.lateness_p99_ms",
        percentile(run.lateness, 99) * 1e3,
        "ms",
        f"n={len(run.lateness)}",
    )
    return finish(report, run, "open")


async def run_analytic(
    root: Path, workdir: Path, seed: int, seconds: float
) -> Report:
    """The fixed cycle, closed loop, one request in flight on one
    binary-frame connection."""
    workload = perf_gen.analytic_workload(seed)
    expected = perf_gen.answers(workload.requests, workload.databases)

    async def drive(index, server, clients, run: Run) -> None:
        # One warm cycle: plans cached, and the ≠ shape re-planned.
        await perf_load.sequence(clients[0], workload.requests, run.recorder)
        run.recorder.phase = "timed"
        mark = len(run.recorder.outcomes)
        run.completed_per_s(mark, await perf_load.closed_loop(
            clients, 1, itertools.cycle(workload.requests), run.recorder,
            seconds / SEGMENTS,
        ))

    run = await segments(root, workdir, workload, expected, drive)
    report = Report()
    report.notes["phases"] = (
        f"{SEGMENTS} servers, each: one warm cycle, then closed loop, 1 in "
        f"flight on 1 binary-frame connection, for {seconds / SEGMENTS:g} s"
    )
    class_p50(report, run.recorder.of("timed"))
    return finish(report, run, "timed")


async def run_churn(root: Path, workdir: Path, seed: int, seconds: float) -> Report:
    """Generations: ``register_database`` replaces the live database, then
    its queries follow; closed loop, one in flight on one connection."""
    per_segment = max(1, round(seconds * CHURN_GENERATIONS_PER_S / SEGMENTS))
    workload = perf_gen.churn_workload(seed, per_segment * SEGMENTS)
    expected = perf_gen.answers(workload.requests, workload.databases)
    registers = []
    for index, (database, requests) in enumerate(workload.generations):
        expected.update(perf_gen.answers(requests, {"live": database}))
        register = perf_gen.Request(
            perf_gen.REGISTER, "live", f"generation {index + 1}", perf_gen.REGISTER
        )
        expected[register] = sorted(database.names())
        registers.append((register, encode_database(database), requests))

    async def drive(index, server, clients, run: Run) -> None:
        client = clients[0]
        await perf_load.sequence(client, workload.requests, run.recorder)
        run.recorder.phase = "timed"
        mark = len(run.recorder.outcomes)
        rss_before = server.rss_mb()
        started = time.perf_counter()
        for register, document, requests in registers[
            index * per_segment:(index + 1) * per_segment
        ]:
            sent = time.perf_counter()
            try:
                result, error = await client.register_database("live", document), None
            except RemoteQueryError as exc:
                result, error = None, exc.code
            run.recorder.record(register, sent, result, error)
            outcomes = await perf_load.sequence(client, requests, run.recorder)
            run.cold.append(outcomes[0])
        run.completed_per_s(mark, time.perf_counter() - started)
        run.rss_growth.append((server.rss_mb() - rss_before) / per_segment)

    run = await segments(root, workdir, workload, expected, drive)
    report = Report()
    report.notes["phases"] = (
        f"{SEGMENTS} servers, each: {per_segment} generations of 1 register + "
        f"{perf_gen.CHURN_QUERIES_PER_GEN} queries over "
        f"{perf_gen.CHURN_SHAPES} cycled shapes; closed loop, 1 in flight"
    )
    register_ms = [
        o.latency * 1e3
        for o in run.recorder.of("timed")
        if o.request.op == perf_gen.REGISTER
    ]
    report.put("register_p50_ms", median(register_ms), "ms", f"n={len(register_ms)}")
    report.put(
        "cold_p50_ms",
        median([o.latency * 1e3 for o in run.cold]),
        "ms",
        f"n={len(run.cold)}",
    )
    report.put(
        "server.rss_growth_mb_per_gen",
        median(run.rss_growth),
        "MB",
        f"VmRSS growth per generation, median of {len(run.rss_growth)} servers",
    )
    return finish(report, run, "timed")


WORKLOADS = {"point": run_point, "analytic": run_analytic, "churn": run_churn}
