"""The load generator: a real server subprocess, and the loops that drive it.

One process, one asyncio loop, no extra threads: every connection is an
``AsyncQueryClient`` on the loop, and the server is observed from outside
through ``/proc/<pid>``.
"""

from __future__ import annotations

import asyncio
import os
import resource
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro import AsyncQueryClient
from repro.protocol.messages import RemoteQueryError

from perf_gen import DEADLINE_S, EXECUTE, Request, result_matches
from perf_math import OpenLoopSample, Tally

#: Address-space cap on every server: the ≠ evaluator's memory grows
#: steeply with the instance, and one query at chain width 64 used more
#: than 8 GB before it was killed.  A capped server fails the request
#: instead of exhausting a shared machine.
SERVER_ADDRESS_CAP = 3 << 30
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 15.0


def _cap_address_space() -> None:
    resource.setrlimit(
        resource.RLIMIT_AS, (SERVER_ADDRESS_CAP, SERVER_ADDRESS_CAP)
    )


class Server:
    """One ``repro.protocol.server`` subprocess serving database files."""

    def __init__(self, root: Path, workdir: Path, databases: Dict[str, Path]):
        self._log = open(workdir / "server.log", "ab")
        args = [sys.executable, "-m", "repro.protocol.server", "--port", "0"]
        for name, path in databases.items():
            args += ["--database", f"{name}={path}"]
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.process = subprocess.Popen(
            args,
            cwd=root,
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            preexec_fn=_cap_address_space,
        )
        self.host, self.port = self._await_ready()

    def _await_ready(self) -> Tuple[str, int]:
        stdout = self.process.stdout
        deadline = time.monotonic() + READY_TIMEOUT_S
        line = b""
        while not line.endswith(b"\n"):
            remaining = deadline - time.monotonic()
            if remaining <= 0 or self.process.poll() is not None:
                self.stop()
                raise RuntimeError("server did not become ready")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if ready:
                chunk = os.read(stdout.fileno(), 1)
                if not chunk:
                    continue
                line += chunk
        text = line.decode().strip()
        if not text.startswith("QUERYSERVER READY"):
            self.stop()
            raise RuntimeError(f"unexpected server handshake: {text!r}")
        fields = dict(part.split("=", 1) for part in text.split()[2:])
        return fields["host"], int(fields["port"])

    @property
    def pid(self) -> int:
        return self.process.pid

    def _status_kb(self, key: str) -> int:
        with open(f"/proc/{self.pid}/status") as status:
            for line in status:
                if line.startswith(key + ":"):
                    return int(line.split()[1])
        raise KeyError(key)

    def peak_rss_mb(self) -> float:
        """Peak resident set (``VmHWM``) in MB."""
        return self._status_kb("VmHWM") / 1024

    def rss_mb(self) -> float:
        """Current resident set (``VmRSS``) in MB."""
        return self._status_kb("VmRSS") / 1024

    def cpu_seconds(self) -> float:
        """User plus system CPU time the server has used."""
        with open(f"/proc/{self.pid}/stat") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        # Fields 14 and 15 of stat(5); fields[0] here is field 3.
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGTERM (the server drains), then SIGKILL; always reaped."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


async def connect(server: Server, binary_frames: bool) -> AsyncQueryClient:
    return await AsyncQueryClient.connect(
        server.host, server.port, binary_frames=binary_frames
    )


async def spawn_ready(
    root: Path, workdir: Path, databases: Dict[str, Path], binary_frames: bool
) -> Tuple[Server, AsyncQueryClient, float]:
    """Spawn a server and time spawn → READY → first ping answered."""
    started = time.perf_counter()
    server = Server(root, workdir, databases)
    try:
        client = await connect(server, binary_frames)
        await client.ping()
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - started


# ----------------------------------------------------------------------
# Requests and their outcomes
# ----------------------------------------------------------------------


@dataclass
class Outcome:
    """What the load generator saw of one request."""

    request: Request
    latency: float
    phase: str
    rows: int = 0
    ok: bool = True


@dataclass
class Recorder:
    """Checks every answer against the oracle and keeps the outcomes."""

    expected: Dict[Request, object]
    tally: Tally = field(default_factory=Tally)
    outcomes: List[Outcome] = field(default_factory=list)
    #: Tag of the outcomes recorded now (warm-up or a measured phase).
    phase: str = "warm"

    def of(self, phase: str) -> List[Outcome]:
        return [outcome for outcome in self.outcomes if outcome.phase == phase]

    def record(
        self, request: Request, started: float, result: object, error: Optional[str]
    ) -> Outcome:
        latency = time.perf_counter() - started
        outcome = Outcome(request, latency, self.phase)
        if error is not None:
            outcome.ok = False
            self.tally.fail(error)
        elif not result_matches(request, result, self.expected[request]):
            outcome.ok = False
            self.tally.fail("wrong_answer")
        else:
            self.tally.ok()
            if request.op == EXECUTE:
                outcome.rows = len(result)  # type: ignore[arg-type]
        self.outcomes.append(outcome)
        return outcome


async def send(client: AsyncQueryClient, request: Request) -> Tuple[object, Optional[str]]:
    """One wire request; returns (result, failure kind or None)."""
    try:
        result = await client.run(
            request.operation(), request.database, deadline=DEADLINE_S
        )
    except RemoteQueryError as exc:
        return None, exc.code
    except (ConnectionError, OSError) as exc:
        return None, type(exc).__name__
    return result, None


# ----------------------------------------------------------------------
# The loops
# ----------------------------------------------------------------------


async def open_loop(
    clients: Sequence[AsyncQueryClient],
    requests: Iterator[Request],
    due_times: Sequence[float],
    recorder: Recorder,
) -> List[OpenLoopSample]:
    """Send one request at each due time, round-robin over *clients*,
    whether or not earlier ones have been answered."""
    samples: List[OpenLoopSample] = []
    start = time.perf_counter() + 0.05

    async def one(client: AsyncQueryClient, request: Request, due: float) -> None:
        sent = time.perf_counter()
        result, error = await send(client, request)
        recorder.record(request, due, result, error)
        samples.append(OpenLoopSample(due, sent, time.perf_counter()))

    tasks = []
    for index, offset in enumerate(due_times):
        due = start + offset
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        client = clients[index % len(clients)]
        tasks.append(asyncio.ensure_future(one(client, next(requests), due)))
    await asyncio.gather(*tasks)
    return samples


async def closed_loop(
    clients: Sequence[AsyncQueryClient],
    in_flight: int,
    requests: Iterator[Request],
    recorder: Recorder,
    duration: float,
) -> float:
    """*in_flight* callers per client, each sending its next request only
    when the last one is answered, until *duration* has passed.

    Returns the elapsed seconds, up to the last answer.
    """
    start = time.perf_counter()
    stop = start + duration

    async def caller(client: AsyncQueryClient) -> None:
        while time.perf_counter() < stop:
            request = next(requests)
            started = time.perf_counter()
            result, error = await send(client, request)
            recorder.record(request, started, result, error)

    await asyncio.gather(
        *(caller(client) for client in clients for _ in range(in_flight))
    )
    return time.perf_counter() - start


async def sequence(
    client: AsyncQueryClient,
    requests: Sequence[Request],
    recorder: Recorder,
) -> List[Outcome]:
    """Send *requests* one after another (a closed loop of one caller)."""
    outcomes = []
    for request in requests:
        started = time.perf_counter()
        result, error = await send(client, request)
        outcomes.append(recorder.record(request, started, result, error))
    return outcomes


