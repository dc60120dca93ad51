"""Worker pools for inter-query fan-out.

One small abstraction covers the three execution modes the engine's batch
fan-out and the service's dispatch need:

``serial``
    Run tasks inline in the calling thread.  This is what a 1-worker pool
    degrades to, without paying any pool dispatch overhead.
``threads``
    A lazily created :class:`~concurrent.futures.ThreadPoolExecutor`.  The
    default.  Plans and the kernel's per-relation index caches are
    immutable once built, so concurrent queries share them safely;
    CPython's per-opcode atomicity makes the lazy cache fills benign
    (worst case a bucket map is built twice, both results identical).
``processes``
    A :class:`~concurrent.futures.ProcessPoolExecutor` for opt-in
    multi-process execution.  Tasks submitted through :meth:`WorkerPool.map`
    must then be module-level functions with picklable arguments.

The pool never spawns workers until a call actually fans out: task lists
of length ≤ 1 run inline regardless of mode.

Two resilience duties live here as well:

* **Worker-crash recovery** — a process-pool worker that dies (OOM kill,
  segfault, injected ``pool.worker_crash`` fault) breaks the whole
  executor: every in-flight future raises
  :class:`~concurrent.futures.process.BrokenProcessPool`.  The pool
  catches :class:`~concurrent.futures.BrokenExecutor`, discards the
  poisoned executor (a fresh one respawns lazily on the next fan-out),
  and transparently retries the affected tasks **serially, once** — a
  crashed worker degrades throughput instead of failing requests.
  ``recoveries`` counts these events for stats.
* **Cancel-token propagation** — thread-mode tasks run under the
  submitting thread's active :class:`~repro.resilience.CancelToken`, so
  evaluator check-points fire inside pool workers too.  Process workers
  cannot share a token; the coordinating thread re-checks between
  map steps instead.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..resilience.faults import FaultPlan
from ..resilience.token import current_token, swap_token

SERIAL = "serial"
THREADS = "threads"
PROCESSES = "processes"

POOL_MODES = (SERIAL, THREADS, PROCESSES)


def default_worker_count() -> int:
    """Workers matched to the hardware: ``os.cpu_count()`` (at least 1)."""
    return os.cpu_count() or 1


def _die() -> None:
    # Fault-injection payload: kill this process-pool worker the way a
    # segfault or the OOM killer would — no exception, no cleanup — so
    # recovery is exercised against a genuine BrokenProcessPool.
    os._exit(1)


def _completed_future(fn: Callable[..., Any], args: Tuple[Any, ...]) -> "Future[Any]":
    future: "Future[Any]" = Future()
    try:
        future.set_result(fn(*args))
    except BaseException as exc:  # noqa: BLE001 — future carries it
        future.set_exception(exc)
    return future


class WorkerPool:
    """A lazily started task pool with an inline fast path.

    Parameters
    ----------
    max_workers:
        Worker budget.  Defaults to :func:`default_worker_count`; a budget
        of 1 collapses the pool to ``serial`` mode.
    mode:
        One of :data:`POOL_MODES`.  ``threads`` by default.
    fault_plan:
        Optional :class:`~repro.resilience.FaultPlan` consulted at the
        ``pool.worker_crash`` site before each fan-out.  Defaults to the
        plan in ``$REPRO_FAULTS`` so subprocess servers crash on cue; an
        empty plan is stored as ``None`` and costs nothing.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        mode: str = THREADS,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if mode not in POOL_MODES:
            raise ValueError(f"unknown pool mode {mode!r}; expected {POOL_MODES}")
        self._max_workers = max_workers if max_workers else default_worker_count()
        self._mode = SERIAL if self._max_workers <= 1 else mode
        self._executor: Optional[Executor] = None
        self._executor_lock = threading.Lock()
        self._local = threading.local()
        if fault_plan is None:
            fault_plan = FaultPlan.from_env()
        self._fault_plan = None if fault_plan.empty else fault_plan
        self._recoveries = 0

    # ------------------------------------------------------------------

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def max_workers(self) -> int:
        return self._max_workers

    @property
    def recoveries(self) -> int:
        """How many broken executors this pool has recovered from."""
        return self._recoveries

    @property
    def supports_closures(self) -> bool:
        """True when tasks need not be picklable (serial and thread modes)."""
        return self._mode != PROCESSES

    # ------------------------------------------------------------------

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """``[fn(t) for t in tasks]``, fanned out when it can help.

        Order is preserved.  Task lists of length ≤ 1 — and everything in
        serial mode — run inline without touching an executor.

        The pool is **re-entrancy safe**: a ``map`` issued from inside one
        of its own tasks runs inline on the calling worker thread.  Nested
        fan-out on one bounded executor would otherwise deadlock — every
        worker blocking on inner tasks no free worker can ever pick up
        (e.g. a batch member whose execution fans out a nested batch).
        """
        items = list(tasks)
        if (
            self._mode == SERIAL
            or len(items) <= 1
            or getattr(self._local, "in_task", False)
        ):
            return [fn(item) for item in items]
        try:
            self._inject_crash()
            return self._fan_out(fn, items)
        except BrokenExecutor:
            # A worker died and poisoned the executor.  Discard it (a
            # fresh pool respawns lazily on the next fan-out) and retry
            # this call's tasks serially, once: degraded throughput, not
            # a failed request.
            self._recover()
            return [fn(item) for item in items]

    def _fan_out(self, fn: Callable[[Any], Any], items: List[Any]) -> List[Any]:
        if self._mode == PROCESSES:
            # Process tasks are module-level, data-only functions (no
            # nested pool use), and the marker wrapper would not pickle.
            return list(self._ensure_executor().map(fn, items))

        token = current_token()

        def run(item: Any) -> Any:
            self._local.in_task = True
            previous = swap_token(token)
            try:
                return fn(item)
            finally:
                swap_token(previous)
                self._local.in_task = False

        return list(self._ensure_executor().map(run, items))

    def submit(self, fn: Callable[..., Any], *args: Any) -> "Future[Any]":
        """Schedule one task, returning its :class:`concurrent.futures.Future`.

        The single-task counterpart of :meth:`map` — this is what the
        async service front-end (:mod:`repro.service`) feeds its request
        queue into.  Serial mode (and a submit issued from inside one of
        the pool's own tasks — the same re-entrancy hazard ``map`` guards
        against) runs the task inline and returns an already-completed
        future, so callers can treat every mode uniformly.
        """
        if self._mode == SERIAL or getattr(self._local, "in_task", False):
            return _completed_future(fn, args)
        try:
            self._inject_crash()
            inner = self._submit_to_executor(fn, args)
        except BrokenExecutor:
            self._recover()
            return _completed_future(fn, args)
        if self._mode != PROCESSES:
            # Thread futures fail synchronously above or carry the task's
            # own exception; no deferred executor breakage to intercept.
            return inner
        return self._recovering_future(inner, fn, args)

    def _submit_to_executor(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> "Future[Any]":
        if self._mode == PROCESSES:
            return self._ensure_executor().submit(fn, *args)

        token = current_token()

        def run() -> Any:
            self._local.in_task = True
            previous = swap_token(token)
            try:
                return fn(*args)
            finally:
                swap_token(previous)
                self._local.in_task = False

        return self._ensure_executor().submit(run)

    def _recovering_future(
        self, inner: "Future[Any]", fn: Callable[..., Any], args: Tuple[Any, ...]
    ) -> "Future[Any]":
        # A process worker can die *after* submit succeeded, surfacing
        # BrokenProcessPool on the future instead of at the call site.
        # Mirror map()'s recovery there: respawn lazily, retry inline
        # once (on the executor's callback thread — only ever taken on
        # the post-crash path).
        outer: "Future[Any]" = Future()

        def _settle(done: "Future[Any]") -> None:
            exc = done.exception()
            if isinstance(exc, BrokenExecutor):
                self._recover()
                try:
                    outer.set_result(fn(*args))
                except BaseException as retry_exc:  # noqa: BLE001
                    outer.set_exception(retry_exc)
            elif exc is not None:
                outer.set_exception(exc)
            else:
                outer.set_result(done.result())

        inner.add_done_callback(_settle)
        return outer

    # ------------------------------------------------------------------

    def _inject_crash(self) -> None:
        """Honour a pending ``pool.worker_crash`` fault, if any."""
        if self._fault_plan is None:
            return
        fault = self._fault_plan.fire("pool.worker_crash")
        if fault is None:
            return
        if self._mode == PROCESSES:
            # Kill a real worker; the executor breaks and this call's
            # futures raise BrokenProcessPool once the death is noticed.
            self._ensure_executor().submit(_die)
        else:
            # Thread pools cannot lose a worker to a hard crash without
            # taking the whole process; simulate the executor-level
            # symptom the recovery path keys on.
            raise BrokenExecutor("injected worker crash (pool.worker_crash)")

    def _recover(self) -> None:
        with self._executor_lock:
            executor = self._executor
            self._executor = None
            self._recoveries += 1
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _ensure_executor(self) -> Executor:
        # Double-checked under a lock: one pool is shared by every thread
        # of the service's shared engine, and an unsynchronized
        # check-then-create would let two cold callers build two
        # executors, leaking the loser's worker threads for the process
        # lifetime.
        executor = self._executor
        if executor is None:
            with self._executor_lock:
                executor = self._executor
                if executor is None:
                    workers = self._max_workers
                    if self._mode == PROCESSES:
                        executor = ProcessPoolExecutor(max_workers=workers)
                    else:
                        executor = ThreadPoolExecutor(
                            max_workers=workers, thread_name_prefix="repro-worker"
                        )
                    self._executor = executor
        return executor

    # ------------------------------------------------------------------

    def close(self) -> None:
        """Shut the underlying executor down (idempotent)."""
        with self._executor_lock:
            executor = self._executor
            self._executor = None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def __repr__(self) -> str:
        started = "started" if self._executor is not None else "idle"
        return (
            f"WorkerPool(mode={self._mode!r}, "
            f"max_workers={self._max_workers}, {started})"
        )
